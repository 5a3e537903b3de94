"""Command-line front end for reproducible runs.

Subcommands: gen-data, ref-embed, train, eval, variance, sweep,
scaling-fit. Every command echoes its fully resolved configuration into
the report it writes, validation failures name the offending field and
exit 1, and usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from pathlib import Path

from . import data, encoder, experiments, trainer
from .errors import ConfigError, DrrhoError
from .report import ExperimentReport

METHOD_CHOICES = list(trainer.METHODS)
_CONFIG_FIELDS = {f.name for f in fields(trainer.TrainConfig)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drrho", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--d-x", type=int, default=24)
    p.add_argument("--d-y", type=int, default=20)
    p.add_argument("--d-latent", type=int, default=6)
    p.add_argument("--noise-sigma", type=float, default=0.25)
    p.add_argument("--test-fraction", type=float, default=0.125)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="dataset file to write (.dpd)")

    p = sub.add_parser("ref-embed", help="build the offline reference-embedding cache")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="reference model checkpoint (.ckpt)")
    p.add_argument("--output", required=True, help="cache file to write (.emb)")

    # Each run flag's dest is its TrainConfig field, and a flag left out is
    # left out of the namespace, so TrainConfig holds the defaults.
    p = sub.add_parser(
        "train", help="train a model with the chosen method", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ref", default=None, help="reference cache (.emb)")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--learnable-tau", dest="tau_learnable", action="store_true")
    p.add_argument("--fixed-tau", dest="tau_learnable", action="store_false")
    p.add_argument("--tau-init", type=float)
    p.add_argument("--rho", dest="rho_tau", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--distill", action="store_true")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--ratio", dest="jest_ratio", type=float)
    p.add_argument("--n-chunks", dest="jest_chunks", type=int)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--plot-data", action="store_true", default=False, help="also emit per-metric (x, y) CSVs")

    p = sub.add_parser("eval", help="retrieval accuracy of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["test", "train"], default="test")
    p.add_argument("--output", required=True)

    p = sub.add_parser("variance", help="per-anchor loss variance, plain and shifted")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ref", default=None)
    p.add_argument("--subset", type=int, default=128)
    p.add_argument("--output", required=True)

    p = sub.add_parser("sweep", help="data-efficiency sweep over training fractions")
    p.add_argument("--data", required=True)
    p.add_argument("--ref", default=None)
    p.add_argument("--methods", default="drrho-clip,fastclip")
    p.add_argument("--fractions", default="1.0,0.75,0.5")
    p.add_argument("--seeds", default="0")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    p.add_argument("--embed-dim", type=int, default=argparse.SUPPRESS)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--output", required=True)

    p = sub.add_parser("scaling-fit", help="fit error = alpha * compute^beta to a CSV")
    p.add_argument("points", help="CSV with 'compute' and 'error' columns")
    p.add_argument("--output", default=None, help="optional report path")
    return parser


def _write_report(report: ExperimentReport, out_dir: Path, plot_data: bool = False) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save_json(out_dir / "report.json")
    report.save_csv(out_dir / "series.csv")
    if plot_data:
        report.write_plot_data(out_dir / "plot-data")


def _cmd_gen_data(args) -> int:
    dataset = data.generate_synthetic(
        n=args.n,
        d_x=args.d_x,
        d_y=args.d_y,
        d_latent=args.d_latent,
        noise_sigma=args.noise_sigma,
        test_fraction=args.test_fraction,
        seed=args.seed,
    )
    data.save_dataset(dataset, args.output)
    print(f"wrote {args.output} ({dataset.n} pairs, hash {dataset.content_hash()[:12]})")
    return 0


def _cmd_ref_embed(args) -> int:
    dataset = data.load_dataset(args.data)
    model = encoder.load_model(args.model)
    cache = data.build_reference_cache(dataset, model)
    data.save_cache(cache, args.output)
    print(f"wrote {args.output} (source {cache.source_id})")
    return 0


def _train_config(args) -> trainer.TrainConfig:
    """The run config from the flags given; TrainConfig supplies the rest."""
    return trainer.TrainConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})


def _cmd_train(args) -> int:
    dataset = data.load_dataset(args.data)
    cache = data.load_cache(args.ref) if args.ref else None
    config = _train_config(args)
    state, report = trainer.train(config, dataset, cache)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoder.save_model(state.model, out_dir / "model.ckpt")
    trainer.save_checkpoint(state, out_dir / "trainer.ckpt")
    _write_report(report, out_dir, plot_data=args.plot_data)
    summary = report.summary
    print(f"resolved config: {config.resolved()}")
    for metric in sorted(summary):
        print(f"{metric}: {summary[metric]:.6f}")
    return 0


def _cmd_eval(args) -> int:
    dataset = data.load_dataset(args.data)
    model = encoder.load_model(args.model)
    indices = dataset.test_indices if args.split == "test" else dataset.train_indices
    recall = experiments.evaluate_recall(model, dataset, indices)
    report = ExperimentReport(
        config_snapshot={"command": "eval", "model": str(args.model), "split": args.split},
        provenance={"dataset_hash": dataset.content_hash(), "model_id": model.id_hash},
    )
    report.add(0, "recall_at_1", recall)
    _write_report(report, Path(args.output))
    print(f"recall_at_1[{args.split}]: {recall:.6f}")
    return 0


def _cmd_variance(args) -> int:
    if args.subset < 3:
        raise ConfigError(f"subset: need at least 3 anchors, got {args.subset}")
    dataset = data.load_dataset(args.data)
    model = encoder.load_model(args.model)
    cache = data.load_cache(args.ref) if args.ref else None
    anchors = dataset.train_indices[: args.subset]
    fwd = encoder.batch_forward(model, dataset.xs[anchors], dataset.ys[anchors])
    plain = experiments.loss_variance(fwd.s)
    report = ExperimentReport(
        config_snapshot={"command": "variance", "subset": int(len(anchors))},
        provenance={"dataset_hash": dataset.content_hash(), "model_id": model.id_hash},
    )
    report.add(0, "plain_variance_image", plain.image_mean)
    report.add(0, "plain_variance_text", plain.text_mean)
    print(f"plain variance image/text: {plain.image_mean:.6e} / {plain.text_mean:.6e}")
    if cache is not None:
        s_ref = cache.similarity(anchors)
        shifted = experiments.loss_variance(fwd.s, s_ref)
        report.add(0, "rho_variance_image", shifted.image_mean)
        report.add(0, "rho_variance_text", shifted.text_mean)
        print(f"shifted variance image/text: {shifted.image_mean:.6e} / {shifted.text_mean:.6e}")
    _write_report(report, Path(args.output))
    return 0


def _cmd_sweep(args) -> int:
    dataset = data.load_dataset(args.data)
    cache = data.load_cache(args.ref) if args.ref else None
    report = experiments.data_efficiency_sweep(
        _train_config(args),
        dataset,
        cache,
        fractions=[float(f) for f in args.fractions.split(",")],
        methods=args.methods.split(","),
        seeds=[int(s) for s in args.seeds.split(",")],
    )
    _write_report(report, Path(args.output))
    for row in report.config_snapshot["rows"]:
        print(f"{row['method']:>12} frac={row['fraction']:<5} recall_at_1={row['recall_at_1']:.4f}")
    return 0


def _cmd_scaling_fit(args) -> int:
    points = []
    with open(args.points, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not {"compute", "error"} <= set(reader.fieldnames):
            raise DrrhoError("points: CSV must carry 'compute' and 'error' columns")
        for row in reader:
            if row["compute"] is None or row["error"] is None:
                raise DrrhoError(f"points: line {reader.line_num} lacks a compute or error value")
            points.append(experiments.ScalingPoint(float(row["compute"]), float(row["error"])))
    alpha, beta, residual = experiments.fit_scaling_law(points)
    print(f"alpha: {alpha:.9g}")
    print(f"beta: {beta:.9g}")
    print(f"residual: {residual:.9g}")
    if args.output:
        report = ExperimentReport(config_snapshot={"command": "scaling-fit", "points": str(args.points)})
        report.add(0, "alpha", alpha)
        report.add(0, "beta", beta)
        report.add(0, "residual", residual)
        _write_report(report, Path(args.output))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "ref-embed": _cmd_ref_embed,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "variance": _cmd_variance,
    "sweep": _cmd_sweep,
    "scaling-fit": _cmd_scaling_fit,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DrrhoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
