"""What the traced run wraps, and how its spans become per-layer metrics.

Every per-layer metric is reported for every workload; a layer the
workload never enters reads 0. Body metrics are per cycle of the timed body
(``self_ms``: a span's time minus its traced children), ``calls_per_step``
is counted inside ``trainer.train`` calls of one method and divided by their
effective steps, and ``setup.*`` metrics are per set-up unit of one traced
set-up.
"""

from __future__ import annotations

import os
import statistics

from tracer import Span, nearest_ancestor, roots, self_times

SETUP_SPAN = "bench.setup"
PASS_SPAN = "bench.pass"
METHODS = ("drrho-clip", "fastclip", "openclip", "jest")
RISK_FUNCTIONALS = ("cvar_topk", "softmax_weights", "kl_regularized_risk", "kl_constrained_risk", "chi2_dro_risk")
RISK_SIZES = (100, 1000, 10000)
CLI_COMMANDS = ("gen-data", "train", "ref-embed", "eval", "variance", "sweep")
LAYERS = ("trainer", "contrastive", "experiments", "baselines", "rng", "encoder", "data")


def _train_attrs(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"method": config.method, "steps": config.effective_steps}


def _file_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(str(path) + ".json")


def _vector_size(args, kwargs, result):
    return {"n": len(args[0])}


TARGETS = [
    ("drrho.trainer:train", _train_attrs),
    ("drrho.trainer:shifted_gap_exponentials", None),
    ("drrho.trainer:update_u", None),
    ("drrho.trainer:anchor_weight_coefficients", None),
    ("drrho.trainer:tau_gradient", None),
    ("drrho.trainer:gradient_estimator", None),
    ("drrho.trainer:optimizer_step", None),
    ("drrho.contrastive:global_objective", None),
    ("drrho.experiments:loss_variance", None),
    ("drrho.experiments:recall_at_1", None),
    ("drrho.experiments:data_efficiency_sweep", None),
    ("drrho.experiments:worker_count", lambda a, k, r: {"value": r}),
    ("drrho.baselines:infonce_grad_s", None),
    ("drrho.baselines:infonce_tau_gradient", None),
    ("drrho.baselines:jest_select", lambda a, k, r: {"super": len(r.super_batch), "kept": len(r.selected)}),
    ("drrho.rng:CounterRng.weighted_draws", None),
    ("drrho.rng:CounterRng.permutation", None),
    ("drrho.encoder:batch_forward", None),
    ("drrho.encoder:similarity_backward", None),
    ("drrho.data:EmbeddingCache.similarity", None),
    ("drrho.data:PairedDataset.content_hash", None),
    ("drrho.data:generate_synthetic", None),
    ("drrho.data:build_reference_cache", None),
    ("drrho.container:write_container", lambda a, k, r: {"bytes": _file_bytes(a[0] if a else k["path"])}),
    ("drrho.container:read_container", lambda a, k, r: {"bytes": _file_bytes(a[0] if a else k["path"])}),
    ("drrho.report:ExperimentReport.save_json", None),
    ("drrho.report:ExperimentReport.save_csv", None),
    ("drrho.cli:run", lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]}),
] + [(f"drrho.risk:{name}", _vector_size) for name in RISK_FUNCTIONALS]

SELF_MS = (
    "trainer.shifted_gap_exponentials",
    "trainer.update_u",
    "trainer.anchor_weight_coefficients",
    "trainer.tau_gradient",
    "trainer.gradient_estimator",
    "trainer.optimizer_step",
    "contrastive.global_objective",
    "experiments.loss_variance",
    "experiments.recall_at_1",
    "baselines.infonce_grad_s",
    "baselines.jest_select",
    "rng.CounterRng.weighted_draws",
    "rng.CounterRng.permutation",
    "encoder.batch_forward",
    "encoder.similarity_backward",
    "data.EmbeddingCache.similarity",
    "data.PairedDataset.content_hash",
    "data.generate_synthetic",
    "data.build_reference_cache",
    "container.write_container",
    "container.read_container",
    "report.ExperimentReport.save_json",
    "report.ExperimentReport.save_csv",
)
CALLS_PER_STEP = (
    "trainer.shifted_gap_exponentials",
    "baselines.infonce_grad_s",
    "encoder.batch_forward",
    "data.EmbeddingCache.similarity",
)
SETUP_SELF_MS = ("data.generate_synthetic", "data.build_reference_cache", "data.PairedDataset.content_hash")


def cycle_time(times: list[float], kinds: int) -> float:
    """Time of one cycle of passes: the sum over pass kinds of the median
    time of the passes of that kind (pass ``i`` is of kind ``i % kinds``)."""
    return sum(statistics.median(times[k::kinds]) for k in range(kinds))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF_MS:
        units[f"{name}.self_ms"] = "ms"
    for name in CALLS_PER_STEP:
        for method in METHODS:
            units[f"{name}.calls_per_step.{method}"] = "count"
    units["trainer.train.self_ms_per_step"] = "ms"
    units["contrastive.global_objective.calls"] = "count"
    units["data.PairedDataset.content_hash.calls"] = "count"
    units["experiments.data_efficiency_sweep.ms"] = "ms"
    units["experiments.worker_count.value"] = "count"
    units["baselines.jest.kept_ratio"] = "ratio"
    units["container.write_container.bytes"] = "B"
    units["container.read_container.bytes"] = "B"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.ms"] = "ms"
    for name in RISK_FUNCTIONALS:
        for n in RISK_SIZES:
            units[f"risk.{name}.n{n}.ms_per_call"] = "ms"
    for layer in LAYERS:
        units[f"drrho-clip.{layer}.self_ms"] = "ms"
    for name in SETUP_SELF_MS:
        units[f"setup.{name}.self_ms"] = "ms"
    units["setup.trainer.train.ms"] = "ms"
    units["tracer.overhead_pct"] = "%"
    units["tracer.missing"] = "count"
    units["tracer.spans_per_cycle"] = "count"
    return units


def derive(
    spans: list[Span], missing: list[str], untraced_cycle_s: float, setup_units: int = 1, kinds: int = 1
) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set-up (of
    ``setup_units`` units) and the whole cycles of ``kinds`` traced passes
    after it."""
    selves = self_times(spans)
    root = roots(spans)
    train_of = nearest_ancestor(spans, lambda s: s.name == "trainer.train")
    passes = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == PASS_SPAN]
    n_cycle = max(1, len(passes) // kinds)
    in_body = [spans[root[i]].name == PASS_SPAN for i in range(len(spans))]
    in_setup = [spans[root[i]].name == SETUP_SPAN for i in range(len(spans))]
    out = {name: 0.0 for name in metric_units()}

    steps = {m: 0 for m in METHODS}
    calls = {(name, m): 0 for name in CALLS_PER_STEP for m in METHODS}
    for i, s in enumerate(spans):
        if not in_body[i]:
            if in_setup[i]:
                if s.name in SETUP_SELF_MS:
                    out[f"setup.{s.name}.self_ms"] += 1e3 * selves[i] / setup_units
                elif s.name == "trainer.train":
                    out["setup.trainer.train.ms"] += 1e3 * s.duration / setup_units
            continue
        if s.name in SELF_MS:
            out[f"{s.name}.self_ms"] += 1e3 * selves[i] / n_cycle
        if s.name == "trainer.train" and s.attrs.get("method") in steps:
            steps[s.attrs["method"]] += s.attrs["steps"]
            out["trainer.train.self_ms_per_step"] += 1e3 * selves[i]
        t = train_of[i]
        method = spans[t].attrs.get("method") if t >= 0 else None
        if method in steps and s.name in CALLS_PER_STEP:
            calls[(s.name, method)] += 1
        if method == "drrho-clip" or (s.name == "trainer.train" and s.attrs.get("method") == "drrho-clip"):
            layer = s.name.split(".")[0]
            if layer in LAYERS:
                out[f"drrho-clip.{layer}.self_ms"] += 1e3 * selves[i] / n_cycle
        if s.name == "contrastive.global_objective":
            out["contrastive.global_objective.calls"] += 1 / n_cycle
        elif s.name == "data.PairedDataset.content_hash":
            out["data.PairedDataset.content_hash.calls"] += 1 / n_cycle
        elif s.name == "experiments.data_efficiency_sweep":
            out["experiments.data_efficiency_sweep.ms"] += 1e3 * s.duration / n_cycle
        elif s.name == "experiments.worker_count" and "value" in s.attrs:
            out["experiments.worker_count.value"] = s.attrs["value"]
        elif s.name in ("container.write_container", "container.read_container"):
            out[f"{s.name}.bytes"] += s.attrs.get("bytes", 0) / n_cycle
        elif s.name == "cli.run":
            command = s.attrs.get("command")
            if command in CLI_COMMANDS:
                out[f"cli.{command}.ms"] += 1e3 * s.duration / n_cycle

    total_steps = sum(steps.values())
    if total_steps:
        out["trainer.train.self_ms_per_step"] /= total_steps
    for (name, method), count in calls.items():
        if steps[method]:
            out[f"{name}.calls_per_step.{method}"] = count / steps[method]

    kept = [s.attrs for i, s in enumerate(spans) if in_body[i] and s.name == "baselines.jest_select" and "kept" in s.attrs]
    if kept:
        out["baselines.jest.kept_ratio"] = sum(a["kept"] for a in kept) / sum(a["super"] for a in kept)

    for name in RISK_FUNCTIONALS:
        for n in RISK_SIZES:
            durations = [
                s.duration for i, s in enumerate(spans)
                if in_body[i] and s.name == f"risk.{name}" and s.attrs.get("n") == n
            ]
            if durations:
                out[f"risk.{name}.n{n}.ms_per_call"] = 1e3 * sum(durations) / len(durations)

    if len(passes) >= kinds and untraced_cycle_s > 0:
        traced_cycle_s = cycle_time([spans[i].duration for i in passes], kinds)
        out["tracer.overhead_pct"] = 100.0 * (traced_cycle_s - untraced_cycle_s) / untraced_cycle_s
    out["tracer.missing"] = len(missing)
    out["tracer.spans_per_cycle"] = sum(in_body) / n_cycle
    return out
