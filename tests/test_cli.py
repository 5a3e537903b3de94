"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drrho import cli, container, data, encoder, experiments, trainer


def _gen(tmp_path, seed=0, n=96):
    path = tmp_path / "d.dpd"
    rc = cli.run(
        [
            "gen-data",
            "--n", str(n),
            "--d-x", "12",
            "--d-y", "10",
            "--d-latent", "4",
            "--noise-sigma", "0.25",
            "--test-fraction", "0.25",
            "--seed", str(seed),
            "--output", str(path),
        ]
    )
    assert rc == 0
    return path


def _make_cache(tmp_path, data_path):
    ds = data.load_dataset(data_path)
    model = encoder.init_model(6, ds.d_x, ds.d_y, seed=99)
    ckpt = tmp_path / "ref.ckpt"
    encoder.save_model(model, ckpt)
    cache_path = tmp_path / "c.emb"
    rc = cli.run(["ref-embed", "--data", str(data_path), "--model", str(ckpt), "--output", str(cache_path)])
    assert rc == 0
    return cache_path


def test_gen_data_round_trip(tmp_path):
    path = _gen(tmp_path)
    ds = data.load_dataset(path)
    assert ds.n == 96
    again = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=0)
    assert ds.content_hash() == again.content_hash()


# Every file `drrho train` writes without --plot-data.
_RUN_FILES = {"model.ckpt", "model.ckpt.json", "report.json", "series.csv"}


# A JEST step draws a super batch of batch / 0.2 pairs from the 72-pair pool.
@pytest.mark.parametrize(
    "method, batch",
    [pytest.param("drrho-clip", 16, id="drrho-clip"), pytest.param("jest", 12, id="jest"),
     pytest.param("jest-topk", 12, id="jest-topk")],
)
def test_train_repeat_is_bit_identical(tmp_path, method, batch):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    args = [
        "train",
        "--method", method,
        "--data", str(data_path),
        "--ref", str(cache_path),
        "--steps", "15",
        "--batch-size", str(batch),
        "--embed-dim", "6",
        "--seed", "7",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(args + ["--output", str(out_a)]) == 0
    assert cli.run(args + ["--output", str(out_b)]) == 0
    assert {p.name for p in out_a.iterdir()} == {p.name for p in out_b.iterdir()} == _RUN_FILES
    for name in _RUN_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def _readme_sequence(out: Path, env: dict) -> dict[str, bytes]:
    """Every file a small README command sequence writes, each command run as
    ``python -m drrho.cli`` in a child process with ``env``."""
    out.mkdir()
    pool, cache = out / "pool.dpd", out / "pool.emb"
    train = ["train", "--data", pool, "--ref", cache, "--steps", "6", "--embed-dim", "8", "--seed", "0"]
    commands = [
        ["gen-data", "--n", "320", "--d-x", "24", "--d-y", "20", "--d-latent", "4", "--noise-sigma", "0.3",
         "--test-fraction", "0.2", "--seed", "0", "--output", pool],
        ["train", "--method", "fastclip", "--data", pool, "--steps", "20", "--batch-size", "64",
         "--embed-dim", "8", "--seed", "1000", "--output", out / "ref-run"],
        ["ref-embed", "--data", pool, "--model", out / "ref-run" / "model.ckpt", "--output", cache],
        *([*train, "--method", m, "--batch-size", "48", "--output", out / m] for m in ("drrho-clip", "openclip", "jest")),
        [*train, "--method", "drrho-clip", "--batch-size", "256", "--output", out / "b256"],
        ["sweep", "--data", pool, "--ref", cache, "--fractions", "1.0,0.5", "--steps", "6", "--batch-size", "48",
         "--output", out / "sweep"],
    ]
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "drrho.cli", *map(str, command)], capture_output=True, text=True, timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_are_bit_identical_across_blas_and_worker_thread_counts(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for name in ("OPENBLAS_NUM_THREADS", "DRRHO_THREADS"):
        env.pop(name, None)
    default = _readme_sequence(tmp_path / "default", env)
    assert {"b256/model.ckpt", "jest/series.csv", "sweep/report.json", "ref-run/model.ckpt.json"} <= set(default)
    one_blas = _readme_sequence(tmp_path / "blas1", {**env, "OPENBLAS_NUM_THREADS": "1"})
    assert one_blas == default
    serial = _readme_sequence(tmp_path / "serial", {**env, "OPENBLAS_NUM_THREADS": "1", "DRRHO_THREADS": "1"})
    assert serial == default


def test_train_all_methods_smoke(tmp_path):
    data_path = _gen(tmp_path, n=160)
    cache_path = _make_cache(tmp_path, data_path)
    for method in ("openclip", "fastclip", "jest", "jest-topk"):
        out = tmp_path / f"run-{method}"
        rc = cli.run(
            [
                "train",
                "--method", method,
                "--data", str(data_path),
                "--ref", str(cache_path),
                "--steps", "6",
                "--batch-size", "12",
                "--embed-dim", "4",
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert (out / "report.json").exists()


def test_train_distill_smoke(tmp_path):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    rc = cli.run(
        [
            "train",
            "--method", "fastclip",
            "--data", str(data_path),
            "--ref", str(cache_path),
            "--distill",
            "--lambda", "0.25",
            "--steps", "6",
            "--batch-size", "16",
            "--embed-dim", "4",
            "--output", str(tmp_path / "distill"),
        ]
    )
    assert rc == 0


def test_train_flags_land_in_config_and_defaults_come_from_train_config(tmp_path):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    common = ["train", "--data", str(data_path), "--ref", str(cache_path)]
    flags = {
        "--steps": ("steps", 3),
        "--batch-size": ("batch_size", 8),
        "--embed-dim": ("embed_dim", 4),
        "--lr": ("lr", 0.003),
        "--tau": ("tau", 0.02),
        "--rho": ("rho_tau", 5.0),
        "--gamma": ("gamma", 0.5),
        "--epsilon": ("epsilon", 1e-6),
        "--lambda": ("lam", 0.4),
        "--ratio": ("jest_ratio", 0.25),
        "--n-chunks": ("jest_chunks", 3),
        "--train-fraction": ("train_fraction", 0.9),
        "--seed": ("seed", 3),
    }
    argv = common + ["--method", "jest", "--fixed-tau", "--distill", "--output", str(tmp_path / "set")]
    for flag, (_, value) in flags.items():
        argv += [flag, str(value)]
    assert cli.run(argv) == 0
    config = json.loads((tmp_path / "set" / "report.json").read_text())["config"]
    want = {name: value for name, value in flags.values()}
    want.update(method="jest", tau_learnable=False, distill=True)
    assert {name: config[name] for name in want} == want
    assert all(value != getattr(trainer.TrainConfig(), name) for name, value in want.items())

    assert cli.run(common + ["--method", "drrho-clip", "--output", str(tmp_path / "default")]) == 0
    config = json.loads((tmp_path / "default" / "report.json").read_text())["config"]
    assert config == trainer.TrainConfig().resolved()


def test_parser_is_built_once_and_carries_nothing_between_runs(tmp_path):
    """A flag given to one run does not reach the next run of the process:
    its report equals that of a process running only the second command."""
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    args = ["train", "--method", "drrho-clip", "--data", str(data_path), "--ref", str(cache_path),
            "--steps", "3", "--batch-size", "8", "--embed-dim", "4"]
    assert cli.run([*args, "--learnable-tau", "--output", str(tmp_path / "flag")]) == 0
    assert cli.run([*args, "--output", str(tmp_path / "after")]) == 0
    assert cli.build_parser() is cli.build_parser()
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from drrho import cli; sys.exit(cli.run(sys.argv[1:]))",
         *args, "--output", str(tmp_path / "alone")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    after = (tmp_path / "after" / "report.json").read_bytes()
    assert after == (tmp_path / "alone" / "report.json").read_bytes()
    assert after != (tmp_path / "flag" / "report.json").read_bytes()


def test_unknown_method_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.run(["train", "--method", "bogus", "--data", "x", "--output", "y"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_config_error_exits_1_naming_field(tmp_path, capsys):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    rc = cli.run(
        [
            "train",
            "--method", "drrho-clip",
            "--data", str(data_path),
            "--ref", str(cache_path),
            "--gamma", "0.0",
            "--output", str(tmp_path / "bad"),
        ]
    )
    assert rc == 1
    assert "gamma" in capsys.readouterr().err


def test_gen_data_seed_that_could_wrap_exits_1_naming_field(tmp_path, capsys):
    rc = cli.run(["gen-data", "--n", "16", "--seed", str(2**63), "--output", str(tmp_path / "d.dpd")])
    assert rc == 1
    assert "seed:" in capsys.readouterr().err
    assert not (tmp_path / "d.dpd").exists()


def test_overflowing_update_exits_1_naming_step_2(tmp_path, capsys):
    # Step 1 leaves the weights finite but huge; step 2's update overflows.
    data_path = _gen(tmp_path)
    argv = ["train", "--method", "openclip", "--data", str(data_path), "--lr", "1e308", "--batch-size", "16"]
    rc = cli.run(argv + ["--output", str(tmp_path / "run")])
    assert rc == 1
    assert re.search(r"^error: step 2: non-finite 'w1' after the update", capsys.readouterr().err, re.M)


def test_more_jest_chunks_than_selected_pairs_exits_1_naming_field(tmp_path, capsys):
    data_path = _gen(tmp_path, n=160)  # a 120-pair pool fills the 80-pair super batches
    cache_path = _make_cache(tmp_path, data_path)
    argv = ["train", "--method", "jest", "--data", str(data_path), "--ref", str(cache_path), "--steps", "2"]
    rc = cli.run(argv + ["--batch-size", "16", "--n-chunks", "17", "--output", str(tmp_path / "run")])
    assert rc == 1
    assert "jest_chunks:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, field", [(["--ratio", "5e-324"], "jest_ratio"), (["--steps", "1" + "0" * 400], "steps")])
def test_jest_count_that_would_overflow_exits_1_naming_field(tmp_path, capsys, flags, field):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    argv = ["train", "--method", "jest", "--data", str(data_path), "--ref", str(cache_path), "--batch-size", "8"]
    assert cli.run(argv + flags + ["--output", str(tmp_path / "run")]) == 1
    assert re.search(f"^error: {field}: invalid value ", capsys.readouterr().err, re.M)
    assert not (tmp_path / "run").exists()


def test_missing_reference_exits_1(tmp_path, capsys):
    data_path = _gen(tmp_path)
    rc = cli.run(
        [
            "train",
            "--method", "drrho-clip",
            "--data", str(data_path),
            "--steps", "4",
            "--output", str(tmp_path / "noref"),
        ]
    )
    assert rc == 1
    assert "reference" in capsys.readouterr().err


def test_tau_init_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.run(["train", "--method", "fastclip", "--data", "x", "--tau-init", "0.05", "--output", "y"])
    assert exc.value.code == 2


@pytest.mark.parametrize("learned", [True, False], ids=["learned-tau", "fixed-tau"])
def test_report_config_reruns_its_run_from_its_start_temperature(tmp_path, learned):
    """A report's config, cut to the TrainConfig fields, is the run: it
    starts the model at the recorded tau and retrains the same model file."""
    data_path = _gen(tmp_path)
    argv = ["train", "--method", "fastclip", "--data", str(data_path), "--tau", "0.05", "--steps", "3",
            "--batch-size", "16", "--embed-dim", "4", "--learnable-tau" if learned else "--fixed-tau"]
    assert cli.run(argv + ["--output", str(tmp_path / "run")]) == 0
    recorded = json.loads((tmp_path / "run" / "report.json").read_text())["config"]
    assert recorded["tau"] == 0.05 and recorded["tau_learnable"] is learned
    config = trainer.TrainConfig(**{k: v for k, v in recorded.items() if k in cli._CONFIG_FIELDS})
    ds = data.load_dataset(data_path)
    assert trainer.start_run(config, ds).state.model.tau == recorded["tau"]
    state, _ = trainer.train(config, ds)
    encoder.save_model(state.model, tmp_path / "again.ckpt")
    for suffix in ("", ".json"):
        again = (tmp_path / f"again.ckpt{suffix}").read_bytes()
        assert again == (tmp_path / "run" / f"model.ckpt{suffix}").read_bytes()


def test_eval_report_is_the_same_from_any_model_directory(tmp_path):
    data_path = _gen(tmp_path)
    ds = data.load_dataset(data_path)
    encoder.save_model(encoder.init_model(6, ds.d_x, ds.d_y, seed=5), tmp_path / "m.ckpt")
    reports = []
    for where in ("a", "b/c"):
        (tmp_path / where).mkdir(parents=True)
        for suffix in ("", ".json"):
            shutil.copy(tmp_path / f"m.ckpt{suffix}", tmp_path / where / f"m.ckpt{suffix}")
        out = tmp_path / where / "eval"
        assert cli.run(["eval", "--model", str(tmp_path / where / "m.ckpt"), "--data", str(data_path),
                        "--output", str(out)]) == 0
        reports.append([(out / name).read_bytes() for name in ("report.json", "series.csv")])
    assert reports[0] == reports[1]


def test_eval_and_variance_commands(tmp_path, capsys):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    out = tmp_path / "run"
    cli.run(
        [
            "train",
            "--method", "fastclip",
            "--data", str(data_path),
            "--steps", "10",
            "--batch-size", "16",
            "--embed-dim", "6",
            "--output", str(out),
        ]
    )
    rc = cli.run(
        ["eval", "--model", str(out / "model.ckpt"), "--data", str(data_path), "--output", str(tmp_path / "ev")]
    )
    assert rc == 0
    assert "recall_at_1" in capsys.readouterr().out
    rc = cli.run(
        [
            "variance",
            "--model", str(out / "model.ckpt"),
            "--data", str(data_path),
            "--ref", str(cache_path),
            "--output", str(tmp_path / "var"),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "plain variance" in captured and "shifted variance" in captured
    summary = json.loads((tmp_path / "var" / "report.json").read_text())["summary"]
    plain, shifted = experiments.train_pairs_variance(
        encoder.load_model(out / "model.ckpt"), data.load_dataset(data_path), 128, data.load_cache(cache_path)
    )
    assert summary == {
        "plain_variance_image": plain.image_mean, "plain_variance_text": plain.text_mean,
        "rho_variance_image": shifted.image_mean, "rho_variance_text": shifted.text_mean,
    }


def test_variance_subset_beyond_the_train_split_measures_the_whole_split(tmp_path):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    argv = ["variance", "--model", str(model_path), "--data", str(data_path), "--ref", str(cache_path)]
    assert cli.run(argv + ["--subset", "1000", "--output", str(tmp_path / "var")]) == 0
    report = json.loads((tmp_path / "var" / "report.json").read_text())
    ds = data.load_dataset(data_path)
    split = len(ds.train_indices)
    assert split == 72 and report["config"]["subset"] == split
    plain, shifted = experiments.train_pairs_variance(
        encoder.load_model(model_path), ds, split, data.load_cache(cache_path)
    )
    assert report["summary"] == {
        "plain_variance_image": plain.image_mean, "plain_variance_text": plain.text_mean,
        "rho_variance_image": shifted.image_mean, "rho_variance_text": shifted.text_mean,
    }


def test_sweep_command(tmp_path, capsys):
    data_path = _gen(tmp_path, n=160)
    rc = cli.run(
        [
            "sweep",
            "--data", str(data_path),
            "--methods", "fastclip",
            "--fractions", "1.0,0.5",
            "--steps", "8",
            "--batch-size", "12",
            "--embed-dim", "4",
            "--output", str(tmp_path / "sweep"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "sweep" / "report.json").exists()


def test_scaling_fit_command(tmp_path, capsys):
    path = tmp_path / "points.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["compute", "error"])
        for c in (1e4, 1e5, 1e6):
            writer.writerow([c, 2.0 * c**-0.1])
    rc = cli.run(["scaling-fit", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    alpha = float(out.split("alpha:")[1].split()[0])
    beta = float(out.split("beta:")[1].split()[0])
    pts = [experiments.ScalingPoint(c, 2.0 * c**-0.1) for c in (1e4, 1e5, 1e6)]
    want_alpha, want_beta, _ = experiments.fit_scaling_law(pts)
    assert alpha == pytest.approx(want_alpha, rel=1e-6)
    assert beta == pytest.approx(want_beta, rel=1e-6)


def test_scaling_fit_bad_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    rc = cli.run(["scaling-fit", str(path)])
    assert rc == 1


def test_scaling_fit_short_row_exits_1_naming_points(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("compute,error\n10\n")
    assert cli.run(["scaling-fit", str(path)]) == 1
    err = capsys.readouterr().err
    assert "points" in err and "line 2" in err


def test_scaling_fit_non_numeric_cell_exits_1_naming_points(tmp_path, capsys):
    path = tmp_path / "abc.csv"
    path.write_text("compute,error\n1e4,0.5\nabc,0.4\n")
    assert cli.run(["scaling-fit", str(path)]) == 1
    err = capsys.readouterr().err
    assert "points" in err and "line 3" in err


@pytest.mark.parametrize("cells", ["inf,0.4", "1e5,nan", "-inf,0.4"])
def test_scaling_fit_non_finite_cell_exits_1_naming_points(tmp_path, capfd, cells):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"compute,error\n1e4,0.5\n{cells}\n")
    assert cli.run(["scaling-fit", str(path)]) == 1
    err = capfd.readouterr().err  # fd 2, where LAPACK would print DLASCL complaints
    assert err.startswith("error: points: line 3") and "DLASCL" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [("--fractions", "1.0,abc"), ("--seeds", "0,x")])
def test_sweep_non_numeric_list_exits_1_naming_field(tmp_path, capsys, flag, value):
    data_path = _gen(tmp_path)
    argv = ["sweep", "--data", str(data_path), "--methods", "fastclip", flag, value]
    assert cli.run(argv + ["--output", str(tmp_path / "sweep")]) == 1
    assert flag[2:] in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--methods", "fastclip,fastclip"), ("--fractions", "1.0,1.0"), ("--seeds", "0,0")]
)
def test_sweep_repeated_list_entry_exits_1_naming_field(tmp_path, capsys, flag, value):
    data_path = _gen(tmp_path)
    argv = ["sweep", "--data", str(data_path), "--methods", "fastclip", "--fractions", "1.0", flag, value]
    assert cli.run(argv + ["--steps", "4", "--batch-size", "8", "--output", str(tmp_path / "sweep")]) == 1
    assert f"{flag[2:]}:" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("n_data, n_cache", [(64, 32), (96, 96)], ids=["other-size", "same-size"])
def test_variance_cache_of_other_dataset_exits_1_naming_cache(tmp_path, capsys, n_data, n_cache):
    (tmp_path / "d0").mkdir()
    (tmp_path / "d1").mkdir()
    data_path = _gen(tmp_path / "d0", seed=0, n=n_data)
    cache_path = _make_cache(tmp_path / "d1", _gen(tmp_path / "d1", seed=1, n=n_cache))
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    argv = ["variance", "--model", str(model_path), "--data", str(data_path), "--ref", str(cache_path)]
    assert cli.run(argv + ["--subset", "48", "--output", str(tmp_path / "var")]) == 1
    assert "cache:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_data_non_finite_noise_exits_1_naming_field(tmp_path, capsys, value):
    path = tmp_path / "d.dpd"
    assert cli.run(["gen-data", "--noise-sigma", value, "--output", str(path)]) == 1
    assert "noise_sigma" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize(
    "flags, field",
    [(["--tau", "inf", "--fixed-tau"], "tau"), (["--epsilon", "inf"], "epsilon"), (["--rho", "inf"], "rho_tau")],
)
def test_train_non_finite_setting_exits_1_naming_field(tmp_path, capsys, flags, field):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    argv = ["train", "--method", "drrho-clip", "--data", str(data_path), "--ref", str(cache_path), *flags]
    assert cli.run(argv + ["--steps", "4", "--output", str(tmp_path / "run")]) == 1
    assert f"{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("subset", ["-5", "0", "2"])
def test_variance_subset_below_three_exits_1(tmp_path, capsys, subset):
    data_path = _gen(tmp_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    argv = ["variance", "--model", str(model_path), "--data", str(data_path), "--subset", subset]
    assert cli.run(argv + ["--output", str(tmp_path / "var")]) == 1
    assert "subset" in capsys.readouterr().err


def test_variance_on_a_train_split_under_three_pairs_exits_1_naming_data(tmp_path, capsys):
    data_path = tmp_path / "d.dpd"
    assert cli.run(["gen-data", "--n", "8", "--test-fraction", "0.9", "--output", str(data_path)]) == 0
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 24, 20, seed=1), model_path)
    argv = ["variance", "--model", str(model_path), "--data", str(data_path)]
    assert cli.run(argv + ["--output", str(tmp_path / "var")]) == 1
    assert "data:" in capsys.readouterr().err


@pytest.mark.parametrize("test_fraction, split", [("0.1", "test"), ("0.9", "train")])
def test_eval_on_a_split_under_two_pairs_exits_1_naming_split(tmp_path, capsys, test_fraction, split):
    data_path = tmp_path / "d.dpd"
    assert cli.run(["gen-data", "--n", "8", "--test-fraction", test_fraction, "--output", str(data_path)]) == 0
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 24, 20, seed=1), model_path)
    argv = ["eval", "--model", str(model_path), "--data", str(data_path), "--split", split]
    assert cli.run(argv + ["--output", str(tmp_path / "ev")]) == 1
    assert "split:" in capsys.readouterr().err


def test_mistyped_cache_meta_exits_1_naming_field(tmp_path, capsys):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    mpath = container.manifest_path(cache_path)
    manifest = json.loads(mpath.read_text())
    manifest["meta"]["source_tau"] = [0.07]
    mpath.write_text(json.dumps(manifest))
    argv = ["variance", "--model", str(model_path), "--data", str(data_path), "--ref", str(cache_path)]
    assert cli.run(argv + ["--output", str(tmp_path / "var")]) == 1
    assert "source_tau" in capsys.readouterr().err


def test_blank_cache_dataset_id_exits_1_naming_field(tmp_path, capsys):
    (tmp_path / "d0").mkdir()
    (tmp_path / "d1").mkdir()
    cache_path = _make_cache(tmp_path, _gen(tmp_path / "d0", seed=0))
    other_data = _gen(tmp_path / "d1", seed=1)
    mpath = container.manifest_path(cache_path)
    manifest = json.loads(mpath.read_text())
    manifest["meta"]["dataset_id"] = ""
    mpath.write_text(json.dumps(manifest))
    argv = ["train", "--method", "drrho-clip", "--data", str(other_data), "--ref", str(cache_path), "--steps", "4"]
    assert cli.run(argv + ["--output", str(tmp_path / "run")]) == 1
    assert "dataset_id" in capsys.readouterr().err


def test_cache_dimension_contradicting_its_arrays_exits_1_naming_field(tmp_path, capsys):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    mpath = container.manifest_path(cache_path)
    manifest = json.loads(mpath.read_text())
    manifest["meta"]["d"] = 7  # e1 has 6 columns
    mpath.write_text(json.dumps(manifest))
    argv = ["train", "--method", "drrho-clip", "--data", str(data_path), "--ref", str(cache_path), "--steps", "4"]
    assert cli.run(argv + ["--output", str(tmp_path / "run")]) == 1
    assert "'d'" in capsys.readouterr().err


@pytest.mark.parametrize("source_tau", [0.0, -3.0])
def test_bad_cache_source_tau_exits_1_naming_field(tmp_path, capsys, source_tau):
    data_path = _gen(tmp_path)
    cache_path = _make_cache(tmp_path, data_path)
    mpath = container.manifest_path(cache_path)
    manifest = json.loads(mpath.read_text())
    manifest["meta"]["source_tau"] = source_tau
    mpath.write_text(json.dumps(manifest))
    argv = ["train", "--method", "openclip", "--distill", "--data", str(data_path), "--ref", str(cache_path)]
    assert cli.run(argv + ["--steps", "4", "--output", str(tmp_path / "run")]) == 1
    assert "source_tau" in capsys.readouterr().err


def test_model_without_id_hash_exits_1_naming_field(tmp_path, capsys):
    data_path = _gen(tmp_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    mpath = container.manifest_path(model_path)
    manifest = json.loads(mpath.read_text())
    del manifest["meta"]["id_hash"]
    mpath.write_text(json.dumps(manifest))
    rc = cli.run(["eval", "--model", str(model_path), "--data", str(data_path), "--output", str(tmp_path / "e")])
    assert rc == 1
    assert "id_hash" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(0,), (1, 1), (2,)], ids=["empty", "matrix", "two"])
def test_model_tau_not_of_shape_1_exits_1_naming_it(tmp_path, capsys, shape):
    # a well-formed container with a valid checksum, only tau is malformed
    data_path = _gen(tmp_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    arrays, meta = container.read_container(model_path)
    arrays["tau"] = np.full(shape, arrays["tau"][0])
    container.write_container(model_path, container.KIND_MODEL, arrays, meta)
    rc = cli.run(["eval", "--model", str(model_path), "--data", str(data_path), "--output", str(tmp_path / "e")])
    assert rc == 1
    assert "'tau'" in capsys.readouterr().err


def test_truncated_manifest_exits_1_naming_path(tmp_path, capsys):
    data_path = _gen(tmp_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    mpath = container.manifest_path(data_path)
    text = mpath.read_text()
    mpath.write_text(text[: len(text) // 2])
    rc = cli.run(["eval", "--model", str(model_path), "--data", str(data_path), "--output", str(tmp_path / "e")])
    assert rc == 1
    assert str(mpath) in capsys.readouterr().err


def test_corrupt_artifact_reported_as_error(tmp_path, capsys):
    data_path = _gen(tmp_path)
    blob = bytearray(data_path.read_bytes())
    blob[-1] ^= 0xFF
    data_path.write_bytes(bytes(blob))
    rc = cli.run(["eval", "--model", "nope.ckpt", "--data", str(data_path), "--output", str(tmp_path / "e")])
    assert rc == 1


def _set_meta(key, value):
    return lambda manifest: {**manifest, "meta": {**manifest["meta"], key: value}}


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda manifest: [], "manifest"),
        (lambda manifest: {**manifest, "meta": [1]}, "meta"),
        (lambda manifest: {**manifest, "meta": {k: v for k, v in manifest["meta"].items() if k != "seed"}}, "seed"),
        pytest.param(lambda manifest: {**manifest, "meta": {**manifest["meta"], "seed": [0]}}, "seed", id="seed-list"),
        pytest.param(lambda manifest: {**manifest, "arrays": "xs"}, "arrays", id="arrays-string"),
        pytest.param(lambda manifest: {**manifest, "arrays": ["xs", *manifest["arrays"][1:]]}, "arrays[0]", id="entry-string"),
        pytest.param(
            lambda manifest: {**manifest, "arrays": [{"shape": a["shape"]} for a in manifest["arrays"]]},
            "arrays[0]",
            id="entry-no-name",
        ),
        pytest.param(
            lambda manifest: {**manifest, "arrays": [*manifest["arrays"][:1], {"name": "ys"}]}, "arrays[1]", id="entry-no-shape"
        ),
        pytest.param(
            lambda manifest: {**manifest, "arrays": [*manifest["arrays"][:2], {"name": "split", "shape": 96}]},
            "arrays[2]",
            id="entry-shape-int",
        ),
        # meta that is out of range or contradicts the arrays
        *(
            pytest.param(_set_meta(key, value), f"'{key}'", id=f"{key}={value}")
            for key, value in [
                ("noise_sigma", float("nan")),
                ("noise_sigma", -3.0),
                ("d_latent", -7),
                ("seed", -1),
                ("seed", 2**63),
                ("content_hash", "zz"),
                ("n", 95),
                ("d_x", 11),
                ("d_y", 9),
            ]
        ),
    ],
)
def test_bad_dataset_manifest_exits_1_naming_field(tmp_path, capsys, edit, field):
    data_path = _gen(tmp_path)
    model_path = tmp_path / "m.ckpt"
    encoder.save_model(encoder.init_model(6, 12, 10, seed=1), model_path)
    mpath = container.manifest_path(data_path)
    mpath.write_text(json.dumps(edit(json.loads(mpath.read_text()))))
    rc = cli.run(["eval", "--model", str(model_path), "--data", str(data_path), "--output", str(tmp_path / "e")])
    assert rc == 1
    assert field in capsys.readouterr().err


def test_plot_data_emitter(tmp_path):
    data_path = _gen(tmp_path)
    out = tmp_path / "run"
    rc = cli.run(
        [
            "train",
            "--method", "fastclip",
            "--data", str(data_path),
            "--steps", "10",
            "--batch-size", "16",
            "--embed-dim", "6",
            "--plot-data",
            "--output", str(out),
        ]
    )
    assert rc == 0
    plots = list((out / "plot-data").glob("*.csv"))
    assert any(p.name == "objective.csv" for p in plots)
    with open(out / "plot-data" / "objective.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["x", "y"]
    assert len(rows) > 1
