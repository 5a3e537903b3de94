"""Tests of the benchmark itself: a tiny run of every workload, the span
arithmetic behind per-layer metrics, and absent tracer targets."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, nearest_ancestor, roots, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run(workload, trace, tmp_path):
    result = run.run(workload, seed=3, seconds=0, trace=trace, size="tiny", out_dir=tmp_path)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = layers.metric_units() if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if trace:
        assert result["tracer"]["missing"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_on_large_batch(tmp_path):
    metrics = run.run("large-batch", seed=0, seconds=0, trace=True, size="tiny", out_dir=tmp_path)["metrics"]
    assert metrics["trainer.shifted_gap_exponentials.calls_per_step.drrho-clip"]["value"] == 3
    assert metrics["baselines.infonce_grad_s.calls_per_step.openclip"]["value"] == 2
    assert metrics["baselines.jest.kept_ratio"]["value"] == pytest.approx(0.2)


def _span(name, start, end, parent, **attrs):
    return Span(name, float(start), float(end), parent, attrs)


def test_self_time_of_nested_spans():
    spans = [
        _span("a", 0, 10, -1),
        _span("b", 1, 4, 0),
        _span("c", 2, 3, 1),
        _span("d", 5, 9, 0),
        _span("e", 11, 12, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert nearest_ancestor(spans, lambda s: s.name == "b") == [-1, -1, 1, -1, -1]
    assert nearest_ancestor(spans, lambda s: s.name == "a") == [-1, 0, 0, 0, -1]
    assert roots(spans) == [0, 0, 0, 0, 4]


def test_derive_counts_calls_per_step_inside_train_spans():
    spans = [
        _span(layers.SETUP_SPAN, 0, 1, -1),
        _span("trainer.train", 0.1, 0.9, 0, method="fastclip", steps=4),
        _span("trainer.shifted_gap_exponentials", 0.2, 0.3, 1),
        _span(layers.PASS_SPAN, 2, 10, -1),
        _span("trainer.train", 2, 9, 3, method="drrho-clip", steps=2),
    ] + [_span("trainer.shifted_gap_exponentials", 3 + i, 3.5 + i, 4) for i in range(6)]
    out = layers.derive(spans, ["drrho.x:gone"], untraced_cycle_s=4.0)
    assert out["trainer.shifted_gap_exponentials.calls_per_step.drrho-clip"] == 3
    assert out["trainer.shifted_gap_exponentials.calls_per_step.fastclip"] == 0
    assert out["trainer.shifted_gap_exponentials.self_ms"] == pytest.approx(3000.0)
    assert out["trainer.train.self_ms_per_step"] == pytest.approx(2000.0)
    assert out["drrho-clip.trainer.self_ms"] == pytest.approx(7000.0)
    assert out["setup.trainer.train.ms"] == pytest.approx(800.0)
    assert out["tracer.overhead_pct"] == pytest.approx(100.0)
    assert out["tracer.missing"] == 1


def test_cycle_time_sums_the_median_of_each_pass_kind():
    times = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0]
    assert layers.cycle_time(times, 2) == 2.0 + 20.0
    assert layers.cycle_time(times, 1) == 6.5


def test_derive_reports_per_cycle():
    spans = [_span(layers.PASS_SPAN, i, i + 1, -1) for i in range(4)]
    spans += [_span("contrastive.global_objective", 0.2, 0.4, 0), _span("contrastive.global_objective", 2.2, 2.4, 2)]
    out = layers.derive(spans, [], untraced_cycle_s=2.0, kinds=2)
    assert out["contrastive.global_objective.calls"] == 1.0
    assert out["contrastive.global_objective.self_ms"] == pytest.approx(200.0)
    assert out["tracer.overhead_pct"] == pytest.approx(0.0)


def test_ops_time_only_the_library_call():
    import time

    from workloads import Ops

    ops = Ops()
    ops.attempt("slow check", lambda: 1, lambda out: time.sleep(0.05))
    ops.attempt("raises", lambda: 1 / 0)
    assert ops.attempted == 2 and ops.failed == 1
    assert ops.library_s < 0.01


def test_absent_targets_are_listed_not_raised():
    tracer = Tracer()
    targets = ["drrho.trainer:no_such_kernel", "drrho.no_such_module:f", "drrho.rng:NoSuchClass.draw"]
    tracer.install([(t, None) for t in targets])
    assert tracer.missing == targets
    tracer.uninstall()


def test_wrap_patches_imported_bindings_and_uninstall_restores():
    import numpy as np
    from drrho import contrastive, trainer

    original = contrastive.global_objective
    tracer = Tracer()
    assert tracer.wrap("drrho.contrastive:global_objective")
    try:
        assert trainer.global_objective is contrastive.global_objective is not original
        trainer.global_objective(np.eye(3))
    finally:
        tracer.uninstall()
    assert trainer.global_objective is original and contrastive.global_objective is original
    assert [s.name for s in tracer.spans] == ["contrastive.global_objective"]


def test_summarize_reports_highest_percentile_with_ten_beyond():
    out = run.summarize([float(x) for x in range(1, 101)])
    assert out == {"median": 50.5, "n": 100, "p90": 90.0}
    assert run.summarize([float(x) for x in range(1, 36)])["p71.43"] == 25.0
    assert run.summarize([1.0, 2.0, 3.0]) == {"median": 2.0, "n": 3}


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "risk-solvers", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
