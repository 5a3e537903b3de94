"""Benchmark harness: one workload, one seed, one run.

    python3 bench/run.py --workload large-batch --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The harness sets the workload up several
times (timed), then repeats whole cycles of passes of its body until
``--seconds`` have passed. Only time inside library calls is timed. It
prints every measured metric by name and unit with its median, highest
percentile with at least 10 samples beyond it and sample count, then the
provenance, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
run first measures untraced passes for half the time, then wraps the
library from outside (see tracer.py) and reports the per-layer ones.
Full results, provenance and the span log go under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("large-batch", "monitored-small-batch", "cli-pipeline", "risk-solvers")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TAIL = 10  # samples beyond the reported tail percentile


def summarize(samples: list[float]) -> dict:
    """Median and count, plus the highest percentile (nearest rank) that
    still has TAIL samples above it, when there are more than TAIL."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else math.nan, "n": n}
    if n > TAIL:
        out[f"p{100.0 * (n - TAIL) / n:.4g}"] = xs[n - TAIL - 1]
    return out


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def provenance(seed: int) -> dict:
    import numpy as np
    from drrho import experiments
    from drrho.errors import ConfigError

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "drrho").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        workers = experiments.worker_count()
    except ConfigError as exc:  # a bad DRRHO_THREADS is recorded, not fatal
        workers = f"error: {exc}"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "worker_count": workers,
        "DRRHO_THREADS": os.environ.get("DRRHO_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or of any child it waited for
    (the sweep's pool workers)."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0  # Linux reports KiB


def _passes(workload, ops, seconds: float, samples: dict, tracer=None) -> tuple[list[float], list[float]]:
    """Run whole cycles of passes until ``seconds`` have elapsed (at least
    one cycle). Returns the library time of each pass (the time inside its
    operations, without the output checks) and each pass's whole wall time."""
    library, walls = [], []
    start = time.perf_counter()
    while not walls or len(walls) % workload.kinds or time.perf_counter() - start < seconds:
        index = len(walls)
        inputs = workload.pass_inputs(index)
        library_before = ops.library_s
        t0 = time.perf_counter()
        if tracer is None:
            got = workload.run_pass(ops, index, inputs)
        else:
            with tracer.span(layers.PASS_SPAN, index=index):
                got = workload.run_pass(ops, index, inputs)
        walls.append(time.perf_counter() - t0)
        library.append(ops.library_s - library_before)
        for key, values in got.items():
            samples.setdefault(key, []).extend(values)
    return library, walls


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full", out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the full result (the printed JSON line is a subset)."""
    from workloads import WORKLOADS, Ops

    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f"scratch-{os.getpid()}"
    try:
        return _run(WORKLOADS[workload_name](seed, size, scratch), Ops(), seconds, trace, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload, ops, seconds: float, trace: bool, out_dir: Path) -> dict:
    workload_name, seed = workload.name, workload.seed
    setup_times = workload.setup(ops)
    samples: dict[str, list[float]] = {}
    body_s = seconds / 2 if trace else seconds
    library, walls = _passes(workload, ops, body_s, samples)
    result = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "size": workload.size,
        "provenance": provenance(seed),
        "samples": {"setup_s": summarize(setup_times), "pass_library_s": summarize(library)},
        "setup_times": setup_times,
        "pass_library_s": library,
        "pass_walls": walls,
    }
    for key, values in sorted(samples.items()):
        result["samples"][key] = summarize(values)
    details = {
        "passes": len(walls),
        "cycles": len(walls) // workload.kinds,
        "check_share": 1.0 - sum(library) / sum(walls),
    }
    if "solve_ms" in samples:
        details["solves_per_s"] = len(samples["solve_ms"]) / sum(library)
    result["details"] = details

    if trace:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        try:
            with tracer.span(layers.SETUP_SPAN):
                setup_units = len(workload.setup(ops))
            _, traced_walls = _passes(workload, ops, seconds - body_s, {}, tracer)
        finally:
            tracer.uninstall()
        span_path = out_dir / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.dump(span_path)
        metrics = layers.derive(
            tracer.spans, tracer.missing, layers.cycle_time(walls, workload.kinds), setup_units, workload.kinds
        )
        units = layers.metric_units()
        result["tracer"] = {"missing": tracer.missing, "spans": str(span_path), "traced_passes": len(traced_walls)}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": layers.cycle_time(library, workload.kinds),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    details["failure_rate"] = ops.failed / max(1, ops.attempted)
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["errors"] = ops.errors[:20]
    result["correct"] = ops.failed == 0 and ops.attempted > 0
    return result


def _print_report(result: dict) -> None:
    w = result["workload"]
    print(f"# workload {w}  seed {result['seed']}  trace {int(result['trace'])}")
    for key, s in result["samples"].items():
        extra = "  ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"{w}  {key:<40} median={s['median']:.6g}  {extra}  n={s['n']}")
    for key, value in result["details"].items():
        print(f"{w}  {key:<40} {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"{w}  metric {name:<60} {m['value']:.6g} {m['unit']}")
    if "tracer" in result:
        print(f"{w}  tracer missing: {result['tracer']['missing']}  spans: {result['tracer']['spans']}")
    for error in result["errors"]:
        print(f"{w}  FAILED {error}")
    print(f"{w}  provenance {json.dumps(result['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "drrho" / "__init__.py").is_file():
        print(f"error: no drrho sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")
    _print_report(result)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
