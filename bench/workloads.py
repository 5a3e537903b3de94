"""The four benchmark workloads.

Each workload drives the library only through stable public entry points
(``data.generate_synthetic``, ``experiments.train_reference``,
``trainer.TrainConfig``/``trainer.train``, ``cli.run`` and the ``risk``
functionals) and looks every function up through its module at call time,
so the tracer's patched bindings are the ones called.

A workload has a set-up, timed several times, and a pass, repeated until
the run's time is up. The passes of a cycle may differ in kind (one
training method each, say); the run always ends on a whole cycle. Only
library time is timed. Every library call is one operation counted by
``Ops``; an exception or a failed output check counts as one failed
operation and the workload carries on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from drrho import cli, container, data, encoder, experiments, risk, trainer

# The data_efficiency_trial shape: the pool every training workload draws.
D_X, D_Y, D_LATENT, NOISE_SIGMA, TEST_FRACTION = 24, 20, 4, 0.3, 0.2
LR = 5e-3
METHODS = ("drrho-clip", "fastclip", "openclip", "jest")


class Ops:
    """Counts attempted and failed operations, and the time spent inside them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.library_s = 0.0  # sum of fn() times; checks are not counted

    def attempt(self, label: str, fn, check=None):
        """Call fn() and then check(result), which returns a problem string
        or None. Returns (result, seconds spent in fn); result is None when
        fn raised or the check failed."""
        self.attempted += 1
        elapsed = 0.0
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            self.library_s += elapsed
            problem = check(result) if check is not None else None
        except Exception as exc:  # one failed operation; the workload carries on
            result, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
            return None, elapsed
        return result, elapsed


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _train_problem(out) -> str | None:
    state, report = out
    model = state.model
    if not (np.isfinite(model.w1).all() and np.isfinite(model.w2).all()):
        return "non-finite final weights"
    if not (math.isfinite(model.tau) and model.tau > 0):
        return f"bad final tau {model.tau!r}"
    summary = report.summary
    if not math.isfinite(summary.get("objective", math.nan)):
        return f"non-finite objective {summary.get('objective')!r}"
    recall = summary.get("recall_at_1", math.nan)
    if not 0.0 <= recall <= 1.0:
        return f"recall_at_1 {recall!r} outside [0, 1]"
    return None


def _pool(n: int, seed: int):
    return data.generate_synthetic(n, D_X, D_Y, D_LATENT, NOISE_SIGMA, TEST_FRACTION, seed=seed)


class Workload:
    name = ""
    SIZES: dict[str, dict] = {}
    kinds = 1  # passes per cycle; pass ``index`` is of kind ``index % kinds``

    def __init__(self, seed: int, size: str, scratch: Path):
        self.seed = seed
        self.size = size
        self.p = self.SIZES[size]
        self.scratch = scratch

    def setup(self, ops: Ops) -> list[float]:
        """Build the workload's inputs; returns the library time of each set-up unit."""
        raise NotImplementedError

    def pass_inputs(self, index: int):
        """Inputs for pass ``index``, made before the pass is timed."""
        return None

    def run_pass(self, ops: Ops, index: int, inputs) -> dict[str, list[float]]:
        """One pass of the timed body; returns named samples."""
        raise NotImplementedError


class LargeBatch(Workload):
    name = "large-batch"
    SIZES = {
        "full": dict(n=1600, ref_steps=200, steps=2, batch=1024, jest_batch=256, setups=5),
        "tiny": dict(n=160, ref_steps=4, steps=2, batch=32, jest_batch=8, setups=2),
    }

    def setup(self, ops):
        times = []
        for _ in range(self.p["setups"]):
            def build():
                ds = _pool(self.p["n"], self.seed)
                _, cache = experiments.train_reference(
                    ds, embed_dim=16, steps=self.p["ref_steps"], batch_size=64, lr=LR, seed=self.seed + 1000
                )
                return ds, cache

            (self.ds, self.cache), t = _timed(build)
            times.append(t)
        super_size = round(self.p["jest_batch"] / trainer.DEFAULT_JEST_RATIO)
        if len(self.ds.train_indices) < super_size:
            raise ValueError(f"pool of {len(self.ds.train_indices)} cannot fill JEST super-batches of {super_size}")
        return times

    kinds = len(METHODS)

    def run_pass(self, ops, index, inputs):
        """One train() call; the methods take turns."""
        method = METHODS[index % self.kinds]
        config = trainer.TrainConfig(
            method=method,
            steps=self.p["steps"],
            batch_size=self.p["jest_batch"] if method == "jest" else self.p["batch"],
            embed_dim=8,
            lr=LR,
            seed=self.seed,
            tau_learnable=True,
        )
        config.eval_every = config.effective_steps  # evaluate at the final step only
        cache = self.cache if config.needs_reference else None
        out, seconds = ops.attempt(f"train {method}", lambda: trainer.train(config, self.ds, cache), _train_problem)
        samples = {f"ms_per_step.{method}": [1e3 * seconds / config.effective_steps]}
        if out is not None and method == "drrho-clip":
            samples["recall_at_1"] = [out[1].summary["recall_at_1"]]
        return samples


class MonitoredSmallBatch(Workload):
    name = "monitored-small-batch"
    SIZES = {
        "full": dict(n=640, seeds=5, ref_steps=800, steps=150, batch=48, eval_subset=128),
        "tiny": dict(n=160, seeds=1, ref_steps=4, steps=6, batch=16, eval_subset=32),
    }
    RUNS = (
        ("drrho-clip", 0.5),
        ("drrho-clip", 1.0),
        ("fastclip", 1.0),
        ("openclip", 1.0),
        ("jest", 1.0),
    )
    kinds = len(RUNS)

    def setup(self, ops):
        self.pools = []
        times = []
        for k in range(self.p["seeds"]):
            data_seed = self.seed * self.p["seeds"] + k

            def build():
                ds = _pool(self.p["n"], data_seed)
                _, cache = experiments.train_reference(
                    ds, embed_dim=16, steps=self.p["ref_steps"], batch_size=64, lr=LR, seed=data_seed + 1000
                )
                return data_seed, ds, cache

            pool, t = _timed(build)
            self.pools.append(pool)
            times.append(t)
        return times

    def run_pass(self, ops, index, inputs):
        """One train() call: a cycle runs every entry of RUNS on one pool,
        and the pools take turns from cycle to cycle."""
        data_seed, ds, cache = self.pools[index // self.kinds % len(self.pools)]
        method, fraction = self.RUNS[index % self.kinds]
        config = trainer.TrainConfig(
            method=method,
            steps=self.p["steps"],
            batch_size=self.p["batch"],
            embed_dim=8,
            lr=LR,
            seed=data_seed,
            eval_subset=self.p["eval_subset"],
            tau_learnable=True,
            train_fraction=fraction,
        )
        run_cache = cache if config.needs_reference else None
        out, seconds = ops.attempt(
            f"train {method} frac={fraction}", lambda: trainer.train(config, ds, run_cache), _train_problem
        )
        samples = {f"ms_per_step.{method}": [1e3 * seconds / config.effective_steps]}
        if out is not None and method == "drrho-clip" and fraction == 1.0:
            samples["recall_at_1"] = [out[1].summary["recall_at_1"]]
        return samples


class CliPipeline(Workload):
    name = "cli-pipeline"
    SIZES = {
        "full": dict(n=640, ref_steps=200, steps=50, batch=48, sweep_steps=50, sweep_batch=32, setups=5),
        "tiny": dict(n=160, ref_steps=4, steps=4, batch=16, sweep_steps=3, sweep_batch=8, setups=2),
    }

    def setup(self, ops):
        """Generate the pool and train the reference through the CLI, each
        unit in a fresh directory; the passes use the last unit's reference.
        The dataset hash and reference model the CLI must reproduce are first
        computed through the library API, once and not timed. A unit's time
        is the time inside ``cli.run``."""
        ds = _pool(self.p["n"], self.seed)
        state, _ = trainer.train(self._ref_config(), ds)
        self.dataset_hash, self.ref_id = ds.content_hash(), state.model.id_hash
        times = []
        for _ in range(self.p["setups"]):
            d = self._fresh_dir()
            start = ops.library_s
            if not self._run_commands(ops, self._setup_commands(d), {}):
                raise RuntimeError(f"cli-pipeline set-up failed: {ops.errors[-1]}")
            times.append(ops.library_s - start)
            self.ref_model = d / "ref-run" / "model.ckpt"
        return times

    def _ref_config(self):
        return trainer.TrainConfig(
            method="fastclip", steps=self.p["ref_steps"], batch_size=64, embed_dim=16, lr=LR, seed=self.seed + 1000
        )

    def _fresh_dir(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))

    def pass_inputs(self, index):
        return self._fresh_dir()

    def _gen_data(self, pool: str):
        p = self.p
        return ("gen-data", ["gen-data", "--n", str(p["n"]), "--d-x", str(D_X), "--d-y", str(D_Y),
                             "--d-latent", str(D_LATENT), "--noise-sigma", str(NOISE_SIGMA),
                             "--test-fraction", str(TEST_FRACTION), "--seed", str(self.seed), "--output", pool],
                lambda: self._manifest_hash_problem(pool))

    def _setup_commands(self, d: Path):
        pool, ref = str(d / "pool.dpd"), self._ref_config()
        return [
            self._gen_data(pool),
            ("train-ref", ["train", "--method", ref.method, "--data", pool, "--steps", str(ref.steps),
                           "--batch-size", str(ref.batch_size), "--embed-dim", str(ref.embed_dim),
                           "--lr", str(ref.lr), "--seed", str(ref.seed), "--output", str(d / "ref-run")],
             lambda: self._ref_model_problem(d / "ref-run" / "model.ckpt")),
        ]

    def _commands(self, d: Path):
        p, s = self.p, self.seed
        pool, emb = str(d / "pool.dpd"), str(d / "pool.emb")
        return [
            self._gen_data(pool),
            ("ref-embed", ["ref-embed", "--data", pool, "--model", str(self.ref_model), "--output", emb], None),
            ("train", ["train", "--method", "drrho-clip", "--data", pool, "--ref", emb, "--learnable-tau",
                       "--steps", str(p["steps"]), "--batch-size", str(p["batch"]), "--embed-dim", "8",
                       "--lr", str(LR), "--seed", str(s), "--output", str(d / "run")],
             lambda: self._run_report_problem(d / "run" / "report.json")),
            ("eval", ["eval", "--model", str(d / "run" / "model.ckpt"), "--data", pool, "--output", str(d / "run-eval")],
             None),
            ("eval-repeat", ["eval", "--model", str(d / "run" / "model.ckpt"), "--data", pool,
                             "--output", str(d / "run-eval-2")],
             lambda: self._identical_problem(d / "run-eval" / "report.json", d / "run-eval-2" / "report.json")),
            ("variance", ["variance", "--model", str(d / "run" / "model.ckpt"), "--data", pool, "--ref", emb,
                          "--output", str(d / "run-var")],
             None),
            ("sweep", ["sweep", "--data", pool, "--ref", emb, "--methods", "drrho-clip,fastclip",
                       "--fractions", "1.0,0.5", "--seeds", str(s), "--steps", str(p["sweep_steps"]),
                       "--batch-size", str(p["sweep_batch"]), "--output", str(d / "run-sweep")],
             None),
        ]

    def _manifest_hash_problem(self, pool: str):
        meta = json.loads(container.manifest_path(pool).read_text())["meta"]
        if meta.get("content_hash") != self.dataset_hash:
            return "gen-data dataset differs from generate_synthetic"
        return None

    def _ref_model_problem(self, path: Path):
        if encoder.load_model(path).id_hash != self.ref_id:
            return "CLI reference model differs from trainer.train"
        return None

    @staticmethod
    def _run_report_problem(path: Path):
        summary = json.loads(path.read_text())["summary"]
        if not math.isfinite(summary.get("objective", math.nan)):
            return "non-finite objective"
        if not 0.0 <= summary.get("recall_at_1", math.nan) <= 1.0:
            return "recall_at_1 outside [0, 1]"
        return None

    @staticmethod
    def _identical_problem(a: Path, b: Path):
        return None if a.read_bytes() == b.read_bytes() else "repeated eval wrote a different report.json"

    @staticmethod
    def _run_commands(ops, commands, samples) -> bool:
        """Run commands in order, stopping at the first failure (later
        commands read its artifacts); returns whether all of them passed."""
        for label, argv, extra_check in commands:
            def check(out, extra_check=extra_check):
                code, stderr = out
                if code != 0:
                    return f"exit code {code}: {stderr[-300:]}"
                return extra_check() if extra_check is not None else None

            def call(argv=argv):
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    try:
                        code = cli.run(argv)
                    except SystemExit as exc:  # argparse exits on usage errors instead of returning
                        code = exc.code
                return code, stderr.getvalue().strip()

            out, seconds = ops.attempt(f"cli {label}", call, check)
            samples.setdefault(f"cli.{label}.ms", []).append(1e3 * seconds)
            if out is None:
                return False
        return True

    def run_pass(self, ops, index, inputs):
        d = inputs
        samples: dict[str, list[float]] = {}
        try:
            if self._run_commands(ops, self._commands(d), samples):
                samples["ms_per_step.drrho-clip"] = [samples["cli.train.ms"][0] / self.p["steps"]]
                summary = json.loads((d / "run" / "report.json").read_text())["summary"]
                samples["recall_at_1"] = [summary["recall_at_1"]]
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return samples


def _oracle_lme(v: np.ndarray, tau: float) -> float:
    """tau * log-mean-exp(v / tau), written independently of drrho.risk."""
    return float(tau * (np.logaddexp.reduce(v / tau) - math.log(v.size)))


class RiskSolvers(Workload):
    name = "risk-solvers"
    SIZES = {
        "full": dict(pairs={100: 16, 1000: 16, 10000: 8}, audit={100: 8, 1000: 8, 10000: 4}, grid=1001, setups=5),
        "tiny": dict(pairs={100: 1, 1000: 1}, audit={100: 1, 1000: 1}, grid=101, setups=2),
    }
    SOFT_TAU = 0.5
    RHO = 2.0

    def _pair(self, rng, n):
        target = rng.gamma(2.0, 0.5, n)
        reference = 0.6 * target + rng.normal(0.0, 0.1, n)
        return target, reference

    def setup(self, ops):
        """Solve a fixed audit set of loss pairs, plain and shifted, with every
        functional. The first pair of each size is also held to a dense-grid
        oracle of ``kl_constrained_risk``, computed once and not timed. A
        unit's time is the library time of one solve of the audit set."""
        rng = np.random.default_rng([self.seed, 2**31])
        audit = []
        for n, count in self.p["audit"].items():
            for k in range(count):
                t, r = self._pair(rng, n)
                grids = [self._grid_min(v) for v in (t, t - r)] if k == 0 else [None, None]
                audit.append((t, r, grids))
        times = []
        for _ in range(self.p["setups"]):
            start = ops.library_s
            for target, reference, grids in audit:
                self._shift_and_solve(ops, target, reference, {}, grids)
            times.append(ops.library_s - start)
        return times

    def _grid_min(self, v):
        """Minimum of the KL dual over a log-spaced tau grid, and v's scale."""
        scale = max(1.0, float(v.max() - v.min()))
        taus = np.exp(np.linspace(math.log(risk.TAU_BOUND_LO * scale), math.log(risk.TAU_BOUND_HI * scale), self.p["grid"]))
        return min(_oracle_lme(v, tau) + tau * self.RHO / v.size for tau in taus), scale

    def pass_inputs(self, index):
        rng = np.random.default_rng([self.seed, index])
        return [self._pair(rng, n) for n, count in self.p["pairs"].items() for _ in range(count)]

    def _shift_and_solve(self, ops, target, reference, samples, grids=(None, None)):
        shifted, _ = ops.attempt(f"drrho_shift n={target.size}", lambda: risk.drrho_shift(target, reference))
        for v, grid in zip((target, shifted), grids):
            if v is not None:
                self._solve_all(ops, v, samples, grid)

    def _solve_all(self, ops, v, samples, grid):
        n = v.size
        k = max(1, n // 10)
        solvers = (
            ("cvar_topk", lambda: risk.cvar_topk(v, k), lambda out: self._cvar_problem(v, k, out)),
            ("softmax_weights", lambda: risk.softmax_weights(v, self.SOFT_TAU), lambda out: self._softmax_problem(v, out)),
            ("kl_regularized_risk", lambda: risk.kl_regularized_risk(v, self.SOFT_TAU),
             lambda out: self._close_problem(out, _oracle_lme(v, self.SOFT_TAU), v)),
            ("kl_constrained_risk", lambda: risk.kl_constrained_risk(v, self.RHO, n),
             lambda out: self._kl_problem(v, out, grid)),
            ("chi2_dro_risk", lambda: risk.chi2_dro_risk(v, self.RHO, n), lambda out: self._chi2_problem(v, out)),
        )
        for name, solve, check in solvers:
            _, seconds = ops.attempt(f"{name} n={n}", solve, check)
            samples.setdefault(f"risk.{name}.n{n}.ms", []).append(1e3 * seconds)
            samples.setdefault("solve_ms", []).append(1e3 * seconds)

    @staticmethod
    def _cvar_problem(v, k, out):
        oracle = float(np.sort(v)[-k:].mean())
        return None if abs(out - oracle) <= 1e-12 * max(1.0, abs(oracle)) else f"{out!r} != sorted top-k {oracle!r}"

    def _softmax_problem(self, v, p):
        z = np.exp((v - v.max()) / self.SOFT_TAU)
        if (p < 0).any() or abs(float(np.sum(p)) - 1.0) > 1e-12:
            return "weights off the simplex"
        return None if np.max(np.abs(p - z / z.sum())) <= 1e-12 else "weights differ from exp-normalize"

    @staticmethod
    def _close_problem(out, oracle, v):
        return None if abs(out - oracle) <= 1e-9 * max(1.0, float(np.abs(v).max())) else f"{out!r} != {oracle!r}"

    def _kl_problem(self, v, out, grid):
        value, tau = out
        n, tol = v.size, 1e-9 * max(1.0, float(v.max() - v.min()))

        def g(t):
            return _oracle_lme(v, t) + t * self.RHO / n

        if abs(value - g(tau)) > tol:
            return "risk does not match its own tau"
        if value > min(g(tau * 0.97), g(tau / 0.97)) + tol:
            return "tau is not a local minimizer"
        if value < float(v.mean()) - tol:
            return "risk below the mean"
        if grid is not None:
            grid_min, scale = grid
            if not grid_min - 1e-3 * scale <= value <= grid_min + 1e-9 * scale:
                return f"{value!r} disagrees with grid oracle {grid_min!r}"
        return None

    def _chi2_problem(self, v, out):
        value, p = out
        n, tol = v.size, 1e-9
        if (p < -1e-15).any() or abs(float(p.sum()) - 1.0) > tol:
            return "weights off the simplex"
        if float(np.sum((p - 1.0 / n) ** 2)) > 2.0 * self.RHO / (n * n) + tol:
            return "weights outside the chi-square ball"
        scale = max(1.0, float(np.abs(v).max()))
        if abs(float(p @ v) - value) > tol * scale or not v.mean() - tol * scale <= value <= v.max() + tol * scale:
            return "risk inconsistent with its weights"
        return None

    def run_pass(self, ops, index, inputs):
        samples: dict[str, list[float]] = {}
        for target, reference in inputs:
            self._shift_and_solve(ops, target, reference, samples)
        return samples


WORKLOADS = {w.name: w for w in (LargeBatch, MonitoredSmallBatch, CliPipeline, RiskSolvers)}
