"""Evaluation metrics and the verifiable empirical procedures: retrieval
accuracy, per-anchor loss variance, data-efficiency sweeps, and power-law
fits of error against compute.

The paper's three experiments are fixed recipes: the two trials take only
a seed, and ``scaling_suite`` runs one grid on the pool and reference cache
it is given. ``train_reference`` defaults to the reference recipe (fastclip,
d=16, b=64, 800 steps). Every grid trains through one job function.

A training whose report is discarded (each sweep and grid job, the
trials' runs and ``train_reference``) records only its final eval point,
since eval points read the model and never change it. Each point is two
forward passes, the gap rows, the variances and recall: the CLI sweep's
50-step jobs skip 49 of their 50 points, a reference 49 of its 50.

Compute is counted in abstract units of trainable-parameter count times
samples seen. Any consistent unit works: rescaling compute by a constant
shifts the fitted log-intercept but leaves the exponent untouched, and the
cross-method comparisons here are about exponents.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .contrastive import negative_gaps, shifted_similarity
from .data import EmbeddingCache, PairedDataset, build_reference_cache, generate_synthetic
from .encoder import batch_forward
from .errors import ConfigError
from .report import ExperimentReport
from .trainer import TrainConfig, _train_pool, plan_run, run_provenance, train

ERROR_CLIP = 1e-6  # keeps error rates inside the open unit interval for log fits


def recall_at_1(s_test: np.ndarray) -> float:
    """Fraction of anchors whose top similarity is their own pair, averaged
    over both retrieval directions. Ties resolve to the lowest index."""
    s = np.asarray(s_test, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"test similarity matrix must be square, got {s.shape}")
    if s.size == 0:
        raise ValueError("test similarity matrix is empty")
    idx = np.arange(len(s))
    image_hits = np.argmax(s, axis=1) == idx
    text_hits = np.argmax(s, axis=0) == idx
    return float(0.5 * (image_hits.mean() + text_hits.mean()))


@dataclass
class VarianceSummary:
    """Per-anchor pairwise-loss variances, summarized per direction."""

    image_variances: np.ndarray  # (b,) variance over negatives, image anchors
    text_variances: np.ndarray  # (b,) text anchors

    @classmethod
    def of_rows(cls, rows: np.ndarray, scratch: np.ndarray | None = None) -> "VarianceSummary":
        """Summarize ``contrastive.negative_gaps`` rows: image anchors, then
        text anchors. These are np.var's own steps, so the variances equal
        ``rows.var(axis=1)``; given ``scratch``, an array of the rows' shape,
        the squared deviations are formed in it instead of a fresh array."""
        m = rows.shape[1]
        mean = np.add.reduce(rows, axis=1, keepdims=True)
        mean /= m
        dev = np.subtract(rows, mean, out=scratch)
        np.square(dev, out=dev)
        var = np.add.reduce(dev, axis=1)
        var /= m
        b = len(rows) // 2
        return cls(image_variances=var[:b], text_variances=var[b:])

    @property
    def image_mean(self) -> float:
        return float(self.image_variances.mean())

    @property
    def text_mean(self) -> float:
        return float(self.text_variances.mean())


def loss_variance(s_target: np.ndarray, s_reference: np.ndarray | None = None) -> VarianceSummary:
    """Variance over negatives of each anchor's pairwise loss (shifted by
    the reference when one is given), per direction."""
    rows = negative_gaps(shifted_similarity(s_target, s_reference))
    if len(rows) // 2 < 3:
        raise ValueError("need at least 2 negatives per anchor (3 pairs)")
    return VarianceSummary.of_rows(rows)


@dataclass
class ScalingPoint:
    compute: float
    error: float

    def __post_init__(self):
        if not (self.compute > 0 and math.isfinite(self.compute)):
            raise ValueError("compute must be positive and finite")
        if not 0.0 < self.error < 1.0:
            raise ValueError("error must lie in the open unit interval")


def clip_error(error: float) -> float:
    return float(np.clip(error, ERROR_CLIP, 1.0 - ERROR_CLIP))


def compute_units(model_params: int, samples_seen: int) -> float:
    """Abstract compute: trainable parameters times samples seen."""
    return float(model_params) * float(samples_seen)


def fit_scaling_law(points) -> tuple[float, float, float]:
    """Ordinary least squares of log(error) on log(compute).

    Returns (alpha, beta, rms_residual) for error = alpha * compute**beta.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least 2 points to fit")
    compute = np.array([p.compute for p in points], dtype=np.float64)
    error = np.array([p.error for p in points], dtype=np.float64)
    if (compute <= 0).any() or (error <= 0).any():
        raise ValueError("compute and error must be positive")
    if np.unique(compute).size < 2:
        raise ValueError("need at least 2 distinct compute values")
    x = np.log(compute)
    y = np.log(error)
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    log_alpha, beta = coef
    residuals = y - design @ coef
    return float(np.exp(log_alpha)), float(beta), float(np.sqrt(np.mean(residuals**2)))


def best_error_per_compute(groups: dict[float, list[float]]) -> list[ScalingPoint]:
    """Minimum error within each compute group, sorted by compute."""
    points = []
    for compute, errors in sorted(groups.items()):
        errors = list(errors)
        if not errors:
            raise ValueError(f"compute group {compute} is empty")
        points.append(ScalingPoint(compute=float(compute), error=min(errors)))
    return points


# ---------------------------------------------------------------------------
# pipelines


def evaluate_recall(model, dataset: PairedDataset, indices: np.ndarray | None = None) -> float:
    idx = dataset.test_indices if indices is None else np.asarray(indices, dtype=np.int64)
    if len(idx) < 2:
        raise ValueError("need at least 2 pairs to evaluate retrieval")
    fwd = batch_forward(model, dataset.xs[idx], dataset.ys[idx])
    return recall_at_1(fwd.s)


def worker_count() -> int:
    """Worker bound for sweeps: the DRRHO_THREADS env var, defaulting to
    the number of CPUs this process may run on."""
    raw = os.environ.get("DRRHO_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(f"DRRHO_THREADS: not an integer: {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(jobs: list, fn, workers: int | None = None) -> list:
    """Map fn over jobs, in parallel processes when allowed; results keep
    job order so downstream assembly is deterministic."""
    workers = worker_count() if workers is None else workers
    workers = min(workers, len(jobs))
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # the pool's imports are paid only by parallel runs
    from concurrent.futures import ProcessPoolExecutor

    # Only starting the pool may fall back to running in this process; an
    # exception raised by a job propagates from its future's result.
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))
        futures = [pool.submit(fn, job) for job in jobs]
    except (OSError, ValueError):  # no fork start method, or workers failed to start
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        return [fn(job) for job in jobs]
    with pool:
        return [future.result() for future in futures]


def _require_test_split(dataset: PairedDataset) -> None:
    """Reject a pool whose test split cannot score retrieval, before any run trains."""
    n_test = len(dataset.test_indices)
    if n_test < 2:
        raise ConfigError(f"dataset: test split holds {n_test} pairs, retrieval needs at least 2")


def _final_only(config: TrainConfig) -> TrainConfig:
    """``config`` recording only its final eval point: eval points read the
    model and never change it, so the model is the one every cadence gives."""
    return replace(config, eval_every=max(1, config.effective_steps))


def _trained_model(config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None = None):
    """The final model of a run whose report nobody reads."""
    state, _ = train(_final_only(config), dataset, cache)
    return state.model


def _recalls(jobs: list) -> list[float]:
    """``_recall_job`` of every job, once ``plan_run`` has passed them all."""
    for config, dataset, cache in jobs:
        plan_run(_final_only(config), dataset, cache)
    return _run_jobs(jobs, _recall_job)


def _recall_job(args) -> float:
    """Final test recall@1 of one run; the cache goes only to runs that use it."""
    config, dataset, cache = args
    return evaluate_recall(_trained_model(config, dataset, cache if config.needs_reference else None), dataset)


def data_efficiency_sweep(
    config: TrainConfig,
    dataset: PairedDataset,
    cache: EmbeddingCache | None,
    fractions,
    methods=None,
    seeds=None,
) -> ExperimentReport:
    """Train one model per (method, fraction, seed) on nested subsets with a
    fixed step budget, and tabulate final retrieval accuracy.

    The report carries one summary row per (method, fraction), averaged
    over seeds, with the tau, tau_learnable and effective_steps its runs
    resolve to; per-run values go into the series keyed by row index. The
    config block leaves out the keys each method resolves for itself.
    """
    fractions = [float(f) for f in fractions]
    methods = [config.method] if methods is None else list(methods)
    seeds = [config.seed] if seeds is None else [int(s) for s in seeds]
    for name, values in (("methods", methods), ("fractions", fractions), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{name}: entries must be distinct, got {values}")
    if any(not 0 < f <= 1 for f in fractions):
        raise ConfigError("fractions: every fraction must lie in (0, 1]")
    _require_test_split(dataset)
    for f in fractions:
        if len(_train_pool(dataset, f)) < 2 * config.batch_size:
            raise ConfigError(
                f"fractions: fraction {f} yields fewer than 2*batch_size={2 * config.batch_size} samples"
            )

    cells = [(method, fraction) for method in methods for fraction in fractions]
    jobs = [
        (replace(config, method=method, train_fraction=fraction, seed=seed), dataset, cache)
        for method, fraction in cells
        for seed in seeds
    ]
    recalls = _recalls(jobs)

    per_method = ("method", "tau", "tau_learnable", "effective_steps", "warmup_steps", "eval_every")
    shared = {k: v for k, v in config.resolved().items() if k not in per_method}
    report = ExperimentReport(
        config_snapshot={**shared, "fractions": fractions, "methods": methods, "seeds": seeds},
        provenance=run_provenance(config, dataset, cache),
    )
    rows = []
    for row, (method, fraction) in enumerate(cells):
        cell = recalls[row * len(seeds) : (row + 1) * len(seeds)]
        mean = float(np.mean(cell))
        run = jobs[row * len(seeds)][0]
        rows.append({"method": method, "fraction": fraction, "recall_at_1": mean, "tau": run.start_tau,
                     "tau_learnable": run.learnable_tau, "effective_steps": run.effective_steps})
        report.add(row, f"recall_at_1/{method}/frac={fraction}", mean)
        for seed, recall in zip(seeds, cell):
            report.add(row, f"recall_at_1/{method}/frac={fraction}/seed={seed}", recall)
    report.config_snapshot["rows"] = rows
    return report


def variance_reduction_trial(seed: int) -> dict[str, float]:
    """One seeded trial of the variance-reduction effect.

    A reference is trained on a pool of 768 pairs; a target is trained
    fresh on its first quarter; then per-anchor pairwise-loss variances of
    the target are measured with and without the reference shift on the
    first 96 pairs of the target's training data.
    """
    dataset = generate_synthetic(
        n=864, d_x=24, d_y=20, d_latent=6, noise_sigma=0.25, test_fraction=96 / 864, seed=seed
    )
    ref_config = TrainConfig(method="fastclip", steps=300, batch_size=48, embed_dim=8, lr=5e-3, seed=seed + 1)
    ref_model = _trained_model(ref_config, dataset)
    target_config = TrainConfig(
        method="fastclip", steps=150, batch_size=48, embed_dim=8, lr=5e-3, train_fraction=0.25, seed=seed + 2
    )
    target_model = _trained_model(target_config, dataset)

    anchors = dataset.train_indices[:96]
    s_target = batch_forward(target_model, dataset.xs[anchors], dataset.ys[anchors]).s
    s_reference = batch_forward(ref_model, dataset.xs[anchors], dataset.ys[anchors]).s
    plain = loss_variance(s_target)
    shifted = loss_variance(s_target, s_reference)
    return {
        "plain_image": plain.image_mean,
        "plain_text": plain.text_mean,
        "rho_image": shifted.image_mean,
        "rho_text": shifted.text_mean,
    }


def data_efficiency_trial(seed: int) -> dict[str, float]:
    """One seeded data-efficiency comparison against a strong reference.

    Trains the reference recipe on the full pool of 640 pairs, then the
    reference-shifted method on half and on all of the pool, and the
    no-reference baseline on all of it, every run for 150 steps at batch
    48 with learnable temperature. Returns final test retrieval accuracies.
    """
    dataset = generate_synthetic(640, 24, 20, 4, 0.3, 0.2, seed=seed)
    ref_model, cache = train_reference(dataset, seed=seed + 1000)
    base = TrainConfig(
        steps=150, batch_size=48, embed_dim=8, lr=5e-3, seed=seed, eval_subset=32, tau_learnable=True
    )
    out = {"reference": evaluate_recall(ref_model, dataset)}
    runs = (
        ("drrho_half", "drrho-clip", 0.5),
        ("drrho_full", "drrho-clip", 1.0),
        ("baseline_full", "fastclip", 1.0),
    )
    for key, method, fraction in runs:
        out[key] = _recall_job((replace(base, method=method, train_fraction=fraction), dataset, cache))
    return out


def scaling_suite(dataset: PairedDataset, cache: EmbeddingCache) -> dict[str, dict]:
    """Error-versus-compute grids for drrho-clip and openclip, with fitted
    power laws.

    Each method trains at embedding widths 4, 8 and 16 for 40, 110 and 300
    steps, each cell at dataset fractions 0.6 and 1.0, at batch 32 with
    learnable temperature. The best error per compute value forms the
    points for the log-log fit (mirroring best-over-dataset-size selection).
    """
    _require_test_split(dataset)
    base = TrainConfig(batch_size=32, lr=5e-3, eval_subset=32, tau_learnable=True)
    methods = ("drrho-clip", "openclip")
    configs = [
        replace(base, method=method, embed_dim=d, steps=steps, train_fraction=fraction)
        for method in methods
        for d in (4, 8, 16)
        for steps in (40, 110, 300)
        for fraction in (0.6, 1.0)
    ]
    recalls = _recalls([(config, dataset, cache) for config in configs])
    out: dict[str, dict] = {}
    for method in methods:
        groups: dict[float, list[float]] = {}
        for config, recall in zip(configs, recalls):
            if config.method == method:
                params = config.embed_dim * (dataset.d_x + dataset.d_y)
                compute = compute_units(params, config.effective_steps * config.batch_size)
                groups.setdefault(compute, []).append(clip_error(1.0 - recall))
        points = best_error_per_compute(groups)
        alpha, beta, residual = fit_scaling_law(points)
        out[method] = {"points": points, "alpha": alpha, "beta": beta, "residual": residual}
    return out


def train_reference(
    dataset: PairedDataset,
    embed_dim: int = 16,
    steps: int = 800,
    batch_size: int = 64,
    lr: float = 5e-3,
    seed: int = 1000,
):
    """Train a no-reference model on the full pool and cache its embeddings;
    the standard way benchmarks obtain a strong reference."""
    config = TrainConfig(
        method="fastclip", steps=steps, batch_size=batch_size, embed_dim=embed_dim, lr=lr, seed=seed
    )
    model = _trained_model(config, dataset)
    return model, build_reference_cache(dataset, model)
