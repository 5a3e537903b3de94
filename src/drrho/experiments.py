"""The verifiable empirical procedures: retrieval evaluation, loss
variances of training pairs, data-efficiency sweeps, and power-law fits of
error against compute. The metrics they read, ``recall_at_1`` and
``loss_variance``, live in ``contrastive`` and are importable from here.

The paper's three experiments are fixed recipes: the two trials take a
list of seeds and return one row per seed, and ``scaling_suite`` runs one
grid on the pool and reference cache it is given. Every training, the
reference recipe's included, goes through ``_final_models``: it checks
every run with ``plan_run`` before any trains, then trains them, each
recording only its final eval point, in one pool of worker processes, or
in this process when the runs are too short to pay for the pool.

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

from .contrastive import VarianceSummary, loss_variance, recall_at_1  # noqa: F401 (re-exported)
from .data import EmbeddingCache, PairedDataset, build_reference_cache, check_cache_matches, generate_synthetic
from .encoder import batch_forward
from .errors import ConfigError
from .report import ExperimentReport
from .trainer import TrainConfig, _train_pool, plan_run, run_provenance, train

ERROR_CLIP = 1e-6  # keeps error rates inside the open unit interval for log fits
# Below this many samples per worker (steps x batch size, summed over the
# jobs, over the workers), a job set trains faster in this process than in
# forked workers. On 2 cores, 4-job sweeps at b=32 break even between 19.2K
# and 25.6K, a two-seed variance trial (21.6K) pools 1.6x faster, and a
# 3.2K sweep pools 1.6x slower; README has the measurements.
POOL_MIN_SAMPLES_PER_WORKER = 20_000


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
        raise ConfigError(f"split: holds {len(idx)} pairs, retrieval needs at least 2")
    fwd = batch_forward(model, dataset.xs[idx], dataset.ys[idx])
    return recall_at_1(fwd.s)


def worker_count() -> int:
    """Upper bound on the worker processes of a job set: the DRRHO_THREADS
    env var, defaulting to the number of CPUs this process may run on."""
    raw = os.environ.get("DRRHO_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(f"DRRHO_THREADS: not an integer: {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(jobs: list, fn, workers: int) -> list:
    """Map fn over jobs on up to ``workers`` forked processes, or in this
    process for one; results keep job order so downstream assembly is
    deterministic."""
    workers = min(workers, len(jobs))
    if workers <= 1:
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


def _final_models(jobs: list) -> list:
    """The final model of every ``(config, dataset, cache)`` job, in job
    order, once ``plan_run`` has passed them all. Each run records only its
    final eval point: eval points read the model and never change it, so the
    model is the one every cadence gives. The cache goes only to runs that use it.

    The jobs train on ``min(worker_count(), len(jobs))`` worker processes
    when each would see at least ``POOL_MIN_SAMPLES_PER_WORKER`` samples
    (steps times batch size, summed over the jobs); below that, starting the
    pool and running forked workers side by side costs more than it saves,
    and the jobs train in this process."""
    jobs = [
        (replace(config, eval_every=max(1, config.effective_steps)), dataset, cache if config.needs_reference else None)
        for config, dataset, cache in jobs
    ]
    for job in jobs:
        plan_run(*job)
    workers = min(worker_count(), len(jobs))
    samples = sum(config.effective_steps * config.batch_size for config, _, _ in jobs)
    if samples < POOL_MIN_SAMPLES_PER_WORKER * workers:
        workers = 1
    return _run_jobs(jobs, _final_model, workers)


def _final_model(job):
    state, _ = train(*job)
    return state.model


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
    recalls = [evaluate_recall(model, dataset) for model in _final_models(jobs)]

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


def train_pairs_variance(model, dataset: PairedDataset, k: int, cache: EmbeddingCache | None = None):
    """Loss variances of the first ``k`` training pairs under ``model``:
    plain, and shifted by the reference ``cache`` (None without one)."""
    if k < 3:
        raise ConfigError(f"subset: need at least 3 anchors, got {k}")
    if cache is not None:
        check_cache_matches(cache, dataset)
    anchors = dataset.train_indices[:k]
    if len(anchors) < 3:
        raise ConfigError(f"data: train split holds {len(anchors)} pairs, loss variance needs at least 3")
    s = batch_forward(model, dataset.xs[anchors], dataset.ys[anchors]).s
    return loss_variance(s), None if cache is None else loss_variance(s - cache.similarity(anchors))


def variance_reduction_trial(seeds) -> list[dict[str, float]]:
    """Seeded trials of the variance-reduction effect, one row per seed.

    Per seed, the reference recipe at d=8, b=48 and 300 steps trains on a
    pool of 768 pairs and a target fresh on its first quarter; then the
    target's per-anchor pairwise-loss variances are measured with and
    without the reference shift on the first 96 pairs of its training data.
    Every seed's runs train as one batch.
    """
    seeds = list(seeds)
    datasets = [
        generate_synthetic(n=864, d_x=24, d_y=20, d_latent=6, noise_sigma=0.25, test_fraction=96 / 864, seed=seed)
        for seed in seeds
    ]
    target = TrainConfig(method="fastclip", steps=150, batch_size=48, embed_dim=8, lr=5e-3, train_fraction=0.25)
    jobs = []
    for seed, dataset in zip(seeds, datasets):
        jobs.append(_reference_job(dataset, embed_dim=8, steps=300, batch_size=48, seed=seed + 1))
        jobs.append((replace(target, seed=seed + 2), dataset, None))
    models = _final_models(jobs)
    rows = []
    for dataset, reference, model in zip(datasets, models[::2], models[1::2]):
        plain, shifted = train_pairs_variance(model, dataset, 96, build_reference_cache(dataset, reference))
        rows.append({"plain_image": plain.image_mean, "plain_text": plain.text_mean,
                     "rho_image": shifted.image_mean, "rho_text": shifted.text_mean})
    return rows


def data_efficiency_trial(seeds) -> list[dict[str, float]]:
    """Seeded data-efficiency comparisons against a strong reference, one
    row per seed.

    Per seed, the reference recipe trains on the full pool of 640 pairs,
    then the reference-shifted method on half and on all of the pool, and
    the no-reference baseline on all of it, every run for 150 steps at
    batch 48 with learnable temperature. A row holds final test retrieval
    accuracies. Every seed's reference trains in one batch, then every
    seed's other runs in another.
    """
    seeds = list(seeds)
    datasets = [generate_synthetic(640, 24, 20, 4, 0.3, 0.2, seed=seed) for seed in seeds]
    references = _final_models([_reference_job(dataset, seed=seed + 1000) for seed, dataset in zip(seeds, datasets)])
    base = TrainConfig(steps=150, batch_size=48, embed_dim=8, lr=5e-3, eval_subset=32, tau_learnable=True)
    runs = {"drrho_half": ("drrho-clip", 0.5), "drrho_full": ("drrho-clip", 1.0), "baseline_full": ("fastclip", 1.0)}
    caches = [build_reference_cache(dataset, reference) for dataset, reference in zip(datasets, references)]
    jobs = [
        (replace(base, method=method, train_fraction=fraction, seed=seed), dataset, cache)
        for seed, dataset, cache in zip(seeds, datasets, caches)
        for method, fraction in runs.values()
    ]
    models = iter(_final_models(jobs))
    return [
        {"reference": evaluate_recall(reference, dataset), **{k: evaluate_recall(next(models), dataset) for k in runs}}
        for dataset, reference in zip(datasets, references)
    ]


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
    recalls = [evaluate_recall(model, dataset) for model in _final_models([(c, dataset, cache) for c in configs])]
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


def _reference_job(dataset: PairedDataset, embed_dim=16, steps=800, batch_size=64, lr=5e-3, seed=1000) -> tuple:
    """The reference recipe as a ``_final_models`` job: fastclip on the
    full pool, with no reference of its own."""
    config = TrainConfig(method="fastclip", steps=steps, batch_size=batch_size, embed_dim=embed_dim, lr=lr, seed=seed)
    return config, dataset, None


def train_reference(dataset: PairedDataset, **recipe):
    """Train the reference recipe on ``dataset`` and cache its embeddings;
    the standard way benchmarks obtain a strong reference. Keywords
    (embed_dim, steps, batch_size, lr, seed) override the recipe's."""
    [model] = _final_models([_reference_job(dataset, **recipe)])
    return model, build_reference_cache(dataset, model)
