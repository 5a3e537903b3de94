"""Stochastic training of the two-tower model against the global objective.

The global contrastive objective averages a soft maximum of (optionally
reference-shifted) similarity gaps per anchor; its inner mean over an
anchor's negatives cannot be estimated unbiasedly from a mini batch alone.
The shifted gaps are the plain gaps of s = s_target - s_reference, which a
drrho-clip step forms once; every estimator takes that ``s`` (fastclip's is
s_target). Following the moving-average estimator approach, each pair i
carries two scalars u1[i], u2[i] tracking the inner mean of exponentiated
gaps for its image-side and text-side anchor losses:

    u[i] <- (1 - gamma) * u[i] + gamma * mean_over_batch_negatives exp(gap / tau)

The parameter gradient then weights each anchor's negatives by
exp(gap/tau) / (epsilon + u[i]), which at gamma = 1 with full-dataset
batches is exactly the gradient of the exclude-anchor global objective.
Temperature can be fixed or learned; the learnable variant adds a
2 * tau * rho penalty and its own closed-form gradient.

Everything is deterministic given (config, seed): batches come from a
counter-based shuffle, and the optimizer is a from-scratch decoupled
weight-decay Adam with linear warmup and cosine decay. A step's b x b
arrays (and JEST's super-batch pair) are filled in place into buffers
that ``train()`` holds for the run, so only a run's first step faults in
fresh memory.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, container
# global_objective is not called here; bench/test_bench.py checks that the
# tracer wraps it through this module's binding.
from .contrastive import global_objective, negative_gaps, shifted_gaps  # noqa: F401
from .data import EmbeddingCache, PairedDataset, check_cache_matches
from .encoder import BatchForward, TwoTowerModel, batch_forward, init_model, similarity_backward
from .errors import ConfigError, StateError, TrainingError
from .report import ExperimentReport
from .risk import log_mean_exp
from .rng import SEED_LIMIT, CounterRng

METHODS = ("openclip", "fastclip", "drrho-clip", "jest", "jest-topk")
_U_METHODS = ("fastclip", "drrho-clip")

_STREAM_BATCHES = 10

# Mini-batch descent on tiny models is insensitive to the exact Adam
# constants; these follow common contrastive-pretraining practice.
BETA1 = 0.9
BETA2 = 0.98
OPT_EPS = 1e-8
WEIGHT_DECAY = 0.1
TAU_MIN = 0.005
TAU_LR_SCALE = 0.25
# The JEST methods train for this multiple of the configured steps, the
# step budget their comparison grants them to match compute.
JEST_ITER_MULTIPLIER = 1.87

DEFAULT_TAU = 0.01
DEFAULT_JEST_RATIO = 0.2


@dataclass
class TrainConfig:
    method: str = "drrho-clip"
    steps: int = 200
    batch_size: int = 32
    embed_dim: int = 8
    lr: float = 1e-2
    tau: float = DEFAULT_TAU
    tau_learnable: bool | None = None  # default: per-method convention
    tau_init: float = 0.07
    rho_tau: float = 11.0
    gamma: float = 0.8
    epsilon: float = 1e-8
    distill: bool = False
    lam: float = 0.25
    jest_ratio: float = DEFAULT_JEST_RATIO
    jest_chunks: int = 2
    train_fraction: float = 1.0
    eval_every: int | None = None  # default: max(1, effective_steps // 50)
    eval_subset: int = 128
    seed: int = 0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}, expected one of {METHODS}")
        # Every float setting must be finite, then lie in its range.
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        checks = [(name, math.isfinite(v)) for name, v in values.items() if isinstance(v, float)]
        checks += [
            ("steps", self.steps >= 0),
            ("batch_size", self.batch_size >= 2),
            ("embed_dim", self.embed_dim >= 1),
            ("lr", self.lr > 0),
            ("tau", self.tau > 0),
            ("tau_init", self.tau_init > 0),
            ("rho_tau", self.rho_tau >= 0),
            ("gamma", 0 < self.gamma <= 1),
            ("epsilon", self.epsilon >= 0),
            ("lam", 0 <= self.lam <= 1),
            ("jest_ratio", 0 < self.jest_ratio <= 1),
            ("jest_chunks", self.jest_chunks >= 1),
            ("train_fraction", 0 < self.train_fraction <= 1),
            ("eval_every", self.eval_every is None or self.eval_every >= 1),
            ("eval_subset", self.eval_subset >= 4),
            ("seed", 0 <= self.seed < SEED_LIMIT),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"{name}: invalid value {getattr(self, name)!r}")

    @property
    def needs_reference(self) -> bool:
        return self.method in ("drrho-clip", "jest", "jest-topk") or self.distill

    @property
    def learnable_tau(self) -> bool:
        if self.tau_learnable is not None:
            return self.tau_learnable
        # Baselines without a reference conventionally learn their
        # temperature; the reference-shifted method fixes it.
        return self.method in ("openclip", "fastclip", "jest", "jest-topk")

    @property
    def effective_steps(self) -> int:
        if self.method in ("jest", "jest-topk"):
            return int(round(self.steps * JEST_ITER_MULTIPLIER))
        return self.steps

    def resolved(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["tau_learnable"] = self.learnable_tau
        out["effective_steps"] = self.effective_steps
        out["warmup_steps"] = self.resolved_warmup()
        out["eval_every"] = self.resolved_eval_every()
        return out

    def resolved_warmup(self) -> int:
        return max(1, self.effective_steps // 10)

    def resolved_eval_every(self) -> int:
        if self.eval_every is not None:
            return self.eval_every
        return max(1, self.effective_steps // 50)


# Each config field's accepted JSON types, read from its annotation; a
# checkpoint's metadata is checked against these before it is rebuilt.
_CONFIG_META_TYPES = {
    name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(TrainConfig).items()
}

_MOMENTS = ("m_w1", "v_w1", "m_w2", "v_w2", "m_tau", "v_tau")


@dataclass
class TrainerState:
    model: TwoTowerModel
    u1: np.ndarray  # (n,) image-anchor inner-mean estimators
    u2: np.ndarray  # (n,) text-anchor inner-mean estimators
    config: TrainConfig
    step: int = 0
    moments: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=np.float64)
        self.u2 = np.asarray(self.u2, dtype=np.float64)
        if not self.moments:
            shapes = {"w1": self.model.w1.shape, "w2": self.model.w2.shape, "tau": (1,)}
            self.moments = {name: np.zeros(shapes[name[2:]]) for name in _MOMENTS}

    def lr_at(self, step: int) -> float:
        base_lr, warmup = self.config.lr, self.config.resolved_warmup()
        if step < warmup:
            return base_lr * (step + 1) / warmup
        span = max(1, self.config.effective_steps - warmup)
        frac = min(1.0, (step - warmup) / span)
        return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def init_trainer_state(model: TwoTowerModel, n: int, config: TrainConfig) -> TrainerState:
    return TrainerState(model=model, u1=np.zeros(n), u2=np.zeros(n), config=config)


def shifted_gap_exponentials(
    s: np.ndarray, tau: float, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-batch gaps of ``s`` and their exponentials, diagonal zeroed.

    Returns (gaps1, q1, gaps2, q2): gaps1 and gaps2 are the image-anchor and
    text-anchor gaps of ``contrastive.shifted_gaps``, and q = exp(gaps / tau)
    with the diagonal (the anchor itself) zeroed out. Given ``out``, the
    ``gaps`` set of ``_step_buffers``, all are written into it.
    """
    g1, q1, g2, q2 = (None,) * 4 if out is None else out
    gaps1, gaps2 = shifted_gaps(s, out=(g1, g2))
    q1, q2 = np.divide(gaps1, tau, out=q1), np.divide(gaps2, tau, out=q2)
    for q in (q1, q2):
        np.exp(q, out=q)
        np.fill_diagonal(q, 0.0)
    return gaps1, q1, gaps2, q2


def _step_buffers(b: int) -> tuple[tuple, list, np.ndarray, np.ndarray]:
    """A step's (b, b) buffers, held for a run: (gaps, infonce, sim, ref_sim).
    ``gaps`` is the ``out`` of ``shifted_gap_exponentials``, with gaps2 and q2
    transposed views as the allocating path returns them, since the order of
    a row sum follows the layout; ``infonce`` reuses its first three arrays.
    A drrho-clip step overwrites ``ref_sim`` with s_target - s_reference."""
    w = [np.empty((b, b)) for _ in range(6)]
    return (w[0], w[1], w[2].T, w[3].T), w[:3], w[4], w[5]


def update_u(
    state: TrainerState,
    batch_indices: np.ndarray,
    s: np.ndarray,
    out: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Moving-average update of u1/u2 for the batch members (others unchanged).

    Any index whose estimator is still at its cold-start value of 0 takes
    the full batch average (first touch), unless gamma is 0, which is a
    no-op by definition. Batch indices must be distinct. Returns the
    batch's updated (u1, u2), the ``u`` the estimators below take.
    """
    batch_indices = np.asarray(batch_indices, dtype=np.int64)
    b = len(batch_indices)
    if b < 2:
        raise ValueError("batch must contain at least 2 pairs (negatives required)")
    seen = np.zeros(state.u1.shape, dtype=bool)
    seen[batch_indices] = True
    if np.count_nonzero(seen) != b:
        raise ValueError("batch_indices must not repeat an index")
    _, q1, _, q2 = shifted_gap_exponentials(s, state.model.tau, out=out)
    g = state.config.gamma
    for u, q in ((state.u1, q1), (state.u2, q2)):
        old = u[batch_indices]
        g_i = np.where((old == 0.0) & (g > 0.0), 1.0, g)
        u[batch_indices] = (1.0 - g_i) * old + g_i * (q.sum(axis=1) / (b - 1))
    return state.u1[batch_indices].copy(), state.u2[batch_indices].copy()


def _check_u(u: tuple[np.ndarray, np.ndarray], b: int) -> None:
    if len(u) != 2 or any(np.shape(side) != (b,) for side in u):
        raise ValueError(f"u: expected the batch's (u1, u2), each of shape ({b},)")


def anchor_weight_coefficients(
    state: TrainerState,
    u: tuple[np.ndarray, np.ndarray],
    s: np.ndarray,
    out: tuple | None = None,
) -> np.ndarray:
    """dObjectiveEstimate/dS for the batch: the coefficient on each
    similarity entry, combining both anchor directions. ``u`` is the
    batch's (u1, u2) as ``update_u`` returns it. They are built in q1's
    memory, which the next estimator call on the same ``out`` overwrites."""
    b = len(s)
    _check_u(u, b)
    _, q1, _, q2 = shifted_gap_exponentials(s, state.model.tau, out=out)
    w1 = 1.0 / (state.config.epsilon + u[0])
    w2 = 1.0 / (state.config.epsilon + u[1])
    scale = 1.0 / (b * (b - 1))
    diag = -(w1 * q1.sum(axis=1) + w2 * q2.sum(axis=1)) * scale
    for q, w in ((q1, w1), (q2, w2)):
        q *= w[:, None]
        q *= scale
    q1 += q2.T
    q1.flat[:: b + 1] += diag
    return q1


def gradient_estimator(
    state: TrainerState,
    u: tuple[np.ndarray, np.ndarray],
    fwd: BatchForward,
    xs_batch: np.ndarray,
    ys_batch: np.ndarray,
    s: np.ndarray,
    out: tuple | None = None,
) -> dict[str, np.ndarray]:
    """Parameter gradient G1 + G2 for the batch, through both towers,
    weighting anchors by 1/(epsilon + u) with the batch's fresh u."""
    coef = anchor_weight_coefficients(state, u, s, out=out)
    return similarity_backward(fwd, xs_batch, ys_batch, coef)


def tau_gradient(
    state: TrainerState,
    u: tuple[np.ndarray, np.ndarray],
    s: np.ndarray,
    out: tuple | None = None,
) -> float:
    """Gradient of the learnable-temperature objective in tau.

    Per side: mean_i [ log(eps + u_i) - weighted mean of gap/tau under the
    exponentiated-gap weights, normalized by (eps + u_i) ]; plus the
    2 * rho penalty shared by both sides.
    """
    if not state.config.learnable_tau:
        raise StateError("tau_gradient requires a learnable-temperature trainer")
    b = len(s)
    _check_u(u, b)
    tau = state.model.tau
    gaps1, q1, gaps2, q2 = shifted_gap_exponentials(s, tau, out=out)
    total = 0.0
    for u_side, q, gaps in ((u[0], q1, gaps1), (u[1], q2, gaps2)):
        denom = state.config.epsilon + u_side
        inner = np.multiply(q, gaps, out=q).sum(axis=1) / ((b - 1) * tau)
        total += float(np.mean(np.log(denom) - inner / denom))
    return total + 2.0 * state.config.rho_tau


def optimizer_step(state: TrainerState, grads: dict[str, np.ndarray]) -> TwoTowerModel:
    """Decoupled-weight-decay adaptive-moment update with bias correction.

    Applies the warmup/cosine learning rate at the current step, then
    increments the step counter. The temperature uses its own moment pair,
    a scaled learning rate, no weight decay, and a floor at TAU_MIN. A
    non-finite gradient, or an update that leaves a parameter non-finite,
    raises a ``TrainingError`` naming the step (from 1) and the parameter.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise TrainingError(f"step {state.step + 1}: non-finite gradient for {name!r} ({bad} entries)")
    lr = state.lr_at(state.step)
    t = state.step + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t

    def adam(m: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * g * g
        return (m / bc1) / (np.sqrt(v / bc2) + OPT_EPS)

    model = state.model
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        for name, w in (("w1", model.w1), ("w2", model.w2)):
            if name not in grads:
                continue
            direction = adam(state.moments[f"m_{name}"], state.moments[f"v_{name}"], grads[name])
            w *= 1.0 - lr * WEIGHT_DECAY
            w -= lr * direction
            if not np.isfinite(w).all():
                raise TrainingError(f"step {t}: non-finite {name!r} after the update")
        if "tau" in grads:
            if not state.config.learnable_tau:
                raise StateError("tau gradient supplied but temperature is fixed")
            g = np.asarray(grads["tau"], dtype=np.float64).reshape(1)
            direction = adam(state.moments["m_tau"], state.moments["v_tau"], g)
            model.tau = max(TAU_MIN, model.tau - lr * TAU_LR_SCALE * float(direction[0]))
            if not math.isfinite(model.tau):
                raise TrainingError(f"step {t}: non-finite 'tau' after the update")
    state.step += 1
    return model


class _EpochSampler:
    """Without-replacement batches from a seeded shuffle; drops remainders."""

    def __init__(self, pool: np.ndarray, batch: int, rng: CounterRng):
        if batch > len(pool):
            raise ConfigError(f"batch_size: batch {batch} exceeds training pool {len(pool)}")
        self.pool = np.asarray(pool, dtype=np.int64)
        self.batch = batch
        self.rng = rng
        self._order = None
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self._order is None or self._pos + self.batch > len(self.pool):
            self._order = self.pool[self.rng.permutation(len(self.pool))]
            self._pos = 0
        out = self._order[self._pos : self._pos + self.batch]
        self._pos += self.batch
        return out


def _train_pool(dataset: PairedDataset, fraction: float) -> np.ndarray:
    pool = dataset.train_indices
    keep = int(np.floor(fraction * len(pool)))
    return pool[:keep]


def train(
    config: TrainConfig,
    dataset: PairedDataset,
    cache: EmbeddingCache | None = None,
) -> tuple[TrainerState, ExperimentReport]:
    """Run the full training loop; pure function of (config, dataset, cache)."""
    config.validate()
    if config.needs_reference:
        if cache is None:
            raise ConfigError(f"method: {config.method!r} (distill={config.distill}) requires a reference cache")
        check_cache_matches(cache, dataset)

    pool = _train_pool(dataset, config.train_fraction)
    if len(pool) < config.batch_size:
        raise ConfigError(
            f"train_fraction: pool of {len(pool)} samples cannot fill batches of {config.batch_size}"
        )
    jest = config.method in ("jest", "jest-topk")
    super_size = int(round(config.batch_size / config.jest_ratio)) if jest else config.batch_size
    if jest and len(pool) < super_size:
        raise ConfigError(f"jest_ratio: pool of {len(pool)} cannot fill super batches of {super_size}")
    kept = baselines.selection_size(config.jest_ratio, super_size)
    if jest and config.jest_chunks > kept:
        raise ConfigError(f"jest_chunks: {config.jest_chunks} chunks exceed the {kept} pairs each step selects")

    tau0 = config.tau_init if config.learnable_tau else config.tau
    model = init_model(config.embed_dim, dataset.d_x, dataset.d_y, config.seed, tau=tau0)
    state = init_trainer_state(model, dataset.n, config)
    report = ExperimentReport(
        config_snapshot=config.resolved(),
        provenance={
            "dataset_hash": dataset.content_hash(),
            "cache_source_id": cache.source_id if cache is not None else "",
            "seed": config.seed,
        },
    )
    steps = config.effective_steps
    if steps == 0:
        return state, report

    evaluator = _Evaluator(config, dataset, cache, pool)
    # One array per matrix: glibc kept a single 26 MB block resident after a run.
    gap_out, nce_out, sim_out, ref_out = _step_buffers(kept if jest else config.batch_size)
    super_out = [np.empty((super_size, super_size)) for _ in range(2)] if jest else None
    rng = CounterRng(config.seed, _STREAM_BATCHES)
    sampler = _EpochSampler(pool, super_size, rng)
    eval_every = config.resolved_eval_every()

    for t in range(steps):
        batch = sampler.next_batch()
        if jest:
            s_t_super = batch_forward(model, dataset.xs[batch], dataset.ys[batch], out=super_out[0]).s
            s_r_super = cache.similarity(batch, out=super_out[1])
            outcome = baselines.jest_select(
                s_t_super,
                s_r_super,
                batch,
                ratio=config.jest_ratio,
                n_chunks=config.jest_chunks,
                mode="topk" if config.method == "jest-topk" else "sample",
                seed=config.seed + t,
                score_tau=model.tau,
            )
            batch = outcome.selected
        xs_b, ys_b = dataset.xs[batch], dataset.ys[batch]
        fwd = batch_forward(model, xs_b, ys_b, out=sim_out)
        s_ref = cache.similarity(batch, out=ref_out) if config.method == "drrho-clip" or config.distill else None
        # Distillation reads s_ref before a drrho-clip step overwrites it.
        if config.distill:
            dist_coef = baselines.distillation_grad_s(fwd.s, s_ref, model.tau, cache.source_tau)
            dist_grads = similarity_backward(fwd, xs_b, ys_b, dist_coef)

        grads: dict[str, np.ndarray]
        if config.method in _U_METHODS:
            s = np.subtract(fwd.s, s_ref, out=s_ref) if config.method == "drrho-clip" else fwd.s
            u = update_u(state, batch, s, out=gap_out)
            grads = gradient_estimator(state, u, fwd, xs_b, ys_b, s, out=gap_out)
            tau_grad = tau_gradient(state, u, s, out=gap_out) if config.learnable_tau else None
        else:
            coef = baselines.infonce_grad_s(fwd.s, model.tau, out=nce_out)
            grads = similarity_backward(fwd, xs_b, ys_b, coef)
            tau_grad = baselines.infonce_tau_gradient(fwd.s, model.tau, out=nce_out) if config.learnable_tau else None

        if config.distill:
            lam = config.lam
            for name in grads:
                grads[name] = (1.0 - lam) * grads[name] + lam * dist_grads[name]
            if tau_grad is not None:
                # distillation's temperature pull is intentionally excluded
                tau_grad = (1.0 - lam) * tau_grad
        if tau_grad is not None:
            grads["tau"] = np.asarray([tau_grad])

        optimizer_step(state, grads)

        if (t + 1) % eval_every == 0 or t == steps - 1:
            evaluator.record(report, model, t + 1)
    return state, report


class _Evaluator:
    """The eval points of one run, over inputs gathered when the run starts.

    It holds the features of the eval subset (the head of the training
    pool) and of the test split, the eval subset's reference similarity for
    drrho-clip, which is fixed for the run, and one buffer of
    ``negative_gaps`` rows. Each eval point does one forward pass, subtracts
    the reference similarity from it in place and fills that buffer; every
    method's objective and both loss variances read it.
    """

    def __init__(
        self, config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None, pool: np.ndarray
    ):
        self.config = config
        subset = pool[: config.eval_subset]
        self.xs, self.ys = dataset.xs[subset], dataset.ys[subset]
        test = dataset.test_indices
        self.test = (dataset.xs[test], dataset.ys[test]) if len(test) >= 2 else None
        self.rows = np.empty((2 * len(subset), len(subset) - 1))
        self.ref_sim = cache.similarity(subset) if config.method == "drrho-clip" else None

    def record(self, report: ExperimentReport, model: TwoTowerModel, step: int) -> None:
        from . import experiments  # local import; experiments drives trainer for sweeps

        s = batch_forward(model, self.xs, self.ys).s
        if self.ref_sim is not None:
            s -= self.ref_sim
        n = len(s)
        rows = negative_gaps(s, out=self.rows)
        lme = log_mean_exp(rows, model.tau)
        if self.config.method in _U_METHODS:
            objective = float(lme.sum() / n)
        else:
            # InfoNCE: each anchor's log(1 + sum_{j != i} exp(gap_ij / tau)),
            # averaged over the 2n image and text rows.
            objective = float(np.logaddexp(0.0, math.log(n - 1) + lme / model.tau).mean())
        report.add(step, "objective", objective)
        if n >= 3:
            var = experiments.VarianceSummary.of_rows(rows)
            report.add(step, "loss_variance_image", var.image_mean)
            report.add(step, "loss_variance_text", var.text_mean)
        if self.test is not None:
            s_test = batch_forward(model, *self.test).s
            report.add(step, "recall_at_1", experiments.recall_at_1(s_test))
        if self.config.learnable_tau:
            report.add(step, "tau", model.tau)


def save_checkpoint(state: TrainerState, path: str | Path) -> None:
    """Write weights, u, moments and the resolved run config that produced them."""
    arrays = {
        "w1": state.model.w1,
        "w2": state.model.w2,
        "tau": np.asarray([state.model.tau]),
        "u1": state.u1,
        "u2": state.u2,
    }
    arrays.update((k, state.moments[k]) for k in _MOMENTS)
    meta = {**state.config.resolved(), "step": state.step, "model_id_hash": state.model.id_hash}
    container.write_container(path, container.KIND_TRAINER, arrays, meta=meta)


def load_checkpoint(path: str | Path) -> TrainerState:
    arrays, meta = container.read_container(path, expect_kind=container.KIND_TRAINER)
    container.require_arrays(path, arrays, ("w1", "w2", "tau", "u1", "u2", *_MOMENTS))
    values = container.require_meta(path, meta, {**_CONFIG_META_TYPES, "step": (int,)})
    step = int(values.pop("step"))
    config = TrainConfig(**values)
    config.validate()
    return TrainerState(
        model=TwoTowerModel(w1=arrays["w1"], w2=arrays["w2"], tau=float(arrays["tau"][0])),
        u1=arrays["u1"],
        u2=arrays["u2"],
        config=config,
        step=step,
        moments={k: arrays[k] for k in _MOMENTS},
    )
