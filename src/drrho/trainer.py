"""Stochastic training of the two-tower model against the global objective.

The global contrastive objective averages a soft maximum of (optionally
reference-shifted) similarity gaps per anchor; its inner mean over an
anchor's negatives cannot be estimated unbiasedly from a mini batch alone.
The shifted gaps are the plain gaps of s = s_target - s_reference, which a
drrho-clip step forms once; every estimator takes that ``s`` (fastclip's is
s_target). Following the moving-average estimator approach, each pair i
carries two scalars u[0, i], u[1, i] tracking the inner mean of exponentiated
gaps for its image-side and text-side anchor losses:

    u[i] <- (1 - gamma) * u[i] + gamma * mean_over_batch_negatives exp(gap / tau)

The parameter gradient then weights each anchor's negatives by
exp(gap/tau) / (epsilon + u[i]), which at gamma = 1 with full-dataset
batches is exactly the gradient of the global objective, whose anchors
average over the same negatives j != i.
Temperature can be fixed or learned; the learnable variant adds a
2 * tau * rho penalty and its own closed-form gradient.

``start_run`` checks a config, initialises the model and holds in a ``Run``
what every step reuses; ``step`` advances a run by one step, and ``train``
is the two in a loop. Everything is deterministic given (config, seed):
each epoch's order is the next counter-based permutation of the pool, and
the optimizer is a from-scratch decoupled weight-decay Adam with linear
warmup and cosine decay. A step fills its b x b arrays in place into the
run's buffers, so only a run's first step faults in fresh memory: 3 b x b
arrays, 4 with distillation (see ``_step_buffers``). The estimators hold
one (2, b, b) set of exponentials q and never the gaps: the tau
gradient's sum_j q_ij * gap_ij is sum_j q_ij * s_ij - s_ii * sum_j q_ij,
as the gap is linear in s. A JEST step embeds its super batch once and
selects from the embeddings.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import baselines, container
# global_objective is not called here; bench/test_bench.py checks that the
# tracer wraps it through this module's binding.
from .contrastive import VarianceSummary, global_objective, negative_gaps, recall_at_1, shifted_gaps  # noqa: F401
from .data import EmbeddingCache, PairedDataset, check_cache_matches
from .encoder import BatchForward, TwoTowerModel, batch_forward, init_model, pair_embeddings, similarity_backward
from .errors import ConfigError, StateError, TrainingError
from .report import ExperimentReport
from .risk import log_mean_exp
from .rng import SEED_LIMIT, CounterRng

METHODS = ("openclip", "fastclip", "drrho-clip", "jest", "jest-topk")

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
    tau: float | None = None  # where a run starts, fixed or learned; None: see ``start_tau``
    tau_learnable: bool | None = None  # default: per-method convention
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
        # Each field is of its annotated JSON type, a number finite, then in range.
        for name, types in _CONFIG_TYPES.items():
            value = getattr(self, name)
            if container.json_type_error(value, types) or (isinstance(value, float) and not math.isfinite(value)):
                raise ConfigError(f"{name}: invalid {type(value).__name__} {value!r}")
        # The counts a run derives (JEST's steps and super batch) stay below
        # SEED_LIMIT, as seed + step must, so none overflows a float.
        checks = [
            ("steps", 0 <= self.steps < SEED_LIMIT / JEST_ITER_MULTIPLIER),
            ("batch_size", 2 <= self.batch_size < SEED_LIMIT),
            ("embed_dim", self.embed_dim >= 1),
            ("lr", self.lr > 0),
            ("tau", self.tau is None or self.tau > 0),
            ("rho_tau", self.rho_tau >= 0),
            ("gamma", 0 < self.gamma <= 1),
            ("epsilon", self.epsilon >= 0),
            ("lam", 0 <= self.lam <= 1),
            ("jest_ratio", 0 < self.jest_ratio <= 1 and self.batch_size < self.jest_ratio * SEED_LIMIT),
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
        # Every method but drrho-clip conventionally learns its temperature;
        # the reference-shifted method fixes it.
        return self.method in ("openclip", "fastclip", "jest", "jest-topk")

    @property
    def start_tau(self) -> float:
        """The temperature a run starts at: ``tau`` if set, else DEFAULT_TAU
        for a fixed temperature and 0.07 for a learned one."""
        if self.tau is not None:
            return self.tau
        return 0.07 if self.learnable_tau else DEFAULT_TAU

    @property
    def effective_steps(self) -> int:
        if self.method in ("jest", "jest-topk"):
            return int(round(self.steps * JEST_ITER_MULTIPLIER))
        return self.steps

    def resolved(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["tau"] = self.start_tau
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


# Each config field's accepted types, read from its annotation, which
# ``TrainConfig.validate`` checks as ``container.json_type_error`` reads them.
_CONFIG_TYPES = {
    name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(TrainConfig).items()
}


@dataclass
class TrainerState:
    model: TwoTowerModel  # its w1 and w2 are views of the head and tail of w
    u: np.ndarray  # (2, n) inner-mean estimators: image anchors, then text anchors
    config: TrainConfig
    step: int = 0
    w: np.ndarray = field(init=False)  # the flat weights, w1's then w2's
    m: np.ndarray = field(init=False)  # Adam's first moment, laid out like w
    v: np.ndarray = field(init=False)  # Adam's second moment, laid out like w
    m_tau: float = field(init=False, default=0.0)  # tau's first moment
    v_tau: float = field(init=False, default=0.0)  # tau's second moment

    def __post_init__(self):
        self.u = np.array(self.u, dtype=np.float64)
        if self.u.ndim != 2 or len(self.u) != 2:
            raise ConfigError(f"u: expected shape (2, n), got {self.u.shape}")
        model, k = self.model, self.model.w1.size
        self.w = np.concatenate((model.w1.ravel(), model.w2.ravel()))
        model.w1, model.w2 = self.w[:k].reshape(model.w1.shape), self.w[k:].reshape(model.w2.shape)
        self.m, self.v = np.zeros_like(self.w), np.zeros_like(self.w)

    def lr_at(self, step: int) -> float:
        base_lr, warmup = self.config.lr, self.config.resolved_warmup()
        if step < warmup:
            return base_lr * (step + 1) / warmup
        span = max(1, self.config.effective_steps - warmup)
        frac = min(1.0, (step - warmup) / span)
        return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def init_trainer_state(model: TwoTowerModel, n: int, config: TrainConfig) -> TrainerState:
    return TrainerState(model=model, u=np.zeros((2, n)), config=config)


def shifted_gap_exponentials(s: np.ndarray, tau: float, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch exponentiated gaps of ``s``, diagonal zeroed.

    Returns (q1, q2): q = exp(gaps / tau) over the image-anchor and
    text-anchor gaps of ``contrastive.shifted_gaps``, with the diagonal (the
    anchor itself) zeroed out. The gaps are written straight into q's
    memory, ``out`` if given, else a fresh array: a (2, b, b) array of which
    q1 is out[0] and q2 is out[1].T, the layout of ``shifted_gaps``, since
    the order of a row sum follows the layout.
    """
    q = np.empty((2, len(s), len(s))) if out is None else out
    q1, q2 = shifted_gaps(s, out=(q[0], q[1].T))
    np.divide(q, tau, out=q)
    np.exp(q, out=q)
    q.reshape(2, -1)[:, :: len(s) + 1] = 0.0
    return q1, q2


def _anchor_sums(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """(2, b): each image anchor's row sum of q1, then each text anchor's of q2."""
    return np.array((np.add.reduce(q1, axis=1), np.add.reduce(q2, axis=1)))


def _step_buffers(b: int) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
    """A step's (b, b) buffers, held for a run: (sim, ref, distill, q), all
    but sim in one (3, b, b) scratch: ref is scratch[0], q (or InfoNCE's two
    softmaxes) scratch[:2], and distill's (gradient, softmax) (scratch[2],
    scratch[1]), so its gradient outlives q. A drrho-clip step subtracts
    ``ref`` into ``sim`` after distillation has read both, and before q overwrites ``ref``."""
    scratch = np.empty((3, b, b))
    return np.empty((b, b)), scratch[0], (scratch[2], scratch[1]), scratch[:2]


def update_u(
    state: TrainerState,
    batch_indices: np.ndarray,
    s: np.ndarray,
    out: tuple | None = None,
) -> np.ndarray:
    """Moving-average update of ``state.u`` for the batch members (others unchanged).

    Any index whose estimator is still at its cold-start value of 0 takes
    the full batch average (first touch), unless gamma is 0, which is a
    no-op by definition. Batch indices must be distinct. Returns the
    batch's updated columns of ``state.u``, (2, b), the ``u`` the estimators take.
    """
    batch_indices = np.asarray(batch_indices, dtype=np.int64)
    b = len(batch_indices)
    if b < 2:
        raise ValueError("batch must contain at least 2 pairs (negatives required)")
    seen = np.zeros(state.u.shape[1], dtype=bool)
    seen[batch_indices] = True
    if np.count_nonzero(seen) != b:
        raise ValueError("batch_indices must not repeat an index")
    q1, q2 = shifted_gap_exponentials(s, state.model.tau, out=out)
    g, u = state.config.gamma, state.u
    old = u[:, batch_indices]
    g_i = np.where((old == 0.0) & (g > 0.0), 1.0, g)
    u[:, batch_indices] = new = (1.0 - g_i) * old + g_i * (_anchor_sums(q1, q2) / (b - 1))
    return new


def _eps_plus_u(state: TrainerState, u: np.ndarray, b: int) -> np.ndarray:
    """epsilon + u, (2, b), for the batch's u as ``update_u`` returns it."""
    if getattr(u, "shape", None) != (2, b):
        raise ValueError(f"u: expected the batch's columns of state.u, of shape (2, {b})")
    return np.add(state.config.epsilon, u)


def anchor_weight_coefficients(
    state: TrainerState,
    u: np.ndarray,
    s: np.ndarray,
    out: tuple | None = None,
) -> np.ndarray:
    """dObjectiveEstimate/dS for the batch: the coefficient on each
    similarity entry, combining both anchor directions. ``u`` is the
    batch's (2, b) u as ``update_u`` returns it. They are built in q1's
    memory, which the next estimator call on the same ``out`` overwrites."""
    b = len(s)
    w = 1.0 / _eps_plus_u(state, u, b)
    q = np.empty((2, b, b)) if out is None else out
    q1, q2 = shifted_gap_exponentials(s, state.model.tau, out=q)
    scale = 1.0 / (b * (b - 1))
    diag = -np.add.reduce(w * _anchor_sums(q1, q2)) * scale  # image plus text side
    q1 *= w[0][:, None]
    q2 *= w[1][:, None]
    np.multiply(q, scale, out=q)
    q1 += q2.T
    q1.flat[:: b + 1] += diag
    return q1


def gradient_estimator(
    state: TrainerState,
    u: np.ndarray,
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
    u: np.ndarray,
    s: np.ndarray,
    out: tuple | None = None,
) -> float:
    """Gradient of the learnable-temperature objective in tau.

    Per side: mean_i [ log(eps + u_i) - weighted mean of gap/tau under the
    exponentiated-gap weights, normalized by (eps + u_i) ]; plus the
    2 * rho penalty shared by both sides. The gaps are not held: the gap is
    linear in s, so sum_j q_ij * gap_ij = sum_j q_ij * s_ij - s_ii * sum_j q_ij.
    """
    if not state.config.learnable_tau:
        raise StateError("tau_gradient requires a learnable-temperature trainer")
    b = len(s)
    denom = _eps_plus_u(state, u, b)
    tau = state.model.tau
    q = np.empty((2, b, b)) if out is None else out
    q1, q2 = shifted_gap_exponentials(s, tau, out=q)
    sums = _anchor_sums(q1, q2)
    # q2 is q[1].T: text anchor a's weight on image j sits at q[1][j, a], by s[j, a].
    np.multiply(q, s, out=q)
    inner = (_anchor_sums(q1, q2) - s.diagonal() * sums) / ((b - 1) * tau)
    side = np.add.reduce(np.log(denom) - inner / denom, axis=1) / b
    return float(side[0]) + float(side[1]) + 2.0 * state.config.rho_tau


def optimizer_step(state: TrainerState, grads: dict[str, np.ndarray]) -> TwoTowerModel:
    """Decoupled-weight-decay adaptive-moment update with bias correction.

    Applies the warmup/cosine learning rate at the current step, in one
    pass over the flat weights given, then increments the step counter.
    The temperature uses its own moment pair, a scaled learning rate, no
    weight decay, and a floor at TAU_MIN. A non-finite gradient, or an
    update that leaves a parameter non-finite, raises a ``TrainingError``
    naming the step (from 1) and the parameter; a weight rebound since the
    state was made, no longer a view of ``state.w``, a ``StateError``.
    """
    model = state.model
    for name in ("w1", "w2"):
        if getattr(model, name).base is not state.w:
            raise StateError(f"{name}: rebound since the trainer state was made, so not a view of state.w")
    lo, hi = (0 if "w1" in grads else model.w1.size), (state.w.size if "w2" in grads else model.w1.size)
    g = np.concatenate([grads[k].ravel() for k in ("w1", "w2") if k in grads] or [np.empty(0)])
    g_tau = float(np.reshape(grads["tau"], 1)[0]) if "tau" in grads else 0.0
    if not (np.isfinite(g).all() and math.isfinite(g_tau)):
        for name, value in grads.items():
            if not np.all(np.isfinite(value)):
                bad = int(np.size(value) - np.isfinite(value).sum())
                raise TrainingError(f"step {state.step + 1}: non-finite gradient for {name!r} ({bad} entries)")
    lr, t = state.lr_at(state.step), state.step + 1
    bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    w, m, v = state.w[lo:hi], state.m[lo:hi], state.v[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * g * g
        w *= 1.0 - lr * WEIGHT_DECAY
        w -= lr * ((m / bc1) / (np.sqrt(v / bc2) + OPT_EPS))
        if not np.isfinite(w).all():
            name = "w1" if lo == 0 and not np.isfinite(model.w1).all() else "w2"
            raise TrainingError(f"step {t}: non-finite {name!r} after the update")
    if "tau" in grads:
        if not state.config.learnable_tau:
            raise StateError("tau gradient supplied but temperature is fixed")
        # Python floats round as float64 numpy does, and math.sqrt is correctly rounded.
        state.m_tau = mt = BETA1 * state.m_tau + (1.0 - BETA1) * g_tau
        state.v_tau = vt = BETA2 * state.v_tau + (1.0 - BETA2) * g_tau * g_tau
        model.tau = max(TAU_MIN, model.tau - lr * TAU_LR_SCALE * ((mt / bc1) / (math.sqrt(vt / bc2) + OPT_EPS)))
        if not math.isfinite(model.tau):
            raise TrainingError(f"step {t}: non-finite 'tau' after the update")
    state.step += 1
    return model


def _train_pool(dataset: PairedDataset, fraction: float) -> np.ndarray:
    pool = dataset.train_indices
    keep = int(np.floor(fraction * len(pool)))
    return pool[:keep]


def run_provenance(config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None) -> dict:
    """What a run's report is a function of, besides its config."""
    source = cache.source_id if cache is not None else ""
    return {"dataset_hash": dataset.content_hash(), "cache_source_id": source, "seed": config.seed}


@dataclass
class Run:
    """A training run between steps: its state, its report so far, and what ``start_run`` holds for every step."""

    state: TrainerState
    report: ExperimentReport
    dataset: PairedDataset
    cache: EmbeddingCache | None
    pool: np.ndarray
    size: int  # pairs drawn per step: the super batch under JEST
    select: str | None  # the JEST selection mode, or None
    shift: bool  # estimators take s_target - s_reference (drrho-clip)
    u: bool  # the moving-average estimator, else InfoNCE
    buffers: tuple  # the ``_step_buffers`` of the batch a step trains on
    evaluator: _Evaluator
    rng: CounterRng  # the next permutation is the next epoch's order
    order: np.ndarray | None = None  # this epoch's order of the pool


def plan_run(config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None = None) -> tuple:
    """A run's pool, JEST mode (or None), pairs drawn per step and pairs
    trained on; or the ConfigError of the first of its checks that fails."""
    config.validate()
    if config.needs_reference:
        if cache is None:
            raise ConfigError(f"method: {config.method!r} (distill={config.distill}) requires a reference cache")
        check_cache_matches(cache, dataset)

    pool = _train_pool(dataset, config.train_fraction)
    if len(pool) < config.batch_size:
        raise ConfigError(f"train_fraction: pool of {len(pool)} samples cannot fill batches of {config.batch_size}")
    select = {"jest": "sample", "jest-topk": "topk"}.get(config.method)
    size = int(round(config.batch_size / config.jest_ratio)) if select else config.batch_size
    if select and len(pool) < size:
        raise ConfigError(f"jest_ratio: pool of {len(pool)} cannot fill super batches of {size}")
    kept = baselines.selection_size(config.jest_ratio, size)
    if select and config.jest_chunks > kept:
        raise ConfigError(f"jest_chunks: {config.jest_chunks} chunks exceed the {kept} pairs each step selects")
    return pool, select, size, kept if select else config.batch_size


def start_run(config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None = None) -> Run:
    """A run at step 0: the inputs checked by ``plan_run``, the model
    initialised, and the step buffers and eval inputs gathered."""
    pool, select, size, batch = plan_run(config, dataset, cache)
    model = init_model(config.embed_dim, dataset.d_x, dataset.d_y, config.seed, tau=config.start_tau)
    shift = config.method == "drrho-clip"
    u = shift or config.method == "fastclip"
    state = init_trainer_state(model, dataset.n, config)
    report = ExperimentReport(config_snapshot=config.resolved(), provenance=run_provenance(config, dataset, cache))
    buffers = _step_buffers(batch)
    evaluator = _Evaluator(config, dataset, cache, pool, shift, u)
    rng = CounterRng(config.seed, _STREAM_BATCHES)
    return Run(state, report, dataset, cache, pool, size, select, shift, u, buffers, evaluator, rng)


def step(run: Run) -> None:
    """Advance the run one step, and record an eval point when one is due.

    The batch is the next ``size`` pairs of the epoch's order; an epoch
    drops the pool's remainder, and the next one draws a fresh order.
    """
    state, cache, t = run.state, run.cache, run.state.step
    config, model = state.config, state.model
    sim_out, ref_out, dist_out, q_out = run.buffers
    per_epoch = len(run.pool) // run.size
    if t % per_epoch == 0:
        run.order = run.pool[run.rng.permutation(len(run.pool))]
    first = t % per_epoch * run.size
    batch = run.order[first : first + run.size]
    xs_b, ys_b = run.dataset.xs[batch], run.dataset.ys[batch]
    if run.select:
        e, r = pair_embeddings(model, xs_b, ys_b)
        outcome = baselines.jest_select(
            e, (cache.e1[batch], cache.e2[batch]), batch, ratio=config.jest_ratio,
            n_chunks=config.jest_chunks, mode=run.select, seed=config.seed + t, score_tau=model.tau,
        )
        batch, pos = outcome.selected, outcome.positions
        xs_b, ys_b = xs_b[pos], ys_b[pos]
        fwd = BatchForward.of(e[:, pos], r[:, pos], out=sim_out)
    else:
        fwd = batch_forward(model, xs_b, ys_b, out=sim_out)
    s_ref = cache.similarity(batch, out=ref_out) if run.shift or config.distill else None
    if config.distill:
        dist = baselines.distillation_grad_s(fwd.s, s_ref, model.tau, cache.source_tau, out=dist_out)

    # Distillation has read both; q overwrites s_ref once it is subtracted.
    s = np.subtract(fwd.s, s_ref, out=fwd.s) if run.shift else fwd.s
    if run.u:
        u = update_u(state, batch, s, out=q_out)
        coef = anchor_weight_coefficients(state, u, s, out=q_out)
    else:
        coef = baselines.infonce_grad_s(s, model.tau, out=q_out)
    lam = config.lam if config.distill else 0.0
    if config.distill:  # (1 - lam) * L + lam * D: the backward pass is linear in dS
        coef *= 1.0 - lam
        coef += np.multiply(dist, lam, out=dist)
    grads = similarity_backward(fwd, xs_b, ys_b, coef)
    if config.learnable_tau:  # distillation has no pull on tau
        g_tau = (tau_gradient(state, u, s, out=q_out) if run.u
                 else baselines.infonce_tau_gradient(s, model.tau, out=q_out))
        grads["tau"] = np.asarray([(1.0 - lam) * g_tau])

    optimizer_step(state, grads)
    if state.step % config.resolved_eval_every() == 0 or state.step == config.effective_steps:
        run.evaluator.record(run.report, model, state.step)


def train(
    config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None = None
) -> tuple[TrainerState, ExperimentReport]:
    """Run the full training loop; pure function of (config, dataset, cache)."""
    run = start_run(config, dataset, cache)
    for _ in range(config.effective_steps):
        step(run)
    return run.state, run.report


class _Evaluator:
    """The eval points of one run, over inputs gathered when the run starts.

    It holds the features of the eval subset (the head of the training
    pool) and of the test split, the eval subset's reference similarity for
    a shifted run, fixed for the run, a buffer of ``negative_gaps`` rows and
    one for the temporaries of ``log_mean_exp`` and of the loss variances,
    and the similarity matrices of both forward passes. Each eval point does
    one forward pass, subtracts the reference similarity in place and fills
    the rows; every method's objective and both loss variances read them.
    At eval_subset=128 a similarity matrix is 128 KiB, which glibc may map
    fresh on every call.
    """

    def __init__(
        self, config: TrainConfig, dataset: PairedDataset, cache: EmbeddingCache | None, pool: np.ndarray,
        shift: bool, u: bool,
    ):
        self.config, self.u = config, u
        subset = pool[: config.eval_subset]
        self.xs, self.ys = dataset.xs[subset], dataset.ys[subset]
        test = dataset.test_indices
        self.test = (dataset.xs[test], dataset.ys[test]) if len(test) >= 2 else None
        self.rows, self.lme_scratch = np.empty((2, 2 * len(subset), len(subset) - 1))
        self.sim = np.empty((len(subset), len(subset)))
        self.test_sim = np.empty((len(test), len(test))) if self.test is not None else None
        self.ref_sim = cache.similarity(subset) if shift else None

    def record(self, report: ExperimentReport, model: TwoTowerModel, step: int) -> None:
        s = batch_forward(model, self.xs, self.ys, out=self.sim).s
        if self.ref_sim is not None:
            s -= self.ref_sim
        n = len(s)
        rows = negative_gaps(s, out=self.rows)
        lme = log_mean_exp(rows, model.tau, out=self.lme_scratch)
        if self.u:
            objective = float(lme.sum() / n)
        else:
            # InfoNCE: each anchor's log(1 + sum_{j != i} exp(gap_ij / tau)),
            # averaged over the 2n image and text rows.
            objective = float(np.logaddexp(0.0, math.log(n - 1) + lme / model.tau).mean())
        report.add(step, "objective", objective)
        if n >= 3:
            var = VarianceSummary.of_rows(rows, scratch=self.lme_scratch)
            report.add(step, "loss_variance_image", var.image_mean)
            report.add(step, "loss_variance_text", var.text_mean)
        if self.test is not None:
            s_test = batch_forward(model, *self.test, out=self.test_sim).s
            report.add(step, "recall_at_1", recall_at_1(s_test))
        if self.config.learnable_tau:
            report.add(step, "tau", model.tau)
