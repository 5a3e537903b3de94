"""Comparison methods: the mini-batch InfoNCE gradients, staged joint
example selection, and the gradient of the soft-target distillation loss,
which the trainer blends with the contrastive gradient.

Only the gradients of both losses live here, in the batch similarity
matrix (and InfoNCE's in tau); chaining dLoss/dS through
``encoder.similarity_backward`` is how the training loop consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrastive import _check_same_shape, _check_square
from .risk import log_mean_exp
from .rng import CounterRng


def _log_softmax(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    z = a - m
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# mini-batch InfoNCE


def infonce_grad_s(s, tau: float) -> np.ndarray:
    """dInfoNCE/dS in closed form: softmax probabilities minus the identity,
    averaged over both directions."""
    s = _check_square(s)
    if not tau > 0:
        raise ValueError("tau must be positive")
    a = s / tau
    p_row = np.exp(_log_softmax(a, axis=1))
    p_col = np.exp(_log_softmax(a, axis=0))
    eye = np.eye(len(s))
    return ((p_row - eye) + (p_col - eye)) / (2.0 * len(s) * tau)


def infonce_tau_gradient(s, tau: float) -> float:
    """dInfoNCE/dtau via the chain rule through the scaled similarities."""
    s = _check_square(s)
    return float(-np.sum(infonce_grad_s(s, tau) * s) / tau)


# ---------------------------------------------------------------------------
# staged joint example selection


@dataclass
class ChunkTrace:
    indices: np.ndarray  # dataset indices selected in this chunk
    scores: np.ndarray  # their selection scores


@dataclass
class SelectionOutcome:
    super_batch: np.ndarray
    selected: np.ndarray
    chunk_trace: list[ChunkTrace]


def selection_size(ratio: float, super_size: int) -> int:
    """ceil(ratio * |super|), the number of pairs a selection keeps."""
    return int(np.ceil(ratio * super_size))


def _anchor_scores(
    s_t: np.ndarray, s_r: np.ndarray, candidates: np.ndarray, sel: np.ndarray, tau: float
) -> np.ndarray:
    """Shifted soft-maximum loss of each candidate against the selected set,
    summed over both anchor directions."""
    # Two ``take`` gathers are exact and cheaper than one ``np.ix_`` index.
    # The text-anchor blocks stay transposed views: the row sums' order
    # follows the memory layout.
    diag_t = s_t.diagonal().take(candidates)
    diag_r = s_r.diagonal().take(candidates)
    gaps1 = (s_t.take(sel, axis=1).take(candidates, axis=0) - diag_t[:, None]) - (
        s_r.take(sel, axis=1).take(candidates, axis=0) - diag_r[:, None]
    )
    gaps2 = (s_t.take(sel, axis=0).take(candidates, axis=1).T - diag_t[:, None]) - (
        s_r.take(sel, axis=0).take(candidates, axis=1).T - diag_r[:, None]
    )
    return log_mean_exp(gaps1, tau) + log_mean_exp(gaps2, tau)


def jest_select(
    s_target,
    s_reference,
    super_batch,
    ratio: float,
    n_chunks: int,
    mode: str = "sample",
    seed: int = 0,
    score_tau: float = 0.01,
) -> SelectionOutcome:
    """Select ceil(ratio * |super|) pairs from a super batch in chunks.

    The first chunk scores candidates by their own target similarity
    s(x_i, y_i); later chunks score each remaining candidate by its shifted
    soft-maximum loss against everything already selected, so picks stay
    informative relative to each other. ``sample`` draws without
    replacement with probability proportional to softmax(score); ``topk``
    takes the largest scores (ties to the lower position). Deterministic
    given seed.
    """
    s_t, s_r = _check_same_shape(s_target, s_reference)
    super_batch = np.asarray(super_batch, dtype=np.int64)
    m = len(super_batch)
    if s_t.shape != (m, m):
        raise ValueError(f"similarity matrices must be {m}x{m} for this super batch")
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    if n_chunks < 1:
        raise ValueError("n_chunks must be at least 1")
    if mode not in ("sample", "topk"):
        raise ValueError(f"mode must be 'sample' or 'topk', got {mode!r}")
    k = selection_size(ratio, m)
    if k < n_chunks:
        raise ValueError(f"selection of {k} cannot be split into {n_chunks} chunks")

    base = k // n_chunks
    sizes = [base] * (n_chunks - 1) + [k - base * (n_chunks - 1)]
    rng = CounterRng(seed, stream=0)
    remaining = np.arange(m)
    taken = np.zeros(m, dtype=bool)
    sel = np.zeros(0, dtype=np.int64)
    trace: list[ChunkTrace] = []
    for c, size in enumerate(sizes):
        if c == 0:
            scores = s_t.diagonal().take(remaining)
        else:
            scores = _anchor_scores(s_t, s_r, remaining, sel, score_tau)
        if mode == "topk":
            order = np.argsort(-scores, kind="stable")[:size]
        else:
            probs = np.exp(scores - scores.max())
            order = rng.weighted_draws(probs, size)
        picked = remaining[order]
        trace.append(ChunkTrace(indices=super_batch[picked], scores=scores[order].copy()))
        sel = np.concatenate([sel, picked])
        taken[picked] = True
        remaining = np.flatnonzero(~taken)
    return SelectionOutcome(super_batch=super_batch, selected=super_batch[sel], chunk_trace=trace)


# ---------------------------------------------------------------------------
# soft-target distillation


def distillation_grad_s(s_target, s_reference, tau: float, tau_ref: float) -> np.ndarray:
    """dDistillation/dS_target, where the distillation loss is the
    cross-entropy from the reference's row and column softmax distributions
    (at tau_ref) to the target's (at tau), summed over both directions and
    divided by b^2. That is (target softmax - reference softmax) per
    direction, scaled by 1/(b^2 tau); exactly zero at matched
    distributions."""
    s_t, s_r = _check_same_shape(s_target, s_reference)
    if not (tau > 0 and tau_ref > 0):
        raise ValueError("temperatures must be positive")
    b = len(s_t)
    grad = np.zeros_like(s_t)
    for axis in (1, 0):
        p = np.exp(_log_softmax(s_t / tau, axis=axis))
        p_hat = np.exp(_log_softmax(s_r / tau_ref, axis=axis))
        grad += p - p_hat
    return grad / (b * b * tau)

