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


def _softmax_into(a: np.ndarray, axis: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Softmax of ``a`` along ``axis``, as exp of the max-shifted log-softmax,
    written into ``out``; ``work``, which may be ``a``, takes the
    exponentials that the normalizer sums."""
    np.subtract(a, a.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=work)
    out -= np.log(work.sum(axis=axis, keepdims=True))
    return np.exp(out, out=out)


# ---------------------------------------------------------------------------
# mini-batch InfoNCE


def infonce_grad_s(s, tau: float, out=None) -> np.ndarray:
    """dInfoNCE/dS in closed form: softmax probabilities minus the identity,
    averaged over both directions. Given ``out``, three arrays shaped like
    ``s``, the work is done in them and the gradient is ``out[1]``."""
    s = _check_square(s)
    if not tau > 0:
        raise ValueError("tau must be positive")
    a, p_row, p_col = out if out is not None else (np.empty_like(s) for _ in range(3))
    np.divide(s, tau, out=a)
    _softmax_into(a, 1, p_row, work=p_col)
    _softmax_into(a, 0, p_col, work=a)
    # p - 0.0 == p, so subtracting the identity only touches the diagonal.
    p_row.flat[:: len(s) + 1] -= 1.0
    p_col.flat[:: len(s) + 1] -= 1.0
    p_row += p_col
    return np.divide(p_row, 2.0 * len(s) * tau, out=p_row)


def infonce_tau_gradient(s, tau: float, out=None) -> float:
    """dInfoNCE/dtau via the chain rule through the scaled similarities."""
    s = _check_square(s)
    coef = infonce_grad_s(s, tau, out=out)
    return float(-np.sum(np.multiply(coef, s, out=coef)) / tau)


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


def _anchor_scores(s: np.ndarray, candidates: np.ndarray, sel: np.ndarray, tau: float) -> np.ndarray:
    """Soft-maximum loss of each candidate against the selected set, summed
    over both anchor directions, from the gaps of s = s_target - s_reference."""
    # Two ``take`` gathers are exact and cheaper than one ``np.ix_`` index.
    # The text-anchor block stays a transposed view: the row sums' order
    # follows the memory layout.
    diag = s.diagonal().take(candidates)[:, None]
    gaps1 = s.take(sel, axis=1).take(candidates, axis=0) - diag
    gaps2 = s.take(sel, axis=0).take(candidates, axis=1).T - diag
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

    s_shift = s_t - s_r  # the shifted gaps are the plain gaps of this one matrix
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
            scores = _anchor_scores(s_shift, remaining, sel, score_tau)
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
        a, a_hat = s_t / tau, s_r / tau_ref
        p = _softmax_into(a, axis, np.empty_like(a), work=a)
        grad += np.subtract(p, _softmax_into(a_hat, axis, np.empty_like(a_hat), work=a_hat), out=p)
    return grad / (b * b * tau)

