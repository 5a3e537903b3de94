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

from .contrastive import _check_square
from .risk import log_mean_exp
from .rng import CounterRng


def _softmax_into(s: np.ndarray, tau: float, axis: int, out: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times the softmax of ``s / tau`` along ``axis``, written
    into ``out``: exp((s - max) / tau) times scale / sum, with one exp, no
    log and no scaled copy of ``s``."""
    np.subtract(s, s.max(axis=axis, keepdims=True), out=out)
    np.exp(np.divide(out, tau, out=out), out=out)
    return np.multiply(out, scale / out.sum(axis=axis, keepdims=True), out=out)


# ---------------------------------------------------------------------------
# mini-batch InfoNCE


def infonce_grad_s(s, tau: float, out=None) -> np.ndarray:
    """dInfoNCE/dS in closed form: softmax probabilities minus the identity,
    averaged over both directions. Given ``out``, two arrays shaped like
    ``s``, they take the row and column softmax, each scaled by 1/(2b tau),
    and the gradient is ``out[0]``, less 1/(b tau) on the diagonal."""
    s = _check_square(s)
    if not tau > 0:
        raise ValueError("tau must be positive")
    b = len(s)
    scale = 1.0 / (2.0 * b * tau)
    p_row, p_col = out if out is not None else (np.empty_like(s) for _ in range(2))
    _softmax_into(s, tau, 1, p_row, scale)
    _softmax_into(s, tau, 0, p_col, scale)
    # p - 0.0 == p, so subtracting the identity only touches the diagonal.
    p_row.flat[:: b + 1] -= 2.0 * scale
    p_row += p_col
    return p_row


def infonce_tau_gradient(s, tau: float, out=None) -> float:
    """dInfoNCE/dtau via the chain rule through the scaled similarities."""
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
    selected: np.ndarray  # dataset indices, in selection order
    positions: np.ndarray  # their positions in the super batch
    chunk_trace: list[ChunkTrace]


def selection_size(ratio: float, super_size: int) -> int:
    """ceil(ratio * |super|), the number of pairs a selection keeps."""
    return int(np.ceil(ratio * super_size))


def _embedding_pair(pair, name: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (e1, e2) rows of a super batch of ``m`` pairs; ValueError naming
    ``name`` unless both are (m, d) with one d."""
    if len(pair) != 2:
        raise ValueError(f"{name}: expected an (e1, e2) pair of embeddings")
    e1, e2 = (np.asarray(e, dtype=np.float64) for e in pair)
    if e1.ndim != 2 or e1.shape[0] != m or e2.shape != e1.shape:
        raise ValueError(f"{name}: e1 {e1.shape} and e2 {e2.shape} must both be ({m}, d) for this super batch")
    return e1, e2


def _anchor_scores(
    a: np.ndarray, b: np.ndarray, diag: np.ndarray, candidates: np.ndarray, sel: np.ndarray, tau: float
) -> np.ndarray:
    """Soft-maximum loss of each candidate against the selected set, summed
    over both anchor directions, from the gaps of s = a @ b.T. Only the
    (candidates x selected) and (selected x candidates) blocks are formed,
    as products of gathered rows. Both are laid out selected x candidates,
    so the soft maximum reduces over the outer axis: numpy reduces a short
    inner axis several times slower."""
    a_sel, b_sel = a.take(sel, axis=0), b.take(sel, axis=0)
    gaps = np.empty((2, len(sel), len(candidates)))
    np.matmul(b_sel, a.take(candidates, axis=0).T, out=gaps[0])  # s[candidate, selected]
    np.matmul(a_sel, b.take(candidates, axis=0).T, out=gaps[1])  # s[selected, candidate]
    gaps -= diag.take(candidates)
    return log_mean_exp(gaps, tau, axis=1).sum(axis=0)


def jest_select(
    target,
    reference,
    super_batch,
    ratio: float,
    n_chunks: int,
    mode: str = "sample",
    seed: int = 0,
    score_tau: float = 0.01,
) -> SelectionOutcome:
    """Select ceil(ratio * |super|) pairs from a super batch in chunks.

    ``target`` and ``reference`` are each the (e1, e2) embeddings of the
    super batch's pairs, so s_target = e1 @ e2.T and likewise s_reference;
    neither |super| x |super| matrix is formed. The first chunk scores
    candidates by their own target similarity s(x_i, y_i); later chunks
    score each remaining candidate by its shifted soft-maximum loss against
    everything already selected, so picks stay informative relative to each
    other. ``sample`` draws without replacement with probability
    proportional to softmax(score); ``topk`` takes the largest scores (ties
    to the lower position). Deterministic given seed.
    """
    super_batch = np.asarray(super_batch, dtype=np.int64)
    m = len(super_batch)
    t1, t2 = _embedding_pair(target, "target", m)
    r1, r2 = _embedding_pair(reference, "reference", m)
    if not 0 < ratio <= 1:
        raise ValueError("ratio must lie in (0, 1]")
    if n_chunks < 1:
        raise ValueError("n_chunks must be at least 1")
    if mode not in ("sample", "topk"):
        raise ValueError(f"mode must be 'sample' or 'topk', got {mode!r}")
    k = selection_size(ratio, m)
    if k < n_chunks:
        raise ValueError(f"selection of {k} cannot be split into {n_chunks} chunks")

    # s_target - s_reference = a @ b.T: the shifted gaps come from one product.
    a, b = np.concatenate([t1, r1], axis=1), np.concatenate([t2, -r2], axis=1)
    diag = np.einsum("ij,ij->i", a, b)
    base = k // n_chunks
    sizes = [base] * (n_chunks - 1) + [k - base * (n_chunks - 1)]
    rng = CounterRng(seed, stream=0)
    remaining = np.arange(m)
    sel = np.zeros(0, dtype=np.int64)
    trace: list[ChunkTrace] = []
    for c, size in enumerate(sizes):
        if c == 0:
            scores = np.einsum("ij,ij->i", t1, t2)
        else:
            scores = _anchor_scores(a, b, diag, remaining, sel, score_tau)
        if mode == "topk":
            order = np.argsort(-scores, kind="stable")[:size]
        else:
            probs = np.exp(scores - scores.max())
            order = rng.weighted_draws(probs, size)
        picked = remaining[order]
        trace.append(ChunkTrace(indices=super_batch[picked], scores=scores[order]))
        sel = np.concatenate([sel, picked])
        remaining = np.delete(remaining, order)
    return SelectionOutcome(super_batch=super_batch, selected=super_batch[sel], positions=sel, chunk_trace=trace)


# ---------------------------------------------------------------------------
# soft-target distillation


def distillation_grad_s(s_target, s_reference, tau: float, tau_ref: float, out=None) -> np.ndarray:
    """dDistillation/dS_target, where the distillation loss is the
    cross-entropy from the reference's row and column softmax distributions
    (at tau_ref) to the target's (at tau), summed over both directions and
    divided by b^2. That is (target softmax - reference softmax) per
    direction, scaled by 1/(b^2 tau); exactly zero at matched
    distributions. Given ``out``, two arrays (grad, p) shaped like
    ``s_target``, the gradient is summed in ``grad`` from softmaxes in ``p``."""
    s_t, s_r = _check_square(s_target, "s_target"), _check_square(s_reference, "s_reference")
    if s_t.shape != s_r.shape:
        raise ValueError(f"matrices differ in shape: {s_t.shape} vs {s_r.shape}")
    if not (tau > 0 and tau_ref > 0):
        raise ValueError("temperatures must be positive")
    b = len(s_t)
    grad, p = out if out is not None else (np.empty_like(s_t) for _ in range(2))
    scale = 1.0 / (b * b * tau)
    _softmax_into(s_t, tau, 1, grad, scale)
    grad -= _softmax_into(s_r, tau_ref, 1, p, scale)
    grad += _softmax_into(s_t, tau, 0, p, scale)
    grad -= _softmax_into(s_r, tau_ref, 0, p, scale)
    return grad
