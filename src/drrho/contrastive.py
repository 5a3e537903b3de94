"""Contrastive losses built from similarity-gap pairwise losses.

The pairwise loss of a negative j against anchor i is the similarity gap
s(i, j) - s(i, i); the reference-shifted variant subtracts the same gap
computed under a reference model. The gap is linear in the similarities,
so the shifted gaps are the plain gaps of the one matrix s_target -
s_reference (``shifted_similarity``), and the gap kernels take only that
``s``. Each anchor aggregates its gaps with the soft maximum tau *
log-mean-exp, once per direction (image anchor over text negatives, text
anchor over image negatives). ``global_objective`` averages both directions
over all anchors and is the exact ground truth for the stochastic trainer.

``shifted_gaps`` builds the b x b gap matrices of both directions, which
the trainer's estimators start from. ``negative_gaps`` stacks the same gaps
with the anchor itself dropped, one row per anchor; the exclude-anchor
objective, the loss-variance metric and the trainer's eval points share it.
``global_objective`` is one array computation over those rows.

Averaging set: "full" includes j = i (whose shifted gap is identically 0),
"exclude-anchor" drops it. The trainer's estimators target the
exclude-anchor variant, so gradient checks against it are exact; the full
variant is what makes target == reference give an objective of exactly 0.
"""

from __future__ import annotations

import numpy as np

from .risk import log_mean_exp

OVER_FULL = "full"
OVER_EXCLUDE = "exclude-anchor"


def _check_square(s: np.ndarray, name: str = "s") -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"{name} must be a square similarity matrix, got {s.shape}")
    return s


def _check_same_shape(s_target, s_reference) -> tuple[np.ndarray, np.ndarray]:
    s_t = _check_square(s_target, "s_target")
    s_r = _check_square(s_reference, "s_reference")
    if s_t.shape != s_r.shape:
        raise ValueError(f"matrices differ in shape: {s_t.shape} vs {s_r.shape}")
    return s_t, s_r


def shifted_similarity(s_target: np.ndarray, s_reference: np.ndarray | None = None) -> np.ndarray:
    """The one matrix whose plain gaps are the reference-shifted gaps:
    s_target - s_reference, or s_target itself when no reference is given."""
    if s_reference is None:
        return _check_square(s_target, "s_target")
    return np.subtract(*_check_same_shape(s_target, s_reference))


def shifted_gaps(s: np.ndarray, out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every anchor's gaps in both directions.

    Row a of gaps1 holds image anchor a's gaps against every text,
    s(a, j) - s(a, a); row a of gaps2 holds text anchor a's gaps against
    every image, s(j, a) - s(a, a). The diagonal (the anchor itself) is 0.
    Given ``out``, a (gaps1, gaps2) pair of (b, b) arrays, the gaps are
    written into it.
    """
    s = _check_square(s)
    g1, g2 = (None, None) if out is None else out
    diag = np.diag(s)
    return np.subtract(s, diag[:, None], out=g1), np.subtract(s.T, diag[:, None], out=g2)


def negative_gaps(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every anchor's gaps to its negatives (j != anchor), one row per anchor.

    Rows 0..n-1 are the image anchors and rows n..2n-1 the text anchors, in
    the order of ``shifted_gaps`` with the diagonal dropped: a (2n, n-1)
    array. Given ``out`` of that shape, the rows are written into it.
    """
    s = _check_square(s)
    n = len(s)
    if n == 0:
        raise ValueError("s must hold at least one pair, got shape (0, 0)")
    if out is None:
        out = np.empty((2 * n, n - 1))
    image, text = out[:n], out[n:]
    # Anchor a's negatives are the entries before the diagonal, then those
    # after it: column k < a holds j = k, column k >= a holds j = k + 1.
    before = np.tri(n, n - 1, -1, dtype=bool)
    np.copyto(image, s[:, 1:])
    np.copyto(image, s[:, :-1], where=before)
    np.copyto(text.T, s[1:])
    np.copyto(text.T, s[:-1], where=before.T)
    diag = s.diagonal()[:, None]
    image -= diag
    text -= diag
    return out


def global_objective(
    s_target: np.ndarray,
    s_reference: np.ndarray | None = None,
    tau: float = 0.01,
    over: str = OVER_FULL,
) -> float:
    """(1/n) sum over anchors of image-side plus text-side anchor losses.

    Reference-shifted when s_reference is given, plain otherwise. This is
    the exact objective the batch estimators approximate. All 2n anchor
    soft maxima come from one log-mean-exp over the stacked gap rows.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if over not in (OVER_FULL, OVER_EXCLUDE):
        raise ValueError(f"over must be {OVER_FULL!r} or {OVER_EXCLUDE!r}")
    s = shifted_similarity(s_target, s_reference)
    n = len(s)
    if n == 0:
        raise ValueError("s_target must hold at least one pair, got shape (0, 0)")
    if over == OVER_EXCLUDE and n == 1:
        raise ValueError("anchor has an empty negative set")
    rows = np.concatenate(shifted_gaps(s)) if over == OVER_FULL else negative_gaps(s)
    return float(log_mean_exp(rows, tau).sum() / n)
