"""Contrastive losses built from similarity-gap pairwise losses, and the
metrics read from the same gaps.

The pairwise loss of a negative j against anchor i is the similarity gap
s(i, j) - s(i, i); the reference-shifted variant subtracts the same gap
computed under a reference model. The gap is linear in the similarities,
so the shifted gaps are the plain gaps of the one matrix s = s_target -
s_reference, which the caller forms once, and every function here takes
only that ``s`` (a plain run's is s_target). Each anchor aggregates its
gaps with the soft maximum tau * log-mean-exp, once per direction (image
anchor over text negatives, text anchor over image negatives), over the
anchor's negatives j != i. ``global_objective`` averages both directions
over all anchors and is the exact ground truth for the stochastic trainer,
whose estimators average over the same negatives, so gradient checks
against it are exact.

``shifted_gaps`` builds the b x b gap matrices of both directions, which
the trainer's estimators start from (their diagonal, the anchor itself, is
0). ``negative_gaps`` stacks the same gaps with the anchor dropped, one row
per anchor; ``global_objective``, ``loss_variance`` (through
``VarianceSummary``) and the trainer's eval points share it.
``recall_at_1`` scores retrieval from a plain similarity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risk import log_mean_exp


def _check_square(s: np.ndarray, name: str = "s") -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"{name} must be a square similarity matrix, got {s.shape}")
    return s


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
    diag = s.diagonal()[:, None]
    return np.subtract(s, diag, out=g1), np.subtract(s.T, diag, out=g2)


def negative_gaps(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every anchor's gaps to its negatives (j != anchor), one row per anchor.

    Rows 0..n-1 are the image anchors and rows n..2n-1 the text anchors, in
    the order of ``shifted_gaps`` with the diagonal dropped: a (2n, n-1)
    array. Given ``out``, a C-ordered array of that shape, the rows are
    written into it.
    """
    s = _check_square(s)
    n = len(s)
    if n == 0:
        raise ValueError("s must hold at least one pair, got shape (0, 0)")
    if out is None:
        out = np.empty((2 * n, n - 1))
    elif not out.flags.c_contiguous:
        raise ValueError("out must be a C-ordered array")
    # Off the diagonal, the entries of a C-ordered (n, n) matrix lie in n - 1
    # runs of n between diagonal entries: its rows with the diagonal dropped.
    for side, m in zip(out.reshape(2, n - 1, n), (s, s.T)):
        np.copyto(side, m.ravel()[1:].reshape(n - 1, n + 1)[:, :n])
    out.reshape(2, n, n - 1)[...] -= s.diagonal()[:, None]
    return out


def global_objective(s: np.ndarray, tau: float = 0.01) -> float:
    """(1/n) sum over anchors of image-side plus text-side anchor losses of
    ``s``: reference-shifted when ``s`` is s_target - s_reference, plain
    when it is s_target. This is the exact objective the batch estimators
    approximate. All 2n anchor soft maxima come from one log-mean-exp over
    the stacked gap rows.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    rows = negative_gaps(s)
    n = len(rows) // 2
    if n == 1:
        raise ValueError("anchor has an empty negative set")
    return float(log_mean_exp(rows, tau).sum() / n)


def recall_at_1(s_test: np.ndarray) -> float:
    """Fraction of anchors whose top similarity is their own pair, averaged
    over both retrieval directions. Ties resolve to the lowest index."""
    s = _check_square(s_test, "s_test")
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
        """Summarize ``negative_gaps`` rows: image anchors, then text
        anchors. These are np.var's own steps, so the variances equal
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


def loss_variance(s: np.ndarray) -> VarianceSummary:
    """Variance over negatives of each anchor's pairwise loss of ``s``, per
    direction: shifted by the reference when ``s`` is s_target - s_reference."""
    rows = negative_gaps(s)
    if len(rows) // 2 < 3:
        raise ValueError("need at least 2 negatives per anchor (3 pairs)")
    return VarianceSummary.of_rows(rows)
