"""Pairwise gaps, per-anchor soft-maximum losses, and the exact objective.

An anchor's loss is the library's ``risk.log_mean_exp`` over its row of
``shifted_gaps`` (full set) or ``negative_gaps`` (exclude-anchor): image
anchor i is row i, text anchor i is row n + i. The per-element references
are in ``oracles``.
"""

import numpy as np
import pytest

from drrho import contrastive, risk
from drrho.contrastive import OVER_EXCLUDE, OVER_FULL, shifted_similarity
from drrho.rng import CounterRng

from oracles import anchor_loss, anchor_loss_direct, pairwise_loss, rho_pairwise_loss


def _full_rows(s_t, s_r=None):
    """Every anchor's gaps including its own zero: image anchors, then text."""
    return np.concatenate(contrastive.shifted_gaps(shifted_similarity(s_t, s_r)))


def _random_sim(seed, n):
    # random unit embeddings give a genuine cosine matrix
    rng = CounterRng(seed)
    e1 = rng.normals((n, 5))
    e2 = rng.normals((n, 5))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    return e1 @ e2.T


def test_pairwise_loss_basics():
    s = _random_sim(1, 4)
    assert contrastive.shifted_gaps(s)[0][2, 2] == 0.0
    s2 = s.copy()
    s2[1, 3], s2[1, 1] = 0.3, 0.9
    gaps1, gaps2 = contrastive.shifted_gaps(s2)
    assert gaps1[1, 3] == pytest.approx(-0.6, abs=1e-15)
    # text side reads the transposed entry
    assert gaps2[1, 3] == pytest.approx(s2[3, 1] - s2[1, 1], abs=1e-15)


def test_pairwise_loss_bounded_for_cosine_matrices():
    for seed in range(10):
        gaps1, _ = contrastive.shifted_gaps(_random_sim(seed, 6))
        assert (-2.0 - 1e-9 <= gaps1).all() and (gaps1 <= 2.0 + 1e-9).all()


def test_rho_pairwise_loss_cases():
    s = _random_sim(2, 4)
    assert contrastive.shifted_gaps(shifted_similarity(s, s))[0][1, 2] == 0.0
    # diagonal-perfect reference: gap is constant -1, so shifted = target + 1
    ref = np.zeros((4, 4))
    np.fill_diagonal(ref, 1.0)
    got = contrastive.shifted_gaps(shifted_similarity(s, ref))[0][0, 2]
    assert got == pytest.approx(contrastive.shifted_gaps(s)[0][0, 2] + 1.0, abs=1e-15)
    st = s.copy()
    st[0, 1], st[0, 0] = 0.3, 0.9
    sr = s.copy()
    sr[0, 1], sr[0, 0] = 0.5, 0.7
    assert contrastive.shifted_gaps(shifted_similarity(st, sr))[0][0, 1] == pytest.approx(-0.4, abs=1e-15)
    with pytest.raises(ValueError):
        shifted_similarity(s, np.zeros((3, 3)))


def test_shifted_gaps_match_pairwise_losses():
    s_t = _random_sim(18, 5)
    s_r = _random_sim(19, 5)
    gaps1, gaps2 = contrastive.shifted_gaps(shifted_similarity(s_t, s_r))
    plain1, plain2 = contrastive.shifted_gaps(s_t)
    for i in range(5):
        for j in range(5):
            assert gaps1[i, j] == pytest.approx(rho_pairwise_loss(s_t, s_r, i, j), abs=1e-15)
            assert gaps2[i, j] == pytest.approx(rho_pairwise_loss(s_t, s_r, i, j, "text"), abs=1e-15)
            assert plain1[i, j] == pairwise_loss(s_t, i, j)
            assert plain2[i, j] == pairwise_loss(s_t, i, j, "text")
    with pytest.raises(ValueError, match="differ in shape"):
        shifted_similarity(s_t, np.zeros((3, 3)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_negative_gaps_are_shifted_gaps_without_the_anchor(n):
    s_t = _random_sim(20, n)
    s_r = _random_sim(21, n)
    keep = ~np.eye(n, dtype=bool)
    for s, ref in [(s_t, None), (s_t, s_r), (s_t.T, None), (s_t.T, s_r.T)]:  # row- and column-major
        d = shifted_similarity(s, ref)
        gaps1, gaps2 = contrastive.shifted_gaps(d)
        expected = np.concatenate((gaps1[keep], gaps2[keep])).reshape(2 * n, n - 1)
        assert np.array_equal(contrastive.negative_gaps(d), expected)
        out = np.full((2 * n, n - 1), np.nan)
        assert contrastive.negative_gaps(d, out=out) is out
        assert np.array_equal(out, expected)
    with pytest.raises(ValueError, match="at least one pair"):
        contrastive.negative_gaps(np.zeros((0, 0)))


def test_drrho_anchor_loss_self_reference_is_zero():
    s = _random_sim(3, 5)
    assert (risk.log_mean_exp(_full_rows(s, s), 0.5) == 0.0).all()


def test_anchor_loss_constant_gaps():
    # rig the target so every shifted gap equals the same constant
    n = 4
    s_r = _random_sim(4, n)
    c = 0.37
    s_t = s_r + c
    np.fill_diagonal(s_t, np.diag(s_r))  # target diag = ref diag, off-diag gap +c
    values = risk.log_mean_exp(contrastive.negative_gaps(shifted_similarity(s_t, s_r)), 0.3)
    assert values == pytest.approx(np.full(2 * n, c), abs=1e-12)


def test_drrho_anchor_loss_matches_direct_summation():
    s_t = _random_sim(5, 3)
    s_r = _random_sim(6, 3)
    negatives = contrastive.negative_gaps(shifted_similarity(s_t, s_r))
    assert negatives.shape == (6, 2)
    for over, rows in ((OVER_FULL, _full_rows(s_t, s_r)), (OVER_EXCLUDE, negatives)):
        values = risk.log_mean_exp(rows, 0.5)
        for i in range(3):
            for side, direction in enumerate(("image", "text")):
                # full mode also averages the anchor's own zero term
                gaps = [rho_pairwise_loss(s_t, s_r, i, j, direction) for j in range(3) if over == OVER_FULL or j != i]
                assert values[side * 3 + i] == pytest.approx(anchor_loss_direct(gaps, 0.5), abs=1e-12)


def test_gcl_anchor_loss_equals_drrho_with_flat_reference():
    s_t = _random_sim(7, 5)
    # reference with every row constant: all reference gaps vanish
    s_r = np.tile(np.linspace(-0.5, 0.5, 5)[:, None], (1, 5))
    a = risk.log_mean_exp(contrastive.shifted_gaps(s_t)[0], 0.4)
    b = risk.log_mean_exp(contrastive.shifted_gaps(shifted_similarity(s_t, s_r))[0], 0.4)
    assert a == pytest.approx(b, abs=1e-12)


def test_gcl_anchor_loss_known_value():
    s = np.array([[1.0, -1.0], [-1.0, 1.0]])
    value = risk.log_mean_exp(contrastive.shifted_gaps(s)[0], 1.0)[0]
    # terms: j=0 gives 0, j=1 gives -2
    want = np.log((1.0 + np.exp(-2.0)) / 2.0)
    assert value == pytest.approx(want, abs=1e-12)
    assert round(value, 6) == -0.566219


def test_gcl_anchor_loss_gap_structure_invariance():
    s = _random_sim(8, 4)
    shifted = s.copy()
    shifted[2, :] += 0.17  # raises s[2, j] and s[2, 2] equally
    a = risk.log_mean_exp(contrastive.shifted_gaps(s)[0], 0.3)[2]
    b = risk.log_mean_exp(contrastive.shifted_gaps(shifted)[0], 0.3)[2]
    assert a == pytest.approx(b, abs=1e-12)


def test_global_objective_zero_cases():
    s = _random_sim(9, 4)
    assert contrastive.global_objective(s, s, tau=0.2, over=OVER_FULL) == 0.0
    single = np.array([[0.4]])
    assert contrastive.global_objective(single, tau=0.5, over=OVER_FULL) == 0.0


@pytest.mark.parametrize("n", [2, 4, 33])
@pytest.mark.parametrize("tau", [0.005, 0.3])
@pytest.mark.parametrize("with_reference", [True, False])
@pytest.mark.parametrize("over", [OVER_FULL, OVER_EXCLUDE])
def test_global_objective_matches_per_anchor_sum(over, with_reference, tau, n):
    s_t = _random_sim(10, n)
    s_r = _random_sim(11, n) if with_reference else None
    total = sum(anchor_loss(s_t, s_r, i, direction, tau, over) for i in range(n) for direction in ("image", "text"))
    got = contrastive.global_objective(s_t, s_r, tau=tau, over=over)
    assert got == pytest.approx(total / n, rel=1e-12)


def test_permuting_negatives_leaves_anchor_loss_unchanged():
    s_t = _random_sim(12, 6)
    s_r = _random_sim(13, 6)
    i = 2
    perm = np.array([0, 1, 2, 5, 3, 4])  # fixes the anchor
    s_t_p = s_t[np.ix_(perm, perm)]
    s_r_p = s_r[np.ix_(perm, perm)]
    a = risk.log_mean_exp(_full_rows(s_t, s_r), 0.4)
    b = risk.log_mean_exp(_full_rows(s_t_p, s_r_p), 0.4)
    for row in (i, 6 + i):  # the image and the text anchor
        assert a[row] == pytest.approx(b[row], abs=1e-12)


def test_anchor_loss_dominates_mean():
    for seed in range(10):
        s_t = _random_sim(20 + seed, 5)
        s_r = _random_sim(40 + seed, 5)
        rows = contrastive.negative_gaps(shifted_similarity(s_t, s_r))
        for tau in (0.05, 0.3, 2.0):
            assert (risk.log_mean_exp(rows, tau) >= rows.mean(axis=1) - 1e-12).all()


def test_reference_negative_shift_moves_value_and_keeps_weights():
    s_t = _random_sim(14, 5)
    s_r = _random_sim(15, 5)
    i, c = 1, 0.23
    shifted = s_r.copy()
    mask = np.ones(5, dtype=bool)
    mask[i] = False
    shifted[i, mask] += c  # negatives only; diagonal untouched
    a = contrastive.negative_gaps(shifted_similarity(s_t, s_r))[i]
    b = contrastive.negative_gaps(shifted_similarity(s_t, shifted))[i]
    assert risk.log_mean_exp(b, 0.4) == pytest.approx(risk.log_mean_exp(a, 0.4) - c, abs=1e-12)
    wa = risk.softmax_weights(a, 0.4)
    wb = risk.softmax_weights(b, 0.4)
    assert np.allclose(wa, wb, atol=1e-12)


def test_whole_row_reference_shift_is_noop():
    s_t = _random_sim(16, 5)
    s_r = _random_sim(17, 5)
    shifted = s_r.copy()
    shifted[3, :] += 0.6  # diagonal shifts too: reference gaps unchanged
    a = risk.log_mean_exp(contrastive.shifted_gaps(shifted_similarity(s_t, s_r))[0], 0.4)[3]
    b = risk.log_mean_exp(contrastive.shifted_gaps(shifted_similarity(s_t, shifted))[0], 0.4)[3]
    assert a == pytest.approx(b, abs=1e-12)


def test_empty_negative_set_raises():
    single = np.array([[0.4]])
    with pytest.raises(ValueError, match="empty negative set"):
        contrastive.global_objective(single, tau=0.5, over=OVER_EXCLUDE)
    for over in (OVER_FULL, OVER_EXCLUDE):
        with pytest.raises(ValueError, match="s_target"):
            contrastive.global_objective(np.zeros((0, 0)), tau=0.5, over=over)
