"""Pairwise gaps, per-anchor soft-maximum losses, and the exact objective."""

import numpy as np
import pytest

from drrho import contrastive, risk
from drrho.contrastive import IMAGE_SIDE, OVER_EXCLUDE, OVER_FULL, TEXT_SIDE
from drrho.rng import CounterRng

from oracles import anchor_loss_direct


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
    assert contrastive.pairwise_loss(s, 2, 2) == 0.0
    s2 = s.copy()
    s2[1, 3], s2[1, 1] = 0.3, 0.9
    assert contrastive.pairwise_loss(s2, 1, 3) == pytest.approx(-0.6, abs=1e-15)
    # text side reads the transposed entry
    assert contrastive.pairwise_loss(s2, 1, 3, TEXT_SIDE) == pytest.approx(
        s2[3, 1] - s2[1, 1], abs=1e-15
    )
    with pytest.raises(IndexError):
        contrastive.pairwise_loss(s, 0, 7)


def test_pairwise_loss_bounded_for_cosine_matrices():
    for seed in range(10):
        s = _random_sim(seed, 6)
        for i in range(6):
            for j in range(6):
                assert -2.0 - 1e-9 <= contrastive.pairwise_loss(s, i, j) <= 2.0 + 1e-9


def test_rho_pairwise_loss_cases():
    s = _random_sim(2, 4)
    assert contrastive.rho_pairwise_loss(s, s, 1, 2) == 0.0
    # diagonal-perfect reference: gap is constant -1, so shifted = target + 1
    ref = np.zeros((4, 4))
    np.fill_diagonal(ref, 1.0)
    got = contrastive.rho_pairwise_loss(s, ref, 0, 2)
    assert got == pytest.approx(contrastive.pairwise_loss(s, 0, 2) + 1.0, abs=1e-15)
    st = s.copy()
    st[0, 1], st[0, 0] = 0.3, 0.9
    sr = s.copy()
    sr[0, 1], sr[0, 0] = 0.5, 0.7
    assert contrastive.rho_pairwise_loss(st, sr, 0, 1) == pytest.approx(-0.4, abs=1e-15)
    with pytest.raises(ValueError):
        contrastive.rho_pairwise_loss(s, np.zeros((3, 3)), 0, 1)


def test_shifted_gaps_match_pairwise_losses():
    s_t = _random_sim(18, 5)
    s_r = _random_sim(19, 5)
    gaps1, gaps2 = contrastive.shifted_gaps(s_t, s_r)
    plain1, plain2 = contrastive.shifted_gaps(s_t)
    for i in range(5):
        for j in range(5):
            assert gaps1[i, j] == pytest.approx(contrastive.rho_pairwise_loss(s_t, s_r, i, j), abs=1e-15)
            assert gaps2[i, j] == pytest.approx(
                contrastive.rho_pairwise_loss(s_t, s_r, i, j, TEXT_SIDE), abs=1e-15
            )
            assert plain1[i, j] == contrastive.pairwise_loss(s_t, i, j)
            assert plain2[i, j] == contrastive.pairwise_loss(s_t, i, j, TEXT_SIDE)
    with pytest.raises(ValueError, match="differ in shape"):
        contrastive.shifted_gaps(s_t, np.zeros((3, 3)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_negative_gaps_are_shifted_gaps_without_the_anchor(n):
    s_t = _random_sim(20, n)
    s_r = _random_sim(21, n)
    keep = ~np.eye(n, dtype=bool)
    for s, ref in [(s_t, None), (s_t, s_r), (s_t.T, None), (s_t.T, s_r.T)]:  # row- and column-major
        gaps1, gaps2 = contrastive.shifted_gaps(s, ref)
        expected = np.concatenate((gaps1[keep], gaps2[keep])).reshape(2 * n, n - 1)
        assert np.array_equal(contrastive.negative_gaps(s, ref), expected)
        out = np.full((2 * n, n - 1), np.nan)
        assert contrastive.negative_gaps(s, ref, out=out) is out
        assert np.array_equal(out, expected)
    with pytest.raises(ValueError, match="s_target"):
        contrastive.negative_gaps(np.zeros((0, 0)))


def test_drrho_anchor_loss_self_reference_is_zero():
    s = _random_sim(3, 5)
    for i in range(5):
        for direction in (IMAGE_SIDE, TEXT_SIDE):
            bundle = contrastive.drrho_anchor_loss(s, s, i, direction, tau=0.5, over=OVER_FULL)
            assert bundle.value == 0.0


def test_anchor_loss_constant_gaps():
    # rig the target so every shifted gap equals the same constant
    n = 4
    s_r = _random_sim(4, n)
    c = 0.37
    s_t = s_r + c
    np.fill_diagonal(s_t, np.diag(s_r))  # target diag = ref diag, off-diag gap +c
    bundle = contrastive.drrho_anchor_loss(s_t, s_r, 1, tau=0.3, over=OVER_EXCLUDE)
    assert bundle.value == pytest.approx(c, abs=1e-12)


def test_drrho_anchor_loss_matches_direct_summation():
    s_t = _random_sim(5, 3)
    s_r = _random_sim(6, 3)
    for i in range(3):
        for direction in (IMAGE_SIDE, TEXT_SIDE):
            for over in (OVER_FULL, OVER_EXCLUDE):
                bundle = contrastive.drrho_anchor_loss(s_t, s_r, i, direction, tau=0.5, over=over)
                # bundle.losses holds negatives only; full mode also averages
                # the anchor's own zero term
                averaged = np.append(bundle.losses, 0.0) if over == OVER_FULL else bundle.losses
                assert bundle.value == pytest.approx(
                    anchor_loss_direct(averaged, 0.5), abs=1e-12
                )
                assert len(bundle.losses) == 2


def test_gcl_anchor_loss_equals_drrho_with_flat_reference():
    s_t = _random_sim(7, 5)
    # reference with every row constant: all reference gaps vanish
    s_r = np.tile(np.linspace(-0.5, 0.5, 5)[:, None], (1, 5))
    for i in range(5):
        a = contrastive.gcl_anchor_loss(s_t, i, tau=0.4)
        b = contrastive.drrho_anchor_loss(s_t, s_r, i, tau=0.4)
        assert a.value == pytest.approx(b.value, abs=1e-12)


def test_gcl_anchor_loss_known_value():
    s = np.array([[1.0, -1.0], [-1.0, 1.0]])
    bundle = contrastive.gcl_anchor_loss(s, 0, tau=1.0, over=OVER_FULL)
    # terms: j=0 gives 0, j=1 gives -2
    want = np.log((1.0 + np.exp(-2.0)) / 2.0)
    assert bundle.value == pytest.approx(want, abs=1e-12)
    assert round(bundle.value, 6) == -0.566219


def test_gcl_anchor_loss_gap_structure_invariance():
    s = _random_sim(8, 4)
    shifted = s.copy()
    shifted[2, :] += 0.17  # raises s[2, j] and s[2, 2] equally
    a = contrastive.gcl_anchor_loss(s, 2, IMAGE_SIDE, tau=0.3)
    b = contrastive.gcl_anchor_loss(shifted, 2, IMAGE_SIDE, tau=0.3)
    assert a.value == pytest.approx(b.value, abs=1e-12)


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
    total = 0.0
    for i in range(n):
        for direction in (IMAGE_SIDE, TEXT_SIDE):
            if with_reference:
                total += contrastive.drrho_anchor_loss(s_t, s_r, i, direction, tau, over).value
            else:
                total += contrastive.gcl_anchor_loss(s_t, i, direction, tau, over).value
    got = contrastive.global_objective(s_t, s_r, tau=tau, over=over)
    assert got == pytest.approx(total / n, rel=1e-12)


def test_permuting_negatives_leaves_anchor_loss_unchanged():
    s_t = _random_sim(12, 6)
    s_r = _random_sim(13, 6)
    i = 2
    perm = np.array([0, 1, 2, 5, 3, 4])  # fixes the anchor
    s_t_p = s_t[np.ix_(perm, perm)]
    s_r_p = s_r[np.ix_(perm, perm)]
    for direction in (IMAGE_SIDE, TEXT_SIDE):
        a = contrastive.drrho_anchor_loss(s_t, s_r, i, direction, 0.4)
        b = contrastive.drrho_anchor_loss(s_t_p, s_r_p, i, direction, 0.4)
        assert a.value == pytest.approx(b.value, abs=1e-12)


def test_anchor_loss_dominates_mean():
    for seed in range(10):
        s_t = _random_sim(20 + seed, 5)
        s_r = _random_sim(40 + seed, 5)
        for tau in (0.05, 0.3, 2.0):
            bundle = contrastive.drrho_anchor_loss(s_t, s_r, 1, tau=tau, over=OVER_EXCLUDE)
            assert bundle.value >= float(np.mean(bundle.losses)) - 1e-12


def test_reference_negative_shift_moves_value_and_keeps_weights():
    s_t = _random_sim(14, 5)
    s_r = _random_sim(15, 5)
    i, c = 1, 0.23
    shifted = s_r.copy()
    mask = np.ones(5, dtype=bool)
    mask[i] = False
    shifted[i, mask] += c  # negatives only; diagonal untouched
    a = contrastive.drrho_anchor_loss(s_t, s_r, i, IMAGE_SIDE, 0.4, OVER_EXCLUDE)
    b = contrastive.drrho_anchor_loss(s_t, shifted, i, IMAGE_SIDE, 0.4, OVER_EXCLUDE)
    assert b.value == pytest.approx(a.value - c, abs=1e-12)
    wa = risk.softmax_weights(a.losses, 0.4)
    wb = risk.softmax_weights(b.losses, 0.4)
    assert np.allclose(wa, wb, atol=1e-12)


def test_whole_row_reference_shift_is_noop():
    s_t = _random_sim(16, 5)
    s_r = _random_sim(17, 5)
    shifted = s_r.copy()
    shifted[3, :] += 0.6  # diagonal shifts too: reference gaps unchanged
    a = contrastive.drrho_anchor_loss(s_t, s_r, 3, IMAGE_SIDE, 0.4)
    b = contrastive.drrho_anchor_loss(s_t, shifted, 3, IMAGE_SIDE, 0.4)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_empty_negative_set_raises():
    single = np.array([[0.4]])
    with pytest.raises(ValueError):
        contrastive.gcl_anchor_loss(single, 0, tau=0.5, over=OVER_EXCLUDE)
    with pytest.raises(ValueError, match="empty negative set"):
        contrastive.global_objective(single, tau=0.5, over=OVER_EXCLUDE)
    for over in (OVER_FULL, OVER_EXCLUDE):
        with pytest.raises(ValueError, match="s_target"):
            contrastive.global_objective(np.zeros((0, 0)), tau=0.5, over=over)
