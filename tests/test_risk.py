"""Risk functionals against direct evaluation, grid oracles, closed forms,
and their structural invariants."""

import numpy as np
import pytest

from drrho import risk
from drrho.rng import CounterRng

from oracles import (
    chi2_bisection,
    chi2_grid_max,
    chi2_interior_closed_form,
    chi2_interior_holds,
    chi2_support_enumeration,
    kl_constrained_grid,
    kl_constrained_ternary,
    kl_to_uniform_direct,
    log_mean_exp_direct,
    softmax_direct,
    topk_mean_direct,
)


def test_cvar_topk_hand_cases():
    assert risk.cvar_topk([1.0, 3.0, 2.0], 2) == pytest.approx(2.5, abs=1e-15)
    assert risk.cvar_topk([4.0] * 5, 3) == pytest.approx(4.0, abs=1e-15)
    v = [0.3, -1.0, 2.2, 0.9]
    assert risk.cvar_topk(v, 4) == pytest.approx(np.mean(v), abs=1e-15)
    assert risk.cvar_topk(v, 1) == pytest.approx(max(v), abs=1e-15)
    with pytest.raises(ValueError):
        risk.cvar_topk(v, 0)
    with pytest.raises(ValueError):
        risk.cvar_topk(v, 5)
    assert risk.cvar_topk(v, np.int64(2)) == risk.cvar_topk(v, 2)


@pytest.mark.parametrize("k", [2.5, np.float64(2.0), "2", True], ids=["float", "float64", "str", "bool"])
def test_cvar_topk_rejects_a_non_integer_k(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        risk.cvar_topk([0.3, -1.0, 2.2, 0.9], k)


def test_cvar_topk_matches_sort_oracle_randomized():
    rng = CounterRng(101)
    for _ in range(100):
        m = 2 + int(rng.uniforms(1)[0] * 15)
        v = rng.normals(m)
        k = 1 + int(rng.uniforms(1)[0] * m) % m
        assert risk.cvar_topk(v, k) == pytest.approx(topk_mean_direct(v, k), abs=1e-12)


def test_cvar_topk_is_the_descending_mean_bit_for_bit():
    # The partitioned top k must add the same values in the same order as a
    # full stable sort; k straddles numpy's 128-element pairwise block and
    # its 8192-element buffer, and bytes are compared so a zero's sign counts.
    rng = np.random.default_rng(72)
    for n in (1, 2, 9, 127, 128, 129, 1000, 10000, 20000):
        ks = {k for k in (1, n // 10, 127, 128, 129, 8193, n - 1, n) if 1 <= k <= n}
        gamma = rng.gamma(0.7, size=n)
        ties = np.round(rng.normal(size=n), 1)
        zeros = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0]), size=n)
        for v in (gamma, ties, zeros):
            desc = v[np.argsort(-v, kind="stable")]
            for k in ks:
                want = np.float64(np.mean(desc[:k]))
                assert np.float64(risk.cvar_topk(v, k)).tobytes() == want.tobytes(), (n, k)


def test_softmax_weights_known_values():
    p = risk.softmax_weights([0.0, 1.0], 1.0)
    # direct: [1/(1+e), e/(1+e)]
    assert np.allclose(p, [1 / (1 + np.e), np.e / (1 + np.e)], atol=1e-15)
    assert abs(p[0] - 0.26894) < 5e-6 and abs(p[1] - 0.73106) < 5e-6


def test_softmax_weights_uniform_and_one_hot_limit():
    p = risk.softmax_weights([2.0, 2.0, 2.0], 0.7)
    assert np.allclose(p, 1 / 3)
    p = risk.softmax_weights([0.0, 1.0, 0.5], 1e-4)
    assert p[1] == pytest.approx(1.0, abs=1e-12)


def test_softmax_weights_sum_exactly_one_randomized():
    rng = CounterRng(55)
    for _ in range(200):
        m = 2 + int(rng.uniforms(1)[0] * 30)
        v = rng.normals(m) * 3
        p = risk.softmax_weights(v, 0.3)
        assert float(np.sum(p)) == 1.0
        assert (p >= 0).all()


def test_softmax_weights_shift_invariance():
    rng = CounterRng(56)
    v = rng.normals(9)
    a = risk.softmax_weights(v, 0.5)
    b = risk.softmax_weights(v + 13.7, 0.5)
    assert np.allclose(a, b, atol=1e-12)


def test_kl_regularized_known_value():
    got = risk.kl_regularized_risk([0.0, 1.0], 1.0)
    assert got == pytest.approx(np.log((1 + np.e) / 2), abs=1e-15)
    assert got == pytest.approx(0.620115, abs=5e-7)


def test_kl_regularized_constant_and_limit():
    assert risk.kl_regularized_risk([3.3] * 7, 0.2) == pytest.approx(3.3, abs=1e-12)
    v = np.array([0.1, 0.8, 0.4])
    assert risk.kl_regularized_risk(v, 1e6) == pytest.approx(v.mean(), abs=1e-6)


def test_kl_regularized_bounds_and_monotonicity():
    rng = CounterRng(57)
    for _ in range(50):
        v = rng.normals(8)
        taus = [0.05, 0.2, 1.0, 5.0]
        vals = [risk.kl_regularized_risk(v, t) for t in taus]
        for val in vals:
            assert v.mean() - 1e-12 <= val <= v.max() + 1e-12
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_kl_constrained_constant_vector():
    value, _ = risk.kl_constrained_risk([2.5] * 6, 3.0, 6)
    assert value == pytest.approx(2.5, abs=1e-6)


def test_kl_constrained_matches_grid_oracle():
    rng = CounterRng(58)
    for _ in range(3):
        v = rng.uniforms(5)
        got, tau_star = risk.kl_constrained_risk(v, 2.0, 5)
        want = kl_constrained_grid(v, 2.0, 5)
        assert got == pytest.approx(want, abs=1e-6)
        assert tau_star > 0


def test_kl_constrained_rho_zero_gives_mean():
    rng = CounterRng(59)
    v = rng.normals(6)
    got, _ = risk.kl_constrained_risk(v, 0.0, 6)
    assert got == pytest.approx(v.mean(), abs=1e-6)
    with pytest.raises(ValueError):
        risk.kl_constrained_risk(v, -0.5, 6)


def test_chi2_constant_vector():
    value, weights = risk.chi2_dro_risk([1.5] * 4, 0.3, 4)
    assert value == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(weights, 0.25, atol=1e-12)


def test_chi2_two_point_closed_form():
    value, weights = risk.chi2_dro_risk([0.0, 1.0], 0.08, 2)
    assert value == pytest.approx(0.5 + 0.5 * np.sqrt(0.08), abs=1e-9)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (weights > 0).all()


def test_chi2_matches_grid_oracle_small_n():
    rng = CounterRng(60)
    for n in (2, 3, 4):
        for _ in range(3):
            v = rng.uniforms(n)
            rho = 0.05 + 0.3 * rng.uniforms(1)[0]
            got, weights = risk.chi2_dro_risk(v, rho, n)
            want = chi2_grid_max(v, rho)
            assert got == pytest.approx(want, abs=1e-5)
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert (weights >= -1e-12).all()


def test_chi2_interior_closed_form():
    rng = CounterRng(61)
    checked = 0
    for _ in range(40):
        n = 3 + int(rng.uniforms(1)[0] * 6)
        v = rng.normals(n) * 0.2
        rho = 0.02 + 0.05 * rng.uniforms(1)[0]
        if not chi2_interior_holds(v, rho):
            continue
        got, weights = risk.chi2_dro_risk(v, rho, n)
        assert got == pytest.approx(chi2_interior_closed_form(v, rho), abs=1e-8)
        assert (weights > 0).all()
        checked += 1
    assert checked >= 10


def test_chi2_large_rho_puts_mass_on_max():
    v = np.array([0.1, 0.9, 0.4])
    value, weights = risk.chi2_dro_risk(v, 50.0, 3)
    assert value == pytest.approx(0.9, abs=1e-9)
    assert weights[1] == pytest.approx(1.0, abs=1e-9)


def test_shift_invariance_of_all_risks():
    rng = CounterRng(62)
    v = rng.normals(6)
    c = 4.2
    assert risk.cvar_topk(v + c, 3) == pytest.approx(risk.cvar_topk(v, 3) + c, abs=1e-10)
    assert risk.kl_regularized_risk(v + c, 0.4) == pytest.approx(
        risk.kl_regularized_risk(v, 0.4) + c, abs=1e-10
    )
    a, _ = risk.kl_constrained_risk(v + c, 1.5, 6)
    b, _ = risk.kl_constrained_risk(v, 1.5, 6)
    assert a == pytest.approx(b + c, abs=1e-5)
    a, _ = risk.chi2_dro_risk(v + c, 0.4, 6)
    b, _ = risk.chi2_dro_risk(v, 0.4, 6)
    assert a == pytest.approx(b + c, abs=1e-9)


def test_drrho_shift():
    assert np.array_equal(risk.drrho_shift([2.0, 3.0], [1.0, 5.0]), [1.0, -2.0])
    v = CounterRng(63).normals(5)
    assert np.allclose(risk.drrho_shift(v, v), 0.0)
    assert np.array_equal(risk.drrho_shift(v, np.zeros(5)), v)
    with pytest.raises(ValueError):
        risk.drrho_shift([1.0], [1.0, 2.0])


def test_shifted_risk_equals_unshifted_minus_constant_reference():
    rng = CounterRng(64)
    v = rng.normals(7)
    c = 0.73
    shifted = risk.drrho_shift(v, np.full(7, c))
    assert risk.kl_regularized_risk(shifted, 0.3) == pytest.approx(
        risk.kl_regularized_risk(v, 0.3) - c, abs=1e-10
    )


def test_cvar_topk_nondecreasing_as_k_shrinks():
    v = CounterRng(66).normals(9)
    vals = [risk.cvar_topk(v, k) for k in range(9, 0, -1)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_softmax_and_lse_match_high_precision_direct():
    rng = CounterRng(65)
    for _ in range(25):
        m = 2 + int(rng.uniforms(1)[0] * 10)
        v = rng.normals(m) * 2
        tau = 0.2 + rng.uniforms(1)[0]
        assert np.max(np.abs(risk.softmax_weights(v, tau) - softmax_direct(v, tau))) < 1e-10
        assert abs(risk.kl_regularized_risk(v, tau) - log_mean_exp_direct(v, tau)) < 1e-10


@pytest.mark.parametrize(
    "solve",
    [
        lambda v: risk.cvar_topk(v, 1),
        lambda v: risk.softmax_weights(v, 0.5),
        lambda v: risk.kl_regularized_risk(v, 0.5),
        lambda v: risk.kl_constrained_risk(v, 2.0, 3),
        lambda v: risk.chi2_dro_risk(v, 2.0, 3),
        lambda v: risk.drrho_shift(v, [0.0, 0.0, 0.0]),
    ],
    ids=["cvar_topk", "softmax_weights", "kl_regularized_risk", "kl_constrained_risk", "chi2_dro_risk", "drrho_shift"],
)
def test_non_finite_losses_rejected_naming_losses(solve):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="losses"):
            solve([1.0, bad, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "param, solve",
    [
        ("tau", lambda v, x: risk.softmax_weights(v, x)),
        ("tau", lambda v, x: risk.kl_regularized_risk(v, x)),
        ("rho", lambda v, x: risk.kl_constrained_risk(v, x, 4)),
        ("n", lambda v, x: risk.kl_constrained_risk(v, 2.0, x)),
        ("rho", lambda v, x: risk.chi2_dro_risk(v, x, 4)),
        ("n", lambda v, x: risk.chi2_dro_risk(v, 2.0, x)),
    ],
    ids=[
        "softmax_weights-tau",
        "kl_regularized_risk-tau",
        "kl_constrained_risk-rho",
        "kl_constrained_risk-n",
        "chi2_dro_risk-rho",
        "chi2_dro_risk-n",
    ],
)
def test_non_finite_parameters_rejected_naming_them(param, solve, bad):
    with pytest.raises(ValueError, match=rf"\b{param}\b"):
        solve([0.3, 1.2, -0.4, 2.0], bad)


def _loss_pair(rng, n):
    target = np.exp(0.5 * rng.normals(n))
    return target, 0.6 * target + 0.1 * rng.normals(n)


def _plain_and_shifted(seed, sizes, repeats):
    rng = CounterRng(seed)
    for n in sizes:
        for _ in range(repeats):
            target, reference = _loss_pair(rng, n)
            yield target
            yield risk.drrho_shift(target, reference)


def test_chi2_matches_support_enumeration_small_n():
    for v in _plain_and_shifted(67, range(2, 13), 2):
        for rho in (0.05, 0.5, 2.0, 50.0):
            got, weights = risk.chi2_dro_risk(v, rho, v.size)
            want = chi2_support_enumeration(v, rho)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert (weights >= 0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.5, 2.0, 50.0])
def test_chi2_matches_bisection_reference(rho):
    for v in _plain_and_shifted(68, (100, 1000, 10000), 1):
        got, weights = risk.chi2_dro_risk(v, rho, v.size)
        want, _ = chi2_bisection(v, rho)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)
        assert (weights >= 0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_chi2_weights_on_the_ball_boundary_at_large_n():
    n, rho = 10000, 0.5
    r2 = 2.0 * rho / (n * n)
    for v in _plain_and_shifted(69, (n,), 1):
        _, weights = risk.chi2_dro_risk(v, rho, n)
        assert float(np.sum((weights - 1.0 / n) ** 2)) == pytest.approx(r2, rel=1e-9)


def _bench_shaped(seed, sizes):
    """Plain and reference-shifted gamma losses, shaped like the risk-solvers benchmark's."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        target = rng.gamma(2.0, 0.5, n)
        yield target
        yield target - (0.6 * target + rng.normal(0.0, 0.1, n))


def _one_far_low(seed, n):
    v = np.random.default_rng(seed).gamma(2.0, 0.5, n)
    v[3] = v.min() - 20.0
    return v


@pytest.mark.parametrize("n", [4.0, np.float64(4.0), "4", True], ids=["float", "float64", "str", "bool"])
def test_chi2_rejects_a_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        risk.chi2_dro_risk([0.3, -1.0, 2.2, 0.9], 2.0, n)


def test_chi2_accepts_a_numpy_integer_n():
    v = [0.3, -1.0, 2.2, 0.9]
    value, weights = risk.chi2_dro_risk(v, 2.0, np.int64(4))
    want, want_weights = risk.chi2_dro_risk(v, 2.0, 4)
    assert value == want and np.array_equal(weights, want_weights)


def test_chi2_full_support_is_the_closed_form_without_a_sort(monkeypatch):
    # At these shapes every optimal weight is positive, so no sort is needed.
    def no_sort(*args, **kwargs):
        raise AssertionError("chi2_dro_risk sorted a full-support answer")

    vectors = list(_bench_shaped(73, (100, 1000, 10000)))
    for name in ("sort", "argsort", "partition"):
        monkeypatch.setattr(np, name, no_sort)
    for v in vectors:
        value, weights = risk.chi2_dro_risk(v, 2.0, v.size)
        assert value == pytest.approx(chi2_interior_closed_form(v, 2.0), rel=1e-12)
        assert (weights > 0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho", [2.0, 4.0])
def test_chi2_one_far_low_loss_gets_zero_weight(rho):
    v = _one_far_low(74, 10)
    assert not chi2_interior_holds(v, rho)  # its full-support weight would be negative
    value, weights = risk.chi2_dro_risk(v, rho, v.size)
    assert value == pytest.approx(chi2_support_enumeration(v, rho), rel=1e-12, abs=1e-12)
    assert value == pytest.approx(chi2_bisection(v, rho)[0], rel=1e-11, abs=1e-11)
    assert weights[3] == 0.0 and (weights >= 0).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [2.0**-600, 2.0**600], ids=["2^-600", "2^600"])
def test_chi2_extreme_scales_solve_as_the_unscaled_losses(a):
    vectors = [np.array([0.0, 1.0]), _one_far_low(75, 10), *_bench_shaped(75, (100, 1000))]
    for v in vectors:
        for rho in (0.5, 2.0):
            value, weights = risk.chi2_dro_risk(a * v, rho, v.size)
            want, want_weights = risk.chi2_dro_risk(v, rho, v.size)
            assert value == pytest.approx(a * want, rel=1e-15)
            assert np.array_equal(weights, want_weights)


def test_chi2_losses_whose_squares_leave_the_float_range():
    # 1e-200 squared underflows to 0 and 1e200 squared overflows.
    value, weights = risk.chi2_dro_risk([0.0, 1e-200], 0.5, 2)
    want, want_weights = risk.chi2_dro_risk([0.0, 1.0], 0.5, 2)
    assert value == pytest.approx(1e-200 * want, rel=1e-15)
    assert np.allclose(weights, want_weights, rtol=0.0, atol=1e-15)
    value, weights = risk.chi2_dro_risk([0.0, 1e200, -1e200], 0.5, 3)
    want, want_weights = risk.chi2_dro_risk([0.0, 1.0, -1.0], 0.5, 3)
    assert value == pytest.approx(1e200 * want, rel=1e-15)
    assert np.allclose(weights, want_weights, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rho", [0.0, 0.5, 2.0, 50.0])
def test_kl_constrained_matches_ternary_reference(rho):
    for v in _plain_and_shifted(70, (*range(2, 13), 100, 1000, 10000), 1):
        got, _ = risk.kl_constrained_risk(v, rho, v.size)
        want, _ = kl_constrained_ternary(v, rho, v.size)
        # At rho = 0 both answers sit at tau ~ 1e6 * scale, where log-mean-exp
        # itself carries ~1e-9 rounding; elsewhere the minimum is well resolved.
        assert got == pytest.approx(want, rel=1e-8 if rho == 0.0 else 1e-11)


def test_kl_constrained_interior_tau_meets_the_radius():
    checked = 0
    for v in _plain_and_shifted(71, (100, 1000), 2):
        for rho in (0.5, 2.0, 50.0):
            _, tau = risk.kl_constrained_risk(v, rho, v.size)
            scale = max(1.0, float(v.max() - v.min()))
            if not risk.TAU_BOUND_LO * scale < tau < risk.TAU_BOUND_HI * scale:
                continue
            assert kl_to_uniform_direct(v, tau) == pytest.approx(rho / v.size, rel=1e-9)
            checked += 1
    assert checked >= 10


def test_kl_constrained_rho_zero_with_a_rounding_root_warns_nothing():
    # At rho = 0, rounding leaves h > 0 at the top of the bracket for this
    # vector, so the root search runs; its first guess must not divide by
    # the zero radius (RuntimeWarnings are errors here).
    v = np.array([0.40246818309358573, 0.38117621631097304])
    value, tau = risk.kl_constrained_risk(v, 0.0, 2)
    assert value == pytest.approx(v.mean(), rel=1e-8)
    assert tau <= risk.TAU_BOUND_HI * max(1.0, float(v.max() - v.min()))


def test_kl_constrained_bracket_ends_without_a_root():
    v = np.array([0.2, 1.4, 0.9, 0.3])
    scale = float(v.max() - v.min())
    # rho = 0: the dual falls all the way to the top of the bracket.
    _, tau = risk.kl_constrained_risk(v, 0.0, 4)
    assert tau == pytest.approx(risk.TAU_BOUND_HI * scale, rel=1e-12)
    # rho / n above log(n) = KL of a point mass: it rises from the bottom.
    value, tau = risk.kl_constrained_risk(v, 4 * np.log(4) + 1.0, 4)
    assert tau == pytest.approx(risk.TAU_BOUND_LO * scale, rel=1e-12)
    assert value == pytest.approx(v.max(), abs=1e-5)
