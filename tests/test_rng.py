"""Counter-based generator: weighted draws against the sequential law and
the per-draw oracle."""

import collections
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrho.rng import CounterRng, _stream_key

from oracles import weighted_draws_direct

_PROB = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e100, allow_nan=False, allow_infinity=False))


def _chi_square_sf(stat: float, df: int) -> float:
    """P(X >= stat) for a chi-square variable X with ``df`` degrees of freedom."""
    return float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))


def _chi_square_p(observed, expected) -> float:
    """Upper-tail p-value of Pearson's chi-square over the cells; cells
    expecting fewer than 5 draws are pooled into one."""
    observed, expected = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    small = expected < 5.0
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return _chi_square_sf(float(((observed - expected) ** 2 / expected).sum()), len(expected) - 1)


def _sequential_law(probs, k) -> dict[tuple, float]:
    """Exact probability of every ordered draw of ``k`` under sequential
    draws that renormalize after each pick."""
    p = np.asarray(probs, dtype=float)
    law = {}
    for seq in itertools.permutations(range(len(p)), k):
        prob, left = 1.0, p.copy()
        for j in seq:
            total = left.sum()  # summed afresh, so a denormal left last keeps its mass
            prob *= p[j] / total if total > 0 else 0.0
            left[j] = 0.0
        law[seq] = prob
    return law


def _ordered_counts(draw, n: int) -> collections.Counter:
    return collections.Counter(tuple(draw().tolist()) for _ in range(n))


_LAW_CASES = [
    ([0.5, 0.25, 0.125, 0.125], 2),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3),
    ([0.0, 3.0, 1.0, 0.0, 2.0], 3),
    ([5e-324, 1.0, 2.0], 3),  # a denormal candidate is drawn last
    ([1e100, 3e100, 2e100, 1e100], 4),
    ([1.0] * 6, 6),
]


def test_weighted_draws_match_per_draw_oracle():
    """The one-pass draw and the per-draw oracle both follow the exact
    sequential law: ordered-draw frequencies over 12,000 draws per case,
    against exact enumeration."""
    n = 12_000
    for case, (probs, k) in enumerate(_LAW_CASES):
        probs = np.array(probs)
        law = _sequential_law(probs, k)
        lib, ref = CounterRng(case, 3), CounterRng(case, 4)
        for counts in (
            _ordered_counts(lambda: lib.weighted_draws(probs, k), n),
            _ordered_counts(lambda: weighted_draws_direct(ref, probs, k), n),
        ):
            assert all(law.get(seq, 0.0) > 0.0 for seq in counts), (probs, k)
            cells = [seq for seq, prob in law.items() if prob > 0.0]
            assert _chi_square_p([counts[c] for c in cells], [n * law[c] for c in cells]) > 1e-4, (probs, k)
        assert lib._counter == n * len(probs)


def test_weighted_draws_chi_square_at_240():
    """At JEST's shape, 24 of 240 on softmax scores: the first draw follows
    p / sum(p) exactly, and every candidate's inclusion count agrees with the
    per-draw oracle's (a two-sample chi-square), over fixed seeds."""
    scores = CounterRng(11, 0).normals(240)
    probs = np.exp(scores - scores.max())
    n, k = 3000, 24
    lib = [CounterRng(seed, 0).weighted_draws(probs, k) for seed in range(n)]
    ref = [weighted_draws_direct(CounterRng(seed, 1), probs, k) for seed in range(n)]
    first = np.bincount([d[0] for d in lib], minlength=240)
    assert _chi_square_p(first, n * probs / probs.sum()) > 1e-4
    inc_lib = np.bincount(np.concatenate(lib), minlength=240).astype(float)
    inc_ref = np.bincount(np.concatenate(ref), minlength=240).astype(float)
    pooled = (inc_lib + inc_ref) / 2
    stat = float((((inc_lib - pooled) ** 2 + (inc_ref - pooled) ** 2) / pooled).sum())
    assert _chi_square_sf(stat, 239) > 1e-4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    probs=st.lists(_PROB, min_size=1, max_size=40),
    seed=st.integers(0, 2**32),
    stream=st.integers(0, 9),
    data=st.data(),
)
def test_weighted_draws_are_distinct_positive_and_advance_by_candidates(probs, seed, stream, data):
    probs = np.array(probs)
    k = data.draw(st.integers(0, int(np.count_nonzero(probs))), label="k")
    rng = CounterRng(seed, stream)
    got = rng.weighted_draws(probs, k)
    assert len(set(got.tolist())) == k and (probs[got] > 0).all()
    assert rng._counter == len(probs)


def test_weighted_draws_more_than_candidates_raises():
    with pytest.raises(ValueError, match="more items than candidates"):
        CounterRng(0).weighted_draws(np.ones(3), 4)


@pytest.mark.parametrize("probs, k", [([0.0, 0.0, 0.0], 1), ([0.0, 2.0, 0.0], 2)])
def test_weighted_draws_zero_total_raises(probs, k):
    with pytest.raises(ValueError, match="sum to zero"):
        CounterRng(0).weighted_draws(np.array(probs), k)


@pytest.mark.parametrize(
    "probs",
    [[3.0, -2.0, 0.5, 0.5], [np.inf, 1.0, 1.0], [np.nan, 1.0], [-1.0, 0.5, 2.0], [1.0, -np.inf]],
)
def test_weighted_draws_reject_invalid_probs(probs):
    with pytest.raises(ValueError, match="probs"):
        CounterRng(0).weighted_draws(np.array(probs), 1)


# Stream keys for streams 0 and 7, and the first three outputs of stream 3,
# as every earlier release computed them.
_KEYS = {
    0: (
        15932029459833205995,
        9485314010938720504,
        [12591354634578053435, 17031541613307595386, 2137840894891215887],
    ),
    1: (
        5392216905881748495,
        10611140529783058782,
        [11359166426942485619, 13662400794389572742, 11334178811555132727],
    ),
    2**62: (
        14879742781474839613,
        3504701369214687115,
        [13648051455192475591, 4603870469940349810, 1197266060027811802],
    ),
    2**63 - 1: (
        6612882651605874561,
        347979119537137596,
        [16340057441945273296, 14098448995325807046, 9057108179763150916],
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", sorted(_KEYS))
def test_stream_keys_and_first_outputs_are_unchanged_and_quiet(seed):
    key0, key7, outputs = _KEYS[seed]
    assert int(_stream_key(seed, 0)) == key0 and int(_stream_key(seed, 7)) == key7
    assert CounterRng(seed, 3).raw(3).tolist() == outputs


@pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
def test_seed_outside_64_bits_raises(seed):
    with pytest.raises(ValueError, match="seed"):
        CounterRng(seed)
    assert CounterRng(2**64 - 1).raw(1).dtype == np.uint64
