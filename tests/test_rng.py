"""Counter-based generator: weighted draws against the per-draw oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrho.rng import CounterRng

from oracles import weighted_draws_direct

_PROB = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e100, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    probs=st.lists(_PROB, min_size=1, max_size=40),
    seed=st.integers(0, 2**32),
    stream=st.integers(0, 9),
    start=st.integers(0, 5),
    data=st.data(),
)
def test_weighted_draws_match_per_draw_oracle(probs, seed, stream, start, data):
    probs = np.array(probs)
    k = data.draw(st.integers(0, int(np.count_nonzero(probs))), label="k")
    lib, ref = CounterRng(seed, stream), CounterRng(seed, stream)
    lib.uniforms(start)
    ref.uniforms(start)
    got = lib.weighted_draws(probs, k)
    want = weighted_draws_direct(ref, probs, k)
    assert np.array_equal(got, want)
    assert lib._counter == ref._counter == start + k
    assert np.array_equal(lib.raw(3), ref.raw(3))


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
