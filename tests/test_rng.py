"""Counter-based generator: weighted draws against the per-draw oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrho.rng import CounterRng, _stream_key

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
