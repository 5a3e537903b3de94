"""CounterRng's stream key, derived in Python ints, equals the key of the
uint64-array SplitMix64 finalizer it replaced."""

import random

import numpy as np
import pytest

from drrho import rng


def _array_key(seed: int, stream: int) -> np.uint64:
    s = rng.mix64(np.array([(seed + int(rng._GOLDEN)) % 2**64], dtype=np.uint64))
    t = rng.mix64(np.array([(stream + rng._STREAM_SALT) % 2**64], dtype=np.uint64))
    return rng.mix64(s ^ t)[0]


@pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**64 - 1])
def test_int_key_equals_array_key_at_edge_seeds(seed):
    for stream in range(11):
        key = rng._stream_key(seed, stream)
        assert type(key) is np.uint64 and key == _array_key(seed, stream)


def test_int_key_equals_array_key_on_random_pairs():
    draw = random.Random(0)
    for _ in range(200):
        seed, stream = draw.randrange(2**64), draw.randrange(2**64)
        assert rng._stream_key(seed, stream) == _array_key(seed, stream)
