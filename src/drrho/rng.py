"""Deterministic counter-based random number generation.

All stochastic parts of the library (data synthesis, weight init, batch
shuffling, selection sampling) draw from SplitMix64 run in counter mode:
output i of a stream is ``mix64(key + (i+1) * GOLDEN)`` where ``mix64`` is
the SplitMix64 finalizer and ``key`` is derived from (seed, stream).
Normal variates use the Box-Muller transform on top of the uniform stream.

The bit stream is a pure function of (seed, stream, counter), so any value
can be regenerated positionally and the same seed always reproduces the
same artifacts. The integer pipeline is exact everywhere; normals are
deterministic for a given libm (log/cos/sin), which is all the
reproducibility contracts here require.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = 0x5851F42D4C957F2D

SEED_LIMIT = 2**63  # bound on a run or dataset seed, so seed + step stays below 2**64

_U53 = np.uint64(11)
_INV_2_53 = float(2.0**-53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, stream: int) -> np.uint64:
    # mix64 in Python ints, wrapped to 64 bits: on one-element arrays it costs several times more.
    def mix(z: int) -> int:
        z = (z ^ (z >> 30)) * int(_MIX1) % 2**64
        z = (z ^ (z >> 27)) * int(_MIX2) % 2**64
        return z ^ (z >> 31)

    return np.uint64(mix(mix((seed + int(_GOLDEN)) % 2**64) ^ mix((stream + _STREAM_SALT) % 2**64)))


class CounterRng:
    """A seekable deterministic generator over one (seed, stream) pair."""

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self.stream = int(stream)
        self._key = _stream_key(self.seed, self.stream)
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs, advancing the counter."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return mix64(self._key + idx * _GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in (0, 1], using the top 53 bits of each output."""
        return ((self.raw(n) >> _U53) + np.uint64(1)).astype(np.float64) * _INV_2_53

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal array via Box-Muller on uniform pairs."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.empty(2 * m)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n].reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """A permutation of range(n): argsort of n fresh raw keys."""
        return np.argsort(self.raw(n), kind="stable")

    def weighted_draws(self, probs: np.ndarray, k: int) -> np.ndarray:
        """``k`` draws without replacement, each in proportion to the
        probabilities of the candidates not yet drawn. Probabilities must be
        finite and nonnegative, with at least ``k`` of them positive.

        One pass (Efraimidis and Spirakis, 2006): candidate i arrives at an
        exponential time -log(u_i) / p_i, and the draws are the ``k`` earliest
        arrivals in arrival order, ties to the lower index. By the race's
        memorylessness this is the law of sequential draws that renormalize
        after each pick. Candidate i consumes uniform i of the stream, so the
        counter ends ``len(probs)`` past where it started.
        """
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or not np.isfinite(p).all() or (p < 0.0).any():
            raise ValueError("probs must be a vector, finite and nonnegative")
        if k > p.size:
            raise ValueError("cannot draw more items than candidates")
        if np.count_nonzero(p) < k:
            raise ValueError("probabilities sum to zero before all draws done")
        # Arrival times are compared as logs, log(-log u) - log p, so a
        # denormal p cannot overflow; u = 1 (arrival at 0) and p = 0 give
        # infinities, and a zero p never arrives.
        keys = -np.log(self.uniforms(p.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(keys, out=keys)
            keys -= np.log(p)
        keys[p == 0.0] = np.inf
        return np.argsort(keys, kind="stable")[:k]
