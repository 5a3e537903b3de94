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
_STREAM_SALT = np.uint64(0x5851F42D4C957F2D)

SEED_LIMIT = 2**63  # bound on a run or dataset seed, so seed + step stays below 2**64

_U53 = np.uint64(11)
_INV_2_53 = float(2.0**-53)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, stream: int) -> np.uint64:
    # The carries wrap in Python ints; a numpy uint64 scalar add would warn.
    s = mix64(np.array([(seed + int(_GOLDEN)) % 2**64], dtype=np.uint64))
    t = mix64(np.array([(stream + int(_STREAM_SALT)) % 2**64], dtype=np.uint64))
    return mix64(s ^ t)[0]


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
        """``k`` sequential draws without replacement, renormalizing after
        each pick. Probabilities must be finite and nonnegative, with at least
        ``k`` of them positive.

        Draw t consumes uniform t of the stream, so all ``k`` uniforms are
        taken in one call; the counter ends ``k`` past where it started.
        """
        p = np.asarray(probs, dtype=np.float64).copy()
        if not np.isfinite(p).all() or (p < 0.0).any():
            raise ValueError("probs must be finite and nonnegative")
        if k > p.size:
            raise ValueError("cannot draw more items than candidates")
        # Each pick zeroes one positive entry, so the total stays positive
        # for exactly as many draws as there are positive entries.
        if np.count_nonzero(p) < k:
            raise ValueError("probabilities sum to zero before all draws done")
        us = self.uniforms(k)
        cum = np.empty_like(p)
        out = np.empty(k, dtype=np.int64)
        last = p.size - 1
        for t in range(k):
            u = us[t] * p.sum()
            p.cumsum(out=cum)
            j = min(int(cum.searchsorted(u, side="left")), last)
            while p[j] == 0.0 and j < last:  # u landed on a spent index's boundary
                j += 1
            if p[j] == 0.0:
                j = int(p.argmax())
            out[t] = j
            p[j] = 0.0
        return out
