"""Deterministic pseudo-random numbers for reproducible instance generation.

A splitmix-style 64-bit state advance is used instead of platform RNGs so
that identical seeds give identical instances on every platform and Python
version.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit splitmix generator: state advances by a fixed odd constant,
    outputs are a bijective mix of the state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform float in [lo, hi), built from the top 53 output bits."""
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def peek_uniforms(self, k: int) -> np.ndarray:
        """The next k values of uniform() as a float64 array, bit for bit,
        without advancing. Draw i mixes state + (i+1)*GOLDEN; uint64 array
        arithmetic wraps silently, as the mask does."""
        z = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN + self._state
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        return ((z ^ (z >> 31)) >> 11).astype(np.float64) * (1.0 / (1 << 53))

    def advance(self, k: int) -> None:
        """Skip k draws: the state k next_u64() calls would leave."""
        self._state = (self._state + k * _GOLDEN) & _MASK64

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is negligible for desk-scale n."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def derive(self) -> "SplitMix64":
        """Child generator seeded from the next output (for rejection rounds)."""
        return SplitMix64(self.next_u64())
