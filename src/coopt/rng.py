"""Deterministic seeded randomness for restarts and initial states.

The generator is splitmix64, chosen because it is trivial to re-implement
from its published constants: the state advances by the 64-bit golden-ratio
increment 0x9E3779B97F4A7C15 and the output is the two-round xor-multiply
finalizer (0xBF58476D1CE4E5B9, 0x94D049BB133111EB).  Every seeded artifact
in this package (random strategy profiles, random unit vectors, per-cell
sweep seeds) is derived from this one primitive, so runs reproduce exactly
for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Minimal splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in the open interval (0, 1), 53-bit resolution."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def uniform_signed(self) -> float:
        """Uniform float in (-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def uniform_signed_block(self, count: int) -> np.ndarray:
        """The next count uniform_signed() values, computed as one array."""
        # The k-th output mixes state + k * golden; uint64 arithmetic wraps.
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(factor)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u = z.astype(float)
        u += 0.5
        u *= 2.0**-52  # 2 * uniform()
        u -= 1.0
        return u


def derive_seed(base_seed: int, *path: int) -> int:
    """Child seed for an index path, e.g. (grid position, restart number).

    Each path element perturbs the state by (index + 1) golden-ratio steps
    and takes one splitmix64 output, so distinct paths give unrelated seeds.
    """
    s = base_seed & _MASK64
    for k in path:
        s = SplitMix64(s ^ (((k + 1) * _GOLDEN) & _MASK64)).next_u64()
    return s


def random_simplex(cardinality: int, stream: SplitMix64) -> np.ndarray:
    """Strictly positive probability vector, flat-Dirichlet distributed.

    Uses -log(u) exponentials normalized to sum one; every entry is > 0.
    """
    e = np.array([-math.log(stream.uniform()) for _ in range(cardinality)])
    return e / e.sum()


def random_unit_vector(dimension: int, seed: int) -> np.ndarray:
    """Unit-norm vector with components uniform in (-1, 1) before scaling."""
    stream = SplitMix64(seed)
    while True:
        v = stream.uniform_signed_block(dimension)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm
