"""Deterministic 64-bit generator for reproducible ensembles.

The update rule is fixed bit-exactly so independently written code can
reproduce every ensemble from the seed alone.  State and outputs are 64-bit
unsigned integers; all arithmetic is modulo 2^64:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.  Ensemble
member i is seeded with seed + i, taken mod 2^64 like the state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


class SplitMix64:
    """Tiny splittable generator with the documented update rule."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def random_smooth_state(grid, rng: SplitMix64) -> np.ndarray:
    """Random smooth state: a four-mode sine series plus an affine part,
    sampled at the nodes (traces take the endpoint values)."""
    xi = (grid.nodes - grid.a) / (grid.b - grid.a)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    u = rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * xi
    for k, ck in enumerate(coeffs, start=1):
        u = u + ck * np.sin(k * np.pi * xi)
    return u
