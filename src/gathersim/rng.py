"""Seeding discipline: one master seed per run, hash-derived seeds per sweep cell.

All stochastic draws flow through a numpy PCG64 generator built by
`make_rng`; nothing reads the wall clock. Sweep runs get independent seeds
via `derive_seed`, a SplitMix64-style mix of (base_seed, n, rep) using the
published constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, so grids are reproducible and order-independent.
"""

import numpy as np

SEED_LIMIT = 1 << 64  # seeds are unsigned 64-bit integers
_MASK64 = SEED_LIMIT - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical seeds give identical draw sequences."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return np.random.default_rng(seed)


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, n: int, rep: int) -> int:
    """64-bit run seed for sweep cell (n, rep) under a base seed.

    Each argument is absorbed through the SplitMix64 increment-and-finalize
    step; collision-free in practice for any grid a sweep can produce
    (verified by scan in the test suite).
    """
    if n < 0 or rep < 0:
        raise ValueError("n and rep must be non-negative")
    h = (base_seed + (n + 1) * _GAMMA) & _MASK64
    h = _mix64(h)
    h = (h + (rep + 1) * _GAMMA) & _MASK64
    return _mix64(h)
