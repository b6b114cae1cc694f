"""Seeding discipline: one master seed per run, hash-derived seeds per sweep cell.

All stochastic draws flow through a numpy PCG64 generator built by
`make_rng`; nothing reads the wall clock. Sweep runs get independent seeds
via `derive_seed`, a SplitMix64-style mix of (base_seed, n, rep) using the
published constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, so grids are reproducible and order-independent.
Both validate their arguments with `check_integer`, the integer check the
configs use for their counts, seeds and caps.
"""

import numbers

import numpy as np

SEED_LIMIT = 1 << 64  # seeds are unsigned 64-bit integers
_MASK64 = SEED_LIMIT - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_integer(name: str, value, low: int, high: int | None = None) -> int:
    """value as a Python int; ValueError unless it is an integer (a Python
    or numpy integer, not a bool) with low <= value, and value < high when
    given."""
    # type() first: the common case, a plain int, skips the slower ABC check
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    if high is not None and value >= high:
        raise ValueError(f"{name} must be < {high}")
    return int(value)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical seeds give identical draw sequences.
    ValueError unless seed is an unsigned 64-bit integer."""
    return np.random.default_rng(check_integer("seed", seed, 0, SEED_LIMIT))


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, n: int, rep: int) -> int:
    """64-bit run seed for sweep cell (n, rep) under a base seed.

    Each argument is absorbed through the SplitMix64 increment-and-finalize
    step; collision-free in practice for any grid a sweep can produce
    (verified by scan in the test suite). ValueError unless base_seed is an
    unsigned 64-bit integer and n and rep are non-negative integers.
    """
    base_seed = check_integer("base_seed", base_seed, 0, SEED_LIMIT)
    n = check_integer("n", n, 0)
    rep = check_integer("rep", rep, 0)
    h = (base_seed + (n + 1) * _GAMMA) & _MASK64
    h = _mix64(h)
    h = (h + (rep + 1) * _GAMMA) & _MASK64
    return _mix64(h)
