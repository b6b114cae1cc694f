"""Synchronous discrete jump process.

Each unit step every agent redraws a uniform heading, then jumps one length
unit forward iff the closed half-plane behind its new heading contains no
other agent. A run has gathered once the minimal enclosing disc has radius
at most 1, the step. Sensing is evaluated for all agents against the pre-move
positions, so the update is fully synchronous. The sensor is
`geometry.blocked_agents`, the continuous model's back-half-plane test
without a blind zone, and runs go through the run loop both models share
(`state.run_loop`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _DISC_EPS, blocked_agents, min_enclosing_disc
from .rng import SEED_LIMIT, check_integer
from .state import Constellation, RunSummary, Trace, apply_move, run_loop


@dataclass
class DiscreteConfig:
    n: int
    spread: float = 50.0
    seed: int = 0
    max_steps: int = 100_000

    def __post_init__(self):
        self.n = check_integer("n", self.n, 1)
        self.seed = check_integer("seed", self.seed, 0, SEED_LIMIT)
        self.max_steps = check_integer("max_steps", self.max_steps, 1)
        if not 0.0 < self.spread < math.inf:
            raise ValueError("spread must be finite and > 0")


def discrete_step(state: Constellation, config: DiscreteConfig, headings) -> Constellation:
    """One synchronous jump step under `headings`, one per agent in index
    order, all fixed before any sensing: every agent whose closed back
    half-plane is empty advances one length unit along its heading. A run
    draws each step's headings as `draw_headings(rng, n)` does; pass others
    to force a step (tests use this to construct adversarial steps).
    """
    return apply_move(_jump, state, config, headings)


def _jump(positions: np.ndarray, config: DiscreteConfig, hx, hy) -> np.ndarray:
    """The positions after the step of `discrete_step` for headings with
    cosines hx and sines hy; the run loop calls it with the rows of a
    heading block. When no agent is free the positions array is returned
    as it is."""
    free = (~blocked_agents(positions, hx, hy)).nonzero()[0]
    if len(free):
        positions = positions.copy()
        positions[free, 0] += hx[free]
        positions[free, 1] += hy[free]
    return positions


# The observer's skip. A jump stores each coordinate x of a free agent as
# fl(x + c), with c a cosine or sine, so |c| <= 1. For |x| < 2^53, x is a
# multiple of ulp(x) <= 1, so x - 1 and x + 1 are doubles too; rounding is
# monotone, so fl(x + c) lies in [x - 1, x + 1] and the coordinate moves by
# at most 1. In [2^53, 2^54) doubles are 2 apart: x + 1 lies half-way
# between x and x + 2, so when c is exactly +-1 the tie goes to the even
# neighbour and the coordinate can move by 2; from 2^54 on, x + c rounds
# back to x. So a jump moves a coordinate by at most d = 2, and by at most
# d = 1 while every coordinate stays below 2^53 in magnitude.
#
# Let s = fl(hi - lo) be the observer's side of the wider bounding-box axis,
# w = s / 2 (exact) its half-width, and u = 2^-53. The exact side is at
# least s (1 - u), and over t jumps hi falls and lo rises by at most t d
# each. The disc's containment test admits a point up to radius * _DISC_EPS
# from its centre, so its radius is at least the observer's half-width
# divided by _DISC_EPS (tested), and is above 1 while that half-width is
# above _DISC_EPS, which holds while the exact side is at least 3 (rounding
# is monotone). For _DISC_EPS < w < 2^52, t = floor((w - 1) / d) - 1 is
# computed exactly (w - 1 is a double and d a power of two) and has
# t d <= w - 1 - d, so half the exact side stays at least
# w (1 - u) - t d >= 1 + d - w u > 1 + 1/2. With m the
# largest |coordinate| at the check, m < 2^52 keeps every coordinate below
# m + t < 2^53 over those jumps, where d = 1 holds; otherwise d = 2.
_FAR_LIMIT = 2.0 ** 52


def _far_steps(positions: np.ndarray) -> int:
    """0 when the bounding box's half-width is at most `_DISC_EPS`, so that
    the enclosing disc may have radius at most 1; otherwise the number of
    steps from this one on over which it provably stays above `_DISC_EPS`
    (the bound above)."""
    (x_hi, y_hi), (x_lo, y_lo) = positions.max(axis=0).tolist(), positions.min(axis=0).tolist()
    w = max(x_hi - x_lo, y_hi - y_lo) / 2.0
    if w <= _DISC_EPS:
        return 0
    if w >= _FAR_LIMIT:
        return 1
    d = 1.0 if max(x_hi, y_hi, -x_lo, -y_lo) < _FAR_LIMIT else 2.0
    return max(1, math.floor((w - 1.0) / d))


def run_discrete(config: DiscreteConfig, record_every: int | None = 1,
                 initial: Constellation | None = None) -> tuple[Trace, RunSummary]:
    """Run until the minimal enclosing disc radius is <= 1 (the step) or
    max_steps is reached. Non-convergence is a data outcome, not an error.
    The trace holds every record_every-th frame and the final one; with
    record_every=None it stays empty. Pass `initial` to start from a
    prepared constellation instead of the seeded uniform placement; it takes
    no draws, so the generator of `config.seed` starts at its first draw
    either way.

    The observer computes the exact disc only once the bounding box's
    half-width is at most `_DISC_EPS`: the radius is at least the half-width
    divided by that factor (tested in `test_disc_radius_bounds_the_box_gate`).
    It checks the box only as often as the one-jump bound (`_far_steps`)
    requires.
    """
    far = 0

    def observe(trace, positions, k):
        nonlocal far
        if not far:
            far = _far_steps(positions)
        if far:
            far -= 1
            return False
        return min_enclosing_disc(positions).radius <= 1.0

    return run_loop(config, config.max_steps, _jump, observe, record_every, initial)
