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

from .geometry import blocked_agents, min_enclosing_disc
from .rng import SEED_LIMIT, check_integer
from .state import Constellation, RunSummary, Trace, run_loop, step_headings


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


def discrete_step(state: Constellation, config: DiscreteConfig, rng=None, headings=None) -> Constellation:
    """One synchronous jump step.

    All headings are redrawn (agent-index order) before any sensing; every
    agent whose closed back half-plane is empty advances one length unit
    along its new heading. Pass `headings` to force the draw (tests use this
    to construct adversarial steps); otherwise they come from `rng`.
    """
    headings = step_headings(rng, state.n, headings)
    hx = np.cos(headings)
    hy = np.sin(headings)
    free = ~blocked_agents(state.positions, hx, hy)
    positions = state.positions.copy()
    positions[free, 0] += hx[free]
    positions[free, 1] += hy[free]
    return Constellation(positions, headings, state.step_index + 1)


def _bbox_halfwidth(positions: np.ndarray) -> float:
    """Cheap lower bound on the enclosing-disc radius (half the larger
    bounding-box side); lets the observer skip the exact disc while the
    constellation is still far from converged."""
    w = positions[:, 0].max() - positions[:, 0].min()
    h = positions[:, 1].max() - positions[:, 1].min()
    return max(w, h) / 2.0


def run_discrete(config: DiscreteConfig, record_every: int = 1, collect_trace: bool = True,
                 initial: Constellation | None = None) -> tuple[Trace, RunSummary]:
    """Run until the minimal enclosing disc radius is <= 1 (the step) or
    max_steps is reached. Non-convergence is a data outcome, not an error.
    Pass `initial` to start from a prepared constellation instead of the
    seeded uniform placement; it takes no draws, so the generator of
    `config.seed` starts at its first draw either way.
    """
    def observe(trace, state, k):
        if _bbox_halfwidth(state.positions) > 1.0:
            return False, None
        radius = min_enclosing_disc(state.positions).radius
        return radius <= 1.0, radius

    return run_loop("discrete", config, config.max_steps, discrete_step, observe,
                    record_every, collect_trace, initial)
