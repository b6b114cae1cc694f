"""Synchronous discrete jump process.

Each unit step every agent redraws a uniform heading, then jumps forward a
fixed step iff the closed half-plane behind its new heading contains no
other agent. Sensing is evaluated for all agents against the pre-move
positions, so the update is fully synchronous. The sensor is the continuous
model's kernel (`geometry.blocked_agents`) without a blind zone, and runs go
through the run loop both models share (`state.run_loop`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import blocked_agents, min_enclosing_disc
from .state import Constellation, RunSummary, Trace, draw_headings, run_loop


@dataclass
class DiscreteConfig:
    n: int
    step_size: float = 1.0
    spread: float = 50.0
    seed: int = 0
    max_steps: int = 100_000
    convergence_radius: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("step_size", "spread", "convergence_radius"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def discrete_step(state: Constellation, config: DiscreteConfig, rng=None, headings=None) -> Constellation:
    """One synchronous jump step.

    All headings are redrawn (agent-index order) before any sensing; every
    agent whose closed back half-plane is empty advances by step_size along
    its new heading. Pass `headings` to force the draw (tests use this to
    construct adversarial steps); otherwise they come from `rng`.
    """
    if headings is None:
        if rng is None:
            raise ValueError("discrete_step needs an rng or explicit headings")
        headings = draw_headings(rng, state.n)
    headings = np.asarray(headings, dtype=float)
    if headings.shape != (state.n,):
        raise ValueError("headings must have one entry per agent")
    hx = np.cos(headings)
    hy = np.sin(headings)
    free = ~blocked_agents(state.positions, hx, hy, -1.0)[0]
    positions = state.positions.copy()
    positions[free, 0] += config.step_size * hx[free]
    positions[free, 1] += config.step_size * hy[free]
    return Constellation(positions, headings, state.step_index + 1)


def _bbox_halfwidth(positions: np.ndarray) -> float:
    """Cheap lower bound on the enclosing-disc radius (half the larger
    bounding-box side); lets the observer skip the exact disc while the
    constellation is still far from converged."""
    w = positions[:, 0].max() - positions[:, 0].min()
    h = positions[:, 1].max() - positions[:, 1].min()
    return max(w, h) / 2.0


def run_discrete(config: DiscreteConfig, rng=None, record_every: int = 1,
                 collect_trace: bool = True, initial: Constellation | None = None) -> tuple[Trace, RunSummary]:
    """Run until the minimal enclosing disc radius is <= convergence_radius
    or max_steps is reached. Non-convergence is a data outcome, not an error.
    Pass `initial` to start from a prepared constellation instead of the
    seeded uniform placement.
    """
    def observe(trace, state, k):
        if _bbox_halfwidth(state.positions) > config.convergence_radius:
            return False, None
        radius = min_enclosing_disc(state.positions).radius
        return radius <= config.convergence_radius, radius

    return run_loop("discrete", config, config.max_steps, discrete_step, observe, rng,
                    record_every, collect_trace, initial)
