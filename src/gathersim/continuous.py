"""Piecewise-continuous dynamics with a blind zone.

Headings are redrawn once per unit interval. The interval is integrated by
fixed substeps: at each substep every sensor is evaluated against the same
position snapshot, then every free agent advances substep along its heading,
at one length unit per interval (an agent may therefore stop and restart
within one interval as the constellation evolves around it). An agent's
sensor ignores everything within distance delta of it, in every direction:
agent j blocks agent i iff d_ij > delta and j lies in i's closed back
half-plane. This is the discrete model's sensor with a blind zone, and both
models share its kernel (`geometry.blocked_agents`) and their run loop
(`state.run_loop`).

In the exact dynamics a pair within delta can never separate beyond delta:
the agent moving away has the other in its closed back half-plane as soon
as the distance exceeds delta, and stops. The substep integrator keeps this
exactly (the Filippov sliding convention). Within a substep the velocities
are constant, so the squared distance of a pair is convex in time and it is
enough to check the end of the substep. After sensing, the move of the free
agents is tried; every pair that was within delta at the start of the
substep and would end beyond delta is a crossing pair, and each moving
member of a crossing pair that has the other in its closed back half-plane
at the end of the substep is held for this substep. An agent whose own move
would carry a stationary partner beyond delta always meets that condition,
so it stays put at the edge of the blind zone. When neither member
qualifies, which only rounding can cause, both are held. The move is then
tried again with the remaining free agents; each round holds at least one
more agent, so a substep takes at most n rounds. The sensor stays strict
(an agent at exactly distance delta is invisible), and the sensor, this
guard and the separated-distance sum all decide "beyond delta" by the same
floating-point test, dx*dx + dy*dy > delta*delta on the difference of the
two positions.

A substep in which no agent moves leaves the constellation unchanged, so
every later substep of the interval would repeat it; the integrator stops
the interval there. The integrator, `_advance_interval`, is vectorized over
agents with numpy; it only moves positions, and the run loop derives the
moved flags from the position change. The Lyapunov observable is
recorded once per interval in `Trace.series`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import as_points, blocked_agents, min_enclosing_disc
from .state import Constellation, RunSummary, Trace, run_loop, step_headings


@dataclass
class ContinuousConfig:
    n: int
    delta: float = 0.1
    substep: float = 1e-3
    spread: float = 50.0
    seed: int = 0
    max_intervals: int = 10_000

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("delta", "spread"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 < self.substep <= 1.0:
            raise ValueError("substep must lie in (0, 1]")
        if self.nsub < 1 or abs(self.nsub * self.substep - 1.0) > 1e-9:
            raise ValueError("substep must divide the unit interval exactly")
        if self.max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")

    @property
    def nsub(self) -> int:
        return round(1.0 / self.substep)


class LyapunovState(NamedTuple):
    """Summed separated pairwise distances (zero iff confined)."""

    value: float
    confined: bool


def _advance_interval(pos, hx, hy, delta2, step, nsub):
    """Integrate nsub substeps of the sliding rule in place on pos."""
    n = pos.shape[0]
    hvec = np.stack([hx, hy], axis=1)
    for _ in range(nsub):
        blocked, near = blocked_agents(pos, hx, hy, delta2)
        free = ~blocked
        guard = np.count_nonzero(near) > n  # some pair of distinct agents within delta
        while True:
            new = pos.copy()
            new[free] += step * hvec[free]
            if not guard:
                break
            ex = new[None, :, 0] - new[:, None, 0]
            ey = new[None, :, 1] - new[:, None, 1]
            cross = near & (ex * ex + ey * ey > delta2)
            if not cross.any():
                break
            # hold[i, j]: i moves and ends with j in its closed back half-plane
            hold = cross & free[:, None] & (hx[:, None] * ex + hy[:, None] * ey <= 0.0)
            neither = cross & ~(hold | hold.T)
            free &= ~(hold | (neither & free[:, None])).any(axis=1)
        if not free.any():
            break
        pos[:] = new


def continuous_interval(state: Constellation, config: ContinuousConfig, rng=None,
                        headings=None) -> Constellation:
    """Advance one unit interval: redraw headings once, then integrate
    1/substep synchronous sense-then-move substeps under the sliding rule of
    the module docstring. Pass `headings` to force the draw; otherwise they
    come from `rng`."""
    headings = step_headings(rng, state.n, headings)
    pos = state.positions.copy()
    _advance_interval(pos, np.cos(headings), np.sin(headings),
                      config.delta * config.delta, config.substep, config.nsub)
    return Constellation(pos, headings, state.step_index + 1)


def _lyapunov(positions: np.ndarray, delta: float, radius: float) -> LyapunovState:
    """The observable of `lyapunov_value`, given the enclosing-disc radius."""
    if radius < delta:
        return LyapunovState(0.0, True)
    diff = positions[None, :, :] - positions[:, None, :]
    dist2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    # the sensor's test, so a pair the integrator keeps within delta is never counted
    return LyapunovState(float(np.sqrt(dist2[dist2 > delta * delta]).sum()), False)


def lyapunov_value(positions, delta: float) -> LyapunovState:
    """Gathering progress observable: zero iff the constellation fits in an
    open disc of radius delta, otherwise the sum of all pairwise distances
    exceeding delta (each unordered pair contributes twice)."""
    pts = as_points(positions)
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be finite and > 0")
    return _lyapunov(pts, delta, min_enclosing_disc(pts).radius)


def run_continuous(config: ContinuousConfig, record_every: int = 1, collect_trace: bool = True,
                   initial: Constellation | None = None) -> tuple[Trace, RunSummary]:
    """Iterate unit intervals until the constellation is confined (enclosing
    radius strictly below delta, checked at interval boundaries) or
    max_intervals is reached. Pass `initial` to start from a prepared
    constellation instead of the seeded uniform placement; it takes no
    draws, so the generator of `config.seed` starts at its first draw either
    way."""
    def observe(trace, state, k):
        radius = min_enclosing_disc(state.positions).radius
        value, confined = _lyapunov(state.positions, config.delta, radius)
        trace.series.append((k, radius, value, confined))
        return confined, radius

    return run_loop("continuous", config, config.max_intervals, continuous_interval, observe,
                    record_every, collect_trace, initial)


def check_separation_band(trace: Trace, delta: float, substep: float) -> list[tuple]:
    """Scan a full-cadence trace for violations of the two distance bands.

    Separated pairs (distance > delta at an interval boundary) may not gain
    more than 4 * substep across the next interval, and once a pair has been
    within delta it may never exceed delta + 4 * substep. Returns a list of
    (kind, interval, i, j, distance) tuples, empty when the run is clean.
    """
    frames = trace.frames
    violations = []
    ever_close = None
    band = delta + 4.0 * substep
    prev = None
    for frame in frames:
        diff = frame.positions[None, :, :] - frame.positions[:, None, :]
        d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
        if ever_close is None:
            ever_close = np.zeros_like(d, dtype=bool)
        else:
            prev_d, prev_step = prev
            gap = frame.step - prev_step
            grow_tol = 4.0 * substep * gap
            bad = (prev_d > delta) & (d - prev_d > grow_tol)
            for i, j in zip(*np.nonzero(np.triu(bad, 1))):
                violations.append(("separated_growth", frame.step, int(i), int(j), float(d[i, j])))
            bad = ever_close & (d > band)
            for i, j in zip(*np.nonzero(np.triu(bad, 1))):
                violations.append(("close_pair_escape", frame.step, int(i), int(j), float(d[i, j])))
        ever_close |= d < delta
        prev = (d, frame.step)
    return violations


def check_lyapunov_monotone(trace: Trace, n: int, substep: float) -> list[tuple]:
    """Scan the per-interval series for Lyapunov increases beyond the
    integrator tolerance 2 * n^2 * substep per interval. Returns
    (interval, previous, current) tuples, empty when monotone."""
    tol = 2.0 * n * n * substep
    violations = []
    for (k0, _, v0, _), (k1, _, v1, _) in zip(trace.series, trace.series[1:]):
        if v1 - v0 > tol * (k1 - k0):
            violations.append((k1, v0, v1))
    return violations
