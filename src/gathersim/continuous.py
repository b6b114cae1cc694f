"""Piecewise-continuous dynamics with a blind zone.

Headings are redrawn once per unit interval. The interval is integrated by
fixed substeps: at each substep every sensor is evaluated against the same
position snapshot, then every free agent advances substep along its heading,
at one length unit per interval (an agent may therefore stop and restart
within one interval as the constellation evolves around it). An agent's
sensor ignores everything within distance delta of it, in every direction:
agent j blocks agent i iff d_ij > delta and j lies in i's closed back
half-plane. This is the discrete model's sensor with a blind zone; each
model has its own sensor function in `geometry` (`blind_zone_sensor` here,
`blocked_agents` there), and both share their run loop (`state.run_loop`).

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
guard, the separated-distance sum and the invariant checkers all decide
"beyond delta" by the same floating-point test, dx*dx + dy*dy > delta*delta
on the difference of the two positions.

A substep in which no agent moves leaves the constellation unchanged, so
every later substep of the interval would repeat it; the integrator stops
the interval there. More generally, substeps whose decisions provably
repeat are applied without re-sensing. Once a sensed substep has fixed its
final movers F, the next substep's decisions are sign tests on pair terms
that only change for pairs with a member in F (the differences of other
pairs are the same floats). For every pair with a mover the integrator
computes an exact count of the substeps over which its decisions repeat.
With F and the free set G of every hold round fixed, the pair difference
after t more substeps is v + t w, with v = p_j - p_i at the sensed positions
and w = step * (F_j h_j - F_i h_i), and each decision of the pair is the
sign of a function of t:
  - linear, for the back-line tests: h_i . (v + t w) and h_j . -(v + t w) of
    a pair beyond delta, and the same on the trial difference of a crossing
    pair for each of its members in G;
  - the convex quadratic |u + t w|^2 - delta^2, for the within-delta test at
    the sensed positions (u = v) and at the trial positions of every hold
    round (u = v + step * (G_j h_j - G_i h_i)).
Each threshold is moved away by a guard g (below), and the roots of these
functions give the largest k over which every one keeps its sign. The
candidate is then checked by evaluation: a linear function, and a quadratic
that must stay within, at both ends of [0, k] (a convex function is largest
at an end); a quadratic that must stay beyond at its vertex clamped to
[0, k]. If the check fails the count is 0 and the next substep is sensed,
so the rounding of the roots can only shorten k. The integrator takes the
least count over the pairs with a mover (capped at the substeps left, and
all of them when no pair has a mover) and applies those substeps as k more
`x += step * h` additions on the rows of F, accumulated by numpy in chunks
(`_repeat_add`): the same float operations in the same order, so the
positions are bit-identical to sensing every substep. The counts run as
scalar Python and stop at the first 0: first the pair whose count ended the
previous count of the interval at 0, if it still has a mover, then mover by
mover in index order. A count capped lower can come out larger, so this
order changes which substeps are sensed, but any valid count gives the
same positions bit for bit.

The rounding guard. Let u = 2^-53 and X = 2 max|x| + 2 at the start of the
interval. The config enforces nsub <= 2^51 (a substep of at least 2^-51), so
no coordinate leaves [-X, X] within the interval. Each computed term (a dot
product, a distance, their difference from the threshold) is within 16 u X
of its exact value, so e = 64 u X covers both ends with a factor of two.
One stored addition moves a coordinate by step * h_c plus at most
|fl(x + d) - (x + d)| + |d - step h_c| <= u X + u step, with
d = fl(step * h_c). A pair's two members move its difference by w plus at
most 2 sqrt(2) u (X + step) < 4.3 u X per substep (step <= 1 <= X / 2), so
rho = 8 u X bounds it with a factor of about two, and after t < left
substeps the stored difference is within left * rho of v + t w. Evaluating
v + t w and its terms in floats rounds by less than the 16 u X of a computed
term, so g = e + left * rho covers the decision at the sensed substep, the
decision at substep t and the evaluation of the model. At ordinary
coordinates e is ~1e-13 and g ~1e-11, far below one substep.

The integrator, `_advance_interval`, senses each sensed substep with one
`geometry.blind_zone_sensor` call, dense over agents in numpy, and lists
the pairs within delta once. Its hold rounds (`_hold_rounds`) and counts
run as scalar Python over those pairs, with the sensor's float expressions
on the trial positions; at the n this runs at, numpy calls on (n, n) arrays
cost more than scalar arithmetic on the few pairs within delta. It only
moves positions, and leaves the moved flags to the run loop, which derives
them from the position change. A traced run records the Lyapunov
observable once per interval in `Trace.series`. An untraced run needs only
whether the enclosing radius is below delta, and computes the disc only
once the bounding box's half-width is at most delta * `_DISC_EPS`: the
radius is at least the half-width divided by that factor (tested in
`test_disc_radius_bounds_the_box_gate`).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import _DISC_EPS, as_points, blind_zone_sensor, min_enclosing_disc
from .rng import SEED_LIMIT, check_integer
from .state import Constellation, RunSummary, Trace, apply_move, run_loop

_UNIT_ROUNDOFF = 2.0 ** -53

# The largest chunk, in rows, of the accumulation that applies elided
# substeps.
_ACCUMULATE_ROWS = 4096


@dataclass
class ContinuousConfig:
    n: int
    delta: float = 0.1
    substep: float = 1e-3
    spread: float = 50.0
    seed: int = 0
    max_intervals: int = 10_000

    def __post_init__(self):
        self.n = check_integer("n", self.n, 1)
        self.seed = check_integer("seed", self.seed, 0, SEED_LIMIT)
        self.max_intervals = check_integer("max_intervals", self.max_intervals, 1)
        for name in ("delta", "spread"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 2.0 ** -51 <= self.substep <= 1.0:
            # below it nsub exceeds 2^51, past the integrator's rounding guard
            raise ValueError(f"substep must lie in [2**-51, 1], got {self.substep!r}")
        if abs(self.nsub * self.substep - 1.0) > 1e-9:
            raise ValueError("substep must divide the unit interval exactly")

    @property
    def nsub(self) -> int:
        return round(1.0 / self.substep)


class LyapunovState(NamedTuple):
    """Summed separated pairwise distances (zero iff confined)."""

    value: float
    confined: bool


def _linear_repeats(a0, a1, guard, cap):
    """Largest k <= cap such that a0 + t a1 keeps the sign of a0, at least
    guard away from 0, for every t in [0, k]; 0 when that is not provable."""
    if a0 < 0.0:
        a0, a1 = -a0, -a1
    if a0 <= guard:
        return 0
    k = cap
    if a1 < 0.0:
        root = (a0 - guard) / -a1
        k = cap if root >= cap else int(root)
    # a linear term is extreme at the endpoints
    return k if a0 + k * a1 > guard else 0


def _within_repeats(vx, vy, wx, wy, limit, cap):
    """Largest k <= cap with |v + t w| < limit for every t in [0, k]; 0 when
    that is not provable."""
    c = vx * vx + vy * vy - limit * limit
    if limit <= 0.0 or c >= 0.0:
        return 0
    a = wx * wx + wy * wy
    b = vx * wx + vy * wy
    k = cap
    if a > 0.0:
        # the larger root of a t^2 + 2 b t + c, in the form without cancellation
        s = math.sqrt(b * b - a * c)
        root = -c / (b + s) if b > 0.0 else (s - b) / a
        k = cap if root >= cap else int(root)
    # the square of a distance is convex in t: its maximum is at an endpoint
    qx = vx + k * wx
    qy = vy + k * wy
    return k if qx * qx + qy * qy < limit * limit else 0


def _beyond_repeats(vx, vy, wx, wy, limit, cap):
    """Largest k <= cap with |v + t w| > limit for every t in [0, k]; 0 when
    that is not provable."""
    c = vx * vx + vy * vy - limit * limit
    if c <= 0.0:
        return 0
    a = wx * wx + wy * wy
    b = vx * wx + vy * wy
    k = cap
    t = 0.0
    if b < 0.0:
        disc = b * b - a * c
        if disc >= 0.0:
            root = c / (math.sqrt(disc) - b)  # the smaller root, both are positive
            k = cap if root >= cap else int(root)
        # the minimum over [0, k] is at the vertex -b / a, clamped
        t = k if -b >= a * k else -b / a
    qx = vx + t * wx
    qy = vy + t * wy
    return k if qx * qx + qy * qy > limit * limit else 0


def _pair_repeats(i, j, p, h, d, mover, rounds, delta, guard, cap):
    """The exact count, up to cap, of substeps over which every decision of
    pair (i, j) provably repeats (module docstring). p are the sensed
    positions, h the headings, d the stored moves, mover the flags of the
    final movers F and rounds the free flags of every hold round, all as
    lists."""
    vx = p[j][0] - p[i][0]
    vy = p[j][1] - p[i][1]
    wx = (d[j][0] if mover[j] else 0.0) - (d[i][0] if mover[i] else 0.0)
    wy = (d[j][1] if mover[j] else 0.0) - (d[i][1] if mover[i] else 0.0)
    hix, hiy = h[i]
    hjx, hjy = h[j]
    if vx * vx + vy * vy > delta * delta:
        # beyond delta: the pair stays beyond, and both back-line tests repeat
        k = _beyond_repeats(vx, vy, wx, wy, delta + guard, cap)
        k = _linear_repeats(hix * vx + hiy * vy, hix * wx + hiy * wy, guard, k)
        return _linear_repeats(hjx * vx + hjy * vy, hjx * wx + hjy * wy, guard, k)
    k = _within_repeats(vx, vy, wx, wy, delta - guard, cap)
    for free in rounds:
        # the trial difference of this round, v + step * (G_j h_j - G_i h_i)
        ux = vx + ((d[j][0] if free[j] else 0.0) - (d[i][0] if free[i] else 0.0))
        uy = vy + ((d[j][1] if free[j] else 0.0) - (d[i][1] if free[i] else 0.0))
        if ux * ux + uy * uy > delta * delta:
            # a crossing pair: it stays crossing, and the hold test of each
            # of its free members repeats
            k = _beyond_repeats(ux, uy, wx, wy, delta + guard, k)
            if free[i]:
                k = _linear_repeats(hix * ux + hiy * uy, hix * wx + hiy * wy, guard, k)
            if free[j]:
                k = _linear_repeats(hjx * ux + hjy * uy, hjx * wx + hjy * wy, guard, k)
        else:
            k = _within_repeats(ux, uy, wx, wy, delta - guard, k)
        if not k:
            break
    return k


def _advance_interval(pos, hx, hy, delta, step, nsub):
    """The positions after nsub substeps of the sliding rule from pos,
    sensing only the substeps whose decisions can change (module
    docstring). pos is never written; it is returned as it is when no agent
    moves in the first substep."""
    n = pos.shape[0]
    heading = np.stack([hx, hy], axis=1)
    move = step * heading
    delta2 = delta * delta
    coord = 2.0 * float(np.abs(pos).max()) + 2.0  # X, bounds every coordinate of the interval
    slack = 64.0 * _UNIT_ROUNDOFF * coord  # e, the rounding of a computed term
    drift = 8.0 * _UNIT_ROUNDOFF * coord  # rho, one substep's rounding of a pair difference
    h = heading.tolist()
    steps = move.tolist()
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    last = None  # the pair that ended the previous count at 0
    left = nsub
    while left:
        blocked, near = blind_zone_sensor(pos, hx, hy, delta2)
        mover = (~blocked).tolist()
        if True not in mover:
            break
        p = pos.tolist()
        first, second = (near & upper).nonzero()
        rounds = _hold_rounds(list(zip(first.tolist(), second.tolist())), p, h, steps,
                              mover, delta2)
        if rounds:
            mover = rounds[-1]
            if True not in mover:
                break
        # the least exact count over the pairs with a mover, the last zero first
        k = left - 1
        g = slack + left * drift
        if last is not None and (mover[last[0]] or mover[last[1]]):
            k = _pair_repeats(*last, p, h, steps, mover, rounds, delta, g, k)
        if k:
            for i, j in ((i, j) for i in range(n) if mover[i] for j in range(n)
                         if j != i and not (mover[j] and j < i)):
                k = _pair_repeats(i, j, p, h, steps, mover, rounds, delta, g, k)
                if not k:
                    last = (i, j)
                    break
        free = np.array(mover)
        new = np.where(free[:, None], pos + move, pos)
        if k:
            new[free] = _repeat_add(new[free], move[free], k)
        pos = new
        left -= 1 + k
    return pos


def _hold_rounds(pairs, p, h, steps, mover, delta2):
    """The free flags of every hold round of the sliding rule over the
    pairs (i < j) within delta at the sensed positions p, starting from the
    sensor's flags mover; empty when no pair is within delta. The last
    round holds nobody, so its flags are the final movers. A pair crosses
    when its trial difference d = new_j - new_i has |d|^2 > delta2 (the
    sensor's test), and each of its free members is held when the other
    lies in its closed back half-plane, h_i . d <= 0 and h_j . -d <= 0
    (both when neither does); every decision of a round reads the flags
    the round started with."""
    rounds = []
    while pairs:
        rounds.append(mover)
        held = []
        for i, j in pairs:
            free_i = mover[i]
            free_j = mover[j]
            if not (free_i or free_j):
                continue
            xi, yi = p[i]
            xj, yj = p[j]
            if free_i:
                xi += steps[i][0]
                yi += steps[i][1]
            if free_j:
                xj += steps[j][0]
                yj += steps[j][1]
            dx = xj - xi
            dy = yj - yi
            if dx * dx + dy * dy > delta2:
                back_i = free_i and h[i][0] * dx + h[i][1] * dy <= 0.0
                back_j = free_j and h[j][0] * -dx + h[j][1] * -dy <= 0.0
                if back_i or not back_j:
                    held.append(i)
                if back_j or not back_i:
                    held.append(j)
        if not held:
            break
        mover = mover.copy()
        for i in held:
            mover[i] = False
    return rounds


def _repeat_add(x, d, k):
    """x after k in-place additions `x += d`, the same float additions in the
    same order: np.add.accumulate runs sequentially along its axis, over
    chunks whose first row is x and whose other rows are d."""
    rows = np.empty((min(k, _ACCUMULATE_ROWS - 1) + 1,) + x.shape)
    rows[1:] = d
    while k:
        c = min(k, len(rows) - 1)
        rows[0] = x
        x = np.add.accumulate(rows[:c + 1], axis=0)[c]
        k -= c
    return x


def continuous_interval(state: Constellation, config: ContinuousConfig,
                        headings) -> Constellation:
    """Advance one unit interval under `headings`, one per agent in index
    order and fixed for the whole interval: 1/substep synchronous
    sense-then-move substeps under the sliding rule of the module docstring.
    A run draws each interval's headings as `draw_headings(rng, n)` does;
    pass others to force an interval."""
    return apply_move(_interval, state, config, headings)


def _interval(positions: np.ndarray, config: ContinuousConfig, hx, hy) -> np.ndarray:
    """The positions after the interval of `continuous_interval` for
    headings with cosines hx and sines hy; the run loop calls it with the
    rows of a heading block."""
    return _advance_interval(positions, hx, hy, config.delta, config.substep, config.nsub)


def _separation(positions: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) pairwise Euclidean distances, and which pairs lie beyond delta
    by the sensor's test on their squared distances. A distance can round
    to delta, or below it, while its square exceeds delta*delta."""
    diff = positions[None, :, :] - positions[:, None, :]
    dist2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    return np.sqrt(dist2), dist2 > delta * delta


def _lyapunov(positions: np.ndarray, delta: float, radius: float) -> LyapunovState:
    """The observable of `lyapunov_value`, given the enclosing-disc radius."""
    if radius < delta:
        return LyapunovState(0.0, True)
    # the sensor's test, so a pair the integrator keeps within delta is never counted
    dist, beyond = _separation(positions, delta)
    return LyapunovState(float(dist[beyond].sum()), False)


def lyapunov_value(positions, delta: float) -> LyapunovState:
    """Gathering progress observable: zero iff the constellation fits in an
    open disc of radius delta, otherwise the sum of all pairwise distances
    exceeding delta (each unordered pair contributes twice)."""
    pts = as_points(positions)
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be finite and > 0")
    return _lyapunov(pts, delta, min_enclosing_disc(pts).radius)


def run_continuous(config: ContinuousConfig, record_every: int | None = 1,
                   initial: Constellation | None = None) -> tuple[Trace, RunSummary]:
    """Iterate unit intervals until the constellation is confined (enclosing
    radius strictly below delta, checked at interval boundaries) or
    max_intervals is reached. Pass `initial` to start from a prepared
    constellation instead of the seeded uniform placement; it takes no
    draws, so the generator of `config.seed` starts at its first draw either
    way. The trace holds every record_every-th frame and the final one, and
    its series every interval's radius and Lyapunov value; with
    record_every=None the run records nothing its summary does not carry,
    computes no Lyapunov sum, and frames and series stay empty."""
    def observe(trace, positions, k):
        if record_every is None:
            # the box gate: the disc has half <= radius * _DISC_EPS, so
            # half > delta * _DISC_EPS gives radius > delta; half equal to
            # it would not, where both products round to the same float
            half = float((positions.max(axis=0) - positions.min(axis=0)).max()) / 2.0
            if half > config.delta * _DISC_EPS:
                return False
            return min_enclosing_disc(positions).radius < config.delta
        radius = min_enclosing_disc(positions).radius
        value, confined = _lyapunov(positions, config.delta, radius)
        trace.series.append((k, radius, value, confined))
        return confined

    return run_loop(config, config.max_intervals, _interval, observe, record_every, initial)


def check_separation_band(trace: Trace, delta: float, substep: float) -> list[tuple]:
    """Scan a full-cadence trace for violations of the two distance bands.

    Separated pairs (beyond delta at an interval boundary) may not gain
    more than 4 * substep across the next interval, and once a pair has been
    within delta it may never exceed delta + 4 * substep. Within and beyond
    delta are decided as the sensor decides them (`_separation`); the gain
    and the band compare distances. Returns a list of (kind, interval, i, j,
    distance) tuples, empty when the run is clean.
    """
    frames = trace.frames
    violations = []
    ever_close = None
    band = delta + 4.0 * substep
    prev = None
    for frame in frames:
        d, beyond = _separation(frame.positions, delta)
        if ever_close is None:
            ever_close = np.zeros_like(d, dtype=bool)
        else:
            prev_d, prev_beyond, prev_step = prev
            gap = frame.step - prev_step
            grow_tol = 4.0 * substep * gap
            bad = prev_beyond & (d - prev_d > grow_tol)
            for i, j in zip(*np.nonzero(np.triu(bad, 1))):
                violations.append(("separated_growth", frame.step, int(i), int(j), float(d[i, j])))
            bad = ever_close & (d > band)
            for i, j in zip(*np.nonzero(np.triu(bad, 1))):
                violations.append(("close_pair_escape", frame.step, int(i), int(j), float(d[i, j])))
        ever_close |= ~beyond
        prev = (d, beyond, frame.step)
    return violations


def check_lyapunov_monotone(trace: Trace, n: int, substep: float, delta: float) -> list[tuple]:
    """Scan the per-interval series for Lyapunov increases beyond the
    integrator tolerance 2 * n^2 * substep per interval. Returns
    (interval, previous, current, crossed) tuples, empty when monotone.

    crossed attributes an increase when the trace holds the frames of
    interval - 1 and interval: the pairs (i, j, before, after), i < j, with
    their distances, that went from within delta to beyond it by the
    sensor's test (`_separation`), each re-activating a distance term of
    about 2 * delta. Without both frames it is None.
    """
    tol = 2.0 * n * n * substep
    positions = {frame.step: frame.positions for frame in trace.frames}
    violations = []
    for (k0, _, v0, _), (k1, _, v1, _) in zip(trace.series, trace.series[1:]):
        if v1 - v0 > tol * (k1 - k0):
            crossed = None
            if k1 - 1 in positions and k1 in positions:
                d0, beyond0 = _separation(positions[k1 - 1], delta)
                d1, beyond1 = _separation(positions[k1], delta)
                crossed = [(int(i), int(j), float(d0[i, j]), float(d1[i, j]))
                           for i, j in zip(*np.nonzero(np.triu(~beyond0 & beyond1, 1)))]
            violations.append((k1, v0, v1, crossed))
    return violations
