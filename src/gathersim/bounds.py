"""Closed-form convergence bounds for the blind-zone gathering process.

Every quantity is a function of the agent count n, the blind-zone radius
delta, and the initial maximal pairwise distance. All angles are radians.
"""

import math
import sys
from dataclasses import dataclass


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def sharpest_angle_bound(n: int) -> float:
    """Upper bound pi * (1 - 2/n) on the sharpest interior angle of a convex
    hull over n points (attained by the regular n-gon)."""
    _require(n >= 3, "sharpest_angle_bound needs n >= 3")
    return math.pi * (1.0 - 2.0 / n)


def move_probability_bound(n: int) -> float:
    """Lower bound 1/(2n) on the probability that the sharpest-corner agent
    draws a heading in the central half of its movable sector."""
    _require(n >= 2, "move_probability_bound needs n >= 2")
    return 1.0 / (2.0 * n)


def theta_gamma(n: int) -> tuple[float, float]:
    """Worst-case encounter angle theta_s <= (pi/2)(1 - 1/n) and its
    complement gamma_s >= pi/(2n); the two sum to pi/2 exactly."""
    _require(n >= 2, "theta_gamma needs n >= 2")
    theta = (math.pi / 2.0) * (1.0 - 1.0 / n)
    return theta, math.pi / 2.0 - theta


def step_min(n: int, delta: float) -> float:
    """Guaranteed travel min(delta * tan(pi/4n), 1) of the sharpest-corner
    agent in a successful interval; the 1 is the unit-interval speed limit."""
    _require(n >= 2, "step_min needs n >= 2")
    _require(0 < delta < math.inf, "step_min needs finite delta > 0")
    return min(delta * math.tan(math.pi / (4.0 * n)), 1.0)


def shrink(d: float, st: float, theta: float) -> float:
    """Pairwise distance decrease when one agent travels st at angle theta
    off the line toward a stationary partner at distance d."""
    _require(d > 0, "shrink needs d > 0")
    _require(st >= 0, "shrink needs st >= 0")
    _require(0.0 <= theta < math.pi / 2.0, "shrink needs theta in [0, pi/2)")
    return d - math.sqrt(d * d + st * st - 2.0 * d * st * math.cos(theta))


def shrink_partials(d: float, st: float, theta: float) -> tuple[float, float, float]:
    """Closed-form partials of shrink, ordered (d/dd, d/dst, d/dtheta).

    Sign facts on the domain d > 0, st > 0, theta in [0, pi/2):
    d/dd > 0 always; d/dtheta < 0 for theta > 0 (and 0 at theta = 0);
    d/dst = -(st - d cos theta)/root is positive exactly when
    st < d * cos(theta), i.e. before the travel overshoots the closest
    approach, and negative beyond it. All three are cross-checked against
    central finite differences in the test suite.
    """
    _require(d > 0, "shrink_partials needs d > 0")
    _require(st > 0, "shrink_partials needs st > 0")
    _require(0.0 <= theta < math.pi / 2.0, "shrink_partials needs theta in [0, pi/2)")
    root = math.sqrt(d * d + st * st - 2.0 * d * st * math.cos(theta))
    _require(root > 0, "shrink_partials undefined where the endpoints coincide")
    dd = 1.0 - (d - st * math.cos(theta)) / root
    dst = -(st - d * math.cos(theta)) / root
    dtheta = -(d * st * math.sin(theta)) / root
    return dd, dst, dtheta


def _shrink_fraction(n: int) -> float:
    """1 - sqrt(1 - t2) with t2 = tan^2(pi/4n), computed as
    t2 / (1 + sqrt(1 - t2)): the difference form cancels to zero relative
    accuracy as t2 shrinks (3.6x too large at n = 1e8, 0 at n = 1e9)."""
    t2 = math.tan(math.pi / (4.0 * n)) ** 2
    _require(t2 < 1.0, "shrink fraction undefined: tan^2(pi/4n) >= 1")
    return t2 / (1.0 + math.sqrt(1.0 - t2))


def shrink_min(n: int, delta: float) -> float:
    """Guaranteed distance decrease delta * (1 - sqrt(1 - tan^2(pi/4n))) in a
    successful interval with the partner stationary."""
    _require(n >= 2, "shrink_min needs n >= 2")
    _require(0 < delta < math.inf, "shrink_min needs finite delta > 0")
    return delta * _shrink_fraction(n)


def expected_time_bound(n: int, delta: float, d_max0: float) -> float:
    """Upper bound on the expected number of unit intervals until the
    constellation is confined in a disc of radius delta:
    8 n^3 / (1 - sqrt(1 - tan^2(pi/4n))) * d_max0 / delta. It grows like
    n^5 and passes the float range from about n = 1e61 at d_max0 / delta =
    500; a bound that is not a finite float raises ValueError."""
    _require(n >= 2, "expected_time_bound needs n >= 2")
    _require(0 < delta < math.inf, "expected_time_bound needs finite delta > 0")
    _require(0 < d_max0 < math.inf, "expected_time_bound needs finite d_max0 > 0")
    try:
        bound = 8.0 * n ** 3 / _shrink_fraction(n) * (d_max0 / delta)
    except OverflowError:  # n or n ** 3 beyond the float range
        bound = math.inf
    _require(math.isfinite(bound), f"expected_time_bound is not a finite float at n = {n}, "
                                   f"delta = {delta!r}, d_max0 = {d_max0!r}")
    return bound


@dataclass
class BoundsReport:
    """Every closed-form quantity for one (n, delta, d_max0) triple."""

    n: int
    delta: float
    d_max0: float
    alpha_max: float
    move_prob_lb: float
    theta_s_max: float
    gamma_s_min: float
    step_min: float
    shrink_min: float
    expected_intervals_ub: float


def compute_bounds(n: int, delta: float, d_max0: float) -> BoundsReport:
    """Assemble the full report. Accepts n >= 2; alpha_max degenerates to 0
    for n = 2 (a two-point hull has no interior corner) while the remaining
    bounds stay strictly positive. An n beyond the float range, or a bound
    that is not a finite float, raises ValueError."""
    _require(n >= 2, "compute_bounds needs n >= 2")
    _require(n <= sys.float_info.max, f"compute_bounds needs n within the float range, got n = {n}")
    _require(0 < delta < math.inf, "compute_bounds needs finite delta > 0")
    _require(0 < d_max0 < math.inf, "compute_bounds needs finite d_max0 > 0")
    theta_s, gamma_s = theta_gamma(n)
    return BoundsReport(
        n=n,
        delta=delta,
        d_max0=d_max0,
        alpha_max=math.pi * (1.0 - 2.0 / n),
        move_prob_lb=move_probability_bound(n),
        theta_s_max=theta_s,
        gamma_s_min=gamma_s,
        step_min=step_min(n, delta),
        shrink_min=shrink_min(n, delta),
        expected_intervals_ub=expected_time_bound(n, delta, d_max0),
    )
