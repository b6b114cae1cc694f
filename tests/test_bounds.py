"""Closed-form bounds: frozen values, finite-difference oracle, monotonicity."""

import math

import numpy as np
import pytest

from gathersim.bounds import (
    compute_bounds,
    expected_time_bound,
    move_probability_bound,
    sharpest_angle_bound,
    shrink,
    shrink_min,
    shrink_partials,
    step_min,
    theta_gamma,
)


def test_sharpest_angle_values():
    assert math.isclose(sharpest_angle_bound(3), math.pi / 3, rel_tol=1e-15)
    assert math.isclose(sharpest_angle_bound(4), math.pi / 2, rel_tol=1e-15)
    assert math.isclose(sharpest_angle_bound(100), math.pi * 0.98, rel_tol=1e-15)
    with pytest.raises(ValueError):
        sharpest_angle_bound(2)


def test_move_probability_values():
    assert move_probability_bound(2) == 0.25
    assert move_probability_bound(4) == 0.125
    with pytest.raises(ValueError):
        move_probability_bound(1)
    assert all(move_probability_bound(n) <= 0.25 for n in range(2, 200))


def test_theta_gamma_values():
    assert theta_gamma(2) == (math.pi / 4, math.pi / 4)
    theta, gamma = theta_gamma(8)
    assert math.isclose(theta, 7 * math.pi / 16, rel_tol=1e-15)
    assert math.isclose(gamma, math.pi / 16, rel_tol=1e-15)
    for n in range(2, 100):
        theta, gamma = theta_gamma(n)
        assert theta + gamma == math.pi / 2


def test_step_min_values():
    assert math.isclose(step_min(2, 1.0), math.tan(math.pi / 8), rel_tol=1e-15)
    assert abs(step_min(2, 1.0) - 0.414214) < 1e-6
    assert abs(step_min(4, 0.1) - 0.0198912) < 1e-6
    # the unit-interval travel limit caps the geometric term
    assert step_min(2, 1e6) == 1.0


def test_shrink_values():
    assert math.isclose(shrink(5.0, 1.0, 0.0), 1.0, abs_tol=1e-12)
    assert shrink(5.0, 0.0, 0.3) == 0.0
    expected = 1.0 - math.sqrt(1.25 - math.cos(math.pi / 4))
    assert math.isclose(shrink(1.0, 0.5, math.pi / 4), expected, rel_tol=1e-15)
    assert abs(expected - 0.2631871208960498) < 1e-12
    with pytest.raises(ValueError):
        shrink(-1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        shrink(1.0, -0.5, 0.1)
    with pytest.raises(ValueError):
        shrink(1.0, 0.5, math.pi / 2)


def test_shrink_nonnegative_before_overshoot():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        d = rng.uniform(0.1, 5.0)
        theta = rng.uniform(0.0, math.pi / 2 - 1e-6)
        st = rng.uniform(0.0, 2.0 * d * math.cos(theta))
        assert shrink(d, st, theta) >= -1e-12


def test_shrink_min_values():
    assert abs(shrink_min(2, 1.0) - 0.089820278875545) < 1e-12
    assert abs(shrink_min(4, 0.1) - 0.0019982719487345) < 1e-12
    with pytest.raises(ValueError):
        shrink_min(1, 1.0)
    for n in range(2, 1001):
        assert shrink_min(n, 0.1) < step_min(n, 0.1)


def test_expected_time_values():
    value = expected_time_bound(2, 0.1, 10.0)
    assert math.isclose(value, 64.0 / 0.089820278875545 * 100.0, rel_tol=1e-12)
    assert abs(value - 71253.397118) < 1e-3
    assert math.isclose(expected_time_bound(2, 0.1, 20.0), 2.0 * value, rel_tol=1e-12)
    with pytest.raises(ValueError):
        expected_time_bound(2, 0.1, 0.0)


@pytest.mark.parametrize("n", [1_000, 10_000, 10 ** 6, 10 ** 8, 10 ** 9, 10 ** 12])
def test_shrink_fraction_matches_its_series(n):
    # 1 - sqrt(1 - t2) = t2/2 + t2^2/8 + O(t2^3); the difference form loses
    # every digit as t2 shrinks (3.6x too large at n = 1e8, 0 at n = 1e9)
    t2 = math.tan(math.pi / (4.0 * n)) ** 2
    series = t2 / 2.0 + t2 * t2 / 8.0
    assert math.isclose(shrink_min(n, 0.1), 0.1 * series, rel_tol=1e-12)
    assert math.isclose(expected_time_bound(n, 0.1, 50.0),
                        8.0 * n ** 3 / series * 500.0, rel_tol=1e-12)


def test_expected_time_asymptotics():
    # 1 - sqrt(1 - tan^2(pi/4n)) ~ pi^2 / (32 n^2), so the bound grows like
    # 256 n^5 / pi^2 * d / delta; agreement within 5% from n = 50 up
    for n in (50, 100, 400):
        exact = expected_time_bound(n, 0.1, 50.0)
        approx = 256.0 * n ** 5 / math.pi ** 2 * 50.0 / 0.1
        assert abs(exact / approx - 1.0) < 0.05


def test_bound_monotonicity_sweeps():
    ns = range(3, 400)
    angles = [sharpest_angle_bound(n) for n in ns]
    assert all(a < b for a, b in zip(angles, angles[1:]))
    steps = [step_min(n, 0.1) for n in range(2, 400)]
    assert all(a > b for a, b in zip(steps, steps[1:]))
    shrinks = [shrink_min(n, 0.1) for n in range(2, 400)]
    assert all(a > b for a, b in zip(shrinks, shrinks[1:]))
    times = [expected_time_bound(n, 0.1, 10.0) for n in range(2, 200)]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert expected_time_bound(10, 0.2, 10.0) < expected_time_bound(10, 0.1, 10.0)
    assert expected_time_bound(10, 0.1, 20.0) > expected_time_bound(10, 0.1, 10.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_delta_and_dmax_domain_errors(bad):
    # infinite input has no finite bound: inf delta would report a zero
    # ceiling and inf d_max0 an infinite one, which is not valid JSON
    for call in (lambda: step_min(4, bad), lambda: shrink_min(4, bad),
                 lambda: expected_time_bound(4, bad, 50.0),
                 lambda: expected_time_bound(4, 0.1, bad),
                 lambda: compute_bounds(4, bad, 50.0), lambda: compute_bounds(4, 0.1, bad)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("exponent", [70, 200, 400])
def test_bounds_beyond_the_float_range_name_n(exponent):
    # the bound passes the float range from about n = 1e61 here (it used to
    # be inf), n ** 3 from 5.6e102 and n itself from 1.8e308; the last two
    # used to escape as an OverflowError
    n = 10 ** exponent
    for call in (lambda: expected_time_bound(n, 0.1, 50.0), lambda: compute_bounds(n, 0.1, 50.0)):
        with pytest.raises(ValueError, match=f"n = {n}"):
            call()


def test_expected_time_bound_stays_finite_or_raises():
    assert math.isfinite(compute_bounds(10 ** 60, 0.1, 50.0).expected_intervals_ub)
    with pytest.raises(ValueError, match="not a finite float at n = 4"):
        expected_time_bound(4, 1e-300, 1e300)


# ------------------------------------------------- partial derivatives


def finite_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 10_000:
        d = rng.uniform(0.1, 5.0)
        st = rng.uniform(0.01, 5.0)
        theta = rng.uniform(1e-4, math.pi / 2 - 1e-4)
        root = math.sqrt(d * d + st * st - 2 * d * st * math.cos(theta))
        if root < 1e-2:  # conditioning guard near the coincidence point
            continue
        dd, dst, dtheta = shrink_partials(d, st, theta)
        h = 1e-6
        fd_d = finite_difference(lambda x: shrink(x, st, theta), d, h * max(1.0, d))
        fd_st = finite_difference(lambda x: shrink(d, x, theta), st, h * max(1.0, st))
        fd_t = finite_difference(lambda x: shrink(d, st, x), theta, h)
        assert abs(dd - fd_d) <= 1e-6 * max(1.0, abs(dd))
        assert abs(dst - fd_st) <= 1e-6 * max(1.0, abs(dst))
        assert abs(dtheta - fd_t) <= 1e-6 * max(1.0, abs(dtheta))
        checked += 1


def test_partial_signs():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        d = rng.uniform(0.1, 5.0)
        st = rng.uniform(0.01, 5.0)
        theta = rng.uniform(1e-6, math.pi / 2 - 1e-6)
        if math.sqrt(d * d + st * st - 2 * d * st * math.cos(theta)) < 1e-3:
            continue
        dd, dst, dtheta = shrink_partials(d, st, theta)
        assert dd > 0.0
        assert dtheta < 0.0
        # travel-direction partial changes sign at the closest approach
        # st = d cos(theta): positive before, negative after
        margin = st - d * math.cos(theta)
        if margin < -1e-9:
            assert dst > 0.0
        elif margin > 1e-9:
            assert dst < 0.0


def test_partials_boundary_theta_zero():
    dd, dst, dtheta = shrink_partials(1.0, 0.1, 0.0)
    assert dtheta == 0.0
    assert dst > 0.0  # st < d cos(0)
    # head-on travel with st < d shortens the distance one-for-one with st,
    # so the distance partial degenerates to zero exactly at theta = 0
    assert dd == 0.0


def test_partials_spot_pattern():
    dd, dst, dtheta = shrink_partials(1.0, 0.1, 0.3)
    assert dd > 0.0 and dtheta < 0.0 and dst > 0.0


def test_partials_domain_errors():
    with pytest.raises(ValueError):
        shrink_partials(0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        shrink_partials(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        shrink_partials(1.0, 1.0, 0.0)  # endpoints coincide, derivative undefined


# -------------------------------------------- Monte-Carlo move probability


@pytest.mark.parametrize("n", [3, 5, 10])
def test_move_probability_sampling_oracle(n):
    # worst-case hull corner of angle alpha = pi (1 - 2/n): the fraction of
    # uniform headings leaving the closed back half-plane empty is
    # (pi - alpha) / (2 pi) = 1/n, which must exceed the 1/(2n) bound
    alpha = sharpest_angle_bound(n)
    rng = np.random.default_rng(n)
    # corner agent at the origin, others spread along the two hull edges
    a1, a2 = -alpha / 2.0, alpha / 2.0
    radii = rng.uniform(0.5, 5.0, 8)
    others = np.array([[r * math.cos(a), r * math.sin(a)]
                       for r in radii for a in (a1, a2)])
    phi = rng.uniform(0, 2 * math.pi, 100_000)
    dots = np.cos(phi)[:, None] * others[:, 0] + np.sin(phi)[:, None] * others[:, 1]
    empty_back = (dots > 0.0).all(axis=1)
    estimate = empty_back.mean()
    assert estimate > move_probability_bound(n)
    assert abs(estimate - 1.0 / n) < 0.01


def test_compute_bounds_report():
    report = compute_bounds(4, 0.1, 50.0)
    assert report.alpha_max == sharpest_angle_bound(4)
    assert report.move_prob_lb == move_probability_bound(4)
    assert (report.theta_s_max, report.gamma_s_min) == theta_gamma(4)
    assert report.step_min == step_min(4, 0.1)
    assert report.shrink_min == shrink_min(4, 0.1)
    assert report.expected_intervals_ub == expected_time_bound(4, 0.1, 50.0)
    assert report.step_min <= 1.0
    assert report.shrink_min < report.delta
    # n = 2 degenerates only the corner-angle field
    r2 = compute_bounds(2, 0.5, 3.0)
    assert r2.alpha_max == 0.0
    assert r2.step_min > 0 and r2.shrink_min > 0 and r2.expected_intervals_ub > 0
    with pytest.raises(ValueError):
        compute_bounds(1, 0.1, 1.0)
