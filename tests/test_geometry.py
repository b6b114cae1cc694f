"""Geometry primitives against brute-force oracles."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from gathersim import geometry
from gathersim.discrete import DiscreteConfig, run_discrete
from gathersim.geometry import (
    Vec2,
    as_points,
    blind_zone_sensor,
    blocked_agents,
    convex_hull,
    corner_angles,
    min_enclosing_disc,
)


# ---------------------------------------------------------------- oracles


def brute_hull_indices(pts: np.ndarray) -> set:
    """O(n^3) hull: index i is a vertex iff some directed edge (i, j) has all
    other points strictly to its left. Assumes generic position."""
    n = len(pts)
    verts = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = pts[j] - pts[i]
            rel = pts - pts[i]
            cross = e[0] * rel[:, 1] - e[1] * rel[:, 0]
            mask = np.ones(n, dtype=bool)
            mask[[i, j]] = False
            if (cross[mask] > 0.0).all():
                verts.add(i)
                verts.add(j)
                break
    return verts


def brute_min_disc(pts: np.ndarray) -> float:
    """O(n^4) smallest enclosing radius: best disc over all diameter pairs
    and all triple circumcircles."""
    n = len(pts)
    if n == 1:
        return 0.0
    eps = 1e-9 * (1.0 + np.abs(pts).max())
    best = math.inf
    for i, j in combinations(range(n), 2):
        c = (pts[i] + pts[j]) / 2.0
        r = np.sqrt(((pts - c) ** 2).sum(axis=1)).max()
        if abs(r - np.linalg.norm(pts[i] - c)) <= eps:
            best = min(best, r)
    for i, j, k in combinations(range(n), 3):
        c = circumcenter(pts[i], pts[j], pts[k])
        if c is None:
            continue
        r = np.sqrt(((pts - c) ** 2).sum(axis=1)).max()
        if abs(r - np.linalg.norm(pts[i] - c)) <= eps:
            best = min(best, r)
    return best


def circumcenter(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    ux = ((a[0] ** 2 + a[1] ** 2) * (b[1] - c[1]) + (b[0] ** 2 + b[1] ** 2) * (c[1] - a[1])
          + (c[0] ** 2 + c[1] ** 2) * (a[1] - b[1])) / d
    uy = ((a[0] ** 2 + a[1] ** 2) * (c[0] - b[0]) + (b[0] ** 2 + b[1] ** 2) * (a[0] - c[0])
          + (c[0] ** 2 + c[1] ** 2) * (b[0] - a[0])) / d
    return np.array([ux, uy])


def left_of_all_edges(hull_verts: np.ndarray, pts: np.ndarray) -> bool:
    """Membership oracle: every point on or left of each directed hull edge,
    tolerance 1e-9 x bounding-box diagonal."""
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    eps = 1e-9 * float(np.hypot(*(hi - lo)))
    m = len(hull_verts)
    for k in range(m):
        a = hull_verts[k]
        b = hull_verts[(k + 1) % m]
        e = b - a
        cross = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
        if (cross < -eps).any():
            return False
    return True


# ------------------------------------------------------------ convex_hull


def test_hull_excludes_interior_point():
    hull = convex_hull([(0, 0), (1, 0), (0, 1), (0.1, 0.1)])
    assert sorted(map(tuple, hull.vertices.tolist())) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert set(hull.indices.tolist()) == {0, 1, 2}


def test_hull_singleton_and_collinear():
    hull = convex_hull([(0, 0)])
    assert hull.vertices.tolist() == [[0.0, 0.0]]
    hull = convex_hull([(0, 0), (2, 2), (1, 1), (3, 3)])
    assert len(hull.vertices) == 2
    assert sorted(map(tuple, hull.vertices.tolist())) == [(0.0, 0.0), (3.0, 3.0)]
    hull = convex_hull([(1, 2), (1, 2), (1, 2)])
    assert hull.vertices.tolist() == [[1.0, 2.0]]


def test_hull_empty_and_nonfinite_rejected():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(0.0, float("nan"))])


@pytest.mark.parametrize("seed", range(8))
def test_hull_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5, 5, (100, 2))
    hull = convex_hull(pts)
    assert set(hull.indices.tolist()) == brute_hull_indices(pts)
    assert left_of_all_edges(hull.vertices, pts)
    # CCW and strictly convex: every consecutive turn is a strict left turn
    v = hull.vertices
    e = np.roll(v, -1, axis=0) - v
    prev = np.roll(e, 1, axis=0)
    assert (prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0] > 0).all()


# --------------------------------------------------------- corner_angles


def test_corner_angles_square_and_triangle():
    square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.allclose(corner_angles(square), math.pi / 2, atol=1e-12)
    tri = convex_hull([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    angles = corner_angles(tri)
    assert np.allclose(angles, math.pi / 3, atol=1e-12)
    # the equilateral triangle attains the n = 3 sharpest-corner bound
    from gathersim.bounds import sharpest_angle_bound
    assert math.isclose(angles.min(), sharpest_angle_bound(3), abs_tol=1e-12)


def test_corner_angles_need_three_vertices():
    with pytest.raises(ValueError):
        corner_angles(convex_hull([(0, 0), (1, 1)]))


@pytest.mark.parametrize("seed", range(10))
def test_corner_angle_sum_identity(seed):
    rng = np.random.default_rng(100 + seed)
    pts = rng.uniform(0, 50, (rng.integers(3, 40), 2))
    hull = convex_hull(pts)
    if len(hull.vertices) < 3:
        pytest.skip("degenerate draw")
    angles = corner_angles(hull)
    m = len(angles)
    assert ((angles > 0) & (angles < math.pi)).all()
    assert abs(angles.sum() - math.pi * (m - 2)) < 1e-9


# ---------------------------------------------------- min_enclosing_disc


def test_disc_diameter_pair():
    disc = min_enclosing_disc([(0, 0), (2, 0)])
    assert disc.center == Vec2(1.0, 0.0)
    assert math.isclose(disc.radius, 1.0, abs_tol=1e-12)


def test_disc_circumscribed_equilateral():
    pts = [(math.cos(a), math.sin(a)) for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    disc = min_enclosing_disc(pts)
    assert math.isclose(disc.radius, 1.0, abs_tol=1e-9)
    assert math.hypot(disc.center.x, disc.center.y) < 1e-9


def test_disc_singleton_and_empty():
    disc = min_enclosing_disc([(3, 4)])
    assert disc.radius == 0.0 and disc.center == Vec2(3.0, 4.0)
    with pytest.raises(ValueError):
        min_enclosing_disc([])


@pytest.mark.parametrize("seed", range(12))
def test_disc_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 13))
    pts = rng.uniform(-10, 10, (n, 2))
    disc = min_enclosing_disc(pts)
    oracle = brute_min_disc(pts)
    assert abs(disc.radius - oracle) <= 1e-9 * max(1.0, oracle)
    # containment within radius + 1e-9
    d = np.sqrt(((pts - np.array(disc.center)) ** 2).sum(axis=1))
    assert (d <= disc.radius + 1e-9).all()


def test_disc_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 50, (40, 2))
    a = min_enclosing_disc(pts)
    b = min_enclosing_disc(pts)
    assert a == b


# ------------------------------------------------- the sensor of one agent


def facing(pts, heading):
    """The points as an array, and every agent's heading set to `heading`."""
    pts = np.asarray(pts, dtype=float)
    return pts, np.full(len(pts), float(heading[0])), np.full(len(pts), float(heading[1]))


def sensor(pts, heading) -> list[bool]:
    """blocked_agents with every agent facing `heading`, checked against the
    oracle."""
    pts, hx, hy = facing(pts, heading)
    blocked = blocked_agents(pts, hx, hy).tolist()
    assert blocked == oracle_blocked(pts, hx, hy)
    return blocked


def zone_sensor(pts, heading, delta2) -> list[bool]:
    """blind_zone_sensor with every agent facing `heading`."""
    return blind_zone_sensor(*facing(pts, heading), delta2)[0].tolist()


def test_back_sensor_boundary_cases():
    # other agent strictly in front: back half-plane empty
    assert sensor([(0, 0), (2, 0)], (1, 0))[0] is False
    # strictly behind
    assert sensor([(0, 0), (-1, 0)], (1, 0))[0] is True
    # exactly on the boundary line: the closed half-plane counts it
    assert sensor([(0, 0), (0, 5)], (1, 0))[0] is True


def test_back_sensor_coincident_agents_block():
    assert sensor([(1, 1), (1, 1)], (0, 1)) == [True, True]


def test_blind_zone_cases():
    delta = 0.1
    delta2 = delta**2
    # within delta directly behind: invisible
    assert zone_sensor([(0, 0), (-delta / 2, 0)], (1, 0), delta2)[0] is False
    # exactly at distance delta: still invisible (strict d > delta)
    assert zone_sensor([(0, 0), (-delta, 0)], (1, 0), delta2)[0] is False
    # beyond delta directly behind: blocks
    assert zone_sensor([(0, 0), (-2 * delta, 0)], (1, 0), delta2)[0] is True
    # beyond delta directly ahead: front half-plane never blocks
    assert zone_sensor([(0, 0), (2 * delta, 0)], (1, 0), delta2)[0] is False


def test_back_sensor_matches_angle_oracle_bulk():
    # 1e5 random (pair, heading) triples: occupancy iff the angular offset of
    # the other agent from the heading is >= pi/2 (closed).
    rng = np.random.default_rng(77)
    m = 100_000
    p_i = rng.uniform(-10, 10, (m, 2))
    p_j = rng.uniform(-10, 10, (m, 2))
    phi = rng.uniform(0, 2 * math.pi, m)
    rel = p_j - p_i
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    offset = np.abs((ang - phi + math.pi) % (2 * math.pi) - math.pi)
    oracle = offset >= math.pi / 2 - 1e-15
    dots = np.cos(phi) * rel[:, 0] + np.sin(phi) * rel[:, 1]
    assert (oracle == (dots <= 0.0)).all()
    # the kernel on the two-agent constellation agrees with the bulk scan
    for k in range(0, m, m // 500):
        got = sensor([p_i[k], p_j[k]], (math.cos(phi[k]), math.sin(phi[k])))[0]
        assert got == bool(dots[k] <= 0.0)


def test_back_sensors_vectorized_equals_scalar():
    # both all-agents sensors against pure-Python scans: blocked_agents
    # (coincident agents 4 and 9 block each other) and blind_zone_sensor
    # with a zone that hides pairs
    rng = np.random.default_rng(78)
    n = 15
    pts = rng.uniform(0, 50, (n, 2))
    pts[9] = pts[4]
    chi = rng.uniform(0, 2 * math.pi, n)
    hx, hy = np.cos(chi), np.sin(chi)
    blocked = blocked_agents(pts, hx, hy)
    assert blocked.tolist() == oracle_blocked(pts, hx, hy)
    assert blocked[4] and blocked[9] and not blocked.all()
    delta2 = 300.0
    blocked, near = blind_zone_sensor(pts, hx, hy, delta2)
    for i in range(n):
        hit = False
        for j in range(n):
            dx = pts[j, 0] - pts[i, 0]
            dy = pts[j, 1] - pts[i, 1]
            assert near[i, j] == (i == j or dx * dx + dy * dy <= delta2)
            if j != i and dx * dx + dy * dy > delta2 and hx[i] * dx + hy[i] * dy <= 0.0:
                hit = True
        assert blocked[i] == hit
    assert 0 < blocked.sum() < n
    assert near.sum() > n  # some pair within the blind zone


# ------------------------- the sensor without a blind zone, on both paths


def oracle_blocked(pts, hx, hy) -> list[bool]:
    """Per-pair pure-Python sensor without a blind zone: agent i is blocked
    iff some j != i has hx[i]*(x_j - x_i) + hy[i]*(y_j - y_i) <= 0."""
    xs, ys = [float(v) for v in pts[:, 0]], [float(v) for v in pts[:, 1]]
    out = []
    for i in range(len(xs)):
        hxi, hyi = float(hx[i]), float(hy[i])
        out.append(any(j != i and hxi * (xs[j] - xs[i]) + hyi * (ys[j] - ys[i]) <= 0.0
                       for j in range(len(xs))))
    return out


@pytest.fixture(params=["dense", "witness"])
def sensor_path(request, monkeypatch):
    """Force blocked_agents onto one path for any n."""
    monkeypatch.setattr(geometry, "_DENSE_MAX_N", 10**9 if request.param == "dense" else 0)
    return request.param


def check_against_oracle(pts, hx, hy):
    blocked = blocked_agents(pts, hx, hy)
    assert blocked.tolist() == oracle_blocked(pts, hx, hy)
    return blocked


def random_case(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 50, (n, 2))
    chi = rng.uniform(0, 2 * math.pi, n)
    return pts, np.cos(chi), np.sin(chi)


def test_sensor_dispatch_at_the_threshold(monkeypatch):
    # the witness path runs above _DENSE_MAX_N agents only, and both sides of
    # the threshold agree with the oracle
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return witness(*args)

    witness = geometry._witness_blocked
    monkeypatch.setattr(geometry, "_witness_blocked", counted)
    for n in (geometry._DENSE_MAX_N - 1, geometry._DENSE_MAX_N, geometry._DENSE_MAX_N + 1):
        for seed in range(5):
            check_against_oracle(*random_case(seed, n))
    assert calls == [geometry._DENSE_MAX_N + 1] * 5
    # the blind-zone sensor stays dense at any n
    pts, hx, hy = random_case(0, geometry._DENSE_MAX_N + 1)
    assert blind_zone_sensor(pts, hx, hy, 1.0)[1].shape == (len(pts), len(pts))
    assert len(calls) == 5


@pytest.mark.parametrize("n", [geometry._DENSE_MAX_N, geometry._DENSE_MAX_N + 1, 300])
def test_sensor_paths_match_oracle_random(sensor_path, n):
    for seed in range(3):
        blocked = check_against_oracle(*random_case(seed, n))
        assert blocked.any()


def test_sensor_paths_coincident_pair(sensor_path):
    # agents 7 and 50 share a position far left of the others and face them,
    # so each is blocked only by the other, on its boundary line
    pts, hx, hy = random_case(9, 120)
    pts[7] = pts[50] = (-100.0, 20.0)
    hx[7], hy[7] = 1.0, 0.0
    hx[50], hy[50] = math.cos(0.3), math.sin(0.3)
    blocked = check_against_oracle(pts, hx, hy)
    assert blocked[7] and blocked[50]
    pts[50] = (-99.0, 20.0)
    assert not check_against_oracle(pts, hx, hy)[7]


@pytest.mark.parametrize("n", [10, geometry._DENSE_MAX_N + 1, 300])
def test_sensors_agree_without_coincident_agents(n):
    # with no two agents at one position, a blind zone of radius 0 hides
    # nothing, so the continuous sensor is the discrete one on either path
    for seed in range(3):
        pts, hx, hy = random_case(seed, n)
        assert len(np.unique(pts, axis=0)) == n
        blocked, near = blind_zone_sensor(pts, hx, hy, 0.0)
        assert np.array_equal(near, np.eye(n, dtype=bool))
        assert np.array_equal(blocked, blocked_agents(pts, hx, hy))


def test_sensors_differ_on_coincident_agents():
    # the discrete sensor sees a coincident agent, the continuous one never
    pts = np.array([(1.0, 1.0), (1.0, 1.0)])
    hx, hy = np.array([1.0, 0.0]), np.array([0.0, -1.0])
    assert blocked_agents(pts, hx, hy).tolist() == [True, True]
    assert blind_zone_sensor(pts, hx, hy, 0.0)[0].tolist() == [False, False]


def test_sensor_paths_all_coincident(sensor_path):
    n = 120
    pts = np.full((n, 2), 3.25)
    hx, hy = random_case(10, n)[1:]
    # every fixed direction picks agent 0, so it is the only witness: it
    # blocks every other agent, and is itself left to its exact row because
    # a witness is never tested against itself (by index, not by position)
    assert np.unique(np.argmin(geometry._DIRECTIONS @ pts.T, axis=1)).tolist() == [0]
    assert check_against_oracle(pts, hx, hy).all()


def circle_case(n):
    """n agents on a circle, each facing the centre: nothing is behind any
    of them, so all are free and all survive the witness filter."""
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return 50.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1), -np.cos(phi), -np.sin(phi)


def test_sensor_paths_all_free(sensor_path):
    # more survivors than one chunk of exact rows
    assert not check_against_oracle(*circle_case(120)).any()


def test_sensor_paths_exact_boundary_ties(sensor_path):
    # integer positions with axis-aligned headings: every product is exact,
    # so agents on another's boundary line test exactly 0 and block it
    rng = np.random.default_rng(11)
    n = 150
    pts = rng.integers(0, 12, (n, 2)).astype(float)
    axes = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    hx, hy = axes[rng.integers(0, 4, n)].T.copy()
    # agent 0 beyond the grid facing it, so nothing is behind it; agents 1
    # and 3 face the grid from beyond it too, but each has one agent exactly
    # on its boundary line (agents 2 and 4) and nothing else behind it
    pts[0], (hx[0], hy[0]) = (20.0, 5.0), (-1.0, 0.0)
    pts[1], (hx[1], hy[1]) = (-3.0, 5.0), (1.0, 0.0)
    pts[2] = (-3.0, 9.0)
    pts[3], (hx[3], hy[3]) = (4.0, 30.0), (0.0, -1.0)
    pts[4] = (6.0, 30.0)
    blocked = check_against_oracle(pts, hx, hy)
    assert [blocked[0], blocked[1], blocked[3]] == [False, True, True]


def test_sensor_paths_on_every_frame_of_a_run(sensor_path):
    # frame k holds the headings that moved frame k-1 to it
    trace, _ = run_discrete(DiscreteConfig(n=640, spread=50.0, seed=4, max_steps=50))
    assert len(trace.frames) == 51
    for prev, frame in zip(trace.frames, trace.frames[1:]):
        blocked = check_against_oracle(prev.positions, np.cos(frame.headings),
                                       np.sin(frame.headings))
        assert np.array_equal(blocked, ~frame.moved)


# ------------------------------------- the sensor and the normal cones

# Free arcs narrower than this are not probed at their middle; the headings
# probed past an arc's ends lie this far outside it.
ARC_MIN = 1e-4
ARC_PAST = 1e-6


def free_arcs(pts):
    """The strict hull of pts and, per vertex, the open arc of headings at
    which every other point lies strictly ahead: (theta_in - pi/2,
    theta_out + pi/2), between the normals of the vertex's two edges (the
    outgoing edge at angle theta_out, the incoming one reversed at theta_in).
    Its width is pi minus the interior angle, so over the hull the widths
    sum to 2 pi."""
    hull = convex_hull(pts)
    out_edge = np.roll(hull.vertices, -1, axis=0) - hull.vertices
    theta_out = np.arctan2(out_edge[:, 1], out_edge[:, 0])
    theta_in = theta_out + corner_angles(hull)
    return hull, theta_in - math.pi / 2, theta_out + math.pi / 2


def inside_margin(pts, hull):
    """Each point's least distance inside the hull's edge lines."""
    v = hull.vertices
    e = np.roll(v, -1, axis=0) - v
    rel = pts[:, None, :] - v[None, :, :]
    cross = e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0]
    return (cross / np.hypot(e[:, 0], e[:, 1])).min(axis=1)


def blocked_at(pts, chi):
    return blocked_agents(pts, np.cos(chi), np.sin(chi))


def check_normal_cones(pts, pair=()):
    """The sensor against the normal-cone identity: a strict hull vertex is
    free in the middle of its free arc and blocked just past either end;
    an agent inside the hull by a margin, and either agent of a coincident
    pair, is blocked at 64 evenly spaced headings. Both agents of `pair`
    share one hull vertex and are probed at its headings too. Returns how
    many vertices were probed in their arc and how many agents lay inside."""
    pair = list(pair)
    hull, lo, hi = free_arcs(pts)
    idx = hull.indices
    coincident = np.zeros(len(pts), dtype=bool)
    coincident[pair] = True
    wide = (hi - lo > ARC_MIN) & ~coincident[idx]
    chi = np.zeros(len(pts))
    for heading, free in (((lo + hi) / 2, wide), (lo - ARC_PAST, None), (hi + ARC_PAST, None)):
        chi[idx] = heading
        chi[pair] = heading[np.isin(idx, pair)]
        blocked = blocked_at(pts, chi)
        if free is None:
            assert blocked[idx].all()
        else:
            assert not blocked[idx[free]].any()
        assert blocked[coincident].all()
    interior = inside_margin(pts, hull) > 1e-6
    for k in range(64):
        blocked = blocked_at(pts, np.full(len(pts), 2 * math.pi * k / 64))
        assert blocked[interior | coincident].all()
    return int(wide.sum()), int(interior.sum())


@pytest.mark.parametrize("n", [3, 10, geometry._DENSE_MAX_N + 1, 300])
def test_sensor_paths_free_exactly_in_the_normal_cones(sensor_path, n):
    # stronger than "movers are hull vertices" (criterion 7), which checks
    # only one direction
    for seed in range(3):
        pts = random_case(seed, n)[0]
        hull = convex_hull(pts)
        probed, inside = check_normal_cones(pts)
        assert inside == n - len(hull.indices)
        assert probed >= len(hull.indices) - 1


def test_sensor_paths_block_a_coincident_pair_at_a_hull_vertex(sensor_path):
    pts = random_case(9, 120)[0]
    hull = convex_hull(pts)
    vertex = int(hull.indices[0])
    agent = int(np.argmax(inside_margin(pts, hull)))
    pts[agent] = pts[vertex]
    assert np.isin([agent, vertex], convex_hull(pts).indices).sum() == 1
    probed, inside = check_normal_cones(pts, (agent, vertex))
    assert probed == len(hull.indices) - 1 and inside == 120 - len(hull.indices) - 1


@pytest.mark.parametrize("case", [random_case(12, 5000), circle_case(5000)],
                         ids=["uniform", "all-free"])
def test_sensor_memory_is_bounded_without_blind_zone(case):
    # the dense kernel's (n, n) temporaries would need hundreds of MiB here
    tracemalloc.start()
    try:
        blocked_agents(*case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_as_points_validation():
    assert as_points([(1, 2)]).shape == (1, 2)
    assert as_points(np.array([1.0, 2.0])).shape == (1, 2)
    with pytest.raises(ValueError):
        as_points([(1, 2, 3)])
