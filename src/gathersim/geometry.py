"""Planar primitives of the two models.

The simulators consume the back-half-plane sensor of each model
(`blocked_agents` for the discrete model, `blind_zone_sensor` for the
continuous one) and the minimal enclosing disc. Strictly convex hulls and
hull corner angles serve tests and library users: an agent can be free only
at a hull vertex, in the arc of headings of width pi minus its corner angle,
but no run and no closed-form bound computes them. Coordinates are float64
throughout; angles are radians.
"""

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Containment slack for the enclosing-disc support tests; multiplicative so
# it scales with the constellation diameter.
_DISC_EPS = 1.0 + 1e-14

# Fixed shuffle seed keeps min_enclosing_disc deterministic while preserving
# the expected-linear behavior of the randomized incremental construction.
_DISC_SHUFFLE_SEED = 0x5EED

# The discrete sensor runs dense up to this many agents, where the
# dense kernel is no slower than the witness filter (crossover measured on
# frames of discrete runs), and output-sensitive above it.
_DENSE_MAX_N = 80

# Fixed directions whose extreme agents are the witness filter's witnesses.
_WITNESS_DIRECTIONS = 32
_WITNESS_ANGLES = np.linspace(0.0, 2.0 * math.pi, _WITNESS_DIRECTIONS, endpoint=False)
_DIRECTIONS = np.stack([np.cos(_WITNESS_ANGLES), np.sin(_WITNESS_ANGLES)], axis=1)  # (K, 2)


class Vec2(NamedTuple):
    """Planar point or direction (length units)."""

    x: float
    y: float


class Disc(NamedTuple):
    """Circle given by center and radius, radius >= 0."""

    center: Vec2
    radius: float


@dataclass(frozen=True)
class Hull:
    """Strictly convex hull: counter-clockwise vertices plus source indices."""

    vertices: np.ndarray  # (m, 2) float64, CCW order
    indices: np.ndarray  # (m,) int, positions of the vertices in the input


def as_points(points) -> np.ndarray:
    """Coerce a point sequence to a validated (n, 2) float64 array.

    Accepts anything array-like: a list of (x, y) pairs, a list of Vec2, or
    an ndarray. Raises ValueError on empty input, wrong shape, or non-finite
    coordinates.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1 and arr.shape == (2,):
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, 2) point array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points contain NaN or infinite coordinates")
    return arr


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> Hull:
    """Strictly convex hull of the points, vertices in CCW order.

    Collinear boundary points are dropped so every remaining vertex is a
    strict corner. Degenerate inputs yield 1-vertex (all coincident) or
    2-vertex (all collinear) hulls. Monotone chain, O(n log n).
    """
    pts = as_points(points)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # Dedupe exact coincidences, keeping the first index in sort order.
    sorted_pts = pts[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = np.any(sorted_pts[1:] != sorted_pts[:-1], axis=1)
    cand = [(tuple(sorted_pts[i]), int(order[i])) for i in np.nonzero(keep)[0]]

    if len(cand) == 1:
        p, idx = cand[0]
        return Hull(np.array([p]), np.array([idx]))

    def half(chain_input):
        chain: list[tuple[tuple[float, float], int]] = []
        for p, idx in chain_input:
            while len(chain) >= 2 and _cross(chain[-2][0], chain[-1][0], p) <= 0.0:
                chain.pop()
            chain.append((p, idx))
        return chain[:-1]

    lower = half(cand)
    upper = half(cand[::-1])
    verts = lower + upper
    return Hull(
        np.array([p for p, _ in verts], dtype=float),
        np.array([i for _, i in verts], dtype=int),
    )


def corner_angles(hull: Hull) -> np.ndarray:
    """Interior angle at each hull vertex, radians in (0, pi).

    Computed from exterior turn angles via atan2, so the angle sum matches
    pi * (m - 2) to near machine precision. Requires >= 3 vertices.
    """
    verts = hull.vertices
    m = len(verts)
    if m < 3:
        raise ValueError(f"corner angles need a hull with >= 3 vertices, got {m}")
    edges = np.roll(verts, -1, axis=0) - verts
    prev = np.roll(edges, 1, axis=0)
    turn = np.arctan2(
        prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0],
        (prev * edges).sum(axis=1),
    )
    return np.pi - turn


def blocked_agents(positions: np.ndarray, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """The discrete model's sensor of every agent at once, for headings
    (hx, hy): blocked[i] is True iff some agent j != i lies in agent i's
    closed back half-plane (dot product <= 0), so coincident agents block
    each other.

    Up to _DENSE_MAX_N agents the kernel is dense, with (n, n) temporaries;
    above it, output-sensitive (_witness_blocked), with O(n *
    _WITNESS_DIRECTIONS) memory. Both paths evaluate the same floating-point
    expression on the pairs they test, so blocked is the same.
    """
    n = len(positions)
    if n > _DENSE_MAX_N:
        return _witness_blocked(positions, hx, hy)
    x = positions[:, 0]
    y = positions[:, 1]
    # hx_i * (x_j - x_i) + hy_i * (y_j - y_i), built in two (n, n) arrays
    dot = np.subtract(x, x[:, None])
    dot *= hx[:, None]
    term = np.subtract(y, y[:, None])
    term *= hy[:, None]
    dot += term
    back = dot <= 0.0
    back.flat[::n + 1] = False
    return back.any(axis=1)


def blind_zone_sensor(positions: np.ndarray, hx: np.ndarray, hy: np.ndarray,
                      delta2: float) -> tuple[np.ndarray, np.ndarray]:
    """The continuous model's sensor of every agent at once, for headings
    (hx, hy) and a blind zone of squared radius delta2 >= 0.

    blocked[i] is True iff some agent j with squared distance > delta2 lies
    in agent i's closed back half-plane (dot product <= 0). near[i, j] is
    True iff the squared distance is <= delta2, so always on the diagonal.
    The kernel is dense, with (n, n) temporaries: the back-half-plane
    term dot[i, j] = h_i . (p_j - p_i) and the squared distance
    |p_j - p_i|^2.
    """
    dx = positions[None, :, 0] - positions[:, None, 0]
    dy = positions[None, :, 1] - positions[:, None, 1]
    dot = hx[:, None] * dx + hy[:, None] * dy
    near = dx * dx + dy * dy <= delta2
    return (~near & (dot <= 0.0)).any(axis=1), near


def _witness_blocked(positions, hx, hy) -> np.ndarray:
    """blocked_agents in time and memory proportional to n times the
    witness count plus n per agent that no witness blocks.

    An agent is free only if it is the unique minimiser of its heading's
    projection, so only agents on the hull can move. The witnesses are the
    extreme agents in _WITNESS_DIRECTIONS fixed directions; every agent is
    tested against them first (a witness never against itself, by index, so
    coincident agents still block each other), and only the agents that no
    witness blocks get the full row.
    """
    x = positions[:, 0]
    y = positions[:, 1]
    # (witness, agent) layout: the reductions run along contiguous rows
    w = np.unique(np.argmin(_DIRECTIONS @ positions.T, axis=1))
    back = hx * (x[w, None] - x) + hy * (y[w, None] - y) <= 0.0
    back[np.arange(len(w)), w] = False
    blocked = back.any(axis=0)
    rest = np.flatnonzero(~blocked)
    # exact rows in chunks, so many survivors cannot build an (n, n) temporary
    for lo in range(0, len(rest), _WITNESS_DIRECTIONS):
        rows = rest[lo:lo + _WITNESS_DIRECTIONS]
        back = hx[rows, None] * (x[None, :] - x[rows, None]) + hy[rows, None] * (y[None, :] - y[rows, None]) <= 0.0
        back[np.arange(len(rows)), rows] = False
        blocked[rows] = back.any(axis=1)
    return blocked


def min_enclosing_disc(points) -> Disc:
    """Smallest disc containing all points.

    Randomized incremental construction with a fixed shuffle seed: expected
    O(n), deterministic for a given input, supported by at most 3 points.
    """
    pts = as_points(points).tolist()
    random.Random(_DISC_SHUFFLE_SEED).shuffle(pts)
    disc = None
    for k, p in enumerate(pts):
        if disc is None or not _in_disc(disc, p):
            disc = _disc_with_point(pts[: k + 1], p)
    cx, cy, r = disc
    return Disc(Vec2(cx, cy), r)


def _in_disc(disc, p) -> bool:
    return math.hypot(p[0] - disc[0], p[1] - disc[1]) <= disc[2] * _DISC_EPS


def _disc_with_point(pts, p):
    disc = (p[0], p[1], 0.0)
    for k, q in enumerate(pts):
        if not _in_disc(disc, q):
            if disc[2] == 0.0:
                disc = _diameter_disc(p, q)
            else:
                disc = _disc_with_two(pts[: k + 1], p, q)
    return disc


def _disc_with_two(pts, p, q):
    circ = _diameter_disc(p, q)
    left = None
    right = None
    for r in pts:
        if _in_disc(circ, r):
            continue
        side = _cross(p, q, r)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        if side > 0.0 and (left is None or _cross(p, q, c) > _cross(p, q, left)):
            left = c
        elif side < 0.0 and (right is None or _cross(p, q, c) < _cross(p, q, right)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _diameter_disc(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    return (cx, cy, max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1])))


def _circumcircle(a, b, c):
    # Shift to the bounding-box midpoint for numerical stability.
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - a[0], y - a[1]), math.hypot(x - b[0], y - b[1]), math.hypot(x - c[0], y - c[1]))
    return (x, y, r)
