"""Continuous blind-zone process: sensing, integration, distance bands."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gathersim.bounds import expected_time_bound
from gathersim.continuous import (
    ContinuousConfig,
    LyapunovState,
    _advance_interval,
    check_lyapunov_monotone,
    check_separation_band,
    continuous_interval,
    lyapunov_value,
    run_continuous,
)
from gathersim import continuous
from gathersim.discrete import DiscreteConfig, run_discrete
from gathersim.geometry import blind_zone_sensor, min_enclosing_disc
from gathersim.rng import make_rng
from gathersim.state import Constellation, Frame, Trace, draw_headings, init_constellation


def naive_interval(positions, chi, delta, substep, nsub):
    """Independent reimplementation of one unit interval: per substep, sense
    every agent on the frozen snapshot (blocked iff someone beyond delta sits
    in the closed back half-plane), then try the move of the unblocked ones.
    While some pair that started the substep within delta would end it beyond
    delta, hold each moving member that then has the other in its closed back
    half-plane (both movers if neither does) and try again. Agents move at
    unit speed, so a move is one substep long."""
    pos = [list(p) for p in positions.tolist()]
    n = len(pos)
    hx = [math.cos(c) for c in chi]
    hy = [math.sin(c) for c in chi]

    def beyond(p, i, j):
        dx = p[j][0] - p[i][0]
        dy = p[j][1] - p[i][1]
        return dx * dx + dy * dy > delta * delta

    for _ in range(nsub):
        movers = set()
        for i in range(n):
            hit = False
            for j in range(n):
                if j == i:
                    continue
                dx = pos[j][0] - pos[i][0]
                dy = pos[j][1] - pos[i][1]
                if dx * dx + dy * dy > delta * delta and hx[i] * dx + hy[i] * dy <= 0.0:
                    hit = True
                    break
            if not hit:
                movers.add(i)
        close = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if not beyond(pos, i, j)]
        while True:
            trial = [[p[0] + substep * hx[k], p[1] + substep * hy[k]] if k in movers else list(p)
                     for k, p in enumerate(pos)]
            held = set()
            for i, j in close:
                if not beyond(trial, i, j):
                    continue
                looks_back = set()
                for a, b in ((i, j), (j, i)):
                    dx = trial[b][0] - trial[a][0]
                    dy = trial[b][1] - trial[a][1]
                    if a in movers and hx[a] * dx + hy[a] * dy <= 0.0:
                        looks_back.add(a)
                held |= looks_back or ({i, j} & movers)
            if not held:
                break
            movers -= held
        pos = trial
    return np.array(pos)


def plain_interval(pos, hx, hy, delta2, step, nsub):
    """The substep loop that senses on every substep, as the integrator ran
    before it skipped repeated substeps; the elided integrator must match it
    bit for bit. Returns the number of substeps whose final movers differ
    from the previous substep's (the first substep counts): an integrator
    that repeats the previous substep's movers without sensing has to sense
    at least these."""
    n = pos.shape[0]
    hvec = np.stack([hx, hy], axis=1)
    changes = 0
    previous = None
    for _ in range(nsub):
        blocked, near = blind_zone_sensor(pos, hx, hy, delta2)
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
        changes += previous is None or not np.array_equal(free, previous)
        previous = free
        if not free.any():
            break
        pos[:] = new
    return changes


@pytest.fixture
def sensed(monkeypatch):
    """Counts the substeps the integrator senses (calls of its sensor)."""
    count = [0]
    sensor = continuous.blind_zone_sensor

    def counted(*args):
        count[0] += 1
        return sensor(*args)

    monkeypatch.setattr(continuous, "blind_zone_sensor", counted)
    return count


def assert_matches_plain(positions, hx, hy, delta=0.1, substep=1e-3, changes=None):
    """Run one interval both ways from the same start; return the result.
    Adds plain_interval's count of mover changes to changes[0] if given."""
    nsub = round(1.0 / substep)
    got = np.array(positions, dtype=float)
    want = got.copy()
    got = _advance_interval(got, hx, hy, delta, substep, nsub)
    count = plain_interval(want, hx, hy, delta * delta, substep, nsub)
    if changes is not None:
        changes[0] += count
    assert np.array_equal(got, want)
    return got


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuousConfig(n=1, delta=0.0)
    for field in ("delta", "substep", "spread"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ContinuousConfig(n=1, **{field: bad})
    with pytest.raises(ValueError):
        ContinuousConfig(n=1, substep=0.3)  # does not divide the unit interval
    with pytest.raises(ValueError):
        ContinuousConfig(n=0)
    assert ContinuousConfig(n=1, substep=0.25).nsub == 4


@pytest.mark.parametrize("field,bad", [
    ("n", 2.5), ("n", True), ("n", 3.0), ("max_intervals", 2.5), ("max_intervals", False),
    ("seed", 1.5), ("seed", -1), ("seed", 1 << 64), ("seed", np.bool_(True)),
])
def test_config_rejects_non_integer_counts(field, bad):
    with pytest.raises(ValueError, match=field):
        ContinuousConfig(**{"n": 3, field: bad})


@pytest.mark.parametrize("substep", [5e-324, 1e-300, 2.0 ** -52])
def test_config_rejects_substeps_below_the_rounding_guard(substep):
    # nsub would exceed 2^51 (at 5e-324 1 / substep overflows, at 1e-300 an
    # interval would never end); the config is only built, never run
    with pytest.raises(ValueError, match="substep"):
        ContinuousConfig(n=3, substep=substep)


def test_config_accepts_the_smallest_substep():
    assert ContinuousConfig(n=3, substep=2.0 ** -51).nsub == 2 ** 51


def test_config_accepts_numpy_integers():
    cfg = ContinuousConfig(n=np.int64(3), seed=np.uint64((1 << 64) - 1),
                           max_intervals=np.int32(5))
    assert cfg.nsub == 1000


# ---------------------------------------------------------- integration


def test_single_agent_travels_unit_distance():
    cfg = ContinuousConfig(n=1, seed=2, spread=5.0)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    new = continuous_interval(state, cfg, draw_headings(rng, cfg.n))
    assert math.isclose(np.hypot(*(new.positions[0] - state.positions[0])), 1.0,
                        abs_tol=1e-9)


# the clustered cases start pairs within delta and so reach the sliding rule
INTERVAL_CASES = [(2, 0, 2.0), (3, 1, 2.0), (5, 2, 2.0), (8, 3, 2.0),
                  (2, 4, 0.08), (4, 5, 0.15), (7, 6, 0.3),
                  (2, 7, 3.0), (6, 8, 3.0), (11, 9, 3.0),
                  (2, 10, 0.08), (4, 11, 0.15), (7, 14, 0.3)]


def _case_id(n, seed, spread):
    if spread == 2.0:
        return f"{n}-{seed}"
    return f"{n}-{seed}-{'clustered' if spread < 1.0 else 'spread'}{spread}"


@pytest.mark.parametrize("n,seed,spread", INTERVAL_CASES,
                         ids=[_case_id(*case) for case in INTERVAL_CASES])
def test_interval_matches_naive_reimplementation(n, seed, spread):
    cfg = ContinuousConfig(n=n, delta=0.1, spread=spread, seed=seed)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    chi = rng.uniform(0, 2 * math.pi, n)
    new = continuous_interval(state, cfg, headings=chi)
    oracle = naive_interval(state.positions, chi, cfg.delta, cfg.substep, cfg.nsub)
    assert np.array_equal(new.positions, oracle)


@pytest.mark.parametrize("n", [2, 5, 10])
@pytest.mark.parametrize("spread", [5.0, 0.3])
def test_elided_matches_plain_over_whole_runs(n, spread):
    # every interval of whole runs, from the start each run actually reaches
    for seed in range(3):
        cfg = ContinuousConfig(n=n, delta=0.1, spread=spread, seed=seed)
        rng = make_rng(cfg.seed)
        pos = init_constellation(cfg, rng).positions
        for _ in range(1000):
            chi = rng.uniform(0, 2 * math.pi, n)
            pos = assert_matches_plain(pos, np.cos(chi), np.sin(chi))
            if min_enclosing_disc(pos).radius < cfg.delta:
                break
        else:
            pytest.fail(f"n={n} spread={spread} seed={seed} did not converge")


@pytest.mark.parametrize("offset", [1e6, 1e10, 3e12, 1e13])
def test_elided_matches_plain_far_from_the_origin(offset):
    # the rounding of x + step * h grows with |x|: at 1e13 one stored move is
    # ulp(x) = 2^-9 ~ 0.002, twice the substep, so a fixed slack would not do
    # (a slack of one substep gets one of these ten cases wrong at 3e12 and
    # three at 1e13)
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        pos = rng.uniform(0.0, 0.15, (n, 2)) + offset
        chi = rng.uniform(0, 2 * math.pi, n)
        assert_matches_plain(pos, np.cos(chi), np.sin(chi))


@pytest.mark.parametrize("n,spread", [(40, 0.4), (80, 0.6)])
def test_elided_matches_plain_from_clustered_starts_at_large_n(n, spread):
    # 149 and 215 pairs start within delta, so every interval runs the exact
    # count over a long list of pairs with hold rounds
    rng = make_rng(n)
    pos = rng.uniform(0.0, spread, (n, 2))
    for _ in range(5):
        chi = rng.uniform(0, 2 * math.pi, n)
        pos = assert_matches_plain(pos, np.cos(chi), np.sin(chi))


def test_elision_covers_moves_longer_than_the_substep():
    # agent 0 runs along +x at 1e13, where each stored move is 2^-9, almost
    # twice the substep, and enters the blind zone of the blocked agent 1
    # within the interval; a bound counting substep-long moves would skip it
    pos = np.array([[1e13, 0.0], [1e13 + 1.5, 0.0]])
    hx, hy = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    got = assert_matches_plain(pos, hx, hy)
    assert got[0, 0] - pos[0, 0] > 1.5  # the pair met inside the interval


def test_single_agent_is_sensed_once(sensed):
    chi = np.array([0.7])
    assert_matches_plain([[2.0, 3.0]], np.cos(chi), np.sin(chi))
    assert sensed[0] == 1


def test_all_blocked_is_sensed_once(sensed):
    # every agent has another one beyond delta in its closed back half-plane
    pos = np.array([[0.0, 0.0], [-0.5, 0.0], [0.3, 2.0]])
    hx, hy = np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    assert np.array_equal(assert_matches_plain(pos, hx, hy), pos)
    assert sensed[0] == 1


def test_held_sliding_pair_with_stationary_partner_is_elided(sensed):
    # agent 1 moves away from agent 0 until the edge of the blind zone, where
    # it is held; agents 0 and 2 block each other, so once the pair is held
    # nothing changes and the rest of the interval repeats
    pos = np.array([[0.0, 0.0], [0.05, 0.0], [2.0, 1.0]])
    hx, hy = np.array([0.0, 1.0, 1.0]), np.array([-1.0, 0.0, 0.0])
    got = assert_matches_plain(pos, hx, hy)
    assert np.array_equal(got[[0, 2]], pos[[0, 2]])
    assert 0.099 < got[1, 0] <= 0.1
    assert sensed[0] < 10


def test_pair_held_while_partner_approaches(sensed):
    # agent 1 heads away from agent 0 and is held at the edge of the blind
    # zone; agent 0 follows it, so agent 1 slides on whenever the gap allows,
    # a decision that changes from one substep to the next
    chi = np.array([0.3, 0.5])
    pos = np.array([[0.0, 0.0], [0.0999 * math.cos(0.4), 0.0999 * math.sin(0.4)]])
    changes = [0]
    got = assert_matches_plain(pos, np.cos(chi), np.sin(chi), changes=changes)
    assert 0.099 < np.hypot(*(got[1] - got[0])) <= 0.1
    assert np.hypot(*(got[1] - pos[1])) > 0.4  # agent 1 did slide on
    # the movers change on 165 substeps, as agent 1's hold comes and goes;
    # the chatter loop re-decides the pair at each change without sensing
    assert changes[0] >= 150
    assert sensed[0] < 200
    assert sensed[0] <= 5


def test_chatter_chase_behind_a_back_line(sensed):
    # agent 0 runs along +x; agent 1, beyond delta, runs at half its speed
    # along x and closes in from y = 1, so it blocks agent 0 whenever agent 0
    # has passed it: agent 0's sensor flag toggles on nearly every substep.
    # Agent 2 moves freely far away
    pos = np.array([[0.0, 0.0], [0.0005, 1.0], [5.0, -5.0]])
    chi = np.array([0.0, -math.pi / 3, math.pi / 2])
    changes = [0]
    got = assert_matches_plain(pos, np.cos(chi), np.sin(chi), changes=changes)
    assert got[0, 0] == pytest.approx(0.5, abs=2e-3)  # agent 0 moved on half the substeps
    assert changes[0] > 900 and sensed[0] <= 3


def test_chatter_window_ends_where_the_partner_would_be_held(sensed):
    # agents 0 and 1 start within delta; agent 1's hold comes and goes until
    # a substep on which agent 0 would be held instead, a change of another
    # agent's flag that ends the window there
    pos = np.array([[0.1658, 0.028], [0.1054, 0.0516]])
    chi = np.array([3.09, 3.476])
    changes = [0]
    assert_matches_plain(pos, np.cos(chi), np.sin(chi), changes=changes)
    assert changes[0] >= 40 and sensed[0] <= 3


def test_chatter_window_with_two_live_pairs(sensed):
    # agent 1 toggles against both of the others, so both of its pairs are
    # re-decided at each toggle
    pos = np.array([[0.0675, 0.1587], [0.0798, 0.1188], [0.1475, 0.1003]])
    chi = np.array([4.34, 4.381, 0.036])
    changes = [0]
    assert_matches_plain(pos, np.cos(chi), np.sin(chi), changes=changes)
    assert changes[0] >= 8 and sensed[0] <= 4


@pytest.mark.parametrize("seed", [0, 3])
def test_chatter_matches_plain_near_2_to_the_40(seed):
    # at 2^40 one ulp is 2^-12, a quarter of the substep, and the guard of
    # every certified count in a chatter window grows with it
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        pos = rng.uniform(0.0, 0.12, (n, 2)) + 2.0 ** 40
        chi = rng.uniform(0, 2 * math.pi, n)
        assert_matches_plain(pos, np.cos(chi), np.sin(chi))


def test_chatter_matches_plain_from_a_clustered_start_at_a_small_substep(sensed):
    # at substep 1e-4 the sliding rule chatters over thousands of substeps
    rng = np.random.default_rng(3)
    pos = rng.uniform(0.0, 0.15, (6, 2))
    changes = [0]
    for _ in range(2):
        chi = rng.uniform(0, 2 * math.pi, 6)
        pos = assert_matches_plain(pos, np.cos(chi), np.sin(chi), substep=1e-4,
                                   changes=changes)
    assert changes[0] >= 180 and sensed[0] <= 20


def test_pair_moving_side_by_side_is_sensed_once(sensed):
    # agents 0 and 1 move in parallel within delta, so their difference never
    # changes; agent 2 ahead of them is blocked by both, and they approach it
    # by less than its distance
    pos = np.array([[0.0, 0.0], [0.0, 0.06], [3.0, 0.03]])
    hx, hy = np.ones(3), np.zeros(3)
    got = assert_matches_plain(pos, hx, hy)
    assert np.array_equal(got[2], pos[2]) and got[0, 0] == got[1, 0] > 0.99
    assert sensed[0] == 1


def test_chord_through_a_blind_zone_then_held(sensed):
    # agent 0 passes the blocked agent 1 at distance 0.05 < delta: it enters
    # agent 1's blind zone, crosses it along a chord and is held where it
    # would leave it, so the interval is sensed at the start, inside the
    # blind zone, and where the hold begins
    pos = np.array([[-0.3, 0.05], [0.0, 0.0], [3.0, 0.5]])
    hx, hy = np.array([1.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0])
    got = assert_matches_plain(pos, hx, hy)
    assert np.array_equal(got[1:], pos[1:])
    chord_end = math.sqrt(0.1 ** 2 - 0.05 ** 2)
    assert chord_end - 1e-3 < got[0, 0] <= chord_end
    assert sensed[0] <= 3


@pytest.mark.parametrize("n", [5, 10])
def test_sensings_close_to_the_mover_change_count(n, sensed):
    # over whole runs the integrator senses well below the substeps whose
    # movers change: the chatter loop decides most of them without sensing
    # (607 of 1848 at n = 5, 1398 of 2474 at n = 10), and an integrator that
    # senses each change would sense more than these
    changes = [0]
    for seed in range(3):
        cfg = ContinuousConfig(n=n, delta=0.1, spread=5.0, seed=seed)
        rng = make_rng(cfg.seed)
        pos = init_constellation(cfg, rng).positions
        for _ in range(1000):
            chi = rng.uniform(0, 2 * math.pi, n)
            pos = assert_matches_plain(pos, np.cos(chi), np.sin(chi), changes=changes)
            if min_enclosing_disc(pos).radius < cfg.delta:
                break
        else:
            pytest.fail(f"n={n} seed={seed} did not converge")
    assert sensed[0] <= 1.25 * changes[0]
    assert sensed[0] <= {5: 0.4, 10: 0.65}[n] * changes[0]


@pytest.mark.parametrize("flip", [1, 2, 37, 256, 1000])
def test_back_line_flip_exactly_k_substeps_ahead(flip, sensed):
    # integer positions and axis-aligned headings with a dyadic substep keep
    # every sum exact: agent 0 runs along +x until blocked agent 1 lies on
    # its back line, which happens at the sensing of substep `flip` exactly
    substep = 2.0 ** -10
    pos = np.array([[0.0, 0.0], [flip * substep, 3.0]])
    hx, hy = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    got = assert_matches_plain(pos, hx, hy, substep=substep)
    assert got[0, 0] == min(flip, 1024) * substep
    assert sensed[0] <= 3


@pytest.mark.parametrize("flip", [1, 37, 500])
def test_blind_zone_entry_exactly_k_substeps_ahead(flip, sensed):
    # agent 0 runs along +x at the blocked agent 1 and reaches distance
    # delta = 1/8 at the sensing of substep `flip` exactly; from then on
    # agent 1 no longer sees it and both move on together
    substep = 2.0 ** -10
    pos = np.array([[0.0, 0.0], [0.125 + flip * substep, 0.0]])
    hx, hy = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    got = assert_matches_plain(pos, hx, hy, delta=0.125, substep=substep)
    assert got[1, 0] - pos[1, 0] == (1024 - flip) * substep
    # one sensing covers every substep before the flip (the pair then sits
    # at distance delta, a zero margin, and is sensed on each substep)
    assert sensed[0] <= 1 + 1024 - flip


def _exactly_sound(kind, args, k):
    """Whether the k returned by a repeat-count helper keeps its term on the
    same side for every t in [0, k], in exact rational arithmetic (k = 0
    claims nothing)."""
    if k == 0:
        return True
    if kind == "linear":
        a0, a1, guard = map(Fraction, args)
        return all(abs(a0 + t * a1) > guard and (a0 + t * a1 > 0) == (a0 > 0) for t in (0, k))
    vx, vy, wx, wy, limit = map(Fraction, args)
    square = lambda t: (vx + t * wx) ** 2 + (vy + t * wy) ** 2
    if kind == "within":  # convex: the maximum is at an endpoint
        return max(square(0), square(k)) < limit ** 2
    a = wx * wx + wy * wy
    vertex = min(max(-(vx * wx + vy * wy) / a, 0), k) if a else 0
    return square(vertex) > limit ** 2


REPEATS = {"linear": continuous._linear_repeats, "within": continuous._within_repeats,
           "beyond": continuous._beyond_repeats}


def test_repeat_counts_are_exactly_sound():
    cases = [("linear", (1.0, -0.125, 0.3)), ("linear", (-1.0, 0.125, 0.375)),
             ("within", (0.05, 0.0, 2.0 ** -10, 0.0, 0.1))]
    # a grazing pass: the pair dips below the limit by ~1e-13 relative at its
    # closest approach, t = 768, but the rounded discriminant is 0, so the
    # smaller root evaluates to the vertex itself
    limit = 2.0 ** -7
    cases += [("beyond", (1.5, limit * (1.0 - e * 1e-14), -2.0 ** -9, 0.0, limit))
              for e in range(1, 21)]
    rng = np.random.default_rng(23)
    for _ in range(300):
        v = rng.uniform(-0.3, 0.3, 2)
        w = rng.uniform(-2e-3, 2e-3, 2) * rng.choice([0.0, 1.0, 1.0])
        near = float(np.hypot(*v)) * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -1))
        cases.append(("within" if rng.random() < 0.5 else "beyond", (*v, *w, near)))
        cases.append(("linear", (v[0], w[0], abs(v[0]) * rng.uniform(0.0, 1.0))))
    counts = []
    for kind, args in cases:
        k = REPEATS[kind](*args, 1023)
        assert 0 <= k <= 1023 and _exactly_sound(kind, args, k), (kind, args, k)
        counts.append(k)
    # the root 5 of the second case is exact, so t = 5 sits on the guard and
    # the check rejects it; the grazing cases must stop before t = 768
    assert counts[:3] == [5, 0, 51] and max(counts[3:23]) < 768


def test_head_on_pair_closes_two_per_interval():
    cfg = ContinuousConfig(n=2, delta=0.1, seed=0, spread=20.0)
    state = Constellation(np.array([[0.0, 0.0], [10.0, 0.0]]), np.zeros(2))
    headings = np.array([0.0, math.pi])  # straight at each other
    for expected in (8.0, 6.0, 4.0):
        state = continuous_interval(state, cfg, headings=headings)
        d = np.hypot(*(state.positions[1] - state.positions[0]))
        assert abs(d - expected) < 1e-9


def test_pair_within_delta_moves_freely_and_stays_in_band():
    cfg = ContinuousConfig(n=2, delta=0.1, seed=0, spread=1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        start = np.array([[0.0, 0.0], [0.05 * math.cos(a := rng.uniform(0, 2 * math.pi)),
                                       0.05 * math.sin(a)]])
        chi = rng.uniform(0, 2 * math.pi, 2)
        state = Constellation(start.copy(), np.zeros(2))
        new = continuous_interval(state, cfg, headings=chi)
        oracle = naive_interval(start, chi, cfg.delta, cfg.substep, cfg.nsub)
        assert np.array_equal(new.positions, oracle)
        dx, dy = new.positions[1] - new.positions[0]
        assert math.sqrt(dx * dx + dy * dy) <= cfg.delta  # the sensor's distance


def test_mutually_blocked_pair_is_exactly_frozen():
    # each agent sits beyond delta in the other's back half-plane, so neither
    # may take a single substep
    cfg = ContinuousConfig(n=2, delta=0.1, seed=0, spread=1.0)
    start = np.array([[0.0, 0.0], [-0.5, 0.0]])
    state = Constellation(start.copy(), np.zeros(2))
    new = continuous_interval(state, cfg, headings=np.array([0.0, math.pi]))
    assert np.array_equal(new.positions, start)


def test_substep_level_separated_band():
    # distance between separated agents may grow at most 2 * substep per
    # substep; drive the kernel one substep at a time to observe it
    rng = np.random.default_rng(4)
    for n, seed in ((4, 0), (7, 1)):
        pos = rng.uniform(0, 1.5, (n, 2))
        chi = rng.uniform(0, 2 * math.pi, n)
        hx, hy = np.cos(chi), np.sin(chi)
        delta, sub = 0.1, 1e-3
        for _ in range(1000):
            d_before = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                                pos[:, None, 1] - pos[None, :, 1])
            pos = _advance_interval(pos, hx, hy, delta, sub, 1)
            d_after = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                               pos[:, None, 1] - pos[None, :, 1])
            grow = d_after - d_before
            assert (grow[d_before > delta] <= 2 * sub + 1e-12).all()


def test_halving_substep_is_first_order():
    intervals = 5
    for seed in range(3):
        rng = make_rng(seed)
        n = 5
        base = init_constellation(ContinuousConfig(n=n, spread=3.0, seed=seed), rng)
        chis = [rng.uniform(0, 2 * math.pi, n) for _ in range(intervals)]
        finals = {}
        for sub in (4e-3, 2e-3, 1e-3):
            cfg = ContinuousConfig(n=n, delta=0.1, substep=sub, spread=3.0, seed=seed)
            state = Constellation(base.positions.copy(), base.headings.copy())
            for chi in chis:
                state = continuous_interval(state, cfg, headings=chi)
            finals[sub] = state.positions
        for sub in (4e-3, 2e-3):
            diff = np.abs(finals[sub] - finals[sub / 2]).max()
            assert diff <= 2.0 * intervals * sub


# ------------------------------------------------------------ lyapunov


def test_lyapunov_examples():
    assert lyapunov_value([(1, 1), (1, 1), (1, 1)], 0.1) == LyapunovState(0.0, True)
    state = lyapunov_value([(0, 0), (5, 0)], 0.1)
    assert state == LyapunovState(10.0, False)  # each pair counted twice
    cluster = [(0, 0), (0.03, 0.02), (0.01, 0.04)]
    assert lyapunov_value(cluster, 0.1) == LyapunovState(0.0, True)


def test_lyapunov_zero_iff_confined():
    rng = np.random.default_rng(6)
    for _ in range(50):
        pts = rng.uniform(0, rng.choice([0.05, 0.3, 3.0]), (int(rng.integers(1, 9)), 2))
        st = lyapunov_value(pts, 0.1)
        assert (st.value == 0.0) == st.confined


def test_lyapunov_value_validation():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            lyapunov_value([(0, 0), (1, 0)], bad)


# ------------------------------------------------------------------ run


def test_run_single_agent_confined_at_zero():
    _, summary = run_continuous(ContinuousConfig(n=1, seed=7, spread=5.0))
    assert summary.converged_step == 0
    assert summary.final_radius == 0.0


def test_run_two_agents_converges_well_under_bound():
    bound = expected_time_bound(2, 0.1, 3.0)
    steps = []
    for seed in range(40):
        cfg = ContinuousConfig(n=2, delta=0.1, spread=5.0, seed=seed, max_intervals=5000)
        initial = Constellation(np.array([[1.0, 1.0], [4.0, 1.0]]), np.zeros(2))
        _, summary = run_continuous(cfg, record_every=None, initial=initial)
        assert summary.converged_step is not None
        steps.append(summary.converged_step)
    assert np.mean(steps) <= bound
    assert np.mean(steps) < 0.05 * bound  # the closed-form ceiling is loose


@pytest.mark.parametrize("positions, headings", [
    ([[0.0, 0.0], [1.0, 1.0]], [math.nan, 0.0]),
    ([[0.0, 0.0], [1.0, 1.0]], [0.0, -math.inf]),
    ([[math.nan, 0.0], [1.0, 1.0]], [0.0, 0.0]),
    ([[0.0, 0.0], [1.0, math.inf]], [0.0, 0.0]),
])
def test_run_rejects_a_non_finite_initial(positions, headings):
    # a non-finite position used to fail only inside the observer's disc;
    # such a start is now rejected when it is built
    with pytest.raises(ValueError, match="finite"):
        run_continuous(ContinuousConfig(n=2, max_intervals=3),
                       initial=Constellation(positions, headings))


def test_run_series_and_bands():
    cfg = ContinuousConfig(n=10, delta=0.1, spread=5.0, seed=12, max_intervals=5000)
    trace, summary = run_continuous(cfg)
    assert summary.converged_step is not None
    assert trace.series[0][0] == 0
    assert trace.series[-1][3] is True or trace.series[-1][3] == 1
    assert summary.final_radius < cfg.delta
    # runtime-checkable invariants: distance bands and Lyapunov monotonicity
    # (no pair within delta can cross it upward, so no separated-distance
    # term is re-activated and the sum never rises beyond the 2 n^2 dt band)
    assert check_separation_band(trace, cfg.delta, cfg.substep) == []
    assert check_lyapunov_monotone(trace, cfg.n, cfg.substep, cfg.delta) == []
    # lyapunov hits zero exactly at confinement
    assert trace.series[-1][2] == 0.0
    assert all(v > 0 for _, _, v, conf in trace.series[:-1] if not conf)


def test_separation_band_names_both_kinds_of_violation():
    # pair (0, 1) is separated and gains 0.01 > 4 * substep in interval 1;
    # pair (2, 3) starts within delta and ends interval 2 at 0.2, beyond
    # delta + 4 * substep. Every other pair stays inside its band.
    frames = [np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [10.0, 0.05]]),
              np.array([[0.0, 0.0], [1.01, 0.0], [10.0, 0.0], [10.0, 0.05]]),
              np.array([[0.0, 0.0], [1.01, 0.0], [10.0, 0.0], [10.0, 0.2]])]
    trace = Trace()
    for k, pos in enumerate(frames):
        trace.frames.append(Frame(k, pos, np.zeros(4), np.zeros(4, dtype=bool)))
    violations = check_separation_band(trace, 0.1, 1e-3)
    assert [v[:4] for v in violations] == [("separated_growth", 1, 0, 1),
                                           ("close_pair_escape", 2, 2, 3)]
    assert [v[4] for v in violations] == pytest.approx([1.01, 0.2])


def test_lyapunov_increase_names_the_pairs_that_crossed_delta():
    # pair (0, 1) drifts from within delta to beyond it and re-activates its
    # distance term; pair (0, 2) stays separated and is not named
    frames = [np.array([[0.0, 0.0], [0.09, 0.0], [5.0, 0.0]]),
              np.array([[0.0, 0.0], [0.12, 0.0], [5.0, 0.0]])]
    trace = Trace()
    for k, pos in enumerate(frames):
        trace.frames.append(Frame(k, pos, np.zeros(3), np.zeros(3, dtype=bool)))
        trace.series.append((k, 0.0, lyapunov_value(pos, 0.1).value, False))
    [(interval, v0, v1, crossed)] = check_lyapunov_monotone(trace, 3, 1e-3, 0.1)
    assert (interval, v0) == (1, trace.series[0][2]) and v1 > v0
    assert [(i, j) for i, j, _, _ in crossed] == [(0, 1)]
    assert crossed[0][2:] == pytest.approx((0.09, 0.12))
    # without the frames the increase is still reported, unattributed
    trace.frames.clear()
    assert check_lyapunov_monotone(trace, 3, 1e-3, 0.1) == [(1, v0, v1, None)]


# delta and an offset whose squared distance exceeds delta * delta while its
# root rounds to delta: beyond delta for the sensor, not by the distance
NEAR_DELTA = 0.5710315816583608
BEYOND_ROUNDING_TO_DELTA = (-0.37232187826155533, -0.43295898907291064)
# an offset whose squared distance is at most delta * delta, with the same root
WITHIN_ROUNDING_TO_DELTA = (0.5522125829188474, 0.14539026967904037)


def test_lyapunov_increase_names_a_pair_beyond_delta_by_the_sensors_test():
    # pair (0, 1) ends beyond delta by the squared test, which the Lyapunov
    # sum counts, at a distance that rounds to delta
    ox, oy = BEYOND_ROUNDING_TO_DELTA
    assert ox * ox + oy * oy > NEAR_DELTA * NEAR_DELTA
    assert math.sqrt(ox * ox + oy * oy) == NEAR_DELTA
    frames = [np.array([[0.0, 0.0], [ox / 2, oy / 2], [5.0, 0.0]]),
              np.array([[0.0, 0.0], [ox, oy], [5.0, 0.0]])]
    trace = Trace()
    for k, pos in enumerate(frames):
        trace.frames.append(Frame(k, pos, np.zeros(3), np.zeros(3, dtype=bool)))
        trace.series.append((k, 0.0, lyapunov_value(pos, NEAR_DELTA).value, False))
    [(interval, v0, v1, crossed)] = check_lyapunov_monotone(trace, 3, 1e-3, NEAR_DELTA)
    assert interval == 1 and v1 - v0 > 1.5
    assert [(i, j) for i, j, _, _ in crossed] == [(0, 1)]
    assert crossed[0][3] == NEAR_DELTA


@pytest.mark.parametrize("offset, kind", [(BEYOND_ROUNDING_TO_DELTA, "separated_growth"),
                                          (WITHIN_ROUNDING_TO_DELTA, "close_pair_escape")],
                         ids=["beyond", "within"])
def test_separation_band_classifies_pairs_by_the_sensors_test(offset, kind):
    # a pair at distance delta, beyond it or within it by the squared test,
    # then 0.05 further apart: a separated pair gained more than 4 * substep,
    # and a pair that was within delta left delta + 4 * substep
    ox, oy = offset
    assert (ox * ox + oy * oy > NEAR_DELTA * NEAR_DELTA) == (kind == "separated_growth")
    assert math.sqrt(ox * ox + oy * oy) == NEAR_DELTA
    scale = (NEAR_DELTA + 0.05) / NEAR_DELTA
    trace = Trace()
    for k, pos in enumerate([np.array([[0.0, 0.0], [ox, oy]]),
                             np.array([[0.0, 0.0], [ox * scale, oy * scale]])]):
        trace.frames.append(Frame(k, pos, np.zeros(2), np.zeros(2, dtype=bool)))
    violations = check_separation_band(trace, NEAR_DELTA, 1e-3)
    assert [v[:4] for v in violations] == [(kind, 1, 0, 1)]
    assert violations[0][4] == pytest.approx(NEAR_DELTA + 0.05)


def test_series_matches_public_lyapunov_value():
    cfg = ContinuousConfig(n=5, delta=0.1, spread=2.0, seed=4, max_intervals=3000)
    trace, summary = run_continuous(cfg, record_every=1)
    assert summary.converged_step is not None
    assert [f.step for f in trace.frames] == [k for k, *_ in trace.series]
    for frame, (k, radius, value, confined) in zip(trace.frames, trace.series):
        assert frame.step == k and radius == min_enclosing_disc(frame.positions).radius
        assert (value, confined) == tuple(lyapunov_value(frame.positions, cfg.delta))


@pytest.mark.parametrize("cap", [3000, 5])
def test_untraced_run_records_only_its_summary(cap):
    # the untraced continuous observer tests the disc alone: no Lyapunov
    # sum, no series; neither model records a frame
    for run, cfg in [
        (run_continuous, ContinuousConfig(n=5, delta=0.1, spread=2.0, seed=4, max_intervals=cap)),
        (run_discrete, DiscreteConfig(n=5, spread=10.0, seed=4, max_steps=cap)),
    ]:
        trace, summary = run(cfg, record_every=None)
        _, traced_summary = run(cfg)
        assert summary == traced_summary
        assert (summary.converged_step is None) == (cap == 5)
        assert trace.series == [] and trace.frames == []


@pytest.mark.parametrize("n,spread", [(5, 5.0), (10, 5.0), (3, 0.3), (5, 0.3), (10, 0.3)])
def test_untraced_box_gate_never_changes_a_result(n, spread):
    # an untraced run skips the disc while the bounding box is wider than
    # the blind zone; a traced run computes it on every interval
    for seed in range(20):
        cfg = ContinuousConfig(n=n, delta=0.1, spread=spread, seed=seed)
        _, summary = run_continuous(cfg, record_every=None)
        _, traced = run_continuous(cfg, record_every=10 ** 6)
        assert summary.converged_step is not None
        assert (summary.converged_step, summary.final_radius) == (traced.converged_step,
                                                                  traced.final_radius)


def test_run_deterministic():
    cfg = ContinuousConfig(n=6, delta=0.1, spread=4.0, seed=31, max_intervals=3000)
    t1, s1 = run_continuous(cfg)
    t2, s2 = run_continuous(cfg)
    assert s1 == s2
    assert t1.series == t2.series
    for f1, f2 in zip(t1.frames, t2.frames):
        assert np.array_equal(f1.positions, f2.positions)


def test_capped_run_record_every_matches_full_cadence():
    cfg = ContinuousConfig(n=10, delta=0.1, spread=5.0, seed=5, max_intervals=7)
    trace, summary = run_continuous(cfg, record_every=3)
    full_trace, full_summary = run_continuous(cfg)
    assert summary.converged_step is None and summary == full_summary
    assert trace.series == full_trace.series
    assert [f.step for f in trace.frames] == [0, 3, 6, 7]
    full = {f.step: f for f in full_trace.frames}
    for f in trace.frames:
        ref = full[f.step]
        assert np.array_equal(f.positions, ref.positions)
        assert np.array_equal(f.headings, ref.headings)
        assert np.array_equal(f.moved, ref.moved)


@pytest.mark.parametrize("bad", [1.5, True, 0])
def test_run_rejects_a_non_integral_record_every(bad):
    with pytest.raises(ValueError, match="record_every"):
        run_continuous(ContinuousConfig(n=3, spread=2.0, seed=1), record_every=bad)


@pytest.mark.parametrize("k", [1, 4, 4094, 4095, 4096, 8190, 8191, 10_000])
def test_repeated_additions_match_the_plain_loop(k):
    # the elided substeps are accumulated in chunks of 4096 rows, the first
    # holding the positions: k = 4095 fills one chunk, 4096 starts a second
    rng = np.random.default_rng(k)
    x = rng.uniform(-100.0, 100.0, (3, 2))
    d = rng.uniform(-1e-3, 1e-3, (3, 2))
    plain = x.copy()
    for _ in range(k):
        plain += d
    assert np.array_equal(continuous._repeat_add(x, d, k), plain)


def test_run_matches_a_plain_interval_loop():
    # one continuous_interval(state, cfg, draw_headings(rng, n)) per
    # interval, across the run's heading block of 64 intervals and the cap
    # right after it
    cfg = ContinuousConfig(n=5, spread=10.0, seed=0, max_intervals=65)
    trace, summary = run_continuous(cfg)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    assert summary.converged_step is None and len(trace.frames) == 66
    for k, frame in enumerate(trace.frames):
        assert frame.step == k
        assert np.array_equal(frame.positions, state.positions)
        assert np.array_equal(frame.headings, state.headings)
        state = continuous_interval(state, cfg, draw_headings(rng, cfg.n))
