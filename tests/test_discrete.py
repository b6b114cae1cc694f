"""Discrete jump process: law of motion, synchrony, reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gathersim import geometry
from gathersim.continuous import ContinuousConfig, _interval, continuous_interval, run_continuous
from gathersim.discrete import DiscreteConfig, _far_steps, _jump, discrete_step, run_discrete
from gathersim.geometry import convex_hull, min_enclosing_disc
from gathersim.rng import make_rng
from gathersim.state import (_BLOCK_HEADINGS, _BLOCK_STEPS, Constellation, draw_headings,
                             init_constellation)


def test_config_validation():
    with pytest.raises(ValueError):
        DiscreteConfig(n=0)
    with pytest.raises(ValueError):
        DiscreteConfig(n=1, spread=0.0)
    with pytest.raises(ValueError):
        DiscreteConfig(n=1, max_steps=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            DiscreteConfig(n=1, spread=bad)


@pytest.mark.parametrize("field,bad", [
    ("n", 2.5), ("n", True), ("max_steps", 2.5), ("max_steps", True),
    ("seed", 1.5), ("seed", -1), ("seed", 1 << 64), ("seed", "3"),
])
def test_config_rejects_non_integer_counts(field, bad):
    with pytest.raises(ValueError, match=field):
        DiscreteConfig(**{"n": 3, field: bad})


def test_config_accepts_numpy_integers():
    cfg = DiscreteConfig(n=np.int64(3), seed=np.uint32(7), max_steps=np.int16(9))
    _, summary = run_discrete(cfg)
    assert summary.n == 3


# -------------------------------------------------------------- init


def test_init_single_agent_in_square():
    cfg = DiscreteConfig(n=1, spread=50.0, seed=3)
    state = init_constellation(cfg, make_rng(cfg.seed))
    assert state.positions.shape == (1, 2)
    assert (state.positions >= 0).all() and (state.positions <= 50).all()
    assert 0 <= state.headings[0] < 2 * math.pi


def test_init_deterministic():
    cfg = DiscreteConfig(n=25, seed=99)
    a = init_constellation(cfg, make_rng(cfg.seed))
    b = init_constellation(cfg, make_rng(cfg.seed))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.headings, b.headings)


def test_init_uniform_mean():
    # law-of-large-numbers check: mean of 1e4 uniforms on [0, 50] is 25
    # within +-1 (about 7 sigma of the sample mean)
    cfg = DiscreteConfig(n=10_000, spread=50.0, seed=11)
    state = init_constellation(cfg, make_rng(cfg.seed))
    mean = state.positions.mean(axis=0)
    assert abs(mean[0] - 25.0) < 1.0 and abs(mean[1] - 25.0) < 1.0
    assert ((state.headings >= 0) & (state.headings < 2 * math.pi)).all()


# -------------------------------------------------------------- step


def test_single_agent_always_jumps():
    cfg = DiscreteConfig(n=1, seed=1)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    for _ in range(10):
        new = discrete_step(state, cfg, draw_headings(rng, cfg.n))
        assert math.isclose(np.hypot(*(new.positions[0] - state.positions[0])), 1.0,
                            abs_tol=1e-12)
        state = new


def test_adversarial_two_agent_divergence():
    # forced perpendicular-ish opposing headings from distance 1: both back
    # half-planes are empty, both jump, and the distance grows to
    # sqrt(5 - 4 sin 0.1) in one step
    cfg = DiscreteConfig(n=2, seed=0)
    state = Constellation(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    chi = math.atan2(math.cos(0.1), math.sin(0.1))
    new = discrete_step(state, cfg, headings=np.array([chi, chi + math.pi]))
    moved = np.any(new.positions != state.positions, axis=1)
    assert moved.all()
    dist = np.hypot(*(new.positions[1] - new.positions[0]))
    assert abs(dist - math.sqrt(5.0 - 4.0 * math.sin(0.1))) < 1e-9
    assert dist > 1.0


def test_movers_jump_exactly_one_unit():
    cfg = DiscreteConfig(n=20, seed=5)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    for _ in range(50):
        new = discrete_step(state, cfg, draw_headings(rng, cfg.n))
        disp = np.hypot(new.positions[:, 0] - state.positions[:, 0],
                        new.positions[:, 1] - state.positions[:, 1])
        moved = disp > 0
        assert np.allclose(disp[moved], 1.0, atol=1e-12)
        state = new


def test_only_hull_vertices_move():
    cfg = DiscreteConfig(n=30, seed=8)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    for _ in range(200):
        hull_idx = set(convex_hull(state.positions).indices.tolist())
        new = discrete_step(state, cfg, draw_headings(rng, cfg.n))
        movers = set(np.nonzero(np.any(new.positions != state.positions, axis=1))[0].tolist())
        assert movers <= hull_idx
        state = new


def test_synchrony_under_index_permutation():
    # permuting agents and permuting the heading draws identically permutes
    # the outcome, bit for bit: sensing sees only the step-k snapshot
    cfg = DiscreteConfig(n=12, seed=21)
    rng = make_rng(cfg.seed)
    state = init_constellation(cfg, rng)
    chi = rng.uniform(0, 2 * math.pi, cfg.n)
    perm = np.random.default_rng(1).permutation(cfg.n)
    direct = discrete_step(state, cfg, headings=chi)
    permuted_state = Constellation(state.positions[perm].copy(), state.headings[perm].copy())
    permuted = discrete_step(permuted_state, cfg, headings=chi[perm])
    assert np.array_equal(permuted.positions, direct.positions[perm])


@pytest.mark.parametrize("where,bad", [("heading", math.nan), ("heading", math.inf),
                                       ("position", math.nan), ("position", math.inf)],
                         ids=["nan", "inf", "position-nan", "position-inf"])
@pytest.mark.parametrize("step,cfg", [(discrete_step, DiscreteConfig(n=3)),
                                      (continuous_interval, ContinuousConfig(n=3))],
                         ids=["discrete", "continuous"])
def test_step_rejects_non_finite_headings(step, cfg, where, bad):
    # a NaN heading fails every sensor comparison, so the agent would count
    # as free and move to NaN; a NaN position used to be moved by the
    # discrete step and to fail inside the continuous repeat counts. The
    # position is written after the state was built, so the step itself
    # must check it.
    state = Constellation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3))
    if where == "position":
        state.positions[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        step(state, cfg, headings=[bad if where == "heading" else 0.0, 0.0, 1.0])


@pytest.mark.parametrize("step,cfg", [(discrete_step, DiscreteConfig(n=3)),
                                      (continuous_interval, ContinuousConfig(n=3))],
                         ids=["discrete", "continuous"])
def test_step_rejects_headings_of_the_wrong_length(step, cfg):
    state = Constellation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3))
    with pytest.raises(ValueError, match="headings length"):
        step(state, cfg, headings=[0.0, 1.0])


def move_cases():
    """(positions, headings) frames for a model's move: a square whose agents
    all face its centre, so that every agent is free; random frames, one
    clustered so that its pairs start within the blind zone; and the square
    with every agent facing outwards, so that every agent is blocked."""
    rng = np.random.default_rng(5)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    outwards = np.arctan2(square[:, 1] - 0.5, square[:, 0] - 0.5)
    return ([(square, outwards + math.pi)]
            + [(rng.uniform(0.0, spread, (4, 2)), rng.uniform(0.0, 2 * math.pi, 4))
               for spread in (3.0, 0.15)]
            + [(square, outwards)])


@pytest.mark.parametrize("move,cfg", [(_jump, DiscreteConfig(n=4)),
                                      (_interval, ContinuousConfig(n=4))],
                         ids=["discrete", "continuous"])
def test_a_move_leaves_its_input_unchanged(move, cfg):
    # the run loop keeps the previous positions for the moved flags; a move
    # may return its input as it is only when no agent moves
    unchanged = []
    for positions, headings in move_cases():
        before = positions.tobytes()
        out = move(positions, cfg, np.cos(headings), np.sin(headings))
        assert positions.tobytes() == before
        unchanged.append(np.array_equal(out, positions))
    assert unchanged[0] is False and unchanged[-1] is True


@pytest.mark.parametrize("positions, headings, message", [
    (np.zeros(3), np.zeros(3), "shape"),
    (np.zeros((3, 3)), np.zeros(3), "shape"),
    (np.zeros((3, 2)), np.zeros(2), "headings length"),
    (np.zeros((0, 2)), np.zeros(0), "at least one agent"),
])
def test_constellation_rejects_mismatched_shapes(positions, headings, message):
    with pytest.raises(ValueError, match=message):
        Constellation(positions, headings)


# -------------------------------------------------------------- run

RUNS = pytest.mark.parametrize("run,cfg", [
    (run_discrete, DiscreteConfig(n=2, max_steps=3)),
    (run_continuous, ContinuousConfig(n=2, max_intervals=2)),
], ids=["discrete", "continuous"])


@pytest.mark.parametrize("run,cfg,cap_field", [
    (run_discrete, DiscreteConfig(n=10, spread=20.0, seed=3), "max_steps"),
    (run_continuous, ContinuousConfig(n=3, spread=2.0, seed=1), "max_intervals"),
], ids=["discrete", "continuous"])
def test_final_radius_is_the_disc_of_the_last_frame(run, cfg, cap_field):
    # converged, capped one step short of it (the last observation of a
    # discrete run computed a disc) and capped early (it computed none)
    steps = run(cfg, record_every=None)[1].converged_step
    assert steps is not None and steps > 5
    for cap in (None, steps - 1, 5):
        capped = cfg if cap is None else replace(cfg, **{cap_field: cap})
        trace, summary = run(capped, record_every=7)
        assert summary.converged_step == (steps if cap is None else None)
        assert summary.final_radius == min_enclosing_disc(trace.frames[-1].positions).radius


def test_run_single_agent_converges_immediately():
    cfg = DiscreteConfig(n=1, seed=4)
    trace, summary = run_discrete(cfg)
    assert summary.converged_step == 0
    assert summary.final_radius == 0.0
    assert trace.frames[0].step == 0


def test_run_close_pair_converges_at_step_zero():
    cfg = DiscreteConfig(n=2, seed=4)
    initial = Constellation(np.array([[0.0, 0.0], [0.5, 0.0]]), np.zeros(2))
    _, summary = run_discrete(cfg, initial=initial)
    assert summary.converged_step == 0
    assert math.isclose(summary.final_radius, 0.25, abs_tol=1e-12)


# half-width 1 + 2^-52, above 1 but within the containment margin _DISC_EPS
# of min_enclosing_disc, which gives it radius 1
GATE_EDGE_FRAME = [(-1.0, 0.0), (1.0 + 2.0 ** -51, 0.0), (1.0, 0.0)]


def test_run_within_the_disc_margin_converges_at_step_zero():
    # the box gate must not skip a frame that the disc calls gathered
    initial = Constellation(np.array(GATE_EDGE_FRAME), np.zeros(3))
    _, summary = run_discrete(DiscreteConfig(n=3, max_steps=10), initial=initial)
    assert min_enclosing_disc(initial.positions).radius == 1.0
    assert summary.converged_step == 0


@pytest.mark.parametrize("positions, headings", [
    ([[0.0, 0.0], [1.0, 1.0]], [math.nan, 0.0]),
    ([[0.0, 0.0], [1.0, 1.0]], [0.0, math.inf]),
    ([[0.0, math.nan], [1.0, 1.0]], [0.0, 0.0]),
    ([[0.0, 0.0], [-math.inf, 1.0]], [0.0, 0.0]),
])
def test_run_rejects_a_non_finite_initial(positions, headings):
    # a NaN heading used to reach frame 0 of a run reported as converged;
    # such a start is now rejected when it is built
    with pytest.raises(ValueError, match="finite"):
        run_discrete(DiscreteConfig(n=2, max_steps=3), initial=Constellation(positions, headings))


@RUNS
@pytest.mark.parametrize("heading", [7.0, -1.0, 2 * math.pi])
def test_run_rejects_an_initial_heading_outside_the_circle(run, cfg, heading):
    # such a heading used to be recorded in frame 0 as given
    initial = Constellation([[0.0, 0.0], [5.0, 5.0]], [heading, 0.0])
    with pytest.raises(ValueError, match="initial"):
        run(cfg, initial=initial)


@RUNS
def test_run_checks_an_initial_written_after_it_was_built(run, cfg):
    # a run builds its start again, as a step does its state, so a position
    # made NaN in place does not reach the observer
    initial = Constellation([[0.0, 0.0], [5.0, 5.0]], [0.0, 1.0])
    initial.positions[0, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        run(cfg, initial=initial)


@RUNS
def test_run_accepts_initial_headings_at_both_ends_of_the_circle(run, cfg):
    headings = [0.0, float(np.nextafter(2 * np.pi, 0))]
    trace, _ = run(cfg, initial=Constellation([[0.0, 0.0], [5.0, 5.0]], headings))
    assert trace.frames[0].headings.tolist() == headings


@RUNS
def test_run_rejects_an_initial_of_another_size(run, cfg):
    initial = Constellation(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="config.n"):
        run(cfg, initial=initial)


def test_run_deterministic_trace():
    cfg = DiscreteConfig(n=15, seed=17)
    t1, s1 = run_discrete(cfg)
    t2, s2 = run_discrete(cfg)
    assert s1 == s2
    assert len(t1.frames) == len(t2.frames)
    for f1, f2 in zip(t1.frames, t2.frames):
        assert f1.step == f2.step
        assert np.array_equal(f1.positions, f2.positions)
        assert np.array_equal(f1.moved, f2.moved)


def test_run_record_every_cadence():
    cfg = DiscreteConfig(n=10, seed=13)
    trace, summary = run_discrete(cfg, record_every=25)
    steps = [f.step for f in trace.frames]
    assert steps[0] == 0
    assert steps == sorted(set(steps))
    assert steps[-1] == summary.converged_step
    assert all(s % 25 == 0 for s in steps[:-1])
    # each recorded frame, moved flags included, is the same-step frame of a
    # full-cadence run: flags compare with the previous step, not frame
    full = {f.step: f for f in run_discrete(cfg)[0].frames}
    for f in trace.frames:
        ref = full[f.step]
        assert np.array_equal(f.positions, ref.positions)
        assert np.array_equal(f.headings, ref.headings)
        assert np.array_equal(f.moved, ref.moved)


@pytest.mark.parametrize("bad", [1.5, True, 0])
def test_run_rejects_a_non_integral_record_every(bad):
    # 1.5 used to record frames 0, 3, 6, ... and True was taken as 1
    with pytest.raises(ValueError, match="record_every"):
        run_discrete(DiscreteConfig(n=5, seed=1), record_every=bad)


def test_capped_run_computes_the_disc_once(monkeypatch):
    # far from convergence the observer never needs the exact disc; the
    # summary's final radius is its only call
    calls = []

    def counted(points):
        calls.append(len(points))
        return min_enclosing_disc(points)

    monkeypatch.setattr("gathersim.discrete.min_enclosing_disc", counted)
    monkeypatch.setattr("gathersim.state.min_enclosing_disc", counted)
    trace, summary = run_discrete(DiscreteConfig(n=40, spread=50.0, seed=2, max_steps=5))
    assert summary.converged_step is None
    assert len(trace.frames) == 6
    assert calls == [40]
    assert summary.final_radius == min_enclosing_disc(trace.frames[-1].positions).radius


def test_run_identical_on_both_sensor_paths(monkeypatch):
    # n = 200 runs on the witness path by default; forcing the dense kernel
    # must not change a single frame or the summary
    cfg = DiscreteConfig(n=200, spread=50.0, seed=6)
    monkeypatch.setattr(geometry, "_DENSE_MAX_N", 0)
    witness_trace, witness_summary = run_discrete(cfg)
    monkeypatch.setattr(geometry, "_DENSE_MAX_N", 10**9)
    dense_trace, dense_summary = run_discrete(cfg)
    assert witness_summary == dense_summary
    assert witness_summary.converged_step is not None
    assert len(witness_trace.frames) == len(dense_trace.frames)
    for a, b in zip(witness_trace.frames, dense_trace.frames):
        assert a.step == b.step
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.headings, b.headings)
        assert np.array_equal(a.moved, b.moved)


def test_run_nonconvergence_is_a_data_outcome():
    cfg = DiscreteConfig(n=40, seed=2, max_steps=5)
    _, summary = run_discrete(cfg)
    assert summary.converged_step is None
    assert summary.final_radius > 1.0


def test_trace_frame_zero_is_initial():
    cfg = DiscreteConfig(n=6, seed=30)
    trace, _ = run_discrete(cfg)
    ref = init_constellation(cfg, make_rng(cfg.seed))
    assert np.array_equal(trace.frames[0].positions, ref.positions)
    assert not trace.frames[0].moved.any()


# ------------------------------------------------- reference loop


def reference_run(cfg, record_every=1, initial=None):
    """run_discrete as a plain loop: one discrete_step(state, cfg,
    draw_headings(rng, n)) per step, and the bounding box, then the disc,
    checked at every step. Returns the frames as (step, positions, headings,
    moved) and the summary's (converged_step, final_radius)."""
    rng = make_rng(cfg.seed)
    state = initial if initial is not None else init_constellation(cfg, rng)
    frames = []
    prev = state.positions
    k = 0
    while True:
        pos = state.positions
        half = max(pos[:, 0].max() - pos[:, 0].min(), pos[:, 1].max() - pos[:, 1].min()) / 2.0
        radius = None if half > 1.0 else min_enclosing_disc(pos).radius
        converged = radius is not None and radius <= 1.0
        last = converged or k >= cfg.max_steps
        if last or k % record_every == 0:
            frames.append((k, pos.copy(), state.headings.copy(),
                           np.any(pos != prev, axis=1)))
        if last:
            break
        prev = pos
        state = discrete_step(state, cfg, draw_headings(rng, cfg.n))
        k += 1
    if radius is None:
        radius = min_enclosing_disc(state.positions).radius
    return frames, (k if converged else None, radius)


def assert_matches_reference(cfg, record_every, initial=None):
    trace, summary = run_discrete(cfg, record_every=record_every, initial=initial)
    frames, (converged_step, final_radius) = reference_run(cfg, record_every, initial)
    assert (summary.converged_step, summary.final_radius) == (converged_step, final_radius)
    assert len(trace.frames) == len(frames)
    for got, (step, positions, headings, moved) in zip(trace.frames, frames):
        assert got.step == step
        assert np.array_equal(got.positions, positions)
        assert np.array_equal(got.headings, headings)
        assert np.array_equal(got.moved, moved)
    return summary


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 10, 80, 81, 200])
def test_run_matches_the_reference_loop(n, record_every):
    # converged runs across many heading blocks, on both sensor paths
    summary = assert_matches_reference(DiscreteConfig(n=n, spread=20.0, seed=n), record_every)
    assert summary.converged_step is not None


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("cap", [63, 64, 65, 129])
@pytest.mark.parametrize("n", [10, 81])
def test_capped_run_matches_the_reference_loop(n, cap, record_every):
    # n = 10 draws blocks of 64 steps and n = 81 blocks of 50 (4096
    # headings); the caps fall on both sides of a block boundary, and a block
    # never runs past the cap
    assert min(_BLOCK_STEPS, _BLOCK_HEADINGS // n) == {10: 64, 81: 50}[n]
    summary = assert_matches_reference(DiscreteConfig(n=n, spread=50.0, seed=4, max_steps=cap),
                                       record_every)
    assert summary.converged_step is None


@pytest.mark.parametrize("offset", [2.0 ** 52 - 40, 2.0 ** 53 - 20])
def test_run_near_2_pow_53_matches_the_reference_loop(offset):
    # coordinates cross 2^53, where a jump can move one by 2
    cfg = DiscreteConfig(n=10, spread=40.0, seed=3, max_steps=129)
    initial = init_constellation(cfg, make_rng(99))
    initial.positions += offset
    assert_matches_reference(cfg, 1, initial)


@pytest.mark.parametrize("offset", [0.0, 2.0 ** 52 - 40, 2.0 ** 53 - 20])
@pytest.mark.parametrize("side", [41.0, 40.5, 4.0, 3.0])
def test_far_steps_hold_when_the_box_shrinks_fastest(offset, side):
    # two agents facing each other along x, with cosines exactly +-1, close
    # the box by the most a jump allows (1 each, and 2 on a jump where x + 1
    # ties to even); every promised step must still have a half-width above 1
    pos = np.array([[offset, 0.0], [offset + side, 0.0]])
    cfg = DiscreteConfig(n=2)
    headings = np.array([0.0, math.pi])
    assert (np.cos(headings) == [1.0, -1.0]).all()
    state = Constellation(pos, np.zeros(2))
    far = _far_steps(state.positions)
    assert far >= 1
    for _ in range(far):
        x = state.positions[:, 0]
        assert (x.max() - x.min()) / 2.0 > 1.0
        state = discrete_step(state, cfg, headings=headings)


# Sides of the frames of the box-gate lemma: just above 2, where the gate's
# half-width w = side / 2 first exceeds 1, and well above and below it.
LEMMA_SIDES = [2.0 + 2.0 ** -51, 2.0 + 2.0 ** -49, 2.0 + 1e-12, 2.000001, 2.0, 1.5, 2.5, 40.0]
LEMMA_OFFSETS = [0.0, 1e8, 2.0 ** 52 - 64.0, 2.0 ** 52]


def lemma_frame(kind, side, rng):
    """One frame of `kind` whose wider bounding-box side is about `side`,
    before its offset; the gate-edge frame is the same for every side."""
    n = int(rng.integers(2, 12))
    t = np.concatenate([[0.0, side], rng.uniform(0.0, side, n - 2)])
    if kind == "axis":
        pos = np.stack([t, np.full(n, rng.uniform(-3.0, 3.0))], axis=1)
        return pos[:, ::-1] if rng.random() < 0.5 else pos
    if kind == "diagonal":
        return np.stack([t, rng.choice([1.0, -1.0, 0.5, -2.0]) * t], axis=1)
    if kind == "gate-edge":
        return np.array(GATE_EDGE_FRAME)
    if kind == "coincident":
        return np.tile(rng.uniform(-3.0, 3.0, 2), (n, 1))
    if kind == "two-point":
        a = rng.choice([0.0, math.pi / 2, rng.uniform(0.0, 2 * math.pi)])
        return np.array([[0.0, 0.0], [side * math.cos(a), side * math.sin(a)]])
    if kind == "regular":
        a = rng.uniform(0.0, 2 * math.pi) + 2 * math.pi * np.arange(n) / n
    else:  # cocircular, with a diameter along x
        a = np.concatenate([[0.0, math.pi], rng.uniform(0.0, 2 * math.pi, n - 2)])
    return np.stack([np.cos(a), np.sin(a)], axis=1) * (side / 2.0)


@pytest.mark.parametrize("kind", ["axis", "diagonal", "coincident", "two-point", "cocircular",
                                  "regular", "gate-edge"])
def test_disc_radius_bounds_the_box_gate(kind):
    # the lemma the observer's box gate relies on: the radius that
    # min_enclosing_disc computes is at least half the wider side of the
    # bounding box, divided by _DISC_EPS. Its containment test admits a
    # point up to radius * _DISC_EPS from the centre, which is the margin:
    # the gate-edge frame has half-width 1 + 2^-52 and radius 1. So a frame
    # with _far_steps > 0 (half-width above _DISC_EPS) is never one the disc
    # would call gathered.
    rng = np.random.default_rng(len(kind))
    for side in LEMMA_SIDES:
        for offset in LEMMA_OFFSETS:
            for _ in range(20):
                pos = lemma_frame(kind, side, rng) + offset
                radius = min_enclosing_disc(pos).radius
                half = float((pos.max(axis=0) - pos.min(axis=0)).max()) / 2.0
                assert half <= radius * geometry._DISC_EPS, (kind, side, offset)
                if _far_steps(pos) > 0:
                    assert radius > 1.0, (kind, side, offset)


def test_heading_block_cosines_equal_each_rows():
    # the premise of drawing a run's headings in blocks: the cosine and sine
    # of a block equal those of each row on its own
    for n in list(range(1, 100)) + [640, 2560]:
        rows = max(1, min(_BLOCK_STEPS, _BLOCK_HEADINGS // n))
        block = make_rng(n).uniform(0.0, 2 * math.pi, (rows, n))
        cos, sin = np.cos(block), np.sin(block)
        for r in range(rows):
            assert np.array_equal(cos[r], np.cos(block[r])), (n, r)
            assert np.array_equal(sin[r], np.sin(block[r])), (n, r)
