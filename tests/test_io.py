"""On-disk formats against reference writers."""

import csv

import numpy as np

from gathersim.continuous import ContinuousConfig, run_continuous
from gathersim.discrete import DiscreteConfig, run_discrete
from gathersim.io import TRACE_HEADER, write_trace_csv
from gathersim.state import Frame, Trace


def reference_trace_csv(trace: Trace, path) -> None:
    """The trace format as one csv.writer row per agent per frame."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for frame in trace.frames:
            for agent in range(len(frame.positions)):
                writer.writerow([
                    frame.step,
                    agent,
                    repr(float(frame.positions[agent, 0])),
                    repr(float(frame.positions[agent, 1])),
                    repr(float(frame.headings[agent])),
                    int(frame.moved[agent]),
                ])


def assert_same_bytes(trace, tmp_path):
    write_trace_csv(trace, tmp_path / "got.csv")
    reference_trace_csv(trace, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_trace_csv_matches_csv_writer_on_edge_values(tmp_path):
    # signed zeros, values that repr in exponent form, subnormals, integers
    positions = np.array([[-0.0, 0.0], [1e-05, -2.5e-17], [1.5e+20, 5e-324],
                          [3.0, -7.0], [0.1 + 0.2, -1e16]])
    headings = np.array([0.0, -0.0, 6.283185307179586, 1e-300, 2.0])
    moved = np.array([False, True, True, False, True])
    trace = Trace([Frame(0, positions, headings, moved),
                   Frame(7, -positions, headings[::-1].copy(), ~moved)])
    assert_same_bytes(trace, tmp_path)
    assert "-0.0,0.0," in (tmp_path / "got.csv").read_text()


def test_trace_csv_matches_csv_writer_on_runs(tmp_path):
    for record_every in (1, 7):
        trace, _ = run_discrete(DiscreteConfig(n=12, seed=3, max_steps=40),
                                record_every=record_every)
        assert_same_bytes(trace, tmp_path)
    assert_same_bytes(Trace(), tmp_path)


def test_trace_csv_matches_csv_writer_above_the_witness_threshold(tmp_path):
    # above 80 agents the discrete sensor takes its witness path and few
    # agents move per step, so most rows reuse the previous frame's text
    for record_every in (1, 3):
        trace, _ = run_discrete(DiscreteConfig(n=100, seed=1, max_steps=30),
                                record_every=record_every)
        assert_same_bytes(trace, tmp_path)


def test_trace_csv_matches_csv_writer_on_a_continuous_run(tmp_path):
    # the movers change from interval to interval, by fractions of a unit
    config = ContinuousConfig(n=4, spread=2.0, seed=1, max_intervals=6)
    for record_every in (1, 2):
        trace, _ = run_continuous(config, record_every=record_every)
        assert any(0 < frame.moved.sum() < 4 for frame in trace.frames)
        assert_same_bytes(trace, tmp_path)


def test_trace_csv_agent_moves_away_and_back(tmp_path):
    # the text follows the coordinates of the previous recorded frame, not
    # the moved flags: agent 1 leaves and returns to bitwise-equal
    # coordinates, and agent 2 is flagged as moved without moving
    home = np.array([[0.1, 0.2], [0.3 + 0.6, -1.5], [2.0, 1e-07]])
    away = home.copy()
    away[1] = [0.9, -1.5000000000000002]
    headings = np.array([0.5, 1.5, 2.5])
    trace = Trace([
        Frame(0, home, headings, np.zeros(3, dtype=bool)),
        Frame(3, away, headings, np.array([False, True, True])),
        Frame(6, home.copy(), headings, np.array([False, True, False])),
        Frame(9, away.copy(), headings, np.zeros(3, dtype=bool)),
    ])
    assert_same_bytes(trace, tmp_path)


def test_trace_csv_agent_count_changes_between_frames(tmp_path):
    rng = np.random.default_rng(5)
    frames = []
    for step, n in enumerate((3, 5, 5, 2, 3)):
        frames.append(Frame(step, rng.normal(size=(n, 2)), rng.uniform(0.0, 6.0, n),
                            rng.random(n) < 0.5))
    frames[2].positions[:3] = frames[1].positions[:3]
    frames[4].positions[:2] = frames[3].positions
    assert_same_bytes(Trace(frames), tmp_path)
