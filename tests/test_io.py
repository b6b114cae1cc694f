"""On-disk formats against reference writers."""

import csv

import numpy as np

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
    trace = Trace("discrete", [Frame(0, positions, headings, moved),
                               Frame(7, -positions, headings[::-1].copy(), ~moved)])
    assert_same_bytes(trace, tmp_path)
    assert "-0.0,0.0," in (tmp_path / "got.csv").read_text()


def test_trace_csv_matches_csv_writer_on_runs(tmp_path):
    for record_every in (1, 7):
        trace, _ = run_discrete(DiscreteConfig(n=12, seed=3, max_steps=40),
                                record_every=record_every)
        assert_same_bytes(trace, tmp_path)
    assert_same_bytes(Trace("discrete"), tmp_path)
