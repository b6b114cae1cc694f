"""Frozen on-disk formats: trace/summary/series CSV and fit/bounds JSON.

Floats are written with repr (shortest round-trip), newlines are always
"\\n", and key order is fixed, so identical inputs produce byte-identical
files on every platform.
"""

import csv
import json
from dataclasses import asdict
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BoundsReport
from .harness import FitResult
from .state import RunSummary, Trace

TRACE_HEADER = ["step", "agent", "x", "y", "heading", "moved"]
SUMMARY_HEADER = ["run_id", "seed", "n", "spread", "converged_step", "final_radius"]
SERIES_HEADER = ["interval", "sec_radius", "lyapunov", "confined"]


# trace row pieces: the cached coordinate text, and the moved column by flag
_XY = "{!r},{!r},"
_MOVED = (",0\n", ",1\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per agent per recorded frame, written one frame at a time.

    Few agents move between frames, so the "x,y," text of each agent is kept
    from the previous recorded frame and re-formatted only where the
    coordinates differ bitwise (so 0.0 and -0.0 differ); the cache starts
    over when the agent count changes. Each frame is joined from per-column
    iterators without a Python-level loop over its rows.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        bits = None
        for frame in trace.frames:
            positions = np.ascontiguousarray(frame.positions, dtype=np.float64)
            now = positions.view(np.int64)
            n = len(positions)
            if bits is None or len(bits) != n:
                agents = list(map(",{},".format, range(n)))
                xy = list(map(_XY.format, *positions.T.tolist()))
            else:
                changed = np.flatnonzero((now != bits).any(axis=1)).tolist()
                for a, text in zip(changed, map(_XY.format, *positions[changed].T.tolist())):
                    xy[a] = text
            bits = now
            fh.write("".join(chain.from_iterable(zip(
                repeat(str(frame.step), n), agents, xy, map(repr, frame.headings.tolist()),
                map(_MOVED.__getitem__, frame.moved.tolist())))))


def write_summaries_csv(summaries: Sequence[RunSummary], path) -> None:
    """One row per run; converged_step is empty for capped runs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for s in summaries:
            writer.writerow([
                s.run_id,
                s.seed,
                s.n,
                _fmt(s.spread),
                "" if s.converged_step is None else s.converged_step,
                _fmt(s.final_radius),
            ])


def write_series_csv(trace: Trace, path) -> None:
    """Per-interval observables of a continuous run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SERIES_HEADER)
        for interval, radius, lyapunov, confined in trace.series:
            writer.writerow([interval, _fmt(radius), _fmt(lyapunov), int(confined)])


def series_path_for(trace_path) -> Path:
    """Where the per-interval series lands next to a trace file:
    foo.csv -> foo.series.csv."""
    p = Path(trace_path)
    return p.with_name(p.stem + ".series" + (p.suffix or ".csv"))


def fit_json_path_for(out_path) -> Path:
    """Where the fit report lands next to a sweep CSV: foo.csv -> foo.fit.json."""
    p = Path(out_path)
    return p.with_name(p.stem + ".fit.json")


def write_fit_json(fit: FitResult, n_means: list[dict], path) -> None:
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "pearson_r": fit.pearson_r,
        "n_means": n_means,
    }
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def bounds_json(report: BoundsReport) -> str:
    """BoundsReport as a JSON object, keys in field order."""
    return json.dumps(asdict(report), indent=2)
