"""Frozen on-disk formats: trace/summary/series CSV and fit/bounds JSON.

Floats are written with repr (shortest round-trip), newlines are always
"\\n", and key order is fixed, so identical inputs produce byte-identical
files on every platform.
"""

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .bounds import BoundsReport
from .harness import FitResult
from .state import RunSummary, Trace

TRACE_HEADER = ["step", "agent", "x", "y", "heading", "moved"]
SUMMARY_HEADER = ["run_id", "seed", "n", "spread", "converged_step", "final_radius"]
SERIES_HEADER = ["interval", "sec_radius", "lyapunov", "confined"]


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per agent per recorded frame, written one frame at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for frame in trace.frames:
            rows = zip(frame.positions.tolist(), frame.headings.tolist(), frame.moved.tolist())
            fh.write("".join(f"{frame.step},{a},{x!r},{y!r},{h!r},{int(m)}\n"
                             for a, ((x, y), h, m) in enumerate(rows)))


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
