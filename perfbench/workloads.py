"""The benchmark's workloads: the gathersim command line each one runs, and
the check its outputs must pass.

Each workload turns a seed into one CLI argument list; the program sees only
those flags. A check reads the outputs after the timed run and either
returns the number of model steps the invocation performed (discrete jumps
or continuous unit intervals) or raises CheckFailed.
"""

import csv
import json
from pathlib import Path
from typing import Callable, NamedTuple

CONT_N = (5, 10)
CONT_REPS = 1
CONT_DELTA = 0.1
CONT_SPREAD = 5.0
CONT_CAP = 10_000  # the CLI's default interval cap, written out

DISC_N = (10, 20, 30, 40, 50, 60, 70, 80)
DISC_REPS = 2
DISC_CAP = 10_000
DISC_MIN_R = 0.9  # acceptance criterion 2

SIM_N = 640
SIM_STEPS = 50


class CheckFailed(Exception):
    """An output that the workload's check rejects."""


class Workload(NamedTuple):
    name: str
    why: str
    argv: Callable  # (seed, workdir) -> (cli argv, {output name: path})
    check: Callable  # (seed, outputs) -> model steps; raises CheckFailed


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary_rows(path, n_values, reps) -> list[dict]:
    rows = _read_csv(path)
    expected = [(n, rep) for n in n_values for rep in range(reps)]
    _require(len(rows) == len(expected), f"{len(rows)} summary rows, expected {len(expected)}")
    for row, (n, _) in zip(rows, expected):
        _require(int(row["n"]) == n, f"summary row {row['run_id']} has n={row['n']}, expected {n}")
        _require(row["converged_step"] != "", f"run {row['run_id']} (n={n}) did not converge")
    return rows


def _continuous_argv(seed, workdir):
    out = Path(workdir) / "sweep.csv"
    argv = ["sweep", "--model", "continuous", "--n-list", ",".join(map(str, CONT_N)),
            "--spread", repr(CONT_SPREAD), "--delta", repr(CONT_DELTA), "--substep", "0.001",
            "--steps", str(CONT_CAP), "--base-seed", str(seed), "--reps", str(CONT_REPS),
            "--out", str(out)]
    return argv, {"sweep.csv": out, "sweep.fit.json": out.with_name("sweep.fit.json")}


def _continuous_check(seed, outputs) -> int:
    """Criterion 3: every run is confined within the expected-time bound
    for its own initial diameter, rebuilt from the derived cell seed."""
    import numpy as np
    from gathersim.bounds import expected_time_bound
    from gathersim.continuous import ContinuousConfig
    from gathersim.rng import derive_seed, make_rng
    from gathersim.state import init_constellation

    rows = _summary_rows(outputs["sweep.csv"], CONT_N, CONT_REPS)
    steps = 0
    for row in rows:
        n = int(row["n"])
        rep = int(row["run_id"]) % CONT_REPS
        cell_seed = derive_seed(seed, n, rep)
        _require(int(row["seed"]) == cell_seed, f"run {row['run_id']} seed {row['seed']} "
                                                f"is not derive_seed({seed}, {n}, {rep})")
        cfg = ContinuousConfig(n=n, delta=CONT_DELTA, spread=CONT_SPREAD, seed=cell_seed)
        pos = init_constellation(cfg, make_rng(cell_seed)).positions
        d_max0 = float(np.sqrt(((pos[None] - pos[:, None]) ** 2).sum(-1)).max())
        bound = expected_time_bound(n, CONT_DELTA, d_max0)
        converged = int(row["converged_step"])
        _require(converged <= bound, f"run {row['run_id']} took {converged} intervals, "
                                     f"bound {bound:.6g}")
        steps += converged
    json.loads(Path(outputs["sweep.fit.json"]).read_text())
    return steps


def _discrete_argv(seed, workdir):
    out = Path(workdir) / "sweep.csv"
    argv = ["sweep", "--model", "discrete", "--n-list", ",".join(map(str, DISC_N)),
            "--spread", "50", "--steps", str(DISC_CAP), "--base-seed", str(seed),
            "--reps", str(DISC_REPS), "--out", str(out)]
    return argv, {"sweep.csv": out, "sweep.fit.json": out.with_name("sweep.fit.json")}


def _discrete_check(seed, outputs) -> int:
    """Criterion 2: no run is excluded from the fit, and mean convergence
    step grows linearly in n (Pearson r >= 0.9)."""
    rows = _summary_rows(outputs["sweep.csv"], DISC_N, DISC_REPS)
    fit = json.loads(Path(outputs["sweep.fit.json"]).read_text())
    _require(all(m["converged"] == m["runs"] for m in fit["n_means"]),
             "the fit excludes non-converged runs")
    _require(fit["pearson_r"] >= DISC_MIN_R, f"pearson_r {fit['pearson_r']} < {DISC_MIN_R}")
    return sum(int(row["converged_step"]) for row in rows)


def _sim_argv(seed, workdir):
    trace = Path(workdir) / "trace.csv"
    summary = Path(workdir) / "summary.csv"
    argv = ["sim", "--model", "discrete", "--n", str(SIM_N), "--spread", "50",
            "--seed", str(seed), "--steps", str(SIM_STEPS), "--record-every", "1",
            "--trace", str(trace), "--summary", str(summary)]
    return argv, {"trace.csv": trace, "summary.csv": summary}


def _sim_check(seed, outputs) -> int:
    """The trace holds every frame of every agent; the summary's radius is
    the enclosing disc of the last frame as re-read from the CSV; each moved
    flag agrees with the agent's position change since the previous frame."""
    import numpy as np
    from gathersim.geometry import min_enclosing_disc

    (summary,) = _read_csv(outputs["summary.csv"])
    # 640 agents from a 50x50 square cannot gather within SIM_STEPS unit jumps.
    _require(summary["converged_step"] == "", "the capped run reports convergence")
    rows = _read_csv(outputs["trace.csv"])
    frames = SIM_STEPS + 1
    _require(len(rows) == frames * SIM_N, f"{len(rows)} trace rows, expected {frames * SIM_N}")
    steps = np.array([int(r["step"]) for r in rows]).reshape(frames, SIM_N)
    agents = np.array([int(r["agent"]) for r in rows]).reshape(frames, SIM_N)
    _require((steps == np.arange(frames)[:, None]).all(), "trace steps are not 0..K per frame")
    _require((agents == np.arange(SIM_N)[None, :]).all(), "trace agents are not 0..n-1")
    pos = np.array([(float(r["x"]), float(r["y"])) for r in rows]).reshape(frames, SIM_N, 2)
    moved = np.array([r["moved"] == "1" for r in rows]).reshape(frames, SIM_N)
    radius = min_enclosing_disc(pos[-1]).radius
    _require(float(summary["final_radius"]) == radius,
             f"final_radius {summary['final_radius']} != last-frame disc {radius!r}")
    _require(not moved[0].any(), "frame 0 has moved flags set")
    changed = np.any(pos[1:] != pos[:-1], axis=2)
    bad = np.argwhere(changed != moved[1:])
    _require(len(bad) == 0, f"{len(bad)} moved flags disagree with the position change, "
                            f"first at (step, agent) {tuple(bad[0] + [1, 0]) if len(bad) else ()}")
    return SIM_STEPS


WORKLOADS = {w.name: w for w in (
    Workload("continuous_sweep",
             "criterion-3 shape; continuous_interval does nearly all the work",
             _continuous_argv, _continuous_check),
    Workload("discrete_sweep",
             "criterion-2 grid at small n; per-call overhead of discrete_step dominates",
             _discrete_argv, _discrete_check),
    Workload("traced_sim",
             "one n=640 discrete run with a full trace; dense kernel temporaries, "
             "enclosing disc per frame and trace CSV writing",
             _sim_argv, _sim_check),
)}
