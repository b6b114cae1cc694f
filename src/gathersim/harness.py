"""Monte-Carlo experiment orchestration: seeded sweeps over agent counts,
the pooled map that runs them and any other ensemble (`run_many`), and
least-squares trend fitting of their convergence steps.
"""

import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .continuous import ContinuousConfig, run_continuous
from .discrete import DiscreteConfig, run_discrete
from .rng import SEED_LIMIT, check_integer, derive_seed
from .state import RunSummary


@dataclass
class SweepConfig:
    model: str  # "discrete" or "continuous"
    n_values: Sequence[int]
    reps: int
    base_seed: int
    spread: float | None = None  # config default when None
    delta: float | None = None  # continuous model only; config default when None
    substep: float | None = None  # continuous model only; config default when None
    max_steps: int | None = None  # per-run cap; model default when None

    def __post_init__(self):
        if len(self.n_values) == 0:
            raise ValueError("n_values must be non-empty")
        self.n_values = [check_integer("each n in n_values", n, 1) for n in self.n_values]
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError("n_values must not repeat")
        self.reps = check_integer("reps", self.reps, 1)
        self.base_seed = check_integer("base_seed", self.base_seed, 0, SEED_LIMIT)
        # the model and run options are checked here, by model_run and the
        # model config, so an invalid sweep fails where it is built, before
        # the caller opens an output or starts a run
        model_run(self.model, min(self.n_values), self.base_seed, self.spread, self.delta,
                  self.substep, self.max_steps)


class FitResult(NamedTuple):
    slope: float
    intercept: float
    pearson_r: float


def _given(**options) -> dict:
    return {k: v for k, v in options.items() if v is not None}


def model_run(model: str, n: int, seed: int, spread: float | None = None,
              delta: float | None = None, substep: float | None = None,
              steps: int | None = None):
    """(config, run function) of one seeded run of either model, from the
    options `sim` and `sweep` share. `steps` caps the run (discrete steps or
    unit intervals) and `delta`/`substep` are continuous only; each option
    keeps its config default when None, and the config checks the rest. An
    unknown model, or `delta` or `substep` given to the discrete model, is a
    ValueError."""
    if model == "discrete":
        if delta is not None or substep is not None:
            raise ValueError("delta and substep apply to the continuous model only")
        options = _given(spread=spread, max_steps=steps)
        return DiscreteConfig(n=n, seed=seed, **options), run_discrete
    if model == "continuous":
        options = _given(spread=spread, delta=delta, substep=substep, max_intervals=steps)
        return ContinuousConfig(n=n, seed=seed, **options), run_continuous
    raise ValueError(f"unknown model {model!r}")


def _run_untraced(config, run) -> RunSummary:
    """The summary of one run, untraced."""
    return run(config, record_every=None)[1]


def _ensemble_jobs(runs: int) -> int:
    """Worker processes for an ensemble of `runs` runs: the usable CPUs (the
    affinity mask where the platform has one), at most one per run, and 1
    where processes cannot be forked."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(runs, cpus)


def run_many(runs: Sequence[tuple]) -> list[RunSummary]:
    """The summaries of untraced runs of (config, run function) pairs, as
    `model_run` returns them, in input order.

    The runs go to a pool of forked workers, one per usable CPU (the
    process's affinity mask) up to one per run, largest n first (later runs
    first among equal n); with one usable CPU, or no `fork` start method,
    they run in this process, and an empty ensemble starts no pool. A config
    holds its run's seed, so the summaries are the same for every worker
    count. A run's exception reaches the caller, and no worker outlives the
    call.
    """
    jobs = _ensemble_jobs(len(runs))
    if jobs <= 1:
        return [_run_untraced(config, run) for config, run in runs]
    import multiprocessing

    order = sorted(range(len(runs)), key=lambda i: (runs[i][0].n, i), reverse=True)
    # fork, not spawn: a spawned worker re-imports numpy and gathersim,
    # which takes about as long as a small sweep. The pool forks its workers
    # before it starts its helper threads. Leaving the block terminates and
    # joins the workers, on success and on a run's exception alike.
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        done = pool.starmap(_run_untraced, [runs[i] for i in order], chunksize=1)
    return [summary for _, summary in sorted(zip(order, done))]


def run_sweep(config: SweepConfig) -> list[RunSummary]:
    """One run per (n, rep) cell, seeded by derive_seed(base_seed, n, rep).

    Summaries come back sorted by (n ascending, rep ascending) with run_id
    numbering that order, so the output is independent of execution order
    and of the worker count (`run_many`), and byte-stable for a fixed config.
    """
    cells = [(n, rep) for n in sorted(config.n_values) for rep in range(config.reps)]
    summaries = run_many([model_run(config.model, n, derive_seed(config.base_seed, n, rep),
                                    config.spread, config.delta, config.substep,
                                    config.max_steps)
                          for n, rep in cells])
    for run_id, summary in enumerate(summaries):
        summary.run_id = run_id
    return summaries


def least_squares_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares line through (x, y) points plus their Pearson
    correlation. Needs at least two distinct x values; a y series with zero
    variance gets pearson_r = 0.0 by convention."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("least_squares_fit needs >= 2 (x, y) points")
    x = pts[:, 0]
    y = pts[:, 1]
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("least_squares_fit needs >= 2 distinct x values")
    sxy = float(((x - x.mean()) * (y - y.mean())).sum())
    syy = float(((y - y.mean()) ** 2).sum())
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    r = sxy / np.sqrt(sxx * syy) if syy > 0.0 else 0.0
    return FitResult(slope, intercept, float(r))


def fit_sweep(summaries: Sequence[RunSummary]) -> tuple[FitResult, list[dict], int]:
    """Fit mean convergence step vs n over the converged runs of a sweep.

    Non-converged runs are excluded from the means (their count is returned
    so callers can warn); an n group with no converged runs drops out of the
    fit entirely, and fewer than two remaining groups is a ValueError.
    """
    groups: dict[int, list[RunSummary]] = {}
    for s in summaries:
        groups.setdefault(s.n, []).append(s)
    n_means = []
    excluded = 0
    for n in sorted(groups):
        runs = groups[n]
        steps = [s.converged_step for s in runs if s.converged_step is not None]
        excluded += len(runs) - len(steps)
        if steps:
            n_means.append({"n": n, "mean": float(np.mean(steps)),
                            "converged": len(steps), "runs": len(runs)})
    if len(n_means) < 2:
        raise ValueError(f"the fit needs converged runs at >= 2 agent counts; "
                         f"{len(n_means)} of {len(groups)} have one")
    fit = least_squares_fit([(m["n"], m["mean"]) for m in n_means])
    return fit, n_means, excluded
