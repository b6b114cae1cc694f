"""Monte-Carlo experiment orchestration: seeded sweeps over agent counts,
the pooled map that runs them and any other ensemble (`run_many`), and
least-squares trend fitting of their convergence steps.

`run_many` forks its workers itself and talks to each over two pipes that
carry streams of pickles, one run index out and one (ok, value) reply back
at a time; it does not use `multiprocessing`, whose import and pool
lifecycle cost each pooled sweep about 15 ms. A worker runs until it is
killed, and leaves only through `os._exit`.
"""

import os
import pickle
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
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(runs, cpus)


def run_many(runs: Sequence[tuple]) -> list[RunSummary]:
    """The summaries of untraced runs of (config, run function) pairs, as
    `model_run` returns them, in input order.

    The runs go to forked workers, one per usable CPU (the process's
    affinity mask) up to one per run, which take one run at a time, largest
    n first (later runs first among equal n), each the next as it finishes
    one; with one usable CPU, or no `os.fork`, they run in this process,
    and an empty ensemble starts no process. A config holds its run's seed,
    so the summaries are the same for every worker count.

    Each worker has two pipes, each a stream of pickles: this process dumps
    a run index into the task pipe, which is unbuffered, so an index goes
    out in one write and closing the pipe flushes nothing; then it loads the
    worker's (ok, value) reply from the reply pipe before it hands that
    worker another index. A run's exception reaches the caller, and a reply
    pipe that ends before a whole reply, as when its worker dies or cannot
    pickle its reply, is a RuntimeError naming the run. Every worker is
    killed and reaped, and every pipe end closed, before the call returns
    or raises.
    """
    jobs = _ensemble_jobs(len(runs))
    if jobs <= 1:
        return [_run_untraced(config, run) for config, run in runs]
    # imported here: a sweep in process needs neither
    import select
    import signal

    todo = sorted(range(len(runs)), key=lambda i: (runs[i][0].n, i))
    summaries = [None] * len(runs)
    pids = []
    workers = {}  # a worker's reply pipe -> (its task file, its reply file)
    busy = {}  # a worker's reply pipe -> the run it has
    poller = select.poll()
    try:
        # fork, not spawn: a spawned worker re-imports numpy and gathersim,
        # which takes about as long as a small sweep
        for _ in range(jobs):
            task_r, task_w = os.pipe()
            reply_r, reply_w = os.pipe()
            # this process closes the worker's ends before the next fork, so
            # only the worker holds its reply pipe's write end, and the pipe
            # ends once the worker dies
            with open(task_r, "rb") as tasks, open(reply_w, "wb") as replies:
                workers[reply_r] = open(task_w, "wb", buffering=0), open(reply_r, "rb")
                if (pid := os.fork()) == 0:
                    _serve(runs, tasks, replies, workers[reply_r])
                pids.append(pid)
            poller.register(reply_r, select.POLLIN)
            busy[reply_r] = todo.pop()
            pickle.dump(busy[reply_r], workers[reply_r][0])
        while busy:
            for fd, _ in poller.poll():
                i = busy.pop(fd)
                summaries[i] = _receive(workers[fd][1], i, runs[i][0])
                if todo:
                    busy[fd] = todo.pop()
                    pickle.dump(busy[fd], workers[fd][0])
                else:
                    poller.unregister(fd)
        return summaries
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for files in workers.values():
            for file in files:
                file.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(runs, tasks, replies, parent_ends):
    """The loop of a forked worker: load a run index from the tasks file,
    run it untraced and dump (True, summary), or (False, exception), into
    the replies file, one pickle each. It first closes the parent's ends of
    its own pipes, so that if the parent dies, its task pipe ends once the
    workers forked after it have ended. It runs until it is killed, or until
    its task pipe ends or a reply cannot be pickled, and leaves only through
    os._exit, so it never returns into the caller's stack, runs no atexit
    handler and flushes no inherited buffer."""
    try:
        for end in parent_ends:
            end.close()
        while True:
            config, run = runs[pickle.load(tasks)]
            try:
                reply = (True, _run_untraced(config, run))
            except Exception as exc:
                reply = (False, exc)
            pickle.dump(reply, replies)
            replies.flush()
    finally:
        os._exit(1)


def _receive(replies, i: int, config) -> RunSummary:
    """The summary of run i, loaded from its worker's reply file; the run's
    exception is raised again, and a reply pipe that ends before a whole
    reply is a RuntimeError."""
    try:
        ok, value = pickle.load(replies)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"run {i} (n={config.n}, seed={config.seed}) ended its worker "
                           f"without a result") from None
    if not ok:
        raise value
    return value


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
