"""Sweep orchestration, seed derivation and fitting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gathersim import harness
from gathersim.continuous import ContinuousConfig, run_continuous
from gathersim.discrete import DiscreteConfig, run_discrete
from gathersim.harness import (
    SweepConfig,
    fit_sweep,
    least_squares_fit,
    model_run,
    run_many,
    run_sweep,
)
from gathersim.rng import derive_seed, make_rng
from gathersim.state import RunSummary


# ------------------------------------------------------------- fitting


def test_fit_exact_line():
    fit = least_squares_fit([(0, 0), (1, 2), (2, 4)])
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept) < 1e-12
    assert abs(fit.pearson_r - 1.0) < 1e-12


def test_fit_constant_series():
    fit = least_squares_fit([(0, 1), (1, 1), (2, 1)])
    assert abs(fit.slope) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert fit.pearson_r == 0.0


def test_fit_noisy_slope_recovery():
    rng = np.random.default_rng(12)
    x = np.linspace(0, 10, 100)
    y = 3.0 * x + rng.uniform(-0.1, 0.1, 100)
    fit = least_squares_fit(list(zip(x, y)))
    assert 2.9 <= fit.slope <= 3.1
    assert abs(fit.pearson_r) <= 1.0


def test_fit_degenerate_inputs():
    with pytest.raises(ValueError):
        least_squares_fit([(1, 2)])
    with pytest.raises(ValueError):
        least_squares_fit([(1, 2), (1, 3), (1, 4)])  # zero x variance


# -------------------------------------------------------- seed derivation


def test_seed_derivation_stable():
    # frozen: the derivation is part of the reproducibility contract
    assert derive_seed(0, 1, 0) == derive_seed(0, 1, 0)
    assert derive_seed(0, 1, 0) != derive_seed(0, 1, 1)
    assert derive_seed(0, 1, 0) != derive_seed(0, 2, 0)
    assert derive_seed(1, 1, 0) != derive_seed(0, 1, 0)
    assert 0 <= derive_seed(2**64 - 1, 10**6, 10**6) < 2**64


@pytest.mark.parametrize("base_seed, n, rep", [
    (2**64, 2, 3), (-5, 2, 3), (True, 2, 3), (1.0, 2, 3), ("3", 2, 3),
    (0, -1, 3), (0, 2, -1), (0, 2.0, 3), (0, 2, True), (0, None, 3),
])
def test_seed_derivation_rejects_what_the_configs_reject(base_seed, n, rep):
    # a base seed outside [0, 2**64) used to be folded modulo 2**64, and a
    # bool taken as 0 or 1
    with pytest.raises(ValueError):
        derive_seed(base_seed, n, rep)


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "3", None, -1, 2**64])
def test_make_rng_rejects_what_the_configs_reject(seed):
    with pytest.raises(ValueError):
        make_rng(seed)


def test_seed_helpers_take_numpy_integers():
    # derive_seed used to raise OverflowError on a numpy base seed
    assert derive_seed(np.uint64(2**64 - 1), np.int64(2), np.int32(3)) == derive_seed(2**64 - 1, 2, 3)
    assert make_rng(np.uint64(7)).random() == make_rng(7).random()


def test_seed_collision_scan_million_cells():
    seeds = {derive_seed(123456789, n, rep) for n in range(1, 101) for rep in range(10_000)}
    assert len(seeds) == 1_000_000


# ------------------------------------------------------------- sweeps


def test_sweep_trivial_n1():
    cfg = SweepConfig(model="discrete", n_values=[1], reps=3, base_seed=9)
    summaries = run_sweep(cfg)
    assert len(summaries) == 3
    assert all(s.converged_step == 0 for s in summaries)
    assert [s.run_id for s in summaries] == [0, 1, 2]


def test_sweep_deterministic_and_sorted():
    cfg = SweepConfig(model="discrete", n_values=[10, 5], reps=2, base_seed=77,
                      max_steps=2000)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    assert [s.n for s in a] == [5, 5, 10, 10]
    assert [s.run_id for s in a] == list(range(4))
    # seeds are the documented derivation regardless of n_values order
    assert a[0].seed == derive_seed(77, 5, 0)
    assert a[2].seed == derive_seed(77, 10, 0)


def test_sweep_continuous_model():
    cfg = SweepConfig(model="continuous", n_values=[1, 2], reps=2, base_seed=3,
                      spread=2.0, delta=0.1, max_steps=2000)
    summaries = run_sweep(cfg)
    assert len(summaries) == 4
    assert all(s.converged_step is not None for s in summaries)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(model="quantum", n_values=[1], reps=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepConfig(model="discrete", n_values=[], reps=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepConfig(model="discrete", n_values=[1], reps=0, base_seed=0)
    with pytest.raises(ValueError):
        SweepConfig(model="discrete", n_values=[10, 10], reps=1, base_seed=0)


def test_model_run_keeps_each_config_default():
    assert harness.model_run("discrete", 3, 1) == (DiscreteConfig(n=3, seed=1), run_discrete)
    assert harness.model_run("continuous", 3, 1) == (ContinuousConfig(n=3, seed=1),
                                                     run_continuous)
    with pytest.raises(ValueError, match="unknown model"):
        harness.model_run("quantum", 3, 1)


@pytest.mark.parametrize("model,option,bad", [
    ("discrete", "delta", 0.1), ("continuous", "spread", -1.0),
    ("continuous", "spread", float("nan")), ("continuous", "substep", 0.3),
    ("discrete", "max_steps", 0),
])
def test_sweep_config_rejects_bad_run_options(model, option, bad):
    # rejected at construction, before any cell runs
    with pytest.raises(ValueError, match=option):
        SweepConfig(model=model, n_values=[2, 3], reps=1, base_seed=0, **{option: bad})


@pytest.mark.parametrize("field,bad", [
    ("n_values", [5, 2.5]), ("n_values", [True, 5]), ("n_values", [0, 5]),
    ("reps", 1.5), ("reps", True), ("base_seed", 0.5), ("base_seed", -1),
    ("base_seed", 1 << 64),
])
def test_sweep_config_rejects_non_integer_counts(field, bad):
    options = {"n_values": [5, 10], "reps": 1, "base_seed": 0, field: bad}
    with pytest.raises(ValueError, match=field):
        SweepConfig(model="discrete", **options)


def test_sweep_config_accepts_numpy_integers():
    cfg = SweepConfig(model="discrete", n_values=np.array([2, 3]), reps=np.int64(1),
                      base_seed=np.uint64(5), max_steps=3)
    assert [s.n for s in run_sweep(cfg)] == [2, 3]


def assert_no_child_process():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at_n10(config, **options):
    """`run_discrete`, except that its runs at n = 10 raise."""
    if config.n == 10:
        raise ValueError(f"run (n={config.n}, seed={config.seed}) failed")
    return run_discrete(config, **options)


def exit_at_n10(config, **options):
    """`run_discrete`, except that its runs at n = 10 end the process at
    once, as a killed worker would, without a result."""
    if config.n == 10:
        os._exit(3)
    return run_discrete(config, **options)


def unpicklable_at_n10(config, **options):
    """`run_discrete`, except that its runs at n = 10 raise an exception
    that cannot be pickled, so a worker cannot send it back."""
    if config.n == 10:
        raise ValueError(lambda: 0)
    return run_discrete(config, **options)


def use_jobs(monkeypatch, jobs):
    """Size every ensemble to `jobs` workers, whatever the usable CPUs."""
    monkeypatch.setattr(harness, "_ensemble_jobs", lambda runs: jobs)


PARALLEL_SWEEPS = [
    SweepConfig(model="discrete", n_values=[10, 5, 20], reps=2, base_seed=41,
                max_steps=3000),
    SweepConfig(model="continuous", n_values=[2, 3], reps=2, base_seed=8, spread=2.0,
                max_steps=2000),
]

# discrete and continuous runs interleaved, n neither sorted nor unique
MIXED_RUNS = [
    model_run("discrete", 20, 3, steps=3000),
    model_run("continuous", 3, 8, spread=2.0, steps=2000),
    model_run("discrete", 5, 4, steps=3000),
    model_run("continuous", 2, 1, spread=2.0, steps=2000),
    model_run("discrete", 20, 9, steps=3000),
]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_many_returns_each_runs_summary_in_input_order(jobs, monkeypatch):
    expected = [run(config, record_every=None)[1] for config, run in MIXED_RUNS]
    use_jobs(monkeypatch, jobs)
    assert run_many(MIXED_RUNS) == expected
    assert_no_child_process()


@pytest.mark.parametrize("cfg", PARALLEL_SWEEPS, ids=lambda c: c.model)
def test_sweep_summaries_do_not_depend_on_the_worker_count(cfg, monkeypatch):
    runs = {}
    for jobs in (1, 2):
        use_jobs(monkeypatch, jobs)
        runs[jobs] = run_sweep(cfg)
        assert_no_child_process()
    assert runs[1] == runs[2]
    assert [s.run_id for s in runs[2]] == list(range(len(runs[2])))


def test_run_error_reaches_the_caller_and_no_worker_outlives_it(monkeypatch):
    use_jobs(monkeypatch, 2)
    runs = [(DiscreteConfig(n=n, seed=seed, max_steps=500), fail_at_n10)
            for n in (5, 10, 20) for seed in (0, 1)]
    with pytest.raises(ValueError, match=r"run \(n=10, seed=\d\) failed"):
        run_many(runs)
    assert_no_child_process()
    # a sweep's run function comes from model_run, and its error reaches the
    # sweep's caller the same way
    monkeypatch.setattr(harness, "run_discrete", fail_at_n10)
    cfg = SweepConfig(model="discrete", n_values=[5, 10, 20], reps=2, base_seed=3,
                      max_steps=500)
    with pytest.raises(ValueError, match=r"run \(n=10, seed=\d+\) failed"):
        run_sweep(cfg)
    assert_no_child_process()


def test_a_worker_that_ends_without_a_result_names_its_run(monkeypatch):
    use_jobs(monkeypatch, 2)
    runs = [(DiscreteConfig(n=n, seed=seed, max_steps=500), exit_at_n10)
            for n in (5, 20, 10) for seed in (0, 1)]
    # the n = 10 runs are 4 and 5; whichever a worker took first ends the map
    with pytest.raises(RuntimeError, match=r"run [45] \(n=10, seed=[01]\) ended its worker"):
        run_many(runs)
    assert_no_child_process()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc")
@pytest.mark.parametrize("run, error, match", [
    (run_discrete, None, None),
    (fail_at_n10, ValueError, r"run \(n=10, seed=[01]\) failed"),
    (exit_at_n10, RuntimeError, r"run [45] \(n=10, seed=[01]\) ended its worker"),
    (unpicklable_at_n10, RuntimeError, r"run [45] \(n=10, seed=[01]\) ended its worker"),
], ids=["success", "run-error", "worker-exit", "unpicklable-error"])
def test_run_many_leaves_no_pipe_end_open(run, error, match, monkeypatch):
    # the n = 10 runs are 4 and 5; whichever a worker took first ends the map
    use_jobs(monkeypatch, 2)
    runs = [(DiscreteConfig(n=n, seed=seed, max_steps=500), run)
            for n in (5, 20, 10) for seed in (0, 1)]
    before = sorted(os.listdir("/proc/self/fd"))
    if error is None:
        assert len(run_many(runs)) == len(runs)
    else:
        with pytest.raises(error, match=match):
            run_many(runs)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_process()


def test_run_many_with_one_worker_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker ensemble forked a worker")

    use_jobs(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_pool)
    assert [s.n for s in run_many(MIXED_RUNS)] == [20, 3, 5, 2, 20]
    cfg = SweepConfig(model="discrete", n_values=[2, 3], reps=2, base_seed=5, max_steps=50)
    assert [s.n for s in run_sweep(cfg)] == [2, 2, 3, 3]


def test_an_empty_ensemble_returns_no_summaries_and_starts_no_pool(monkeypatch):
    # an empty ensemble used to size its pool to 0 workers, and Pool(0) raises
    def no_pool(*args, **kwargs):
        raise AssertionError("an empty ensemble forked a worker")

    monkeypatch.setattr(os, "fork", no_pool)
    assert run_many([]) == []


def test_ensemble_jobs_is_bounded_by_the_runs_and_the_usable_cpus(monkeypatch):
    # only the helper runs here: no worker is forked at these counts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)), raising=False)
    assert harness._ensemble_jobs(1) == 1
    assert harness._ensemble_jobs(160) == 160
    assert harness._ensemble_jobs(10 ** 6) == 4096
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert harness._ensemble_jobs(160) == 1
    # without an affinity mask the CPU count bounds it, and an unknown count is 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._ensemble_jobs(2) == 2
    assert harness._ensemble_jobs(160) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._ensemble_jobs(160) == 1
    # a platform without fork runs the ensemble in process
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delattr(os, "fork")
    assert harness._ensemble_jobs(160) == 1


def test_a_pooled_sweep_never_imports_multiprocessing(tmp_path):
    # run_many forks its own workers: importing multiprocessing and running
    # its Pool cost each pooled sweep about 15 ms
    code = (
        "import sys\n"
        "from gathersim import cli, harness\n"
        "harness._ensemble_jobs = lambda runs: 2\n"
        "assert cli.main(['sweep', '--model', 'continuous', '--n-list', '3,5', '--reps', '2',\n"
        "                 '--spread', '2', '--base-seed', '5', '--out', 'sweep.csv']) == 0\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    path = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True)
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 5


def test_fit_sweep_excludes_nonconverged():
    def s(run_id, n, step):
        return RunSummary(run_id, 0, n, 50.0, step, 1.0)

    summaries = [s(0, 10, 100), s(1, 10, 140), s(2, 10, None),
                 s(3, 20, 220), s(4, 20, 260), s(5, 20, None)]
    fit, n_means, excluded = fit_sweep(summaries)
    assert excluded == 2
    assert n_means == [
        {"n": 10, "mean": 120.0, "converged": 2, "runs": 3},
        {"n": 20, "mean": 240.0, "converged": 2, "runs": 3},
    ]
    assert abs(fit.slope - 12.0) < 1e-12
    # one converged agent count leaves no line to fit, and the error says so
    with pytest.raises(ValueError, match="2 agent counts"):
        fit_sweep([s(0, 10, 100), s(1, 20, None)])
