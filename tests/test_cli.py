"""CLI surface: flags, file formats, exit codes, byte-level determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gathersim import harness
from gathersim.cli import main
from test_harness import assert_no_child_process, fail_at_n10, use_jobs


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_bounds_command_json(capsys):
    assert main(["bounds", "--n", "4", "--delta", "0.1", "--dmax", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["n", "delta", "d_max0", "alpha_max", "move_prob_lb",
                             "theta_s_max", "gamma_s_min", "step_min", "shrink_min",
                             "expected_intervals_ub"]
    assert payload["n"] == 4
    assert math.isclose(payload["step_min"], 0.1 * math.tan(math.pi / 16), rel_tol=1e-12)


def test_bounds_command_at_a_billion_agents(capsys):
    # the shrink fraction is ~3e-19 here; it used to round to 0 and raise
    assert main(["bounds", "--n", "1000000000", "--delta", "0.1", "--dmax", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["shrink_min"] < payload["step_min"]
    assert math.isfinite(payload["expected_intervals_ub"])


@pytest.mark.parametrize("exponent", [200, 400])
def test_bounds_command_beyond_the_float_range_exits_2(exponent, capsys):
    n = 10 ** exponent
    assert main(["bounds", "--n", str(n), "--delta", "0.1", "--dmax", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n = {n}" in captured.err


def test_sim_discrete_outputs(tmp_path):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.csv"
    args = ["sim", "--model", "discrete", "--n", "8", "--spread", "50", "--seed", "5",
            "--trace", str(trace), "--summary", str(summary)]
    assert main(args) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,agent,x,y,heading,moved"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[5] == "0"
    srows = summary.read_text().splitlines()
    assert srows[0] == "run_id,seed,n,spread,converged_step,final_radius"
    assert srows[1].split(",")[1:4] == ["5", "8", "50.0"]


def test_sim_byte_identical_reruns(tmp_path):
    out1 = [str(tmp_path / "a_t.csv"), str(tmp_path / "a_s.csv")]
    out2 = [str(tmp_path / "b_t.csv"), str(tmp_path / "b_s.csv")]
    for trace, summary in (out1, out2):
        args = ["sim", "--model", "discrete", "--n", "12", "--spread", "50",
                "--seed", "99", "--trace", trace, "--summary", summary]
        assert main(args) == 0
    assert read_bytes(out1[0]) == read_bytes(out2[0])
    assert read_bytes(out1[1]) == read_bytes(out2[1])


def test_sim_continuous_writes_series(tmp_path):
    trace = tmp_path / "c.csv"
    summary = tmp_path / "cs.csv"
    args = ["sim", "--model", "continuous", "--n", "3", "--spread", "2", "--seed", "4",
            "--delta", "0.1", "--substep", "0.001", "--trace", str(trace),
            "--summary", str(summary)]
    assert main(args) == 0
    series = tmp_path / "c.series.csv"
    rows = series.read_text().splitlines()
    assert rows[0] == "interval,sec_radius,lyapunov,confined"
    assert rows[-1].split(",")[3] == "1"  # confined by the end


def test_sim_record_every(tmp_path):
    trace = tmp_path / "r.csv"
    args = ["sim", "--model", "discrete", "--n", "6", "--seed", "2",
            "--record-every", "50", "--trace", str(trace),
            "--summary", str(tmp_path / "rs.csv")]
    assert main(args) == 0
    steps = {int(line.split(",")[0]) for line in trace.read_text().splitlines()[1:]}
    inner = sorted(steps)[:-1]
    assert all(s % 50 == 0 for s in inner)


def test_sweep_outputs_and_determinism(tmp_path):
    def run(idx):
        out = tmp_path / f"sw{idx}.csv"
        args = ["sweep", "--model", "discrete", "--n-list", "4,8", "--reps", "2",
                "--base-seed", "17", "--out", str(out)]
        assert main(args) == 0
        return out

    out1, out2 = run(1), run(2)
    assert read_bytes(out1) == read_bytes(out2)
    fit1 = tmp_path / "sw1.fit.json"
    fit2 = tmp_path / "sw2.fit.json"
    assert read_bytes(fit1) == read_bytes(fit2)
    payload = json.loads(fit1.read_text())
    assert set(payload) == {"slope", "intercept", "pearson_r", "n_means"}
    assert len(payload["n_means"]) == 2
    rows = out1.read_text().splitlines()
    assert len(rows) == 5  # header + 2 n-values x 2 reps


@pytest.mark.parametrize("flags", [
    ["--model", "discrete", "--n-list", "5,10,20", "--reps", "2", "--steps", "3000"],
    ["--model", "continuous", "--n-list", "2,3", "--reps", "2", "--spread", "2"],
], ids=["discrete", "continuous"])
def test_sweep_bytes_do_not_depend_on_the_worker_count(flags, tmp_path, monkeypatch):
    outputs = {}
    for jobs in (1, 2):
        use_jobs(monkeypatch, jobs)
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", *flags, "--base-seed", "23", "--out", str(out)]) == 0
        outputs[jobs] = (read_bytes(out), read_bytes(tmp_path / f"jobs{jobs}.fit.json"))
    assert outputs[1] == outputs[2]


def test_sweep_warns_about_non_converged_runs(tmp_path, capsys):
    # n = 40 cannot converge in 5 steps: its runs drop out of the fit
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--model", "discrete", "--n-list", "1,2,40", "--spread", "3",
                 "--steps", "5", "--reps", "2", "--base-seed", "1", "--out", str(out)]) == 0
    assert ("warning: 2 non-converged run(s) excluded from the fit"
            in capsys.readouterr().err)
    payload = json.loads((tmp_path / "sw.fit.json").read_text())
    assert [m["n"] for m in payload["n_means"]] == [1, 2]


def test_spread_defaults_to_the_config_default(tmp_path):
    outputs = []
    for extra in ([], ["--spread", "50"]):
        trace, summary = tmp_path / f"t{len(extra)}.csv", tmp_path / f"s{len(extra)}.csv"
        assert main(["sim", "--model", "discrete", "--n", "10", "--seed", "1", "--steps", "50",
                     *extra, "--trace", str(trace), "--summary", str(summary)]) == 0
        outputs.append((read_bytes(trace), read_bytes(summary)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n_list, message", [
    ("10,x", "not a comma-separated integer list"), (",", "empty n list"),
])
def test_malformed_n_list_exits_2(n_list, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "discrete", "--n-list", n_list, "--reps", "1",
              "--base-seed", "0", "--out", str(tmp_path / "sw.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_sweep_cell_error_exits_2(tmp_path, monkeypatch, capsys):
    use_jobs(monkeypatch, 2)
    monkeypatch.setattr(harness, "run_discrete", fail_at_n10)
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--model", "discrete", "--n-list", "5,10", "--reps", "2",
                 "--base-seed", "1", "--steps", "500", "--out", str(out)]) == 2
    assert "failed" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_process()


def test_invalid_arguments_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--model", "warp", "--n", "4", "--seed", "0",
              "--trace", "t", "--summary", "s"])
    assert exc.value.code == 2
    # domain error surfaces as exit code 2 as well
    assert main(["sim", "--model", "discrete", "--n", "0", "--seed", "0",
                 "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.csv")]) == 2
    assert main(["bounds", "--n", "1", "--delta", "0.1", "--dmax", "5"]) == 2
    # non-finite floats are domain errors, not crashes or runs that cannot end
    for model, flag in (("discrete", "--spread"), ("continuous", "--spread"),
                        ("continuous", "--delta")):
        for bad in ("nan", "inf"):
            assert main(["sim", "--model", model, "--n", "4", "--seed", "0", flag, bad,
                         "--trace", str(tmp_path / "t.csv"),
                         "--summary", str(tmp_path / "s.csv")]) == 2
    # a repeated n is rejected before any run
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--model", "discrete", "--n-list", "10,10", "--reps", "1",
                 "--base-seed", "0", "--out", str(out)]) == 2
    assert not out.exists()
    # the continuous-only flags are rejected for the discrete model, not ignored
    for flag, value in (("--delta", "0.1"), ("--delta", "nan"),
                        ("--substep", "1e-3"), ("--substep", "inf")):
        trace = tmp_path / "dt.csv"
        assert main(["sim", "--model", "discrete", "--n", "4", "--seed", "0", flag, value,
                     "--trace", str(trace), "--summary", str(tmp_path / "ds.csv")]) == 2
        assert main(["sweep", "--model", "discrete", "--n-list", "4,8", "--reps", "1",
                     "--base-seed", "0", flag, value, "--out", str(out)]) == 2
        assert not trace.exists() and not out.exists()
        assert not out.with_name("sw.fit.json").exists()
    # a single agent count has no fit, so the sweep is rejected before any run
    assert main(["sweep", "--model", "discrete", "--n-list", "10", "--reps", "2",
                 "--base-seed", "4", "--out", str(out)]) == 2
    assert not out.exists() and not out.with_name("sw.fit.json").exists()
    # too few agent counts converge for a fit: the error names that cause
    # and no fit is written
    assert main(["sweep", "--model", "discrete", "--n-list", "40,50", "--reps", "1",
                 "--base-seed", "4", "--steps", "20", "--out", str(out)]) == 2
    assert "agent counts" in capsys.readouterr().err
    assert not out.with_name("sw.fit.json").exists()
    # infinite bounds input has no finite report
    for delta, dmax in (("inf", "50"), ("0.1", "inf"), ("nan", "50")):
        assert main(["bounds", "--n", "4", "--delta", delta, "--dmax", dmax]) == 2


@pytest.mark.parametrize("substep", ["5e-324", "1e-300"])
def test_substep_below_the_rounding_guard_exits_2(substep, tmp_path, capsys):
    # 5e-324 used to overflow in nsub (exit 1), 1e-300 to run without end
    trace = tmp_path / "t.csv"
    assert main(["sim", "--model", "continuous", "--n", "3", "--seed", "1",
                 "--substep", substep, "--trace", str(trace),
                 "--summary", str(tmp_path / "s.csv")]) == 2
    assert "substep" in capsys.readouterr().err
    assert not trace.exists()


def test_unwritable_output_exit_3(tmp_path):
    args = ["sim", "--model", "discrete", "--n", "2", "--seed", "0",
            "--trace", str(tmp_path / "missing_dir" / "t.csv"),
            "--summary", str(tmp_path / "s.csv")]
    assert main(args) == 3


def _no_run(*args, **kwargs):
    raise AssertionError("a run started")


@pytest.mark.parametrize("model", ["discrete", "continuous"])
@pytest.mark.parametrize("output", ["--trace", "--summary"])
def test_sim_checks_output_directories_before_the_run(model, output, tmp_path, monkeypatch,
                                                      capsys):
    # the run used to finish first and only then fail to open its outputs
    monkeypatch.setattr(harness, "run_discrete", _no_run)
    monkeypatch.setattr(harness, "run_continuous", _no_run)
    paths = {"--trace": tmp_path / "t.csv", "--summary": tmp_path / "s.csv"}
    paths[output] = tmp_path / "missing_dir" / "out.csv"
    assert main(["sim", "--model", model, "--n", "3", "--seed", "0",
                 "--trace", str(paths["--trace"]), "--summary", str(paths["--summary"])]) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and str(paths[output]) in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_checks_the_output_directory_before_any_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_discrete", _no_run)
    out = tmp_path / "missing_dir" / "sw.csv"
    assert main(["sweep", "--model", "discrete", "--n-list", "40,80", "--reps", "2",
                 "--base-seed", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and str(out) in err


def test_an_output_under_a_file_exits_3_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_discrete", _no_run)
    (tmp_path / "file").write_text("")
    summary = tmp_path / "file" / "s.csv"
    assert main(["sim", "--model", "discrete", "--n", "3", "--seed", "0",
                 "--trace", str(tmp_path / "t.csv"), "--summary", str(summary)]) == 3
    assert str(summary) in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("model, directory", [
    ("discrete", "s.csv"),
    ("discrete", "t.csv"),
    ("continuous", "t.series.csv"),
], ids=["summary", "trace", "continuous-series"])
def test_sim_rejects_an_output_that_is_a_directory(model, directory, tmp_path, monkeypatch,
                                                   capsys):
    # the run used to finish and write the other outputs before this write failed
    monkeypatch.setattr(harness, "run_discrete", _no_run)
    monkeypatch.setattr(harness, "run_continuous", _no_run)
    (tmp_path / directory).mkdir()
    assert main(["sim", "--model", model, "--n", "3", "--spread", "2", "--seed", "1",
                 "--steps", "3", "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and str(tmp_path / directory) in err
    assert [path.name for path in tmp_path.iterdir()] == [directory]


@pytest.mark.parametrize("directory", ["sw.csv", "sw.fit.json"], ids=["csv", "fit-json"])
def test_sweep_rejects_an_output_that_is_a_directory(directory, tmp_path, monkeypatch, capsys):
    # the fit path used to go unchecked: every cell ran and the CSV was
    # written before the fit JSON failed to open
    monkeypatch.setattr(harness, "run_discrete", _no_run)
    (tmp_path / directory).mkdir()
    assert main(["sweep", "--model", "discrete", "--n-list", "4,8", "--reps", "1",
                 "--base-seed", "1", "--out", str(tmp_path / "sw.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and str(tmp_path / directory) in err
    assert [path.name for path in tmp_path.iterdir()] == [directory]


@pytest.mark.parametrize("model, trace, summary, flags", [
    ("discrete", "b.csv", "b.csv", ["--trace", "--summary"]),
    ("discrete", "b.csv", "sub/../b.csv", ["--trace", "--summary"]),
    ("continuous", "a.csv", "a.series.csv", ["--summary", "the series of --trace"]),
], ids=["discrete", "discrete-spelled-differently", "continuous-series"])
def test_sim_rejects_two_outputs_naming_the_same_file(model, trace, summary, flags, tmp_path,
                                                      monkeypatch, capsys):
    # the later write used to replace the earlier output, and the run exited 0
    monkeypatch.setattr(harness, "run_discrete", _no_run)
    monkeypatch.setattr(harness, "run_continuous", _no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["sim", "--model", model, "--n", "3", "--spread", "2", "--seed", "1",
                 "--steps", "3", "--trace", trace, "--summary", summary]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(flag in err for flag in flags)
    assert [path.name for path in tmp_path.iterdir()] == ["sub"]


def test_discrete_sim_may_write_its_summary_where_a_series_would_go(tmp_path):
    # the discrete model writes no series next to its trace
    trace, summary = tmp_path / "a.csv", tmp_path / "a.series.csv"
    assert main(["sim", "--model", "discrete", "--n", "3", "--seed", "1", "--steps", "3",
                 "--trace", str(trace), "--summary", str(summary)]) == 0
    assert read_bytes(summary).startswith(b"run_id,")


# Runs cli.main on the argv after -c in a fresh interpreter and fails if it
# imports a numpy module, in this process or, through the run function the
# pool calls, in a forked worker.
_NO_NUMPY_IMPORT = """
import sys
from gathersim import cli, harness
before = set(sys.modules)

def new_numpy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' and m not in before)

run_untraced = harness._run_untraced

def checked(config, run):
    summary = run_untraced(config, run)
    assert not new_numpy_modules(), (config.n, new_numpy_modules())
    return summary

harness._run_untraced = checked
harness._ensemble_jobs = lambda runs: 2
assert cli.main(sys.argv[1:]) == 0
assert not new_numpy_modules(), new_numpy_modules()
"""


@pytest.mark.parametrize("argv", [
    ["sim", "--model", "discrete", "--n", "10", "--seed", "1", "--steps", "20"],
    ["sim", "--model", "discrete", "--n", "81", "--seed", "1", "--steps", "20"],
    ["sim", "--model", "continuous", "--n", "3", "--spread", "2", "--seed", "1", "--steps", "5"],
    ["sweep", "--model", "discrete", "--n-list", "2,3,81", "--reps", "1", "--steps", "100",
     "--base-seed", "5", "--out", "sweep.csv"],
], ids=["discrete-dense", "discrete-witness", "continuous", "pooled-sweep"])
def test_a_run_imports_no_numpy_module(argv, tmp_path):
    """A run's time goes to the run: cli.main imports no numpy module, in
    this process or in a pooled sweep's workers. np.unique in the large-n
    sensor, for one, imports numpy.ma, numpy.ma.core and numpy.ma.extras on
    its first use on numpy >= 2. On numpy 1.x numpy.ma is imported with
    numpy, so there this test cannot fail."""
    if argv[0] == "sim":
        argv = [*argv, "--trace", "trace.csv", "--summary", "summary.csv"]
    path = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_IMPORT, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
