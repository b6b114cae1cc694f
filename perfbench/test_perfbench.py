"""Self-tests of the benchmark's own arithmetic: span self times, failure
counting, metric names, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench
"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, CheckFailed

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_times_nested_and_sibling_spans():
    # root [0, 10] has siblings a [1, 4] and b [5, 9]; b has child c [6, 7].
    names = ["root", "a", "b", "c"]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    got = spans.self_times(names, starts, ends, parents)
    assert got == {"root": [1, 3.0], "a": [1, 3.0], "b": [1, 3.0], "c": [1, 1.0]}
    assert sum(s for _, s in got.values()) == 10.0


def test_self_times_sum_repeated_names():
    # Two calls of one layer under the root, one of them nested in the other.
    got = spans.self_times(["root", "x", "x"], [0.0, 1.0, 2.0], [8.0, 5.0, 3.0], [-1, 0, 1])
    assert got == {"root": [1, 4.0], "x": [2, 4.0]}


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines inner; fakepkg.user imports it by name and
    calls it twice from outer."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    core.inner = user.inner = inner
    user.outer = lambda x: user.inner(x) + user.inner(x)
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_tracer_rebinds_callers_and_reports_absent_layers(fake_package, tmp_path):
    core, user = fake_package
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.install(layers=(("t.outer", "fakepkg.user", "outer"),
                           ("t.inner", "fakepkg.core", "inner"),
                           ("t.gone", "fakepkg.core", "no_such_function"),
                           ("t.nomodule", "fakepkg.no_such_module", "f")),
                   package="fakepkg")
    assert user.outer(1) == 4
    assert core.inner is user.inner
    summary = tracer.summary()
    assert summary["absent"] == ["t.gone", "t.nomodule"]
    assert summary["layers"]["t.outer"]["calls"] == 1
    assert summary["layers"]["t.inner"]["calls"] == 2
    root = tracer.ends[0] - tracer.starts[0]
    assert sum(e["self_s"] for e in summary["layers"].values()) == root
    path = tmp_path / "spans.json"
    tracer.write(path, "w")
    data = json.loads(path.read_text())
    assert data["fields"] == ["name", "start", "end", "parent", "workload"]
    assert [row[0] for row in data["spans"]] == ["t.outer", "t.inner", "t.inner"]
    assert [row[3] for row in data["spans"]] == [-1, 0, 0]


def test_probe_error_is_counted_not_raised():
    tracer = spans.Tracer()

    def probe(args, kwargs, result, acc):
        raise TypeError("signature changed")

    wrapped = tracer.wrap("x", lambda v: v * 2, probe)
    assert wrapped(3) == 6
    summary = tracer.summary()
    assert summary["layers"]["x"]["probe_errors"] == 1
    assert summary["layers"][spans.TRACER]["calls"] == 1


def test_layer_metrics_self_times_plus_other_sum_to_wall():
    merged = spans.merge([
        {"layers": {"cli.main": {"calls": 1, "self_s": 0.5},
                    "harness.sweep": {"calls": 1, "self_s": 0.125},
                    "discrete.step": {"calls": 4, "self_s": 2.0, "agents": 40, "moved": 10,
                                      "pair_evals": 360},
                    "io.summary": {"calls": 1, "self_s": 0.5, "rows": 3, "bytes": 1_000_000},
                    spans.TRACER: {"calls": 5, "self_s": 0.25}},
         "absent": ["io.fit"]},
        {"layers": {"cli.main": {"calls": 1, "self_s": 0.5}}, "absent": []},
    ])
    values = spans.layer_metrics(merged, traced_wall=4.0, untraced_wall=3.2)
    assert merged["absent"] == ["io.fit"]
    assert values["cli.main.calls"] == 2
    assert values["step.calls"] == 4 and values["run.calls"] == 0
    assert values["step.us_per_call"] == 5e5
    assert values["step.moved_frac"] == 0.25
    assert values["step.pair_evals_per_s"] == 180.0
    assert values["io.write.rows"] == 3 and values["io.write.mb_per_s"] == 2.0
    assert values["geometry.disc.calls"] == 0 and values["geometry.disc.us_per_call"] == 0.0
    # The harness is a table row but not a reported group; `other` still
    # closes the sum over every layer.
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s") and k != "other.self_s")
    assert self_sum + 0.125 + values["other.self_s"] == pytest.approx(4.0, abs=1e-12)
    assert values["other.self_s"] == pytest.approx(0.125)
    assert values["trace.overhead_frac"] == pytest.approx(0.25)
    assert set(values) == {name for name, _, _ in spans.PER_LAYER}


def test_every_group_names_traced_layers():
    traced = {layer for layer, _, _ in spans.LAYERS}
    assert all(set(members) <= traced for members in spans.GROUPS.values())


def _record(wall):
    return {"index": 0, "traced": False, "reason": None, "steps": 0,
            "wall_s": wall, "setup_s": 0.1, "rss_mib": 30.0}


def test_failed_frac_counts_injected_failing_checks():
    def passing(seed, outputs):
        return 100

    def failing(seed, outputs):
        raise CheckFailed("injected")

    def crashing(seed, outputs):
        raise ValueError("unparseable output")

    records = [run.evaluate(_record(2.0), passing, 1, {}),
               run.evaluate(_record(1.0), failing, 1, {}),
               run.evaluate(_record(1.0), crashing, 1, {})]
    exited = _record(1.0)
    exited["reason"] = "exit code 2: error"
    records.append(run.evaluate(exited, passing, 1, {}))
    assert [r["ok"] for r in records] == [True, False, False, False]
    assert "injected" in records[1]["reason"]
    values = run.end_to_end(records)
    assert values["failed_frac"] == 0.75
    # Timing metrics come from the invocation that passed its check only.
    assert values["wall_s"] == 2.0
    assert values["steps_per_s"] == 50.0


@pytest.mark.parametrize("name", ["wall_s", "io.trace.mb_per_s", "a-b.c_d", "9x", "x" * 64])
def test_metric_name_accepted(name):
    run.check_metric_names([name])


@pytest.mark.parametrize("name", ["", "bad name", "x/y", ".lead", "_lead", "ü", "x" * 65])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        run.check_metric_names([name])


def test_duplicate_metric_names_rejected():
    with pytest.raises(ValueError):
        run.check_metric_names(["wall_s", "wall_s"])


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why)
                                                                  for w in WORKLOADS.values()]
    run.check_metric_names([m["name"] for m in spec["end_to_end"] + spec["per_layer"]])


def test_invocation_seeds_are_a_function_of_the_run_seed():
    first = [run.invocation_seed(7, i) for i in range(5)]
    assert first == [run.invocation_seed(7, i) for i in range(5)]
    assert len(set(first)) == 5
    assert first != [run.invocation_seed(8, i) for i in range(5)]
