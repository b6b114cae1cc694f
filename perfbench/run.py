"""gathersim benchmark: time to solution of three CLI workloads, and where
the time goes layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each invocation of the gathersim CLI runs in a
fresh single-threaded process (perfbench/worker.py) on flags generated from
the seed; invocations repeat for about S seconds and every output is checked
after the process ends. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced invocations on the same flags and reports the
per-layer metrics. The last line of stdout is a JSON object
{"correct", "attempted", "failed", "metrics"}; the full record of the run
(environment, every invocation, output digests) goes to
.perfbench_out/<workload>/results/. --workload all runs every workload in
turn and prints one merged line.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

# Every invocation must end by then, so the whole run ends well within the
# 180 s a run may take.
HARD_LIMIT_S = 150.0
THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# (metric, unit); failed_frac is printed but is not a BENCHMARK.json metric,
# because a metric whose baseline is 0 has no relative bound.
END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_names(names):
    """Raise ValueError unless every name is 1-64 of [A-Za-z0-9_.-],
    starting with a letter or digit, and none repeats."""
    bad = [n for n in names if not METRIC_NAME.fullmatch(n)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate metric names")


def invocation_seed(seed: int, index: int) -> int:
    """32-bit seed of the index-th invocation of a run; a pure function of
    the run seed so the same seed gives the same inputs."""
    digest = hashlib.sha256(f"gathersim-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_of(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINNING)
    env["PYTHONPATH"] = str(SRC)
    return env


def evaluate(record, check, seed, outputs):
    """Run the workload's check on an invocation that exited cleanly and
    mark the record ok or failed with the reason."""
    if record["reason"] is None:
        try:
            record["steps"] = check(seed, outputs)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            record["reason"] = f"check failed: {type(exc).__name__}: {exc}"
    record["ok"] = record["reason"] is None
    record["sha256"] = {name: sha256_of(path) for name, path in outputs.items()}
    return record


def invoke(workload, seed, dirs, traced, index, deadline):
    """One CLI invocation in a fresh worker process, checked afterwards."""
    argv, outputs = workload.argv(seed, dirs["work"])
    for path in outputs.values():
        Path(path).unlink(missing_ok=True)
    report_path = dirs["work"] / "report.json"
    report_path.unlink(missing_ok=True)
    spans_path = dirs["spans"] / f"spans-{index:04d}.json" if traced else "-"
    cmd = [sys.executable, str(WORKER), str(report_path), str(spans_path), workload.name,
           "--", *argv]
    record = {"index": index, "seed": seed, "traced": traced, "argv": argv,
              "reason": None, "steps": 0}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        record["reason"] = "timed out"
        return evaluate(record, workload.check, seed, outputs)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    record["exit_code"] = proc.returncode
    if proc.returncode != 0 or "wall_s" not in report:
        tail = (report.get("error") or proc.stderr or "").strip().splitlines()[-3:]
        record["reason"] = f"exit code {proc.returncode}: {' | '.join(tail)}"
    else:
        record["wall_s"] = report["wall_s"]
        record["cpu_s"] = report["cpu_s"]
        record["setup_s"] = report["entry_monotonic"] - t_spawn
        record["rss_mib"] = report["maxrss_kib"] / 1024.0
        if traced:
            record["trace"] = report["trace"]
    return evaluate(record, workload.check, seed, outputs)


def measure(workload, seed, seconds, traced_run):
    """Invoke the workload for about `seconds`: no new invocation starts
    once the median one so far would run past the end. With traced_run,
    each item is a pair of untraced and traced invocations on the same
    flags, in alternating order, whose outputs must be byte-identical."""
    base = OUT / workload.name
    dirs = {"work": base / "work", "spans": base / "spans", "results": base / "results"}
    for key in ("work", "spans"):
        shutil.rmtree(dirs[key], ignore_errors=True)
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    records, durations = [], []
    while True:
        now = time.monotonic()
        if now >= deadline or (durations and now - start + statistics.median(durations) > seconds):
            break
        i = len(durations)
        inv_seed = invocation_seed(seed, i)
        if traced_run:
            pair = [invoke(workload, inv_seed, dirs, traced, i, deadline)
                    for traced in ((False, True) if i % 2 == 0 else (True, False))]
            plain, traced = sorted(pair, key=lambda r: r["traced"])
            if traced["ok"] and plain["ok"] and traced["sha256"] != plain["sha256"]:
                traced["ok"] = False
                traced["reason"] = "traced outputs differ from untraced outputs"
            records.extend(pair)
        else:
            records.append(invoke(workload, inv_seed, dirs, False, i, deadline))
        durations.append(time.monotonic() - now)
    return records, dirs


def end_to_end(records) -> dict:
    """End-to-end metrics over the untraced invocations that passed their
    check, plus failed_frac over every invocation attempted."""
    values = {"failed_frac": sum(not r["ok"] for r in records) / len(records)}
    good = [r for r in records if r["ok"] and not r["traced"]]
    if good:
        values["wall_s"] = statistics.median(r["wall_s"] for r in good)
        values["steps_per_s"] = sum(r["steps"] for r in good) / sum(r["wall_s"] for r in good)
        values["setup_s"] = statistics.median(r["setup_s"] for r in good)
        values["peak_rss_mb"] = statistics.median(r["rss_mib"] for r in good)
    return values


def per_layer(records):
    """Per-layer metrics over the pairs whose invocations both passed."""
    by_index = {}
    for r in records:
        by_index.setdefault(r["index"], {})[r["traced"]] = r
    pairs = [p for p in by_index.values() if len(p) == 2 and p[True]["ok"] and p[False]["ok"]]
    if not pairs:
        return None, None
    merged = spans.merge(p[True]["trace"] for p in pairs)
    traced_wall = sum(p[True]["wall_s"] for p in pairs)
    untraced_wall = sum(p[False]["wall_s"] for p in pairs)
    return spans.layer_metrics(merged, traced_wall, untraced_wall), merged


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba = True
    except ImportError:
        numba = False
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "child_env": THREAD_PINNING,
    }


def print_end_to_end(name, values, records):
    print(f"== {name}: {len(records)} invocations, "
          f"{sum(not r['ok'] for r in records)} failed")
    for metric, unit in END_TO_END + (("failed_frac", "ratio"),):
        if metric in values:
            print(f"  {metric:<14} {values[metric]:>14.6g} {unit}")
    for r in records:
        if not r["ok"]:
            print(f"  FAILED invocation {r['index']} (traced={r['traced']}): {r['reason']}")


def print_layers(values, merged):
    """Self time per layer; the rows plus `other` sum to the traced wall."""
    wall = values["trace.wall_s"]
    absent = set(merged["absent"])
    print(f"  {'layer':<22} {'calls':>9} {'self_s':>11} {'share':>7}")
    rows = {layer: merged["layers"].get(layer, {})
            for layer in [layer for layer, _, _ in spans.LAYERS] + [spans.TRACER]}
    rows["other"] = {"self_s": values["other.self_s"]}
    for layer, entry in rows.items():
        if layer in absent:
            print(f"  {layer:<22} {'absent':>9}")
            continue
        self_s = entry.get("self_s", 0.0)
        share = self_s / wall if wall else 0.0
        print(f"  {layer:<22} {int(entry.get('calls', 0)):>9} {self_s:>11.6f} {share:>7.2%}")
        if entry.get("probe_errors"):
            print(f"  {'':<22} probe failed {int(entry['probe_errors'])} times; "
                  f"its counters are incomplete")
    print(f"  {'traced wall':<22} {'':>9} {wall:>11.6f}  overhead "
          f"{values['trace.overhead_frac']:+.2%} over untraced")
    for metric, unit, _ in spans.PER_LAYER:
        if not metric.endswith((".calls", ".self_s")) and not metric.startswith("trace."):
            print(f"  {metric:<32} {values[metric]:>14.6g} {unit}")


def run_workload(workload, seed, seconds, trace) -> dict:
    records, dirs = measure(workload, seed, seconds, trace)
    e2e = end_to_end(records)
    print_end_to_end(workload.name, e2e, records)
    if trace:
        values, merged = per_layer(records)
        if values is None:
            raise RuntimeError(f"{workload.name}: no traced pair passed its checks")
        print_layers(values, merged)
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in spans.PER_LAYER}
    else:
        if "wall_s" not in e2e:
            raise RuntimeError(f"{workload.name}: no invocation passed its check")
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}
        merged = None
    check_metric_names(list(metrics))
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    full = {"workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
            "trace": trace, "result": result, "failed_frac": e2e["failed_frac"],
            "end_to_end": e2e, "layers": merged, "environment": environment(),
            "invocations": records}
    path = dirs["results"] / f"result-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gathersim" / "cli.py").is_file():
        print(f"error: gathersim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
