"""One benchmarked gathersim CLI invocation, in a fresh process.

    python3 perfbench/worker.py REPORT SPANS WORKLOAD -- CLI-ARGS...

Imports gathersim, records the monotonic time at the entry of cli.main,
runs it, and writes a JSON report to REPORT: exit code, wall time of the
call, the entry time and the peak resident set size. With SPANS other than
"-", the calls into each layer are traced, the spans are written to SPANS
and the report carries the per-layer summary.
"""

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    report_path, spans_path, workload, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: worker.py REPORT SPANS WORKLOAD -- CLI-ARGS...")
    from gathersim import cli

    tracer = None
    if spans_path != "-":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    report = {"error": None}
    report["entry_monotonic"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the report must say why the invocation failed
        code = None
        report["error"] = traceback.format_exc()
    report["wall_s"] = time.perf_counter() - t0
    report["cpu_s"] = time.process_time() - c0
    report["exit_code"] = code
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write(spans_path, workload)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
