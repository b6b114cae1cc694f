"""Spans around the calls into gathersim's public functions.

The traced benchmark run wraps one public function per layer by rebinding
its name in every gathersim module that holds it, so a caller that looks
the name up in its own module namespace (``gathersim.discrete`` calling
``min_enclosing_disc``, say) enters the wrapper. Each call records a span
(name, start, end, parent) in memory; the worker writes the spans out when
it ends. A layer's self time is its span's duration minus the time covered
by its child spans, so the self times of one process's span tree sum to the
duration of its root span.

Some layers also get a probe that counts work after the call returns
(agents moved, pair evaluations, bytes written). A probe runs inside its
own span named ``tracer``, so its cost lands in that row of the table and
not in the caller's self time.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "gathersim"
TRACER = "tracer"

# (layer, module that defines the function, function name). `bounds` and
# `rng` are left out: closed-form or microsecond-scale, and nothing in the
# roadmap optimises them.
LAYERS = (
    ("cli.main", "gathersim.cli", "main"),
    ("harness.sweep", "gathersim.harness", "run_sweep"),
    ("harness.fit", "gathersim.harness", "fit_sweep"),
    ("continuous.run", "gathersim.continuous", "run_continuous"),
    ("continuous.interval", "gathersim.continuous", "continuous_interval"),
    ("discrete.run", "gathersim.discrete", "run_discrete"),
    ("discrete.step", "gathersim.discrete", "discrete_step"),
    ("geometry.disc", "gathersim.geometry", "min_enclosing_disc"),
    ("state.init", "gathersim.state", "init_constellation"),
    ("io.trace", "gathersim.io", "write_trace_csv"),
    ("io.series", "gathersim.io", "write_series_csv"),
    ("io.summary", "gathersim.io", "write_summaries_csv"),
    ("io.fit", "gathersim.io", "write_fit_json"),
)
KERNELS = ("continuous.interval", "discrete.step")
WRITERS = ("io.trace", "io.series", "io.summary", "io.fit")

# What a probe may raise when a later refactor changes a signature or a
# return type: the layer is still timed, only its counters stop.
_PROBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


def _kernel_probe(args, kwargs, result, acc):
    """Counts for one model step: agents, agents whose position changed
    between the input state and the returned one, and pairwise sensor
    evaluations (n(n-1) per substep; the discrete config has no substeps)."""
    state = args[0] if args else kwargs["state"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    before = np.asarray(state.positions)
    n = len(before)
    acc["agents"] += n
    acc["moved"] += int(np.any(np.asarray(result.positions) != before, axis=1).sum())
    acc["pair_evals"] += n * (n - 1) * getattr(config, "nsub", 1)


def _writer_probe(args, kwargs, result, acc):
    """Size of the file just written (every writer takes the path last) and
    its data rows: CSV lines after the header, or the entries of a fit
    report's n_means."""
    data = Path(kwargs["path"] if "path" in kwargs else args[-1]).read_bytes()
    acc["bytes"] += len(data)
    if data.lstrip().startswith(b"{"):
        acc["rows"] += len(json.loads(data)["n_means"])
    else:
        acc["rows"] += max(data.count(b"\n") - 1, 0)


PROBES = {**{k: _kernel_probe for k in KERNELS}, **{w: _writer_probe for w in WRITERS}}


def self_times(names, starts, ends, parents) -> dict:
    """{name: [calls, self seconds]} over spans given as parallel lists;
    parents[i] is the index of span i's parent, or -1 for a root."""
    covered = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (ends[i] - starts[i]) - covered[i]
    return out


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self._stack = []
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.absent = []

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self._clock())
        return idx

    def _close(self, idx):
        self.ends[idx] = self._clock()
        self._stack.pop()

    def wrap(self, layer, fn, probe=None):
        acc = self.counters[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                pidx = self._open(TRACER)
                try:
                    probe(args, kwargs, result, acc)
                except _PROBE_ERRORS:
                    acc["probe_errors"] += 1
                finally:
                    self._close(pidx)
            return result

        return wrapper

    def install(self, layers=LAYERS, package=PACKAGE):
        """Wrap each layer's function wherever the package's modules hold
        it. A module or function that no longer exists is recorded as an
        absent layer instead of failing."""
        for layer, module_name, fn_name in layers:
            try:
                fn = getattr(importlib.import_module(module_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrapper = self.wrap(layer, fn, PROBES.get(layer))
            for name, module in list(sys.modules.items()):
                if module is None or (name != package and not name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per-layer calls, self time and probe counters, plus absent layers."""
        layers = {}
        for name, (calls, self_s) in self_times(self.names, self.starts, self.ends,
                                                self.parents).items():
            layers[name] = {"calls": calls, "self_s": self_s, **self.counters.get(name, {})}
        return {"layers": layers, "absent": list(self.absent), "spans": len(self.names)}

    def write(self, path, workload):
        """Spans as [name, start, end, parent, workload] rows, times in
        seconds since the tracer was created."""
        o = self._origin
        rows = [[n, s - o, e - o, p, workload]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "workload"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def merge(summaries) -> dict:
    """Sum per-layer entries over several processes' summaries."""
    layers = defaultdict(lambda: defaultdict(float))
    absent = set()
    for s in summaries:
        absent.update(s["absent"])
        for name, entry in s["layers"].items():
            for key, value in entry.items():
                layers[name][key] += value
    return {"layers": {k: dict(v) for k, v in layers.items()}, "absent": sorted(absent)}


def _ratio(num, den):
    return num / den if den else 0.0


# The reported metrics group the traced layers by role, so that every
# workload calls every group and no reported time is a constant 0: `step`
# is the model's step function and `run` its run loop (discrete or
# continuous, whichever the workload runs), `io.write` is all four writers.
# The printed table and the run record keep the per-module rows, including
# the harness, whose self time is under 0.1 % on every workload.
GROUPS = {
    "cli.main": ("cli.main",),
    "run": ("continuous.run", "discrete.run"),
    "step": KERNELS,
    "geometry.disc": ("geometry.disc",),
    "state.init": ("state.init",),
    "io.write": WRITERS,
}

# (metric, unit, better); the benchmark reports these in this order.
PER_LAYER = (
    [(f"{g}.{m}", unit, "lower") for g in GROUPS for m, unit in (("calls", "count"),
                                                                   ("self_s", "s"))]
    + [("step.us_per_call", "us", "lower"),
       ("step.pair_evals_per_s", "1/s", "higher"),
       ("step.moved_frac", "ratio", "higher"),
       ("geometry.disc.us_per_call", "us", "lower"),
       ("geometry.disc.calls_per_step", "ratio", "lower"),
       ("io.write.rows", "count", "lower"),
       ("io.write.bytes", "B", "lower"),
       ("io.write.mb_per_s", "MB/s", "higher"),
       ("tracer.self_s", "s", "lower"),
       ("other.self_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def layer_metrics(merged, traced_wall, untraced_wall) -> dict:
    """Every PER_LAYER metric from merged summaries. A group none of whose
    layers was called, or exists in the code, reads 0. `other` is the traced
    wall time not covered by any span's self time, so the self times of all
    layers plus `other` sum to the traced wall time."""
    layers = merged["layers"]

    def get(group, key):
        return sum(layers.get(layer, {}).get(key, 0) for layer in GROUPS[group])

    values = {}
    for g in GROUPS:
        values[f"{g}.calls"] = int(get(g, "calls"))
        values[f"{g}.self_s"] = float(get(g, "self_s"))
    values["step.us_per_call"] = 1e6 * _ratio(get("step", "self_s"), get("step", "calls"))
    values["step.pair_evals_per_s"] = _ratio(get("step", "pair_evals"), get("step", "self_s"))
    values["step.moved_frac"] = _ratio(get("step", "moved"), get("step", "agents"))
    values["geometry.disc.us_per_call"] = 1e6 * _ratio(get("geometry.disc", "self_s"),
                                                       get("geometry.disc", "calls"))
    values["geometry.disc.calls_per_step"] = _ratio(get("geometry.disc", "calls"),
                                                    get("step", "calls"))
    values["io.write.rows"] = int(get("io.write", "rows"))
    values["io.write.bytes"] = int(get("io.write", "bytes"))
    values["io.write.mb_per_s"] = _ratio(get("io.write", "bytes"), get("io.write", "self_s")) / 1e6
    values["tracer.self_s"] = float(layers.get(TRACER, {}).get("self_s", 0.0))
    values["other.self_s"] = traced_wall - sum(e["self_s"] for e in layers.values())
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return values
