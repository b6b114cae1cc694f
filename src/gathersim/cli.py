"""Command-line surface: single runs, sweeps, and the bounds report.

Exit codes: 0 success, 2 invalid arguments or domain errors, 3 I/O failure.
All randomness flows from --seed / --base-seed; nothing reads the clock.
"""

import argparse
import sys
from pathlib import Path

from .bounds import compute_bounds
from .continuous import ContinuousConfig
from .discrete import DiscreteConfig
from .harness import SweepConfig, fit_sweep, model_run, run_sweep
from .io import (
    bounds_json,
    fit_json_path_for,
    series_path_for,
    write_fit_json,
    write_series_csv,
    write_summaries_csv,
    write_trace_csv,
)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    return values


def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--model", required=True, choices=["discrete", "continuous"])
    parser.add_argument("--spread", type=float, default=None,
                        help=f"side of the initial square (default {DiscreteConfig.spread})")
    parser.add_argument("--delta", type=float, default=None,
                        help=f"blind-zone radius, continuous model only "
                             f"(default {ContinuousConfig.delta})")
    parser.add_argument("--substep", type=float, default=None,
                        help=f"integration substep, continuous model only "
                             f"(default {ContinuousConfig.substep})")
    parser.add_argument("--steps", type=int, default=None,
                        help=f"cap on steps (discrete, default {DiscreteConfig.max_steps}) "
                             f"or unit intervals (continuous, default "
                             f"{ContinuousConfig.max_intervals})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gathersim",
                                     description="Randomized planar gathering: "
                                                 "simulators, sweeps, and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="one seeded run, trace + summary CSV")
    _add_model_flags(sim)
    sim.add_argument("--n", type=int, required=True, help="agent count")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--record-every", type=int, default=1, metavar="K",
                     help="record every K-th frame in the trace (default 1)")
    sim.add_argument("--trace", required=True, help="trace CSV output path")
    sim.add_argument("--summary", required=True, help="summary CSV output path")
    sim.set_defaults(func=_cmd_sim)

    sweep = sub.add_parser("sweep", help="seeded grid of runs, summaries CSV + fit JSON")
    _add_model_flags(sweep)
    sweep.add_argument("--n-list", type=_parse_n_list, required=True, metavar="N1,N2,...",
                       help="comma-separated agent counts")
    sweep.add_argument("--reps", type=int, required=True, help="runs per agent count")
    sweep.add_argument("--base-seed", type=int, required=True)
    sweep.add_argument("--out", required=True,
                       help="summaries CSV path; the fit lands next to it as *.fit.json")
    sweep.set_defaults(func=_cmd_sweep)

    bounds = sub.add_parser("bounds", help="closed-form bound report as JSON on stdout")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--delta", type=float, required=True)
    bounds.add_argument("--dmax", type=float, required=True,
                        help="initial maximal pairwise distance")
    bounds.set_defaults(func=_cmd_bounds)
    return parser


def _check_outputs(outputs):
    """Fail before the run, not after it: OSError unless each output's
    directory exists and the output is not itself a directory, ValueError if
    two outputs name the same file, where the later write would silently
    replace the earlier one. outputs maps each flag to its path."""
    seen = {}
    for flag, path in outputs.items():
        path = Path(path)
        if not path.parent.is_dir():
            raise OSError(f"cannot write {path}: {path.parent} is not an existing directory")
        if path.is_dir():
            raise OSError(f"cannot write {path}: it is a directory")
        other = seen.setdefault(path.resolve(), flag)
        if other != flag:
            raise ValueError(f"{other} and {flag} name the same file {path}")


def _cmd_sim(args) -> int:
    config, run = model_run(args.model, args.n, args.seed, args.spread, args.delta,
                            args.substep, args.steps)
    outputs = {"--trace": args.trace, "--summary": args.summary}
    if args.model == "continuous":
        outputs["the series of --trace"] = series_path_for(args.trace)
    _check_outputs(outputs)
    trace, summary = run(config, record_every=args.record_every)
    write_trace_csv(trace, args.trace)
    if args.model == "continuous":
        write_series_csv(trace, series_path_for(args.trace))
    write_summaries_csv([summary], args.summary)
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig(model=args.model, n_values=args.n_list, reps=args.reps,
                         base_seed=args.base_seed, spread=args.spread,
                         delta=args.delta, substep=args.substep,
                         max_steps=args.steps)
    if len(config.n_values) < 2:
        raise ValueError("a sweep fits a line over n and needs >= 2 agent counts")
    _check_outputs({"--out": args.out, "the fit JSON of --out": fit_json_path_for(args.out)})
    summaries = run_sweep(config)
    write_summaries_csv(summaries, args.out)
    fit, n_means, excluded = fit_sweep(summaries)
    if excluded:
        print(f"warning: {excluded} non-converged run(s) excluded from the fit",
              file=sys.stderr)
    write_fit_json(fit, n_means, fit_json_path_for(args.out))
    return 0


def _cmd_bounds(args) -> int:
    report = compute_bounds(args.n, args.delta, args.dmax)
    print(bounds_json(report))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
