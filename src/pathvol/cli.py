"""Command line front end: simulate paths, estimate from CSV, run tables.

``simulate`` builds its model with model.parse_model_config alone: each model
flag given (--model, --a, --b, --sigma, --gamma) is the config line of the same
name, read after the --config file's lines, so it overrides or completes the
file; --model random-delay then adds the lines of a drift drawn from the seed.

Exit codes: 0 success, 1 runtime failure (a simulation that fails or cannot
be written, a degenerate input path), 2 usage errors (bad flags or flag
values, a model or simulation parameter that the model or SimConfig
refuses, malformed input files).
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .estimators import METHOD_INTEGRATED_SIGMA_SQ, METHOD_JOINT_VARIANCE, METHODS, EstimateResult, EstimatorSpec
from .experiment import TABLE_IDS, TABLE_STEPS, reproduce_table
from .model import MissingKeyError, ModelSpec, format_drift, parse_model_config, sample_delay_drift
from .simulate import (
    CsvFormatError,
    SimConfig,
    euler_maruyama,
    read_path_csv,
    write_path_csv,
)

_MODEL_CHOICES = ("cir", "ckls", "random-delay")
# simulate's model flags; each one given is read as the config line <dest>=<value>
_MODEL_FLAGS = ("model", "a", "b", "sigma", "gamma")
# short command-line names for two registry methods
_METHOD_ALIASES = {"joint": METHOD_JOINT_VARIANCE, "integrated": METHOD_INTEGRATED_SIGMA_SQ}
# every parameter a registered estimator takes; each is the dest of an estimate flag
_ESTIMATOR_PARAMS = {name for m in METHODS.values() for name in (*m.required, *m.defaults)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathvol",
        description="Simulate power-diffusion paths and estimate (sigma, gamma) from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one path and write it as CSV")
    sim.add_argument("--config", type=Path, help="key=value model config file (flags override)")
    sim.add_argument("--model", choices=_MODEL_CHOICES)
    sim.add_argument("--a", type=float, help="mean-reversion speed (cir/ckls)")
    sim.add_argument("--b", type=float, help="mean-reversion level (cir/ckls)")
    sim.add_argument("--sigma", type=float, help="diffusion scale, > 0")
    sim.add_argument("--gamma", type=float, help="diffusion power in [0, 1]")
    sim.add_argument("--n", type=int, required=True, help="number of grid steps on [0, 1]")
    sim.add_argument("--y0", type=float, help="starting value, > 0 (default: drawn uniformly from [0.1, 10])")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--stop-ratio", type=float, default=0.001)
    sim.add_argument("--delay-rule", choices=("scaled", "literal"), default="scaled")
    sim.add_argument("--out", type=Path, required=True, help="output CSV file (header t,y)")
    sim.set_defaults(parser=sim)

    est = sub.add_parser("estimate", help="run one estimator on a path CSV")
    est.add_argument("--in", dest="infile", type=Path, required=True, help="input CSV (header t,y)")
    est.add_argument("--method", choices=(*METHODS, *_METHOD_ALIASES), required=True)
    est.add_argument("--gamma", type=float, help="known gamma (sigma-known-gamma, integrated)")
    est.add_argument("--h", type=float, help="increment exponent; defaults to --gamma")
    est.add_argument("--h1", type=float, help="first exponent (gamma-ratio, default 0)")
    est.add_argument("--h2", type=float, help="second exponent (gamma-ratio, default 1)")
    est.add_argument("--grid-n", type=int, help="search grid size (default 300 ratio, 30 others)")
    est.add_argument("--sigma", type=float, help="known sigma (gamma-known-sigma)")
    est.add_argument(
        "--search-range",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="scan candidates in (LO, HI] instead of (0, 1] (the three grid searches)",
    )
    est.add_argument("--curve", type=Path, help="write the objective curve CSV here")
    est.set_defaults(parser=est)

    exp = sub.add_parser("experiment", help="rerun benchmark error tables")
    exp.add_argument(
        "--table", nargs="+", choices=TABLE_IDS, default=TABLE_IDS, help="default: all"
    )
    exp.add_argument("--trials", type=int, default=1000, help="trials per table row")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--max-steps", type=int, help="skip rows with more steps than this (e.g. 250 for a fast pass)"
    )
    exp.add_argument("--out", type=Path, help="write the comparison CSV here (one table only)")
    exp.set_defaults(parser=exp)
    return parser


def _build_model(args, parser: argparse.ArgumentParser, rng: np.random.Generator) -> ModelSpec:
    text = ""
    if args.config is not None:
        try:
            text = args.config.read_text() + "\n"
        except OSError as exc:
            parser.error(f"--config: cannot read file: {exc}")
    text += "".join(f"{k}={getattr(args, k)}\n" for k in _MODEL_FLAGS if getattr(args, k) is not None)
    if args.model == "random-delay":
        text += format_drift(sample_delay_drift(rng))
    try:
        return parse_model_config(text)  # a repeated key keeps its last value: flags override
    except MissingKeyError as exc:
        flag = f"--{exc.key} or " if exc.key in _MODEL_FLAGS else ""
        parser.error(f"{exc}: give {flag}a {exc.key}= line in the --config file")


def cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    try:
        cfg = SimConfig(  # y0 = None (no --y0) draws it from rng
            n_steps=args.n,
            y0=args.y0,
            stop_ratio=args.stop_ratio,
            delay_rule=args.delay_rule,
        )
        model = _build_model(args, parser, rng)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        path = euler_maruyama(model, cfg, rng)
        write_path_csv(path, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"stopped_early={path.stopped_early} m={path.m} positivity_fixes={path.positivity_fixes}",
        file=sys.stderr,
    )
    return 0


def _write_curve(result: EstimateResult, dest: Path) -> None:
    lines = ["h,objective"]
    for h, obj in result.objective_curve or ():
        lines.append(f"{h:.17g},{obj:.17g}")
    dest.write_text("\n".join(lines) + "\n")


def cmd_estimate(args, parser: argparse.ArgumentParser) -> int:
    method = _METHOD_ALIASES.get(args.method, args.method)
    try:
        spec = EstimatorSpec(method, **{name: getattr(args, name) for name in _ESTIMATOR_PARAMS})
    except ValueError as exc:
        parser.error(str(exc))

    try:
        path = read_path_csv(args.infile)
    except OSError as exc:
        print(f"error: cannot read {args.infile}: {exc}", file=sys.stderr)
        return 2
    except CsvFormatError as exc:
        print(f"error: {args.infile}: {exc}", file=sys.stderr)
        return 2

    try:
        result = spec.result(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if result.degenerate:
        print("warning: zero-variance path; sigma estimate is 0", file=sys.stderr)
    print(EstimateResult.CSV_HEADER)
    print(result.to_csv_row())
    if args.curve is not None and result.objective_curve is not None:
        _write_curve(result, args.curve)
    return 0


def cmd_experiment(args, parser: argparse.ArgumentParser) -> int:
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.max_steps is not None and args.max_steps < 2:
        parser.error("--max-steps must be >= 2")
    if args.out is not None and len(args.table) > 1:
        parser.error("--out takes a single --table")
    runs = []
    for table_id in args.table:
        steps = tuple(n for n in TABLE_STEPS[table_id] if args.max_steps is None or n <= args.max_steps)
        if steps:
            runs.append((table_id, steps))
        else:
            print(f"table {table_id}: skipped (all rows above --max-steps)", file=sys.stderr)
    if not runs:
        parser.error("--max-steps skips every row")
    for table_id, steps in runs:
        start = time.perf_counter()
        try:
            report = reproduce_table(
                table_id, trials=args.trials, master_seed=args.seed, n_steps_filter=steps
            )
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(report.format_text() + "\n")
        print(f"table {table_id}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        if args.out is not None:
            args.out.write_text(report.to_csv())
    return 0


_parser = functools.cache(build_parser)  # main's, built once: parsing leaves it as it was, its defaults immutable


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # cmd_<command> is looked up when called; it reports usage errors with its subcommand's usage line
    return globals()[f"cmd_{args.command}"](args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
