"""Command line front end: simulate paths, estimate from CSV, run tables.

``simulate`` builds its model with model.parse_model_config alone: each model
flag given (--model, --a, --b, --sigma, --gamma) is the config line of the same
name, read after the --config file's lines, so it overrides or completes the
file; --model random-delay then adds the lines of a drift drawn from the seed.

Exit codes: 0 success, 1 runtime failure (a simulation that fails, an
output file that cannot be written, a degenerate input path), 2 usage
errors (bad flags or flag values, a flag that the estimate method does not
read, a model or simulation parameter that the model or SimConfig refuses,
an unreadable or malformed input file), each raised by the subcommand's
parser under its usage line.  main alone returns: 0, or 1 after one
"error:" line for any runtime failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .estimators import (
    _PARAMS, METHOD_INTEGRATED_SIGMA_SQ, METHOD_JOINT_VARIANCE, METHODS, EstimateResult, EstimatorSpec
)
from .experiment import TABLE_IDS, reproduce_table
from .model import MissingKeyError, ModelSpec, format_drift, parse_model_config, sample_delay_drift
from .simulate import (
    CsvFormatError,
    SimConfig,
    _write_pairs,
    euler_maruyama,
    read_path_csv,
    write_path_csv,
)

_MODEL_CHOICES = ("cir", "ckls", "random-delay")
# simulate's model flags; each one given is read as the config line <dest>=<value>
_MODEL_FLAGS = ("model", "a", "b", "sigma", "gamma")
# short command-line names for two registry methods
_METHOD_ALIASES = {"joint": METHOD_JOINT_VARIANCE, "integrated": METHOD_INTEGRATED_SIGMA_SQ}
# the grid searches, the methods with an objective curve for --curve
_SEARCH_METHODS = tuple(name for name, m in METHODS.items() if "search_range" in m.defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathvol",
        description="Simulate power-diffusion paths and estimate (sigma, gamma) from them.",
        allow_abbrev=False,
    )
    # a flag is taken only by its full name; each subparser sets this too, as it does not inherit it
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one path and write it as CSV", allow_abbrev=False)
    sim.add_argument("--config", type=Path, help="key=value model config file (flags override)")
    sim.add_argument("--model", choices=_MODEL_CHOICES)
    sim.add_argument("--a", type=float, help="mean-reversion speed (cir/ckls)")
    sim.add_argument("--b", type=float, help="mean-reversion level (cir/ckls)")
    sim.add_argument("--sigma", type=float, help="diffusion scale, >= 0 (0: a noiseless path)")
    sim.add_argument("--gamma", type=float, help="diffusion power in [0, 1]")
    sim.add_argument("--n", type=int, required=True, help="number of grid steps on [0, 1]")
    sim.add_argument("--y0", type=float, help="starting value, > 0 (default: drawn uniformly from [0.1, 10])")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=Path, required=True, help="output CSV file (header t,y)")
    sim.set_defaults(parser=sim)

    est = sub.add_parser("estimate", help="run one estimator on a path CSV", allow_abbrev=False)
    est.add_argument("--in", dest="infile", type=Path, required=True, help="input CSV (header t,y)")
    est.add_argument("--method", choices=(*METHODS, *_METHOD_ALIASES), required=True)
    est.add_argument("--gamma", type=float, help="known gamma (sigma-known-gamma, integrated)")
    est.add_argument("--h1", type=float, help="first exponent (gamma-ratio, default 0)")
    est.add_argument("--h2", type=float, help="second exponent (gamma-ratio, default 1)")
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

    exp = sub.add_parser("experiment", help="rerun benchmark error tables", allow_abbrev=False)
    exp.add_argument(
        "--table", nargs="+", choices=TABLE_IDS, default=TABLE_IDS, help="default: all"
    )
    exp.add_argument("--trials", type=int, default=1000, help="trials per table row")
    exp.add_argument("--seed", type=int, default=0)
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


def cmd_simulate(args, parser: argparse.ArgumentParser) -> None:
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    try:
        # y0 = None (no --y0) draws it from rng
        cfg = SimConfig(n_steps=args.n, y0=args.y0)
        model = _build_model(args, parser, rng)
    except ValueError as exc:
        parser.error(str(exc))
    path = euler_maruyama(model, cfg, rng)
    write_path_csv(path, args.out)
    print(
        f"stopped_early={path.stopped_early} m={path.m} positivity_fixes={path.positivity_fixes}",
        file=sys.stderr,
    )


def _estimate_csv(method: str, result: EstimateResult) -> str:
    """``pathvol estimate``'s header and row: the method, then each value as .17g, or empty for None."""
    values = (result.gamma_hat, result.sigma_hat, result.grid_n, result.objective_min)
    row = ",".join([method, *("" if x is None else format(x, ".17g") for x in values)])
    return f"method,gamma_hat,sigma_hat,grid_n,objective_min\n{row}"


def cmd_estimate(args, parser: argparse.ArgumentParser) -> None:
    method = _METHOD_ALIASES.get(args.method, args.method)
    try:
        spec = EstimatorSpec(method, **{name: getattr(args, name) for name in _PARAMS})
    except ValueError as exc:
        parser.error(str(exc))
    if args.curve is not None and method not in _SEARCH_METHODS:
        parser.error(f"--curve needs a grid search method: {', '.join(_SEARCH_METHODS)}")

    try:
        path = read_path_csv(args.infile)
    except OSError as exc:
        parser.error(f"--in: cannot read file: {exc}")
    except CsvFormatError as exc:
        parser.error(f"--in {args.infile}: {exc}")

    result = spec.result(path)
    if args.curve is not None:
        _write_pairs(args.curve, "h,objective", result.grid, result.objective)
    if result.degenerate:
        print("warning: zero-variance path; sigma estimate is 0", file=sys.stderr)
    print(_estimate_csv(spec.method, result))


def cmd_experiment(args, parser: argparse.ArgumentParser) -> None:
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.out is not None and len(args.table) > 1:
        parser.error("--out takes a single --table")
    # opened before any table runs, so an unwritable --out costs no work
    with contextlib.nullcontext() if args.out is None else args.out.open("w") as out:
        for table_id in args.table:
            start = time.perf_counter()
            report = reproduce_table(table_id, trials=args.trials, master_seed=args.seed)
            print(report.format_text() + "\n")
            print(f"table {table_id}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
            if args.out is not None:
                out.write(report.to_csv())


_parser = functools.cache(build_parser)  # main's, built once: parsing leaves it as it was, its defaults immutable


def main(argv: list[str] | None = None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    # usage errors, an unknown flag too, are reported with the subcommand's usage line (exit 2)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        # cmd_<command> is looked up when called
        globals()[f"cmd_{args.command}"](args, args.parser)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
