"""Seed audit of the acceptance gates: how often does each table criterion pass over master seeds?

Run from the repository root:

    PYTHONPATH=src python tests/seed_audit.py                          # seeds 0-19, criterion 6 on 0-9
    PYTHONPATH=src python tests/seed_audit.py --seeds 1 --fine-seeds 1  # seed 0 alone

Tier-1 runs criteria 2-7 of ``tests/test_acceptance.py`` on master seed 0
alone.  For each master seed 0, 1, ..., seeds - 1 this script rebuilds each
criterion's table fixtures at that seed (the fixture's own table id, trials
and row filter, with ``reproduce_table``'s ``master_seed`` set) and calls the
criterion's own test function on them, so the bands and trial counts are the
test file's.  Criterion 6 needs the 200 trials at N = 10 000 of
``power_search_fine_run``, about 5 s a seed, and so runs on the first
``--fine-seeds`` seeds only.

Each seed prints one line per criterion: pass or the failed assertion, and
each metric with its position in its band, 0 at the lower edge and 1 at the
upper one (a one-sided check shows its bound).  The bands in ``METRICS``
restate the test file's for this report; the verdict is the test
function's alone.  A summary gives each criterion's pass count and each
metric's range over the seeds.  The audit only measures: it re-calibrates
nothing.  The exit status is 1 when a criterion fails at seed 0.

The file is not named ``test_*.py``, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
import traceback
from unittest import mock

import test_acceptance as acc

# per criterion: its metrics (name, value, lo, hi) from the same fixtures as its test function
METRICS = {
    acc.test_criterion_2_matched_power_scale_error_fine_grid: lambda fine_grid_run: [
        ("rmse", fine_grid_run[0].rows[0].stats.rmse, 0.75 * acc.REF_FINE_MATCHED_RMSE,
         1.25 * acc.REF_FINE_MATCHED_RMSE),
        ("bias", fine_grid_run[0].rows[0].stats.bias, -0.005, 0.005),
        ("seconds", fine_grid_run[1], -math.inf, 60.0),
    ],
    acc.test_criterion_3_mismatched_power_bias_signs_and_sizes: lambda fine_grid_run: [
        (f"bias[{i}]", row.stats.bias, *sorted((0.6 * ref, 1.4 * ref)))
        for i, (row, ref) in enumerate(zip(fine_grid_run[0].rows[1:], acc.REF_FINE_MISMATCH_BIASES), 1)
    ],
    acc.test_criterion_4_matched_power_scale_error_coarse_grid: lambda coarse_grid_run: [
        ("rmse", coarse_grid_run[0].rows[0].stats.rmse, 0.75 * acc.REF_COARSE_MATCHED_RMSE,
         1.25 * acc.REF_COARSE_MATCHED_RMSE),
    ],
    acc.test_criterion_5_power_search_errors_coarse_grid: lambda power_search_coarse_run: [
        ("ratio rmse", power_search_coarse_run[0].rows[0].stats.rmse, 0.70 * acc.REF_SEARCH_RMSE_RATIO,
         1.30 * acc.REF_SEARCH_RMSE_RATIO),
        ("joint rmse", power_search_coarse_run[0].rows[1].stats.rmse, 0.70 * acc.REF_SEARCH_RMSE_JOINT,
         1.30 * acc.REF_SEARCH_RMSE_JOINT),
        ("ratio bias", power_search_coarse_run[0].rows[0].stats.bias, 0.0, math.inf),
        ("joint bias", power_search_coarse_run[0].rows[1].stats.bias, 0.0, math.inf),
        ("seconds", power_search_coarse_run[1], -math.inf, 120.0),
    ],
    acc.test_criterion_6_power_search_errors_shrink_with_frequency:
        lambda power_search_coarse_run, power_search_fine_run: [
            ("ratio rmse", power_search_fine_run[0].rows[0].stats.rmse, 0.60 * acc.REF_SEARCH_RMSE_RATIO_FINE,
             1.40 * acc.REF_SEARCH_RMSE_RATIO_FINE),
            ("ratio fine/coarse", power_search_fine_run[0].rows[0].stats.rmse
             / power_search_coarse_run[0].rows[0].stats.rmse, -math.inf, 1.0),
            ("joint fine/coarse", power_search_fine_run[0].rows[1].stats.rmse
             / power_search_coarse_run[0].rows[1].stats.rmse, -math.inf, 1.0),
            ("seconds", power_search_fine_run[1], -math.inf, 600.0),
        ],
    acc.test_criterion_7_joint_scale_error_coarse_grid: lambda joint_scale_run: [
        ("rmse", joint_scale_run[0].rows[0].stats.rmse, 0.60 * acc.REF_SCALE_RMSE, 1.40 * acc.REF_SCALE_RMSE),
    ],
}
FINE = acc.test_criterion_6_power_search_errors_shrink_with_frequency


def _label(test) -> str:
    return "criterion " + test.__name__.split("_")[2]


def _fixture(name: str, seed: int):
    """The value of test_acceptance's fixture ``name`` with its tables run at master seed ``seed``."""
    with mock.patch.object(acc, "reproduce_table", functools.partial(acc.reproduce_table, master_seed=seed)):
        return inspect.unwrap(getattr(acc, name))()


def _band(lo: float, hi: float) -> str:
    return f"< {hi:g}" if math.isinf(lo) else f"> {lo:g}" if math.isinf(hi) else f"{lo:.4g} .. {hi:.4g}"


def _position(value: float, lo: float, hi: float) -> str:
    """Where ``value`` sits in [lo, hi]: 0 at lo, 1 at hi; blank for a one-sided band."""
    return "" if math.isinf(lo) or math.isinf(hi) else f"{(value - lo) / (hi - lo):.2f}"


def _verdict(test, fixtures: dict) -> str | None:
    """None when the test function passes, else the failed line of test_acceptance."""
    try:
        test(**fixtures)
    except AssertionError as exc:
        frame = [f for f in traceback.extract_tb(exc.__traceback__) if f.filename == acc.__file__][-1]
        return f"line {frame.lineno}: {frame.line}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20, help="audit master seeds 0 .. SEEDS-1")
    parser.add_argument("--fine-seeds", type=int, default=10, help="criterion 6 on master seeds 0 .. FINE_SEEDS-1")
    args = parser.parse_args(argv)
    print(f"seed audit of tests/test_acceptance.py: criteria 2-5 and 7 on master seeds 0..{args.seeds - 1},"
          f" criterion 6 on 0..{args.fine_seeds - 1}")
    failures = {test: [] for test in METRICS}  # per criterion, seed by seed: None or the failed line
    ranges: dict[tuple, list[float]] = {}
    for seed in range(max(args.seeds, args.fine_seeds)):
        values: dict[str, object] = {}
        for test, metrics in METRICS.items():
            if seed >= (args.fine_seeds if test is FINE else args.seeds):
                continue
            names = list(inspect.signature(test).parameters)
            for name in names:
                if name not in values:
                    values[name] = _fixture(name, seed)
            fixtures = {name: values[name] for name in names}
            failure = _verdict(test, fixtures)
            failures[test].append(failure)
            shown = []
            for name, value, lo, hi in metrics(**fixtures):
                ranges.setdefault((test, name, lo, hi), []).append(value)
                at = _position(value, lo, hi)
                shown.append(f"{name} {value:.4g} " + (f"at {at}" if at else f"({_band(lo, hi)})"))
            print(f"seed {seed:2d}  {_label(test)}  {'pass' if failure is None else 'FAIL ' + failure}"
                  f"  |  {';  '.join(shown)}", flush=True)
    print("\nsummary: passes per criterion; each metric's range over the seeds run, and where it sits in its band")
    for test in METRICS:
        print(f"{_label(test)}: {failures[test].count(None)} of {len(failures[test])} seeds pass")
        for (owner, name, lo, hi), seen in ranges.items():
            if owner is test:
                at = _position(min(seen), lo, hi)
                at = f" at {at} .. {_position(max(seen), lo, hi)}" if at else ""
                print(f"    {name}: {min(seen):.4g} .. {max(seen):.4g}{at}  (band {_band(lo, hi)})")
    return 1 if any(seen and seen[0] is not None for seen in failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
