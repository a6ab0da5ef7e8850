"""Workload inputs, the operations that drive pathvol, and their output checks.

Every input is a pure function of (workload, seed, session index), so the
same seed replays the same sessions and the program only ever sees the
generated table configurations and model parameters.

* ``mc_highfreq`` and ``mc_coarse`` run sessions of ``reproduce_table(table,
  trials=1, master_seed, n_steps_filter)`` calls, so every selected row runs
  one trial.  ``mc_highfreq`` cycles through three sessions (t2 at N = 10 000,
  t2 at N = 20 000, t3 at both); in ``mc_coarse`` one session reruns every
  row with N <= 250 once.  Sessions of similar length keep the latency
  percentiles away from the gaps between session kinds, where they would
  jump from seed to seed.
* ``single_path`` runs one command-line session through ``pathvol.cli.main``:
  ``simulate`` a CKLS path, then ``estimate`` it with each of the five methods.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mc_highfreq", "mc_coarse", "single_path")
DEFAULT_SEED = 0

# The sessions of one cycle; each is a list of (table, n_steps_filter, rows).
MC_CYCLES = {
    "mc_highfreq": (
        (("t2", (10000,), 2),),
        (("t2", (20000,), 2),),
        (("t3", (10000, 20000), 2),),
    ),
    "mc_coarse": ((("t1a", (52,), 4), ("t1b", (250,), 4), ("t2", (250,), 2), ("t3", (250,), 1)),),
}

# Golden comparison on the default seed: estimates and error statistics must
# match the values recorded from the seed commit to this tolerance; counts
# must match exactly.  Argmins sit on a grid, so a change that moves one
# candidate is a mismatch to be explained, not noise.
REL_TOL = 1e-9
ABS_TOL = 1e-12

SP_STEPS = 10000
SP_METHODS = ("sigma-known-gamma", "gamma-ratio", "joint", "gamma-known-sigma", "integrated")
# grid size each method prints, None for the methods without a search
SP_GRID = {"sigma-known-gamma": None, "gamma-ratio": 300, "joint": 30, "gamma-known-sigma": 30, "integrated": None}
SP_FIELDS = {
    "sigma-known-gamma": ("sigma_hat",),
    "gamma-ratio": ("gamma_hat", "objective_min"),
    "joint": ("gamma_hat", "sigma_hat", "objective_min"),
    "gamma-known-sigma": ("gamma_hat", "objective_min"),
    "integrated": ("sigma_hat",),
}
_SP_COLUMNS = ("method", "gamma_hat", "sigma_hat", "grid_n", "objective_min")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class McCall:
    table: str
    n_steps: tuple[int, ...]
    rows: int
    master_seed: int


@dataclass(frozen=True)
class McSession:
    calls: tuple[McCall, ...]

    @property
    def rows(self) -> int:
        return sum(call.rows for call in self.calls)


@dataclass(frozen=True)
class CliSession:
    a: float
    b: float
    sigma: float
    gamma: float
    sim_seed: int


def session_input(workload: str, seed: int, index: int) -> McSession | CliSession:
    """Inputs of session ``index``; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload in MC_CYCLES:
        cycle = MC_CYCLES[workload]
        return McSession(tuple(
            McCall(table, n_steps, rows, rng.getrandbits(32))
            for table, n_steps, rows in cycle[index % len(cycle)]
        ))
    if workload == "single_path":
        return CliSession(
            a=rng.uniform(0.5, 3.0),
            b=rng.uniform(0.5, 2.0),
            sigma=rng.uniform(0.1, 0.5),
            gamma=rng.uniform(0.3, 0.9),
            sim_seed=rng.getrandbits(31),
        )
    raise ValueError(f"unknown workload {workload!r}")


def cycle_length(workload: str) -> int:
    """Sessions per cycle; runs stop only at cycle boundaries."""
    return len(MC_CYCLES[workload]) if workload in MC_CYCLES else 1


def trials_of(session) -> int:
    return session.rows if isinstance(session, McSession) else 1


def load_golden(workload: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN_DIR / f"{workload}.json", encoding="ascii") as fh:
        return json.load(fh)["sessions"]


# ---------------------------------------------------------------------------
# operations


def run_mc(session: McSession):
    """The session's reproduce_table calls; per call, row tuples or the exception text."""
    return [_reproduce(call) for call in session.calls]


def _reproduce(call: McCall):
    from pathvol import experiment

    try:
        report = experiment.reproduce_table(
            call.table, trials=1, master_seed=call.master_seed, n_steps_filter=call.n_steps
        )
    except Exception as exc:  # every failure of the call is a failed op
        return f"{type(exc).__name__}: {exc}"
    return [
        (
            row.row_id,
            row.stats.rmse,
            row.stats.mae,
            row.stats.bias,
            row.stats.n_effective,
            row.stats.failures,
            row.paper_rmse,
            row.ratio,
        )
        for row in report.rows
    ]


def cli_argvs(session: CliSession, workdir: Path) -> list[list[str]]:
    csv = str(workdir / "path.csv")
    sim = [
        "simulate", "--model", "ckls",
        "--a", repr(session.a), "--b", repr(session.b),
        "--sigma", repr(session.sigma), "--gamma", repr(session.gamma),
        "--n", str(SP_STEPS), "--y0", "1", "--seed", str(session.sim_seed), "--out", csv,
    ]
    calls = [sim]
    for method in SP_METHODS:
        argv = ["estimate", "--in", csv, "--method", method]
        if method in ("sigma-known-gamma", "integrated"):
            argv += ["--gamma", repr(session.gamma)]
        if method == "gamma-known-sigma":
            argv += ["--sigma", repr(session.sigma)]
        if SP_GRID[method] is not None:
            argv += ["--curve", str(workdir / f"curve-{method}.csv")]
        calls.append(argv)
    return calls


def run_cli(session: CliSession, workdir: Path):
    """simulate then the five estimates, in-process; (exit code, stdout) per call."""
    from pathvol import cli

    results = []
    for argv in cli_argvs(session, workdir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        results.append((code, out.getvalue()))
        if code != 0:
            break
    return results


def execute(session, workdir: Path):
    if isinstance(session, McSession):
        return run_mc(session)
    return run_cli(session, workdir)


# ---------------------------------------------------------------------------
# output checks: each returns the number of failed trials and the problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_mc(session: McSession, outcome, golden) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for k, (call, rows) in enumerate(zip(session.calls, outcome)):
        f, p = _check_call(call, rows, None if golden is None else golden[k])
        failed += f
        problems += p
    return failed, problems


def _check_call(call: McCall, outcome, golden_rows) -> tuple[int, list[str]]:
    where = f"{call.table}@{call.n_steps} seed {call.master_seed}"
    if isinstance(outcome, str):
        return call.rows, [f"{where}: {outcome}"]
    if len(outcome) != call.rows:
        return call.rows, [f"{where}: {len(outcome)} rows, expected {call.rows}"]
    failed, problems = 0, []
    for i, (row_id, rmse, mae, bias, n_eff, failures, paper_rmse, ratio) in enumerate(outcome):
        bad = None
        if not all(math.isfinite(x) for x in (rmse, mae, bias, ratio)):
            bad = "non-finite statistic"
        elif failures or n_eff != 1:
            bad = f"estimator failed (n_effective={n_eff}, failures={failures})"
        elif not (abs(bias) <= mae * (1 + 1e-12) and mae <= rmse * (1 + 1e-12)):
            bad = "statistics out of order (need |bias| <= mae <= rmse)"
        elif not _close(ratio, rmse / paper_rmse):
            bad = "ratio is not rmse / paper rmse"
        elif golden_rows is not None:
            g_id, g_rmse, g_mae, g_bias, g_n, g_fail = golden_rows[i]
            if row_id != g_id or (n_eff, failures) != (g_n, g_fail) or not (
                _close(rmse, g_rmse) and _close(mae, g_mae) and _close(bias, g_bias)
            ):
                bad = f"differs from golden ({rmse!r}, {bias!r}) vs ({g_rmse!r}, {g_bias!r})"
        if bad:
            failed += 1
            problems.append(f"{where} row {row_id!r}: {bad}")
    return failed, problems


def parse_estimate(stdout: str) -> dict[str, str]:
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != ",".join(_SP_COLUMNS):
        raise ValueError(f"unexpected estimate output {stdout!r}")
    return _estimate_row(lines[1])


def _estimate_row(line: str) -> dict[str, str]:
    fields = line.split(",")
    if len(fields) != len(_SP_COLUMNS):
        raise ValueError(f"unexpected estimate row {line!r}")
    return dict(zip(_SP_COLUMNS, fields))


def check_cli(session: CliSession, outcome, golden_rows, workdir: Path) -> tuple[int, list[str]]:
    where = f"single_path seed {session.sim_seed}"
    problems = []
    codes = [code for code, _ in outcome]
    if len(outcome) != 1 + len(SP_METHODS) or any(codes):
        return 1, [f"{where}: exit codes {codes}"]
    for k, (method, (_, stdout)) in enumerate(zip(SP_METHODS, outcome[1:])):
        try:
            row = parse_estimate(stdout)
            values = {name: float(row[name]) for name in SP_FIELDS[method]}
        except (ValueError, KeyError) as exc:
            problems.append(f"{where} {method}: {exc}")
            continue
        grid = SP_GRID[method]
        if row["method"] == "" or not all(math.isfinite(v) for v in values.values()):
            problems.append(f"{where} {method}: non-finite or missing value in {row}")
        elif grid is not None and row["grid_n"] != str(grid):
            problems.append(f"{where} {method}: grid_n {row['grid_n']!r}, expected {grid}")
        elif grid is not None and _curve_rows(workdir / f"curve-{method}.csv") != grid:
            problems.append(f"{where} {method}: curve file does not hold {grid} rows")
        elif golden_rows is not None:
            golden = _estimate_row(golden_rows[k])
            if golden["method"] != row["method"] or not all(
                _close(v, float(golden[name])) for name, v in values.items()
            ):
                problems.append(f"{where} {method}: differs from golden {golden_rows[k]!r}")
    return (1 if problems else 0), problems


def _curve_rows(path: Path) -> int:
    """Number of finite (h, objective) rows in a curve file, -1 if malformed."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != "h,objective":
            return -1
        for line in lines[1:]:
            h, obj = (float(v) for v in line.split(","))
            if not (math.isfinite(h) and math.isfinite(obj)):
                return -1
    except (OSError, ValueError):
        return -1
    return len(lines) - 1


def check(session, outcome, golden_rows, workdir: Path) -> tuple[int, list[str]]:
    if isinstance(session, McSession):
        return check_mc(session, outcome, golden_rows)
    return check_cli(session, outcome, golden_rows, workdir)


def golden_entry(session, outcome):
    """What the golden file stores for one session."""
    if isinstance(session, McSession):
        return [[list(row[:6]) for row in rows] for rows in outcome]
    return [stdout.splitlines()[1] for _, stdout in outcome[1:]]


class RowErrors:
    """Per-row errors over a run, aggregated like a table row of the report.

    With one trial per row, an estimator failure makes the whole
    reproduce_table call raise; those calls are counted per table and grid.
    """

    def __init__(self):
        self.errors: dict[str, list[float]] = {}
        self.failures: dict[str, int] = {}
        self.paper: dict[str, float] = {}
        self.raised_calls: dict[str, int] = {}

    def add(self, session: McSession, outcome) -> None:
        for call, rows in zip(session.calls, outcome):
            if isinstance(rows, str):
                key = f"{call.table} n_steps={call.n_steps}"
                self.raised_calls[key] = self.raised_calls.get(key, 0) + 1
                continue
            for row_id, _, _, bias, n_eff, failures, paper_rmse, _ in rows:
                key = f"{call.table} {row_id}"
                self.paper[key] = paper_rmse
                self.failures[key] = self.failures.get(key, 0) + failures
                if n_eff:
                    self.errors.setdefault(key, []).append(bias)

    def table(self) -> dict:
        rows = {}
        for key, errs in sorted(self.errors.items()):
            n = len(errs)
            rmse = math.sqrt(sum(e * e for e in errs) / n)
            rows[key] = {
                "n_effective": n,
                "failures": self.failures[key],
                "rmse": rmse,
                "mae": sum(abs(e) for e in errs) / n,
                "bias": sum(errs) / n,
                "paper_rmse": self.paper[key],
                "ratio": rmse / self.paper[key],
            }
        return {"rows": rows, "raised_calls": self.raised_calls}
