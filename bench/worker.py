"""One benchmark process: set up, run one workload closed-loop, print a JSON line.

Started by run.py, which times it from spawn to the ``READY`` line (set-up)
and reads the JSON line it prints last.  The process imports pathvol from
the ``src/`` directory next to this benchmark, never from an installed copy.

Untraced (``--trace 0``): sessions run back to back for ``--seconds``, and
at least MIN_SESSIONS of them, stopping only at a cycle boundary.
Traced (``--trace 1``): for TRACE_SHARE of the time, every session runs
twice, once plainly and once with every public pathvol function wrapped;
the difference of the two walls is the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
MIN_SESSIONS = 110  # p90 needs at least ten sessions beyond it
HARD_CAP_S = 140.0  # stop extending a run to reach MIN_SESSIONS after this
TRACE_SHARE = 0.8
COVERAGE_MIN = 0.95  # top-level spans must cover this share of the traced wall


def _import_pathvol():
    src = ROOT / "src"
    if not (src / "pathvol" / "__init__.py").is_file():
        sys.exit(f"error: no pathvol sources under {src}")
    sys.path.insert(0, str(src))
    import pathvol

    if Path(pathvol.__file__).resolve().parent != (src / "pathvol").resolve():
        sys.exit(f"error: imported pathvol from {pathvol.__file__}, not from {src}")
    return pathvol


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Run:
    """Sessions of one workload and the tallies of their checks."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.golden = workloads.load_golden(workload, seed)
        self.cycle = workloads.cycle_length(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows = workloads.RowErrors()
        self.golden_checked = 0

    def session(self, index: int):
        return workloads.session_input(self.workload, self.seed, index)

    def one(self, index: int):
        """Run session ``index``; returns (latency seconds, outcome)."""
        session = self.session(index)
        t0 = time.perf_counter()
        outcome = workloads.execute(session, self.workdir)
        latency = time.perf_counter() - t0
        golden = None
        if self.golden is not None and index < len(self.golden):
            golden = self.golden[index]
            self.golden_checked += 1
        failed, problems = workloads.check(session, outcome, golden, self.workdir)
        self.attempted += workloads.trials_of(session)
        self.failed += failed
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])
        if isinstance(session, workloads.McSession):
            self.rows.add(session, outcome)
        return latency, outcome

    def loop(self, seconds: float):
        """Closed loop from session 0; returns (wall, session latencies)."""
        latencies = []
        t0 = time.perf_counter()
        while True:
            if len(latencies) % self.cycle == 0:
                elapsed = time.perf_counter() - t0
                if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(latencies) >= MIN_SESSIONS):
                    break
            latencies.append(self.one(len(latencies))[0])
        return time.perf_counter() - t0, latencies


def untraced(run: Run, seconds: float, modules) -> dict:
    cpu0 = _cpu_seconds()
    wall, latencies = run.loop(seconds)
    cpu = _cpu_seconds() - cpu0
    leftover = spans.installed_wrappers(modules)
    if leftover:
        run.problems.append(f"wrappers left installed: {leftover[:5]}")
    n = len(latencies)
    if measure.samples_beyond(n, 900) < measure.MIN_BEYOND:
        run.problems.append(f"only {n} sessions: fewer than ten beyond p90")
    tail = measure.tail_permille(n)
    metrics = {
        "trials_per_s": run.attempted / wall,
        "session_p50_ms": measure.percentile(latencies, 500) * 1e3,
        "session_p90_ms": measure.percentile(latencies, 900) * 1e3,
        "cpu_ms_per_op": cpu * 1e3 / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "sessions": n,
        "session_p90_samples_beyond": measure.samples_beyond(n, 900),
        "session_tail": None if tail is None else {
            "percentile": measure.label(tail),
            "ms": measure.percentile(latencies, tail) * 1e3,
            "samples_beyond": measure.samples_beyond(n, tail),
        },
        "timed_wall_s": wall,
        "cpu_s": cpu,
    }
    return {"metrics": metrics, "detail": detail}


def traced(run: Run, seconds: float, modules) -> dict:
    for index in range(run.cycle):  # warm-up, so that no pass runs cold
        run.one(index)
    span_cost = spans.calibrate_span_cost()
    tracer = spans.Tracer(layers.PROBES)
    # Each session runs twice, untraced and traced, in alternating order, so
    # that drift in machine speed falls on both walls alike.
    wall_u = wall_t = 0.0
    mismatched = count = 0
    t0 = time.perf_counter()
    try:
        while count % run.cycle or time.perf_counter() - t0 < seconds * TRACE_SHARE:
            outcomes = {}
            for with_spans in ((False, True) if count % 2 == 0 else (True, False)):
                if with_spans:
                    tracer.install(modules)
                latency, outcomes[with_spans] = run.one(count)
                tracer.uninstall()
                if with_spans:
                    wall_t += latency
                else:
                    wall_u += latency
            mismatched += repr(outcomes[False]) != repr(outcomes[True])
            count += 1
    finally:
        tracer.uninstall()
    problems = run.problems
    if mismatched:
        problems.append(f"{mismatched} traced sessions differ from their untraced run")
    leftover = spans.installed_wrappers(modules)
    if leftover:
        problems.append(f"wrappers left installed: {leftover[:5]}")

    arrays = tracer.arrays()
    summary = spans.summarize(arrays, tracer.names, span_cost)
    top = arrays["parent"] < 0
    top_raw = float(np.sum(arrays["end"][top] - arrays["start"][top]))
    self_sum = float(np.sum(spans.self_times(arrays["start"], arrays["end"], arrays["parent"])))
    # Accounting: self times of all spans add up to the top-level spans, and
    # those cover the traced wall except for the benchmark's own loop.
    if not abs(self_sum - top_raw) <= 1e-9 * max(top_raw, 1.0):
        problems.append(f"span self times sum to {self_sum}, top-level spans to {top_raw}")
    if not COVERAGE_MIN * wall_t <= top_raw <= wall_t:
        problems.append(f"top-level spans cover {top_raw / wall_t:.3f} of the traced wall")
    raised = {name: tracer.raised[i] for i, name in enumerate(tracer.names)}
    metrics = layers.metrics(summary, arrays, tracer.counters, raised, wall_u, wall_t, span_cost, top_raw)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{run.workload}-seed{run.seed}.npz"
    tracer.write(trace_file)
    detail = {
        "sessions": count,
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_t,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans_by_name": {k: v for k, v in sorted(summary.items())},
    }
    return {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_pathvol()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    modules = spans.pathvol_modules()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        run = Run(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = (traced if args.trace else untraced)(run, args.seconds, modules)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.failed == 0 and not run.problems,
        "problems": run.problems,
        "golden_sessions_checked": run.golden_checked,
        "metrics": result["metrics"],
        "detail": result["detail"],
        "rows": run.rows.table(),
        "environment": measure.environment(ROOT),
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
