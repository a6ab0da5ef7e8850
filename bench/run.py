"""pathvol benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload mc_highfreq --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the benchmark drives the pathvol
sources in the checkout's ``src/``.  With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
metric.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record (environment
stamp, per-row error statistics, problems found by the output check) goes
to ``.bench_out/result-<workload>-seed<seed>-trace<n>.json``.

Set-up time is the median over SETUP_PROBES fresh processes plus the
measuring process itself, each timed from spawn until it is ready to run
its first session.  The measuring process runs alone, so its peak RSS is
the workload's own.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Start a worker; returns (seconds from spawn to READY, its last output line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if first.strip() != "READY":
            raise WorkerError(f"worker did not get ready: {first!r}")
        rest, _ = proc.communicate(timeout=max(1.0, timeout - ready))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pathvol" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no pathvol sources (src/pathvol)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(common + ["--setup-only"], PROBE_TIMEOUT_S)[0])
        ready, line = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], RUN_TIMEOUT_S
        )
        setups.append(ready)
        record = json.loads(line)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(record["metrics"])
    values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run did not produce {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record["setup_samples_s"] = setups
    record["args"] = vars(args)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    dest = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dest.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    detail = record["detail"]
    print(f"sessions = {detail['sessions']}; check: {record['failed']} of {record['attempted']} ops failed, "
          f"{record['golden_sessions_checked']} sessions compared with golden values")
    for key, row in record["rows"]["rows"].items():
        print(f"row {key}: n={row['n_effective']} rmse={row['rmse']:.4g} "
              f"bias={row['bias']:.4g} ratio to paper rmse={row['ratio']:.3g}")
    for problem in record["problems"][:5]:
        print(f"problem: {problem}")
    print(f"full record: {dest.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
