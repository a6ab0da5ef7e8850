"""Record the golden outputs that the benchmark's output check compares with.

    python3 bench/make_golden.py [--workload NAME ...]

Runs the first sessions of each workload on the default seed against the
checkout's ``src/`` and writes ``bench/golden/<workload>.json``.  Rerun it
only when a change is meant to alter the numbers, and say why in the change.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import OUT_DIR, ROOT, _import_pathvol

# Golden prefix per workload: a full untraced run at the commit the goldens
# were made at for mc_highfreq and single_path; the first of the ~1500
# sessions of an mc_coarse run.
SESSIONS = {"mc_highfreq": 150, "mc_coarse": 100, "single_path": 240}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=list(SESSIONS))
    args = parser.parse_args(argv)
    _import_pathvol()
    import measure
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR))
    try:
        for workload in args.workload:
            entries = []
            for index in range(SESSIONS[workload]):
                session = workloads.session_input(workload, workloads.DEFAULT_SEED, index)
                outcome = workloads.execute(session, workdir)
                failed, problems = workloads.check(session, outcome, None, workdir)
                if failed:
                    sys.exit(f"error: {workload} session {index} failed: {problems}")
                entries.append(workloads.golden_entry(session, outcome))
            doc = {
                "workload": workload,
                "seed": workloads.DEFAULT_SEED,
                "made_at": measure.environment(ROOT),
                "sessions": entries,
            }
            dest = workloads.GOLDEN_DIR / f"{workload}.json"
            dest.parent.mkdir(exist_ok=True)
            dest.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            print(f"{workload}: {len(entries)} sessions -> {dest.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
