"""The bit-for-bit pins of estimates at a second numpy dispatch level, where numpy dispatches no AVX-512."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# numpy then runs AVX2 kernels at most; it ignores a feature name that it does not dispatch on the host
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
PINNED = (
    "tests/test_experiment.py::TestTables::test_five_trial_stats_are_pinned[t1a-52]",
    "tests/test_api.py::test_readme_library_example_prints_its_commented_values",
)


def test_pins_hold_without_avx512():
    # a pin recorded at one dispatch level only fails here, on a host that has the other
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512, "PYTHONPATH": os.pathsep.join(["src", "tests"])}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)

    # the setting took: a feature name that numpy no longer knows would leave its AVX-512 kernels on
    probe = run("-c", "import conftest; assert conftest.numpy_kernels_are_libm()")
    assert probe.returncode == 0, probe.stderr
    tests = run("-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED)
    assert tests.returncode == 0 and "2 passed" in tests.stdout, tests.stdout + tests.stderr
