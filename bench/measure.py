"""Percentile rule and environment stamp shared by the benchmark scripts."""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

# Candidate percentiles in per-mille, so that the rank arithmetic stays exact.
PERCENTILES_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of the permille-th percentile of n samples."""
    return max(1, -(-permille * n // 1000))


def samples_beyond(n: int, permille: int) -> int:
    return n - rank(n, permille)


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[rank(len(ordered), permille) - 1]


def tail_permille(n: int) -> int | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    valid = [p for p in PERCENTILES_PERMILLE if samples_beyond(n, p) >= MIN_BEYOND]
    return max(valid) if valid else None


def label(permille: int) -> str:
    return f"p{permille / 10:g}"


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pathvol").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    """Commit, source digest, core count, CPU model, library versions, thread settings."""
    import numpy
    import scipy

    return {
        "commit": _git_commit(root),
        "src_sha256_16": _src_digest(root),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
