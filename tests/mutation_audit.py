"""Mutation audit of the tier-1 suite: does each one-operator change to src/ fail a test?

Run from the repository root:

    python tests/mutation_audit.py simulate model        # audit two modules
    python tests/mutation_audit.py simulate --list       # only list the mutants
    python tests/mutation_audit.py simulate --only 3,7   # rerun chosen mutants

A mutant swaps one comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``) or one arithmetic operator (``+`` and ``-``, ``*`` and ``/``, in a
binary or augmented assignment), found by walking the module's ``ast``.  Code
held in a string, which the walk cannot see, gets text mutants from
``TEXT_MUTANTS``.  String concatenations and operators inside f-strings are
left alone.

Each mutant is written into a fresh copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` in a temporary directory; the checkout is
never edited.  The suite then runs there without ``tests/test_acceptance.py``,
under ``-x``, as one pytest process at a time, with the mutated module's own
test file first.  A mutant is killed when pytest fails or runs past
``--timeout``.  The exit status is 1 when a mutant survives.

The file is not named ``test_*.py``, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "pathvol"
COPIED = ("src", "tests", "pyproject.toml", "README.md")

SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}

# (module, exact text, replacement): operators in source held as strings
TEXT_MUTANTS = (
    ("simulate", "        if nxt <= 0.0:\n", "        if nxt < 0.0:\n"),
    ("simulate", "        if nxt <= threshold:\n", "        if nxt < threshold:\n"),
)


@dataclass(frozen=True)
class Mutant:
    start: int  # byte offsets of the replaced text in the module's source
    end: int
    new: bytes
    where: str  # "line:col old -> new", for the report


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line, indexed from 1 as ast's line numbers are."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _is_text(node: ast.AST) -> bool:
    """A string literal, an f-string, or a ``+`` chain with one of them among its leaves."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_text(node.left) or _is_text(node.right)
    return isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Constant) and isinstance(node.value, str))


def _operator_sites(tree: ast.AST):
    """(op, left node, right node, augmented) of every operator outside f-strings.

    The operator's text lies between the end of the left node and the start
    of the right one, followed by "=" in an augmented assignment.
    """
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                yield op, left, right, False
        elif isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)) and (_is_text(node.left) or _is_text(node.right)):
                continue
            yield node.op, node.left, node.right, False
        elif isinstance(node, ast.AugAssign):
            yield node.op, node.target, node.value, True


def mutants(module: str) -> list[Mutant]:
    """Every mutant of ``src/pathvol/<module>.py``, in source order."""
    source = (ROOT / PACKAGE / f"{module}.py").read_bytes()
    line_at = _offsets(source)
    found = []
    for op, left, right, augmented in _operator_sites(ast.parse(source)):
        if type(op) not in SWAPS:
            continue
        old, new = SWAPS[type(op)]
        lo = line_at[left.end_lineno] + left.end_col_offset
        hi = line_at[right.lineno] + right.col_offset
        gap = source[lo:hi]
        at = gap.find(old.encode())
        # the gap holds the operator and only brackets and blanks besides: anything else is not a site
        if at < 0 or gap.replace(old.encode(), b"", 1).strip(b" \t\n()\\") != (b"=" if augmented else b""):
            continue
        line = source[: lo + at].count(b"\n") + 1
        col = lo + at - line_at[line]
        found.append(Mutant(lo + at, lo + at + len(old), new.encode(), f"{line}:{col} {old} -> {new}"))
    for name, text, replacement in TEXT_MUTANTS:
        if name == module:
            at = source.find(text.encode())
            if at < 0 or source.count(text.encode()) != 1:
                raise SystemExit(f"text mutant {text.strip()!r} must occur once in {module}.py")
            line = source[:at].count(b"\n") + 1
            found.append(Mutant(at, at + len(text), replacement.encode(),
                                f"{line}:0 (text) {text.strip()} -> {replacement.strip()}"))
    return sorted(found, key=lambda m: m.start)


def _run_suite(workdir: Path, module: str, timeout: float) -> tuple[str, str]:
    """(outcome, detail) of one tier-1 run in ``workdir``: killed, survived or timeout."""
    files = sorted(p.relative_to(workdir).as_posix() for p in (workdir / "tests").glob("test_*.py"))
    files.remove("tests/test_acceptance.py")
    # pytest runs the files in the order given: the module's own tests first
    files.sort(key=lambda name: name != f"tests/test_{module}.py")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", f"over {timeout:.0f} s"
    if proc.returncode == 0:
        return "survived", out.strip().splitlines()[-1] if out.strip() else ""
    failed = [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if failed:
        return "killed", failed[0]
    # an internal error still ends with the tally
    return "killed", out.strip().splitlines()[-1] if out.strip() else f"pytest exit {proc.returncode}"


def audit(module: str, chosen: list[Mutant], timeout: float) -> list[tuple[Mutant, str, str, float]]:
    results = []
    target = PACKAGE / f"{module}.py"
    original = (ROOT / target).read_bytes()
    with tempfile.TemporaryDirectory(prefix="pathvol-mutation-") as tmp:
        for index, mutant in enumerate(chosen):
            # a fresh copy without bytecode: a mutant of the same size, written within a second of the
            # last, would otherwise run from the last one's cached .pyc
            workdir = Path(tmp) / f"m{index}"
            for name in COPIED:
                src = ROOT / name
                if src.is_dir():
                    shutil.copytree(src, workdir / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
                else:
                    shutil.copy2(src, workdir / name)
            (workdir / target).write_bytes(original[: mutant.start] + mutant.new + original[mutant.end:])
            start = time.perf_counter()
            outcome, detail = _run_suite(workdir, module, timeout)
            seconds = time.perf_counter() - start
            results.append((mutant, outcome, detail, seconds))
            print(f"{module}.py {mutant.where}: {outcome} in {seconds:.1f} s  {detail}", flush=True)
            shutil.rmtree(workdir)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/pathvol, e.g. simulate model")
    parser.add_argument("--list", action="store_true", help="list the mutants with their numbers and stop")
    parser.add_argument("--only", help="comma-separated mutant numbers (per module, as --list shows them)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds before a run counts as killed")
    args = parser.parse_args(argv)
    survivors = 0
    for module in args.modules:
        found = mutants(module)
        if args.list:
            for number, mutant in enumerate(found):
                print(f"{number:3d}  {module}.py {mutant.where}")
            continue
        chosen = found if args.only is None else [found[int(n)] for n in args.only.split(",")]
        results = audit(module, chosen, args.timeout)
        left = [r for r in results if r[1] == "survived"]
        survivors += len(left)
        print(f"{module}.py: {len(results)} mutants, {len(results) - len(left)} killed, {len(left)} survived")
        for mutant, *_ in left:
            print(f"  survivor: {module}.py {mutant.where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
