"""In-memory span tracer for the pathvol benchmark.

The tracer replaces every public function of the six pathvol modules with a
wrapper, at every module attribute where a caller looks it up (for example
``pathvol.experiment.euler_maruyama`` and ``pathvol.simulate.eval_drift``).
Each call records one span: name id, start, end, the index of the enclosing
span, and the number of spans opened inside it.  Spans are appended to flat
``array`` buffers so that the per-step ``eval_drift`` spans stay cheap, and
are turned into per-layer figures by ``summarize`` once the run is over.

Span indices are assigned on entry, so the buffers are in pre-order: a
span's descendants are exactly the spans created between its entry and its
exit.  That makes the descendant count a subtraction at exit time.

Wrapping costs time of its own.  ``calibrate_span_cost`` measures what one
wrapped call adds over a plain call; ``summarize`` subtracts that cost once
per child span from the enclosing span, and the benchmark reports how far
the corrected total lands from the untraced wall.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from array import array
from types import ModuleType

import numpy as np

TRACED_MODULES = ("model", "simulate", "auxprocess", "estimators", "experiment", "cli")

_MARK = "__bench_span_name__"


def pathvol_modules() -> dict[str, ModuleType]:
    """The package and its six traced modules, by short name."""
    modules = {"pathvol": importlib.import_module("pathvol")}
    for short in TRACED_MODULES:
        modules[short] = importlib.import_module(f"pathvol.{short}")
    return modules


def public_functions(modules: dict[str, ModuleType]) -> dict[object, str]:
    """Public functions defined in each traced module -> "<module>.<function>"."""
    found: dict[object, str] = {}
    for short in TRACED_MODULES:
        mod = modules[short]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found[obj] = f"{short}.{attr}"
    return found


def installed_wrappers(modules: dict[str, ModuleType]) -> list[str]:
    """Module attributes that currently hold a span wrapper (empty when clean)."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in modules.values()
        for attr, obj in vars(mod).items()
        if hasattr(obj, _MARK)
    ]


class Tracer:
    """Collects spans from wrapped functions; one instance per traced pass."""

    def __init__(self, probes: dict[str, object] | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.desc = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._probes = probes or {}
        self._restore: list[tuple[ModuleType, str, object]] = []
        self._wrappers: dict | None = None

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.raised.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        probe = self._probes.get(name)
        counters = self.counters
        name_ids, parents, descs = self.name_id, self.parent, self.desc
        starts, ends, raised, stack = self.start, self.end, self.raised, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            descs.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                descs[idx] = len(starts) - idx - 1
            if probe is not None:
                probe(counters, idx, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap each public function wherever a pathvol module refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = {fn: self.wrap(fn, name) for fn, name in public_functions(modules).items()}
        wrappers = self._wrappers
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Views on the span buffers; the tracer must record no more spans after this."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "desc": np.frombuffer(self.desc, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, dest: str | os.PathLike) -> None:
        """Write every span (and the name table) as one .npz file."""
        np.savez(dest, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls in one thread nest without overlap, so the children's durations
    are exactly the part of the parent's interval they cover.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    return dur - covered


def child_counts(parent: np.ndarray) -> np.ndarray:
    parent = np.asarray(parent)
    inner = parent >= 0
    return np.bincount(parent[inner], minlength=parent.size)


def summarize(arrays: dict[str, np.ndarray], names: list[str], span_cost: float) -> dict[str, dict[str, float]]:
    """Per-name calls and busy/self seconds, raw and corrected for wrapper cost.

    ``busy`` is the inclusive span time; ``self`` excludes the child spans.
    The corrected figures remove ``span_cost`` once per descendant span from
    ``busy`` and once per direct child from ``self``, because a wrapped
    call's own bookkeeping falls inside the interval of the span around it.
    """
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    nid, desc = arrays["name_id"], arrays["desc"]
    dur = end - start
    own = self_times(start, end, parent)
    busy_corr = dur - span_cost * desc
    self_corr = own - span_cost * child_counts(parent)
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    sums = {
        "busy_raw": np.bincount(nid, weights=dur, minlength=k),
        "self_raw": np.bincount(nid, weights=own, minlength=k),
        "busy": np.bincount(nid, weights=busy_corr, minlength=k),
        "self": np.bincount(nid, weights=self_corr, minlength=k),
    }
    return {
        name: {"calls": int(calls[i]), **{key: float(v[i]) for key, v in sums.items()}}
        for i, name in enumerate(names)
    }


def _null(spec, x, x_lagged):
    return x


def calibrate_span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one wrapped call adds over a plain call (median of repeats).

    The probe function takes three positional arguments, like the per-step
    ``eval_drift`` calls that make up most spans.
    """
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap(_null, "calibrate")
        t0 = clock()
        for i in range(calls):
            _null(None, i, i)
        plain = clock() - t0
        t0 = clock()
        for i in range(calls):
            wrapped(None, i, i)
        traced = clock() - t0
        samples.append((traced - plain) / calls)
    return max(statistics.median(samples), 0.0)
