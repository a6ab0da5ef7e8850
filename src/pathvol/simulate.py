"""Euler-Maruyama simulation of positive diffusion paths on a uniform grid.

Paths are generated by the explicit recursion

    y(t_{k+1}) = y(t_k) + f(y(t_k), y(t_{k-l})) * delta
                 + sigma * y(t_k)**gamma * sqrt(delta) * xi_{k+1}

with iid standard normal xi, t_0 = 0, delta = 1 / n_steps on [0, 1] and the
whole-step lag l = min(floor(delay / delta), n_steps) of the drift's delay.
The generator the caller passes is the path's only source of randomness: it
draws the starting value y0 when the config leaves it unset, then the xi.  Two
guards keep the path usable by the estimators: any nonpositive produced value
is replaced by the previous value (counted in ``positivity_fixes``), and the
simulation stops early the first time the retained value falls to the fixed
share ``_STOP_RATIO`` = 1e-3 of y0.  The history before the start is held at
the starting value: step k reads y(t_{k-l}) from one iterator that yields y0 l
times and then the growing path.  The steps run on Python floats in one loop,
compiled once per drift shape (affine, which ignores the delayed state, or n
delay terms) with ``model.drift_source`` inline: the drift's terms added left
to right in the order ``model.DelayDriftSpec`` writes them, so each step is
bit for bit the recursion above with that written sum, from the same draws.
A path keeps no time origin: simulated or read, it lives on t_k = k * delta.
"""
from __future__ import annotations

import contextlib
import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .model import ModelSpec, drift_constants, drift_source

__all__ = [
    "DegeneratePathError",
    "SamplePath",
    "SimConfig",
    "euler_maruyama",
    "write_path_csv",
    "read_path_csv",
    "CsvFormatError",
]

# a path stops once its value falls to this share of its starting value
_STOP_RATIO = 0.001


def _check_count(name: str, value: int, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class DegeneratePathError(ValueError):
    """Raised when a path carries no usable increment information."""


class CsvFormatError(ValueError):
    """Raised on malformed path CSV input; the message names the bad line."""


@dataclass(frozen=True)
class SamplePath:
    """Observed path y(t_k), k = 0..m, on the grid t_k = k * delta (no time origin is kept)."""

    delta: float
    values: np.ndarray
    positivity_fixes: int = 0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and > 0")
        if vals.ndim != 1 or vals.size < 2:
            raise DegeneratePathError("path needs at least 2 points")
        if not np.isfinite(vals).all():
            raise ValueError("path values must be finite")
        if not (vals > 0).all():
            raise ValueError("path values must be strictly positive")

    @property
    def m(self) -> int:
        return len(self.values) - 1

    @property
    def stopped_early(self) -> bool:
        """The last value is at most _STOP_RATIO times the first: exactly the paths euler_maruyama stopped."""
        return float(self.values[-1]) <= _STOP_RATIO * float(self.values[0])

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.delta


@dataclass(frozen=True)
class SimConfig:
    """Grid and starting value for one simulation.

    The path runs on [0, 1] in n_steps steps of delta = 1 / n_steps;
    a drift delay becomes the lag of floor(delay / delta) whole steps, at most n_steps.
    y0 = None means the starting value is drawn uniformly from
    y0_range (default [0.1, 10]) with the generator passed to euler_maruyama.
    The benchmark reproductions narrow y0_range per table; see the
    calibration notes in experiment.py.
    """

    n_steps: int
    y0: float | None = None
    y0_range: tuple[float, float] = (0.1, 10.0)

    def __post_init__(self) -> None:
        _check_count("n_steps", self.n_steps, 2)
        if self.y0 is not None and not (math.isfinite(self.y0) and self.y0 > 0):
            raise ValueError("y0 must be > 0 (or None to sample it)")
        if len(self.y0_range) != 2 or not (0 < self.y0_range[0] < self.y0_range[1] < math.inf):
            raise ValueError("y0_range must satisfy 0 < low < high")

    @property
    def delta(self) -> float:
        return 1.0 / self.n_steps


# Euler steps on Python floats; the affine drift's source never reads x_lagged.
_LOOP = """\
def steps(noise, delayed, values, delta, sigma, gamma, sqrt_delta, threshold, {names}):
    x = values[0]
    fixes = 0
    for xi, x_lagged in zip(noise, delayed):
        nxt = x + ({drift}) * delta + sigma * x**gamma * sqrt_delta * xi
        if nxt <= 0.0:
            nxt = x
            fixes += 1
        values.append(nxt)
        if nxt <= threshold:
            return fixes
        x = nxt
    return fixes
"""


@functools.cache
def _step_loop(n_terms: int) -> Callable[..., int]:
    """The Euler loop for drifts of n_terms delay terms (0: affine), compiled once.

    Every drift zips the noise with ``delayed``, the delayed state of each
    step in order; the affine drift's expression ignores ``x_lagged``.
    """
    names, drift = drift_source(n_terms)
    exec(_LOOP.format(names=names, drift=drift), namespace := {"cos": math.cos})
    return namespace["steps"]


def euler_maruyama(model: ModelSpec, cfg: SimConfig, rng: np.random.Generator) -> SamplePath:
    """Simulate one path; same (model, cfg, generator state) gives the identical path.

    ``rng`` is consumed, in order: the starting value
    ``rng.uniform(*cfg.y0_range)`` (only when cfg.y0 is None) and then
    n_steps standard normals, so results do not depend on whether the path
    stops early.  The step arithmetic, on Python floats, is that of the
    recursion in the module docstring with the drift's written sum; a drift
    that overflows raises SamplePath's ValueError for a non-finite path.
    """
    y0 = float(cfg.y0 if cfg.y0 is not None else rng.uniform(*cfg.y0_range))
    delta = cfg.delta
    threshold = _STOP_RATIO * y0
    noise = memoryview(rng.standard_normal(cfg.n_steps))  # yields Python floats
    values = [y0]
    # step k's delayed state: y0 while k < lag, then values[k - lag]; a lag over n_steps (inf too) acts as n_steps
    delayed = chain(repeat(y0, math.floor(min(model.drift.delay / delta, cfg.n_steps))), values)
    try:
        fixes = _step_loop(model.drift.n_terms)(
            noise, delayed, values, delta, float(model.sigma), float(model.gamma),
            math.sqrt(delta), threshold, *drift_constants(model.drift),
        )
    except (OverflowError, ValueError):  # x**p past the float range, or cos of an inf state
        raise ValueError("path values must be finite") from None
    return SamplePath(
        delta=delta,
        values=np.fromiter(values, float, len(values)),
        positivity_fixes=fixes,
    )


# ---------------------------------------------------------------------------
# CSV persistence: header "t,y", one grid point per row, 17 significant digits
# so doubles survive a write/read round trip bit for bit.  The writer formats
# row by row (numpy's savetxt is slower still).  The reader converts every
# field with one numpy call, whose str-to-float conversion follows float()'s
# rules, checks the rows as whole arrays, and finds the line of an error only
# once a check has failed.  Both take a file path; the reader refuses a file
# with a non-ASCII byte (a UTF-8 digit float() would read), naming its line.


def _write_pairs(dest: str | Path, header: str, first: np.ndarray, second: np.ndarray) -> None:
    """Write the line ``header``, then one "first,second" row per pair, to the ASCII file ``dest``.

    The 17 significant digits of each value read back bit for bit with float().
    """
    text = header + "\n" + "".join(map("{:.17g},{:.17g}\n".format, first.tolist(), second.tolist()))
    with open(dest, "w", encoding="ascii") as fh:
        fh.write(text)


def write_path_csv(path: SamplePath, dest: str | Path) -> None:
    """Write ``path`` to the file ``dest``: the header "t,y", then one row per grid point, read back bit for bit by read_path_csv."""
    _write_pairs(dest, "t,y", path.times, path.values)


def _data_line(lines: list[str], row: int) -> int:
    """Line number of data row ``row`` (from 0) below the header; blank lines are skipped but counted."""
    return [n for n, raw in enumerate(lines, start=1) if raw.strip()][row + 1]


def _read_text(src: str | Path) -> str:
    """The text of the file ``src``, which must be ASCII; CsvFormatError names the line of a non-ASCII byte."""
    data = Path(src).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("ascii")
        # every character of head is ASCII; one more character closes the line of the bad byte
        lineno = len((head + "x").splitlines())
        raise CsvFormatError(f"line {lineno}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def _raise_row_error(lines: list[str]) -> NoReturn:
    """Raise the error of the first data row that fails a per-row check, else that of too few rows.

    Called only once a whole-array check has failed, so some row fails or
    fewer than two rows are present: it never returns.
    """
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"line {lineno}: expected two comma-separated fields, got {raw!r}")
        try:
            t = float(parts[0])
            y = float(parts[1])
        except ValueError:
            raise CsvFormatError(f"line {lineno}: non-numeric field in {raw!r}") from None
        if not (math.isfinite(t) and math.isfinite(y)):
            raise CsvFormatError(f"line {lineno}: non-finite value in {raw!r}")
        if y <= 0:
            raise CsvFormatError(f"line {lineno}: path value must be > 0, got {parts[1]}")
    raise CsvFormatError(f"line {len(lines)}: need at least 2 data rows")


def read_path_csv(src: str | Path) -> SamplePath:
    """Read the "t,y" CSV file ``src`` written by write_path_csv (or equivalent).

    Blank lines are skipped; the file must be ASCII.  Each field is read as
    float() reads it, so the values are bit for bit those written.  The grid
    must be uniform and the values positive; delta is the span of the time
    column over its m steps.  The first time is not kept: the path lives on
    t_k = k * delta like any other.  Raises CsvFormatError naming the first
    offending line.
    """
    text = _read_text(src)
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError("line 1: empty file, expected header 't,y'")
    if lines[0].strip() != "t,y":
        raise CsvFormatError(f"line 1: expected header 't,y', got {lines[0]!r}")
    rows = list(filter(None, map(str.strip, lines[1:])))
    n = len(rows)
    # a "\n" field between rows: each row has two fields iff every third field is one
    joined = ",\n,".join(rows)
    del lines, rows  # the line strings go before the field strings come
    fields = joined.split(",")
    del joined
    data = None
    if n >= 2 and len(fields) == 3 * n - 1 and fields[2::3].count("\n") == n - 1:
        del fields[2::3]
        with contextlib.suppress(ValueError):  # a field that float() refuses
            data = np.array(fields, dtype=float).reshape(n, 2)
    del fields
    if data is None or not np.isfinite(data).all() or not (data[:, 1] > 0).all():
        _raise_row_error(text.splitlines())
    times, values = data.T.copy()
    # a step or span too large for a double is inf here, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(times)
        step = float(steps[0])
        # the written times are rounded to doubles: allow a few ulps of the largest |t|
        tol = max(1e-9 * max(step, 1.0), 4 * float(np.spacing(np.abs(times).max())))
        off_grid = (np.abs(steps - step) > tol) | (steps <= 0)
        span = float(times[-1] - times[0])
    if step <= 0:
        raise CsvFormatError(f"line {_data_line(text.splitlines(), 1)}: time column must be strictly increasing")
    if off_grid.any():
        row = int(np.argmax(off_grid)) + 1  # the row that ends the first off-grid step
        raise CsvFormatError(f"line {_data_line(text.splitlines(), row)}: time grid is not uniform")
    # an on-grid path whose step is inf has an inf span: this one check refuses both
    if span == math.inf:
        raise CsvFormatError(f"line {_data_line(text.splitlines(), n - 1)}: time span is not finite")
    # the span carries the rounding of two written times, not of two per step
    return SamplePath(delta=span / (n - 1), values=values)
