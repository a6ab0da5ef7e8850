"""Pathwise estimators of the diffusion scale sigma and power index gamma.

Every estimator here is an explicit functional of a single observed path
y(t_k): no drift model, likelihood, or distributional assumption enters.
Writing v[h, k] = log(1 + eta[h, k]**2) for the increment series of
``auxprocess.compute_aux`` (the estimators take it from one private block
kernel that computes the same values):

* sigma_known_gamma: sigma^2 estimated, when gamma is known, by
      sum_k v[gamma, k] / (delta * m)
  over the m increments: integrated_sigma_sq over the window delta * m.
* gamma_ratio_estimate: gamma estimated by matching, on a grid of
  candidates g, the ratio identity
      sum y**(2*(g-h1)) / sum y**(2*(g-h2))  =  sum v[h1] / sum v[h2].
* joint_estimate: gamma estimated as the exponent h at which the per-step
  terms v[h, k] are flattest relative to their own mean, by minimizing the
  scale-free spread sum_k (v[h, k] / mean(v[h]) - 1)**2; then
  sigma = sqrt(mean(v[gamma]) / delta).
* gamma_known_sigma: gamma estimated, when sigma is known, as the h
  minimizing the scale-normalized form of sum_k (v[h, k]/delta - sigma**2)**2
  (the joint_estimate spread plus a term matching mean(v[h])/delta to
  sigma**2).
* integrated_sigma_sq: sum_k v[gamma, k] estimates the integral of
  sigma(s)^2 ds over the observation window (time-dependent scale).  The
  integrated-sigma-sq method is sigma_known_gamma: ``METHODS`` names it.

An increment sum that overflows raises DegeneratePathError, as do one that
underflows to 0 on a path that is not constant (a constant path's sums are 0
exactly), a window delta * m or a sigma quotient that overflows, a grid
search whose objective is not finite, and gamma_known_sigma when
delta * sigma**2 is 0 or inf.

``METHODS`` maps each method name to its estimator, the one place that pairs
them: a result does not name its method.  An ``EstimatorSpec``
checks the parameters of one method once and then runs it on any number of
paths; it is the one way in by method name, and the experiments and the
command line both call the estimators through it.

Grid searches scan h in {1/n, 2/n, ..., 1}, with n fixed per search: 300
candidates for gamma_ratio_estimate and 30 for joint_estimate and
gamma_known_sigma, the grids of every table and of the command line.  Ties
resolve to the smallest candidate.  A ``search_range`` (lo, hi) narrows the
scan to {lo + (hi-lo)*k/n}, e.g. (0.5, 1.0) restricts the power index
to the positivity-preserving half of the unit interval, the range on which
square-root (0.5) through linear (1.0) diffusion scalings live.
joint_estimate and gamma_known_sigma evaluate their candidates together in
(candidates x N) blocks, and their objective curves are bit for bit those of
the per-candidate formulas above.  gamma_ratio_estimate takes its power sums
from an exact 17-wide split of its 300 exponents (``_power_sums``): one small
matrix product of shifted exponentials, no term above 1 and each sum's largest
at least exp(-155), so no sum overflows or underflows.  Its curve agrees with
one exp per candidate to 1e-12 of the larger of its two terms, not bit for bit.
A separate helper backs the CIR parameters (a, b) out of a first and second
moment of y(T).
"""
from __future__ import annotations

import inspect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .simulate import DegeneratePathError, SamplePath

__all__ = [
    "EstimateResult",
    "EstimatorSpec",
    "METHODS",
    "NoSolutionError",
    "sigma_known_gamma",
    "gamma_ratio_estimate",
    "joint_estimate",
    "gamma_known_sigma",
    "integrated_sigma_sq",
    "cir_mean",
    "cir_variance",
    "cir_backout",
    "METHOD_SIGMA_KNOWN_GAMMA",
    "METHOD_GAMMA_RATIO",
    "METHOD_JOINT_VARIANCE",
    "METHOD_GAMMA_KNOWN_SIGMA",
    "METHOD_INTEGRATED_SIGMA_SQ",
]

METHOD_SIGMA_KNOWN_GAMMA = "sigma-known-gamma"
METHOD_GAMMA_RATIO = "gamma-ratio"
METHOD_JOINT_VARIANCE = "joint-variance"
METHOD_GAMMA_KNOWN_SIGMA = "gamma-known-sigma"
METHOD_INTEGRATED_SIGMA_SQ = "integrated-sigma-sq"

# elements per (candidates x N) block: keeps the temporaries in cache up to N = 20 000
_BLOCK = 1 << 14
# candidates scanned by the ratio search and by the two spread searches
_RATIO_GRID_N = 300
_SPREAD_GRID_N = 30


class NoSolutionError(RuntimeError):
    """Root search failed; ``residual_curve`` holds the sampled residuals."""

    def __init__(self, message: str, residual_curve: list[tuple[float, float]]):
        super().__init__(message)
        self.residual_curve = residual_curve


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one estimator on one path.

    A grid search keeps its candidates in ``grid`` and their objective
    values in ``objective``, read-only arrays that ``==`` and ``hash`` leave
    out; ``grid_n``, ``objective_min`` and ``objective_curve`` (the
    (candidate, objective) pairs) are read from them.  ``degenerate`` flags
    a zero-variance path on which the estimate is the trivial sigma = 0.
    """

    gamma_hat: float | None = None
    sigma_hat: float | None = None
    grid: np.ndarray | None = field(default=None, compare=False)
    objective: np.ndarray | None = field(default=None, compare=False)
    degenerate: bool = False

    @property
    def grid_n(self) -> int | None:
        return None if self.grid is None else len(self.grid)

    @property
    def objective_min(self) -> float | None:
        return None if self.objective is None else float(self.objective.min())

    @property
    def objective_curve(self) -> tuple[tuple[float, float], ...] | None:
        return None if self.grid is None else tuple(zip(self.grid.tolist(), self.objective.tolist()))


def _check(
    gamma: float | None = None,
    h1: float | None = None,
    h2: float | None = None,
    sigma: float | None = None,
    search_range: tuple[float, float] | None = None,
) -> None:
    """Raise ValueError for a parameter value that no estimator accepts; None is not checked."""
    for name, value in (("gamma", gamma), ("h1", h1), ("h2", h2)):
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be > 0")
    if search_range is not None and (len(search_range) != 2 or not 0.0 <= search_range[0] < search_range[1] <= 1.0):
        raise ValueError("search_range must satisfy 0 <= lo < hi <= 1")
    if h1 is not None and h1 == h2:
        raise ValueError("h1 and h2 must differ")


def _grid(grid_n: int, search_range: tuple[float, float]) -> np.ndarray:
    lo, hi = search_range
    return lo + (hi - lo) * np.arange(1, grid_n + 1) / grid_n


def _row_blocks(count: int, n: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each of about _BLOCK // n rows (at least one)."""
    step = max(1, _BLOCK // n)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _increment_blocks(path: SamplePath, exponents: list[float]) -> Iterator[tuple[slice, np.ndarray]]:
    """Blocks (rows, v) of v[h, k] = log1p((dy[k] / y_prev[k]**h)**2), one row per exponent h."""
    y = path.values
    prev = y[:-1]
    dy = y[1:] - prev  # np.diff(y) without its wrapper
    for rows in _row_blocks(len(exponents), dy.size):
        v = np.empty((rows.stop - rows.start, dy.size))
        # one scalar power per row keeps numpy's ** shortcuts (sqrt at h = 0.5)
        for row, h in zip(v, exponents[rows]):
            np.divide(dy, prev**h, out=row)
        v *= v
        np.log1p(v, out=v)
        yield rows, v


def _increment_sums(path: SamplePath, exponents: list[float]) -> np.ndarray:
    """sum_k v[h, k] for each exponent h, refusing a sum that is not finite; callers ignore over/invalid warnings.

    A sum is 0 on a constant path; on any other path every (dy / y**h)**2 underflowed, so it is refused too.
    """
    sums = np.empty(len(exponents))
    for rows, v in _increment_blocks(path, exponents):
        np.add.reduce(v, axis=1, out=sums[rows])
    if not all(map(math.isfinite, listed := sums.tolist())):  # for one or two sums, cheaper than np.isfinite
        raise DegeneratePathError("increment sum is not finite")
    if 0.0 in listed and not (path.values == path.values[0]).all():
        raise DegeneratePathError("increment sum underflows to 0 on a path that is not constant")
    return sums


def _spread(path: SamplePath, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate h: v_bar[h] = mean(v[h]) and spread[h] = sum_k (v[h, k] / v_bar[h] - 1)**2."""
    if (path.values == path.values[0]).all():
        raise DegeneratePathError("constant path: no increments to fit")
    v_bars = np.empty(grid.size)
    spreads = np.empty(grid.size)
    # a v_bar that underflows to 0 divides; _search_result refuses the non-finite curve
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for rows, v in _increment_blocks(path, grid.tolist()):
            v_bars[rows] = v_bar = np.add.reduce(v, axis=1) / v.shape[1]  # v.mean(axis=1) bit for bit
            v /= v_bar[:, None]
            v -= 1.0
            v *= v
            np.add.reduce(v, axis=1, out=spreads[rows])
    return v_bars, spreads


def _power_sums(log_y: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sums, shifts) with sum_k exp(s * log_y[k]) = sums * exp(shifts) for each exponent s in ``scales``.

    ``scales`` is (probes x candidates), every row equally spaced with one
    common step.  Each exponent is split exactly as s = c + f: the coarse c
    is every width-th candidate of its row, the fine offset f = w * step
    (w < width) is shared by all rows.  So exp(s * l) = exp(c * l) * exp(f * l),
    and the sums over k are one (coarse rows x N) @ (N x width) product,
    taken in column chunks that keep each factor at most _BLOCK elements.
    Each factor is shifted by its largest exponent over the path, which s * l
    (linear in l) takes at min(log_y) or max(log_y): no term exceeds 1 and no
    sum overflows.  The shifts of c and f together may exceed that of s by
    (width - 1) * step * (max - min of log_y).  The ratio search's 300
    candidates split 17 wide, with a step of 2 * (hi - lo) / 300 <= 2/300 for
    any search_range (lo, hi) and probes; log y of positive doubles spans at
    most log(1.7976931348623157e308) - log(5e-324) = 1454.2.  So the excess is
    at most 16 * (2/300) * 1454.2 = 155 e-folds, far from the subnormal range
    (about 708): no sum underflows.
    """
    probes, count = scales.shape
    step = (scales[0, -1] - scales[0, 0]) / (count - 1)
    lo, hi = float(log_y.min()), float(log_y.max())
    width = math.isqrt(count)
    coarse = scales[:, ::width].ravel()
    fine = step * np.arange(width)
    coarse_shift = np.maximum(coarse * lo, coarse * hi)
    fine_shift = np.maximum(fine * lo, fine * hi)
    acc = np.zeros((coarse.size, width))
    for cols in _row_blocks(log_y.size, coarse.size):
        chunk = log_y[cols]
        a = np.multiply.outer(coarse, chunk)
        a -= coarse_shift[:, None]
        np.exp(a, out=a)
        b = np.multiply.outer(chunk, fine)
        b -= fine_shift
        np.exp(b, out=b)
        acc += a @ b
    shifts = coarse_shift[:, None] + fine_shift
    return acc.reshape(probes, -1)[:, :count], shifts.reshape(probes, -1)[:, :count]


def _sigma_hat(total: float, weight: float) -> float:
    """sqrt(total / weight), refusing a result that overflows or underflows to 0.

    Every caller's total is finite and > 0: sigma_known_gamma's comes from
    _increment_sums on a path that is not constant, and joint_estimate's is
    a mean of v at a finite spread.  No caller passes a zero weight:
    joint_estimate's is delta > 0, and sigma_known_gamma's is the window
    delta * m, which is inf at a large delta and so gives 0.
    """
    sigma_hat = math.sqrt(total / weight)
    if not 0.0 < sigma_hat < math.inf:
        raise DegeneratePathError(f"scale estimate is not finite and > 0: {sigma_hat!r}")
    return sigma_hat


def _search_result(
    grid: np.ndarray,
    objective: np.ndarray,
    v_bars: np.ndarray | None = None,
    delta: float | None = None,
) -> EstimateResult:
    """A grid search's result at the first smallest objective, refusing a non-finite curve.

    With ``v_bars`` (the per-candidate means of v), sigma_hat = sqrt(v_bars[best] / delta).
    """
    finite = np.isfinite(objective)
    if not finite.all():
        candidate = float(grid[int(finite.argmin())])
        raise DegeneratePathError(f"objective is not finite at candidate {candidate:.17g}")
    best = int(objective.argmin())
    grid.flags.writeable = objective.flags.writeable = False
    return EstimateResult(
        gamma_hat=float(grid[best]),
        sigma_hat=None if v_bars is None else _sigma_hat(float(v_bars[best]), delta),
        grid=grid,
        objective=objective,
    )


def sigma_known_gamma(path: SamplePath, gamma: float) -> EstimateResult:
    """Estimate sigma assuming the power index gamma is known.

    sigma_hat**2 is integrated_sigma_sq(path, gamma) over the window
    delta * m of the m increments.  A constant path returns sigma_hat = 0
    with the degenerate flag set.
    """
    total = integrated_sigma_sq(path, gamma)
    if total == 0.0:
        return EstimateResult(sigma_hat=0.0, degenerate=True)
    window = path.delta * (path.values.size - 1)
    return EstimateResult(sigma_hat=_sigma_hat(total, window))


def gamma_ratio_estimate(
    path: SamplePath, h1: float = 0.0, h2: float = 1.0, search_range: tuple[float, float] = (0.0, 1.0)
) -> EstimateResult:
    """Estimate gamma by matching power-sum and increment-sum ratios.

    Scans candidates g in {1/300, ..., 1} (or the ``search_range``
    restriction) and minimizes
    | sum y**(2*(g-h1)) / sum y**(2*(g-h2)) - sum v[h1] / sum v[h2] |.
    Requires h1 != h2.  Does not produce a sigma estimate.
    """
    _check(h1=h1, h2=h2, search_range=search_range)
    grid = _grid(_RATIO_GRID_N, search_range)
    scales = 2.0 * (grid - np.array([[h1], [h2]]))
    with np.errstate(over="ignore", invalid="ignore"):  # _search_result refuses a non-finite curve
        s1, s2 = _increment_sums(path, [h1, h2]).tolist()
        if s1 == 0.0 or s2 == 0.0:
            raise DegeneratePathError("constant path: increment sums vanish")
        rhs = s1 / s2
        sums, shifts = _power_sums(np.log(path.values[1:]), scales)
        objective = np.abs(sums[0] / sums[1] * np.exp(shifts[0] - shifts[1]) - rhs)
    return _search_result(grid, objective)


def joint_estimate(path: SamplePath, search_range: tuple[float, float] = (0.0, 1.0)) -> EstimateResult:
    """Estimate gamma and sigma together, knowing neither.

    At the true power the per-step terms v[h, k] / delta all hover around
    the one constant sigma**2, so gamma is taken as the grid exponent h
    with the smallest relative spread sum_k (v[h, k] / mean(v[h]) - 1)**2.
    The spread is measured relative to the mean because the absolute size
    of v changes with h (through the path level), which would otherwise
    drag the minimizer toward whichever end of [0, 1] shrinks the
    increments rather than toward the flattest h.  sigma then follows as
    sqrt(mean(v[gamma]) / delta).
    """
    _check(search_range=search_range)
    grid = _grid(_SPREAD_GRID_N, search_range)
    v_bars, objective = _spread(path, grid)
    return _search_result(grid, objective, v_bars, path.delta)


def gamma_known_sigma(
    path: SamplePath, sigma: float, search_range: tuple[float, float] = (0.0, 1.0)
) -> EstimateResult:
    """Estimate gamma assuming the scale sigma is known.

    Scale-normalized form of minimizing sum_k (v[h, k]/delta - sigma**2)**2
    over the candidate grid.  That sum decomposes exactly into a dispersion
    part sum_k (v[h, k] - v_bar[h])**2 / delta**2 plus a level part
    m * (v_bar[h]/delta - sigma**2)**2; as in joint_estimate, each squared
    term is normalized by its reference scale (v_bar[h] for the dispersion
    terms, delta*sigma**2 for the level term).  Without the normalization
    the dispersion part is dominated by per-step noise that simply rewards
    small increments, dragging the argmin to an end of the grid whenever
    the path hovers away from level 1.  Knowing sigma contributes the
    level term, which keeps the search identified on one-sided paths where
    the dispersion term alone goes flat.
    """
    _check(sigma=sigma, search_range=search_range)
    grid = _grid(_SPREAD_GRID_N, search_range)
    v_bars, spreads = _spread(path, grid)
    level_target = path.delta * sigma * sigma
    if not 0.0 < level_target < math.inf:
        raise DegeneratePathError(f"level target delta * sigma**2 is {level_target:g}")
    m = path.values.size - 1
    # the level term on Python floats: numpy's square is not bitwise CPython's ** 2
    pairs = zip(v_bars.tolist(), spreads.tolist())
    try:
        objective = np.array([s + m * (v / level_target - 1.0) ** 2 for v, s in pairs])
    except OverflowError:  # float ** 2 raises where numpy would give inf
        raise DegeneratePathError("level term is not finite") from None
    return _search_result(grid, objective)


def integrated_sigma_sq(path: SamplePath, gamma: float) -> float:
    """Estimate of integral sigma(s)^2 ds over the observation window.

    Works for a time-dependent scale; for constant sigma the value divided
    by the window length estimates sigma^2.
    """
    _check(gamma=gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_increment_sums(path, [gamma])[0])


# ---------------------------------------------------------------------------
# method registry


@dataclass(frozen=True)
class Method:
    """One estimation method: its estimator, parameters and estimated coordinates.

    ``function`` is the estimator's name in this module; ``EstimatorSpec.result``
    looks it up when called, so a wrapper on the module attribute sees every
    call.  ``required`` and ``defaults`` come from the estimator's signature.
    ``produces`` lists "sigma" and/or "gamma", the default target first.
    """

    function: str
    produces: tuple[str, ...]
    required: tuple[str, ...]
    defaults: dict[str, object]


def _method(function: str, *produces: str) -> Method:
    params = list(inspect.signature(globals()[function]).parameters.values())[1:]
    return Method(
        function=function,
        produces=produces,
        required=tuple(p.name for p in params if p.default is p.empty),
        defaults={p.name: p.default for p in params if p.default is not p.empty},
    )


METHODS = {
    METHOD_SIGMA_KNOWN_GAMMA: _method("sigma_known_gamma", "sigma"),
    METHOD_GAMMA_RATIO: _method("gamma_ratio_estimate", "gamma"),
    METHOD_JOINT_VARIANCE: _method("joint_estimate", "gamma", "sigma"),
    METHOD_GAMMA_KNOWN_SIGMA: _method("gamma_known_sigma", "gamma"),
    METHOD_INTEGRATED_SIGMA_SQ: _method("sigma_known_gamma", "sigma"),
}
# every parameter some registered method takes; the only names an EstimatorSpec accepts
_PARAMS = frozenset(name for m in METHODS.values() for name in (*m.required, *m.defaults))


@dataclass(frozen=True, init=False)
class EstimatorSpec:
    """One checked estimator call: a registered method, its parameters and its target.

    ``EstimatorSpec(method, target=None, **params)`` checks ``params`` once
    and keeps the given ones, None meaning "not given", as the estimator's
    keyword arguments in ``kwargs``, a read-only mapping; a list
    ``search_range`` is kept as a tuple.  Raises ValueError for an unknown
    method, a value for a parameter the method does not take, a missing
    required parameter, a given or defaulted value that the estimators
    refuse or a target the method does not produce, and TypeError for a
    name that no registered method takes, even set to None.  Running the
    spec on a path skips the checks of the method name and of the required
    parameters; the estimator still checks its argument values, as on any
    direct call.  ``target`` is the coordinate ``estimate`` returns ("sigma"
    or "gamma"); by default it follows the method (sigma-known-gamma ->
    sigma, the gamma searches -> gamma).  joint-variance produces both, so
    either target is valid for it.
    """

    method: str
    target: str
    kwargs: MappingProxyType[str, object] = field(hash=False)

    def __init__(self, method: str, target: str | None = None, **params) -> None:
        entry = METHODS.get(method)
        if entry is None:
            raise ValueError(f"unknown estimator method {method!r}; expected one of {tuple(METHODS)}")
        if unknown := params.keys() - _PARAMS:
            raise TypeError(f"unknown estimator parameter {min(unknown)!r}; expected one of {sorted(_PARAMS)}")
        kwargs = {name: value for name, value in params.items() if value is not None}
        if foreign := kwargs.keys() - {*entry.required, *entry.defaults}:
            raise ValueError(f"{method} takes no {min(foreign)} parameter")
        for name in entry.required:
            if name not in kwargs:
                raise ValueError(f"{method} needs its {name} parameter")
        _check(**{**entry.defaults, **kwargs})
        if "search_range" in kwargs:  # a tuple, so that a spec holds no list its caller can change
            kwargs["search_range"] = tuple(map(float, kwargs["search_range"]))
        if target is None:
            target = entry.produces[0]
        elif target not in entry.produces:
            raise ValueError(f"{method} does not estimate {target}")
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "kwargs", MappingProxyType(kwargs))

    def result(self, path: SamplePath) -> EstimateResult:
        """The method's result on one path."""
        return globals()[METHODS[self.method].function](path, **self.kwargs)

    def estimate(self, path: SamplePath) -> float:
        """The target coordinate of the method's result on one path."""
        result = self.result(path)
        return float(result.sigma_hat if self.target == "sigma" else result.gamma_hat)


# ---------------------------------------------------------------------------
# CIR moment inversion


def cir_mean(a: float, b: float, y0: float, horizon: float) -> float:
    """E y(T) for the CIR model started at y0: b*(1 - e^{-aT}) + e^{-aT}*y0."""
    e = math.exp(-a * horizon)
    return b * -math.expm1(-a * horizon) + e * y0


def cir_variance(a: float, b: float, sigma: float, y0: float, horizon: float) -> float:
    """Var y(T) for the CIR model started at y0.

    Computed as sigma^2/(2a)*b*(1-e^{-aT}) + e^{-aT}*sigma^2/a^2*(1-e^{-aT})*y0,
    the closed form inverted by cir_backout.
    """
    e = math.exp(-a * horizon)
    one_minus_e = -math.expm1(-a * horizon)  # no cancellation where e rounds to 1
    s2 = sigma * sigma
    return s2 / (2.0 * a) * b * one_minus_e + e * s2 / (a * a) * one_minus_e * y0


_A_BRACKET = (1e-6, 50.0)
_SCAN_POINTS = 400


def cir_backout(mean_t: float, var_t: float, sigma: float, y0: float, horizon: float) -> tuple[float, float]:
    """Recover CIR (a, b) from the mean and variance of y(T).

    b is eliminated through the mean equation, leaving a one-dimensional
    root search in a over ``_A_BRACKET`` (the lower end stays above zero:
    as a -> 0 the mean equation degenerates): the first sign change on a
    geometric scan, bisected down to adjacent doubles.  Raises NoSolutionError,
    carrying the sampled residual curve, if the variance residual does not
    change sign on the bracket.  horizon = inf gives the stationary answer.
    """
    if not all(map(math.isfinite, (mean_t, var_t, sigma, y0))):
        raise ValueError("mean_t, var_t, sigma and y0 must be finite")
    if not (sigma > 0 and y0 > 0 and horizon > 0 and var_t > 0):
        raise ValueError("sigma, y0, horizon and var_t must all be > 0")
    lo, hi = _A_BRACKET
    if -math.expm1(-lo * horizon) == 0.0:  # b_from_mean would divide by zero
        raise ValueError(f"horizon {horizon!r} is too small: a * horizon underflows to 0 at a = {lo!r}")

    def b_from_mean(a: float) -> float:
        return (mean_t - math.exp(-a * horizon) * y0) / -math.expm1(-a * horizon)

    def residual(a: float) -> float:
        return cir_variance(a, b_from_mean(a), sigma, y0, horizon) - var_t

    curve = [(a, float(residual(a))) for a in np.geomspace(lo, hi, _SCAN_POINTS).tolist()]
    for i, (a_lo, r0) in enumerate(curve):
        if r0 == 0.0:
            return a_lo, b_from_mean(a_lo)
        if i + 1 < len(curve) and r0 * curve[i + 1][1] < 0.0:  # bisect down to adjacent doubles
            a_hi = curve[i + 1][0]
            while a_lo < (a_mid := 0.5 * (a_lo + a_hi)) < a_hi:
                if (r_mid := residual(a_mid)) == 0.0:  # an exact root, as on a scan point
                    return a_mid, b_from_mean(a_mid)
                if (r_mid < 0.0) == (r0 < 0.0):
                    a_lo = a_mid
                else:
                    a_hi = a_mid
            return a_lo, b_from_mean(a_lo)
    raise NoSolutionError(
        f"variance residual does not change sign for a in [{lo}, {hi}]", residual_curve=curve
    )
