"""Model specifications for scalar diffusions with power-type noise.

The processes handled by this package solve

    dy(t) = f(y(.), t) dt + sigma * y(t)**gamma dw(t),    y(theta) > 0,

with gamma in [0, 1].  Two drift families are provided: the affine
mean-reverting drift a*(b - y) shared by the CIR (gamma = 1/2) and CKLS
models, and a randomized multi-term drift with a fixed delay that is used
to stress-test the estimators on paths far from any parametric family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineDrift",
    "DelayDriftSpec",
    "ModelSpec",
    "cir_model",
    "ckls_model",
    "sample_delay_drift",
    "format_drift",
    "format_model_config",
    "MissingKeyError",
    "parse_model_config",
]


@dataclass(frozen=True)
class AffineDrift:
    """Mean-reverting drift a*(b - x); used by both CIR and CKLS models."""

    a: float
    b: float
    n_terms = 0  # no delay terms (drift_source(0) renders this drift) and no delay
    delay = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("drift parameters a, b must be finite")
        if self.a < 0 or self.b < 0:
            raise ValueError("drift parameters a, b must be >= 0")


_VECTOR_FIELDS = ("a", "b", "nu", "c", "d", "e", "a_hat", "b_hat", "nu_hat")


@dataclass(frozen=True)
class DelayDriftSpec:
    """Multi-term drift with one fixed delay in the second argument.

    The drift value at state ``x`` with delayed state ``x_lag`` is

        sum_k [ a[k] * (b[k] - x ** (nu[k] + 1/2))
                + c[k] * cos(d[k] * x + e[k])
                + 0.1 * a_hat[k] * (b_hat[k] - x_lag ** (nu_hat[k] + 1/2)) ]

    ``delay`` is the lag in time units; the simulator converts it into the
    whole number of grid steps floor(delay / delta) (see ``simulate.SimConfig``).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    nu: tuple[float, ...]
    c: tuple[float, ...]
    d: tuple[float, ...]
    e: tuple[float, ...]
    a_hat: tuple[float, ...]
    b_hat: tuple[float, ...]
    nu_hat: tuple[float, ...]
    delay: float = 0.0

    def __post_init__(self) -> None:
        for name in _VECTOR_FIELDS:
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        n = len(self.a)
        if n < 1:
            raise ValueError("drift needs at least one term")
        for name in _VECTOR_FIELDS:
            values = getattr(self, name)
            if len(values) != n:
                raise ValueError(f"parameter vector {name!r} has length {len(values)}, expected {n}")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"parameter vector {name!r} must be finite")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError("delay must be finite and >= 0")

    @property
    def n_terms(self) -> int:
        return len(self.a)


DriftKind = AffineDrift | DelayDriftSpec


def check_noise(sigma: float, gamma: float) -> None:
    """Raise ValueError unless sigma is finite and >= 0 and gamma lies in [0, 1]."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class ModelSpec:
    """Full model: drift kind plus diffusion scale sigma and power gamma.

    sigma = 0 is accepted and yields noiseless (deterministic) paths, which
    several tests rely on; the estimators themselves assume sigma > 0.
    """

    drift: DriftKind
    sigma: float
    gamma: float

    def __post_init__(self) -> None:
        check_noise(self.sigma, self.gamma)


def cir_model(a: float, b: float, sigma: float) -> ModelSpec:
    """Square-root diffusion dy = a*(b - y) dt + sigma * sqrt(y) dw."""
    return ModelSpec(drift=AffineDrift(a, b), sigma=sigma, gamma=0.5)


def ckls_model(a: float, b: float, sigma: float, gamma: float) -> ModelSpec:
    """Power diffusion dy = a*(b - y) dt + sigma * y**gamma dw."""
    return ModelSpec(drift=AffineDrift(a, b), sigma=sigma, gamma=gamma)


def drift_source(n_terms: int) -> tuple[str, str]:
    """(constant names, drift expression in x and x_lagged) for n_terms delay terms; 0 is affine.

    The one source of the drift, which the simulator's loop compiles with
    the constants as arguments: the terms are added left to right, from 0.0,
    in the order DelayDriftSpec writes them.
    """
    if n_terms == 0:
        return "a, ab", "ab - a*x"
    names = ", ".join(f"a{k}, b{k}, p{k}, c{k}, d{k}, e{k}, al{k}, bl{k}, pl{k}" for k in range(n_terms))
    term = " + a{k}*(b{k} - x**p{k}) + c{k}*cos(d{k}*x + e{k}) + al{k}*(bl{k} - x_lagged**pl{k})"
    return names, "0.0" + "".join(term.format(k=k) for k in range(n_terms))


def drift_constants(drift: DriftKind) -> tuple[float, ...]:
    """Values of the constant names of ``drift_source(drift.n_terms)``, in order."""
    if isinstance(drift, AffineDrift):
        return drift.a, drift.a * drift.b
    constants = ()
    vectors = drift.a, drift.b, drift.nu, drift.c, drift.d, drift.e, drift.a_hat, drift.b_hat, drift.nu_hat
    for a, b, nu, c, d, e, a_hat, b_hat, nu_hat in zip(*vectors):
        constants += (a, b, nu + 0.5, c, d, e, 0.1 * a_hat, b_hat, nu_hat + 0.5)
    return constants


def sample_delay_drift(rng: np.random.Generator, c_scale: float = 1.0) -> DelayDriftSpec:
    """Draw a randomized delay drift for Monte-Carlo experiments.

    The number of terms is uniform on {1, ..., 5}, the delay is uniform on
    [0, 0.2], and every per-term coefficient is uniform on [0, 1], all
    independent.  The cosine amplitudes c_k are drawn, then multiplied by
    ``c_scale``; the draws do not depend on it.
    """
    n = int(rng.integers(1, 6))
    delay = float(rng.uniform(0.0, 0.2))
    draws = rng.uniform(0.0, 1.0, size=(len(_VECTOR_FIELDS), n)).tolist()
    draws[3] = [c_scale * c for c in draws[3]]  # the c row
    return DelayDriftSpec(*draws, delay=delay)


# ---------------------------------------------------------------------------
# flat key=value serialization, used by the command line tool


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_drift(drift: DriftKind) -> str:
    """A drift's key=value lines, every float in full: a and b, or delay and term_*.

    No model key: whether an affine drift is cir or ckls depends on gamma.
    """
    if isinstance(drift, AffineDrift):
        lines = [f"a={_fmt(drift.a)}", f"b={_fmt(drift.b)}"]
    else:
        lines = [f"delay={_fmt(drift.delay)}"]
        lines += [f"term_{name}=" + ",".join(map(_fmt, getattr(drift, name))) for name in _VECTOR_FIELDS]
    return "\n".join(lines) + "\n"


def format_model_config(spec: ModelSpec) -> str:
    """Render a ModelSpec as flat key=value lines (see parse_model_config)."""
    kind = ("cir" if spec.gamma == 0.5 else "ckls") if isinstance(spec.drift, AffineDrift) else "random-delay"
    return f"model={kind}\n{format_drift(spec.drift)}sigma={_fmt(spec.sigma)}\ngamma={_fmt(spec.gamma)}\n"


def _parse_kv(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


class MissingKeyError(ValueError):
    """A model config lacks the required key ``key``."""

    def __init__(self, key: str) -> None:
        super().__init__(f"missing config key {key!r}")
        self.key = key


def _require(pairs: dict[str, str], key: str) -> str:
    if key not in pairs:
        raise MissingKeyError(key)
    return pairs[key]


def _float_of(pairs: dict[str, str], key: str) -> float:
    raw = _require(pairs, key)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: not a number: {raw!r}") from None


def parse_model_config(text: str) -> ModelSpec:
    """Parse flat key=value lines into a ModelSpec.

    Blank lines and lines starting with '#' are ignored.  Affine models use
    keys model=cir|ckls, a, b, sigma, gamma; randomized delay models use
    model=random-delay, delay, sigma, gamma and comma-separated vectors
    term_a, term_b, term_nu, term_c, term_d, term_e, term_a_hat, term_b_hat,
    term_nu_hat of one length, the term count.  Other keys (an old n_terms) are ignored.
    """
    pairs = _parse_kv(text)
    kind = _require(pairs, "model")
    sigma = _float_of(pairs, "sigma")
    if kind in ("cir", "ckls"):
        gamma = _float_of(pairs, "gamma") if (kind == "ckls" or "gamma" in pairs) else 0.5
        drift = AffineDrift(_float_of(pairs, "a"), _float_of(pairs, "b"))
        return ModelSpec(drift=drift, sigma=sigma, gamma=gamma)
    if kind == "random-delay":
        vectors = {}
        for name in _VECTOR_FIELDS:
            raw = _require(pairs, f"term_{name}")
            try:
                vectors[name] = tuple(float(v) for v in raw.split(","))
            except ValueError:
                raise ValueError(f"config key 'term_{name}': not a number list: {raw!r}") from None
        drift = DelayDriftSpec(delay=_float_of(pairs, "delay"), **vectors)
        return ModelSpec(drift=drift, sigma=sigma, gamma=_float_of(pairs, "gamma"))
    raise ValueError(f"unknown model kind {kind!r} (expected cir, ckls or random-delay)")
