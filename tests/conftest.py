"""Shared helpers for the test suite, and the oracles the library's kernels are checked against."""
from __future__ import annotations

import math

import numpy as np

from pathvol.model import AffineDrift, ModelSpec
from pathvol.simulate import SamplePath


def make_path(values, delta: float = 0.01, theta: float = 0.0) -> SamplePath:
    """SamplePath from raw values on a uniform grid."""
    return SamplePath(theta=theta, delta=delta, values=np.asarray(values, dtype=float))


def random_positive_path(rng: np.random.Generator, length: int, delta: float = 0.01) -> SamplePath:
    """Positive path with lognormal multiplicative increments (not simulated)."""
    steps = rng.normal(0.0, 0.05, size=length - 1)
    values = np.exp(np.cumsum(np.concatenate([[rng.uniform(-1.0, 1.0)], steps])))
    return make_path(values, delta=delta)


def drift_value(spec: ModelSpec, x: float, x_lagged: float) -> float:
    """The drift at state x and delayed state x_lagged, as the model docstrings write it.

    An affine drift is a*b - a*x; a delay drift is DelayDriftSpec's sum,
    added from 0.0 term by term in the order it is written.  Written here by
    hand, not rendered from ``model.drift_source``, so that a slip in the
    simulator's drift shows against it.
    """
    drift = spec.drift
    if isinstance(drift, AffineDrift):
        return drift.a * drift.b - drift.a * x
    value = 0.0
    for k in range(drift.n_terms):
        value += drift.a[k] * (drift.b[k] - x ** (drift.nu[k] + 0.5))
        value += drift.c[k] * math.cos(drift.d[k] * x + drift.e[k])
        value += 0.1 * drift.a_hat[k] * (drift.b_hat[k] - x_lagged ** (drift.nu_hat[k] + 0.5))
    return value


def log_modulus_complex_oracle(eta: np.ndarray) -> float:
    """log of the modulus of prod_k (1 + i * eta[k]) by explicit complex multiplication.

    Independent of compute_aux: the factors are multiplied out in extended
    precision, in chunks, renormalizing whenever the running product leaves
    a safe magnitude range, so very long products neither overflow nor
    drown the comparison in accumulated rounding.
    """
    values = np.asarray(eta, dtype=float)
    if values.size == 0:
        return 0.0
    if not np.all(np.isfinite(values)):
        raise ValueError("eta values must be finite")
    factors = np.empty(values.size, dtype=np.clongdouble)
    factors.real = 1.0
    factors.imag = values
    total = 0.0
    z = np.clongdouble(1.0)
    for start in range(0, factors.size, 64):
        z = z * np.prod(factors[start : start + 64])
        mag = np.abs(z)
        if not (1e-150 < float(mag) < 1e150):
            total += float(np.log(mag))
            z = z / mag
    return total + float(np.log(np.abs(z)))
