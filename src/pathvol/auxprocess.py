"""Normalized increments and the log-modulus of their complex product.

For a positive path y(t_k) and an exponent h in [0, 1], define

    eta[k] = (y(t_k) - y(t_{k-1})) / y(t_{k-1})**h .

The complex product prod_k (1 + i * eta[k]) has log-modulus

    log | prod_k (1 + i * eta[k]) | = (1/2) * sum_k log(1 + eta[k]**2),

an exact identity (|1 + i*eta|^2 = 1 + eta^2 per factor).  The half-sum
form is the one used everywhere in the estimators: each term is computed
with log1p, so eta as small as 1e-9 still contributes, and it cannot
overflow no matter how long the path.  The direct complex product is kept
as an independent cross-check oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath

__all__ = ["AuxSeries", "compute_aux", "log_modulus_complex_oracle"]


@dataclass(frozen=True)
class AuxSeries:
    """Per-step series derived from one path at a fixed exponent h.

    eta[k]                 normalized increments (length m)
    v[k]                   log(1 + eta[k]**2)
    log_modulus_running[k] (1/2) * cumulative sum of v up to k
    v_bar                  mean of v
    """

    h: float
    eta: np.ndarray
    v: np.ndarray
    log_modulus_running: np.ndarray
    v_bar: float


def compute_aux(path: SamplePath, h: float) -> AuxSeries:
    """Increment series of a path at exponent h in [0, 1]."""
    if not (0.0 <= h <= 1.0):
        raise ValueError("h must lie in [0, 1]")
    y = path.values
    prev = y[:-1]
    eta = np.diff(y) / prev**h
    v = np.log1p(eta * eta)
    running = 0.5 * np.cumsum(v)
    return AuxSeries(h=float(h), eta=eta, v=v, log_modulus_running=running, v_bar=float(v.mean()))


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
