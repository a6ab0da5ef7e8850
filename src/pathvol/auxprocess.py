"""Normalized increments and the log-modulus of their complex product.

For a positive path y(t_k) and an exponent h in [0, 1], define

    eta[k] = (y(t_k) - y(t_{k-1})) / y(t_{k-1})**h .

The complex product prod_k (1 + i * eta[k]) has log-modulus

    log | prod_k (1 + i * eta[k]) | = (1/2) * sum_k log(1 + eta[k]**2),

an exact identity (|1 + i*eta|^2 = 1 + eta^2 per factor).  The half-sum
form is the one used everywhere in the estimators: each term is computed
with log1p, so eta as small as 1e-9 still contributes, and it cannot
overflow no matter how long the path.  The test suite checks it against
the complex product multiplied out directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath

__all__ = ["AuxSeries", "compute_aux"]


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
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    y = path.values
    prev = y[:-1]
    eta = np.diff(y) / prev**h
    v = np.log1p(eta * eta)
    running = 0.5 * np.cumsum(v)
    return AuxSeries(h=float(h), eta=eta, v=v, log_modulus_running=running, v_bar=float(v.mean()))

