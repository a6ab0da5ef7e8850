"""Normalized increments and the complex-product log-modulus identity."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_modulus_complex_oracle, make_path, random_positive_path
from pathvol.auxprocess import compute_aux


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestComputeAux:
    def test_single_step_hand_values(self):
        aux = compute_aux(make_path([4.0, 4.2]), h=0.5)
        assert aux.eta[0] == pytest.approx(0.1, rel=1e-15, abs=0)
        assert aux.v[0] == pytest.approx(math.log(1.01), rel=1e-15, abs=0)
        assert aux.log_modulus_running[-1] == pytest.approx(0.5 * math.log(1.01), rel=1e-15, abs=0)

    def test_series_definitions(self):
        rng = np.random.default_rng(5)
        path = random_positive_path(rng, 50)
        h = 0.3
        aux = compute_aux(path, h)
        y = path.values
        expected_eta = np.diff(y) / y[:-1] ** h
        np.testing.assert_array_equal(aux.eta, expected_eta)
        np.testing.assert_array_equal(aux.v, np.log1p(expected_eta**2))
        np.testing.assert_allclose(aux.log_modulus_running, 0.5 * np.cumsum(aux.v), rtol=1e-15)
        assert aux.v_bar == pytest.approx(aux.v.mean(), rel=1e-15, abs=0)

    def test_h_zero_uses_raw_increments(self):
        path = make_path([2.0, 3.0, 1.5])
        aux = compute_aux(path, 0.0)
        np.testing.assert_array_equal(aux.eta, [1.0, -1.5])

    @pytest.mark.parametrize("h", [0.0, 1.0])
    def test_h_at_interval_ends_accepted(self, h):
        assert compute_aux(make_path([1.0, 2.0]), h).h == h

    def test_h_outside_unit_interval_rejected(self):
        path = make_path([1.0, 2.0])
        for h in (-0.1, 1.5):
            with pytest.raises(ValueError) as exc:
                compute_aux(path, h)
            assert str(exc.value) == f"h must lie in [0, 1], got {h}"  # as the estimators word it


class TestOracle:
    def test_single_unit_eta(self):
        # |1 + i| = sqrt(2)
        assert log_modulus_complex_oracle(np.array([1.0])) == pytest.approx(
            0.5 * math.log(2.0), rel=1e-15, abs=0
        )

    def test_two_step_frozen_value(self):
        # independently computed: 0.5*(log 1.01 + log 1.04)
        eta = np.array([0.1, -0.2])
        frozen = 0.02458552200322471
        assert log_modulus_complex_oracle(eta) == pytest.approx(frozen, rel=1e-12, abs=0)
        path = make_path([1.0, 1.1, 0.9])
        aux = compute_aux(path, h=0.0)
        np.testing.assert_allclose(aux.eta, eta, rtol=1e-12)
        assert aux.log_modulus_running[-1] == pytest.approx(frozen, rel=1e-12, abs=0)

    def test_empty_product_is_zero(self):
        assert log_modulus_complex_oracle(np.array([])) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            log_modulus_complex_oracle(np.array([1.0, float("nan")]))

    def test_long_product_does_not_overflow(self):
        # naive product of 5000 factors |1+3i| overflows float range
        eta = np.full(5000, 3.0)
        expected = 5000 * 0.5 * math.log(10.0)
        assert log_modulus_complex_oracle(eta) == pytest.approx(expected, rel=1e-12)

    def test_tiny_increments_not_lost(self):
        eta = np.full(1000, 1e-9)
        expected = 1000 * 0.5 * math.log1p(1e-18)
        # each factor's squared modulus 1 + 1e-18 is ~9 ulps above 1 in 80-bit
        # extended precision, so the product keeps about three digits of it
        assert log_modulus_complex_oracle(eta) == pytest.approx(expected, rel=1e-2, abs=0)
        aux_sum = 0.5 * np.sum(np.log1p(eta**2))
        assert aux_sum > 0.0  # log1p keeps the sub-epsilon signal


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(-1e6, 1e6).filter(lambda x: abs(x) > 1e-12 or x == 0.0),
        min_size=1,
        max_size=400,
    )
)
def test_identity_half_sum_equals_complex_product(etas):
    eta = np.array(etas)
    half_sum = 0.5 * float(np.sum(np.log1p(eta * eta)))
    assert rel_close(log_modulus_complex_oracle(eta), half_sum)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(2, 300),
    h=st.floats(0.0, 1.0),
)
def test_identity_on_paths(seed, length, h):
    path = random_positive_path(np.random.default_rng(seed), length)
    aux = compute_aux(path, h)
    assert rel_close(aux.log_modulus_running[-1], log_modulus_complex_oracle(aux.eta))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-6, 1e6),
)
def test_h_one_makes_eta_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    path = random_positive_path(rng, 40)
    scaled = make_path(scale * path.values, delta=path.delta)
    a = compute_aux(path, 1.0).eta
    b = compute_aux(scaled, 1.0).eta
    # atol floor: scaling then differencing re-rounds each increment, so
    # near-zero increments carry ~eps-level absolute noise
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-14)
