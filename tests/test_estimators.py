"""Estimators of (sigma, gamma) and the CIR moment inversion."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_cir_paths, make_path, random_positive_path
import pathvol
from pathvol.estimators import (
    _BLOCK,
    _increment_sums,
    _power_sums,
    METHODS,
    EstimateResult,
    EstimatorSpec,
    NoSolutionError,
    cir_backout,
    cir_mean,
    cir_variance,
    gamma_known_sigma,
    gamma_ratio_estimate,
    integrated_sigma_sq,
    joint_estimate,
    sigma_known_gamma,
)
from pathvol.auxprocess import compute_aux
from pathvol.experiment import rmse_se
from pathvol.model import ckls_model, cir_model
from pathvol.simulate import DegeneratePathError, SimConfig, euler_maruyama


def simulated_path(n=20_000, gamma=0.6, sigma=0.3, seed=0, y0=1.0):
    model = ckls_model(a=1.0, b=1.0, sigma=sigma, gamma=gamma)
    return euler_maruyama(model, SimConfig(n_steps=n, y0=y0), np.random.default_rng(seed))


class TestSigmaKnownGamma:
    def test_two_point_frozen_oracle(self):
        # eta = 0.2/sqrt(4) = 0.1; sigma^2 = log(1.01)/(0.01 * 1)
        result = sigma_known_gamma(make_path([4.0, 4.2], delta=0.01), gamma=0.5)
        assert result.sigma_hat == pytest.approx(0.997513451195927, rel=1e-14, abs=0)

    def test_weight_uses_successor_values(self):
        # path [1, 4, 9], gamma=1, delta=1: the weight sums y**0 over the successor values
        # 4 and 9, so it is delta * m = 2, not 3; v = log(1 + 3**2) + log(1 + (5/4)**2)
        result = sigma_known_gamma(make_path([1.0, 4.0, 9.0], delta=1.0), gamma=1.0)
        assert result.sigma_hat**2 == pytest.approx(1.6217842187292861, rel=1e-14, abs=0)

    def test_recovers_scale_on_long_path(self):
        result = sigma_known_gamma(simulated_path(), gamma=0.6)
        assert result.sigma_hat == pytest.approx(0.3, abs=0.01)

    def test_constant_path_degenerate_zero(self):
        result = sigma_known_gamma(make_path([2.0, 2.0, 2.0]), gamma=0.5)
        assert result.degenerate and result.sigma_hat == 0.0

    def test_rmse_on_exact_cir_paths_sits_on_the_floor(self):
        # off the Euler model: 1000 paths from the exact CIR transition law (a = 1, b = 0.5,
        # sigma = 0.3, y0 uniform on [0.1, 1]) give an rmse at gamma = 0.5 within 3 rmse_se of
        # the floor sigma / sqrt(2N) at N = 250
        sigma, n = 0.3, 250
        rng = np.random.default_rng(20261019)
        paths = exact_cir_paths(rng, a=1.0, b=0.5, sigma=sigma, y0=rng.uniform(0.1, 1.0, 1000), n_steps=n)
        errors = [sigma_known_gamma(make_path(v, delta=1.0 / n), gamma=0.5).sigma_hat - sigma for v in paths]
        rmse = math.sqrt(np.mean(np.square(errors)))
        assert abs(rmse - sigma / math.sqrt(2 * n)) <= 3.0 * rmse_se(errors)

    def test_parameter_validation(self):
        path = make_path([1.0, 2.0])
        for gamma in (1.2, -0.2):
            with pytest.raises(ValueError, match="gamma must lie"):
                sigma_known_gamma(path, gamma=gamma)
        with pytest.raises(TypeError, match="'h'"):  # no free exponent: the estimate is at h = gamma
            sigma_known_gamma(path, gamma=0.5, h=0.5)


def assert_grid_is_fixed(search, method, grid_n, **params):
    # each search scans a constant number of candidates: grid_n is no parameter of it or of a spec
    assert search(simulated_path(n=300, seed=9), **params).grid_n == grid_n
    with pytest.raises(TypeError, match="grid_n"):
        search(make_path([1.0, 2.0, 3.0]), grid_n=grid_n, **params)
    with pytest.raises(TypeError, match="grid_n"):
        EstimatorSpec(method, grid_n=grid_n, **params)


class TestGammaRatio:
    def test_candidates_come_from_the_grid(self):
        path = simulated_path(n=500, seed=1)
        result = gamma_ratio_estimate(path)
        assert result.gamma_hat in [k / 300 for k in range(1, 301)]
        assert result.grid_n == 300
        assert len(result.objective_curve) == 300

    def test_search_range_restricts_candidates(self):
        path = simulated_path(n=500, seed=1)
        result = gamma_ratio_estimate(path, search_range=(0.5, 1.0))
        assert result.gamma_hat in [0.5 + 0.5 * k / 300 for k in range(1, 301)]
        assert result.gamma_hat > 0.5

    def test_default_grid_matches_spec_form(self):
        path = simulated_path(n=300, seed=2)
        result = gamma_ratio_estimate(path)
        grid = [g for g, _ in result.objective_curve]
        np.testing.assert_allclose(grid, np.arange(1, 301) / 300)

    def test_recovers_power_on_long_path(self):
        result = gamma_ratio_estimate(simulated_path(seed=4))
        assert result.gamma_hat == pytest.approx(0.6, abs=0.08)

    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            gamma_ratio_estimate(make_path([1.0, 2.0, 3.0]), h1=0.5, h2=0.5)

    def test_bad_search_range_rejected(self):
        path = make_path([1.0, 2.0, 3.0])
        for rng in ((0.5, 0.5), (-0.1, 1.0), (0.0, 1.5)):
            with pytest.raises(ValueError, match="search_range"):
                gamma_ratio_estimate(path, search_range=rng)

    def test_grid_size_is_fixed(self):
        assert_grid_is_fixed(gamma_ratio_estimate, "gamma-ratio", 300)

    def test_constant_path_raises(self):
        with pytest.raises(DegeneratePathError):
            gamma_ratio_estimate(make_path([2.0, 2.0, 2.0]))

    def test_objective_curve_is_the_scanned_objective(self):
        path = simulated_path(n=400, seed=5)
        result = gamma_ratio_estimate(path)
        objs = [o for _, o in result.objective_curve]
        assert min(objs) == result.objective_min
        grid = [g for g, _ in result.objective_curve]
        assert grid[int(np.argmin(objs))] == result.gamma_hat


class TestJointEstimate:
    def test_recovers_both_parameters(self):
        result = joint_estimate(simulated_path(seed=6))
        assert result.gamma_hat == pytest.approx(0.6, abs=0.08)
        assert result.sigma_hat == pytest.approx(0.3, abs=0.02)

    def test_sigma_consistent_with_series_mean(self):
        path = simulated_path(n=1000, seed=7)
        result = joint_estimate(path)
        v_bar = compute_aux(path, result.gamma_hat).v_bar
        assert result.sigma_hat == pytest.approx(math.sqrt(v_bar / path.delta), rel=1e-12, abs=0)

    def test_search_range_restricts_candidates(self):
        path = simulated_path(n=300, seed=8)
        result = joint_estimate(path, search_range=(0.5, 1.0))
        assert result.gamma_hat in [0.5 + 0.5 * k / 30 for k in range(1, 31)]

    def test_constant_path_raises(self):
        # refused by _spread by name, ahead of the non-finite curve a constant path would give
        for search in (joint_estimate, lambda path: gamma_known_sigma(path, sigma=0.3)):
            with pytest.raises(DegeneratePathError) as exc:
                search(make_path([1.0, 1.0, 1.0]))
            assert str(exc.value) == "constant path: no increments to fit"

    def test_curve_length_matches_grid(self):
        result = joint_estimate(simulated_path(n=300, seed=9))
        assert len(result.objective_curve) == result.grid_n == 30

    def test_grid_size_is_fixed(self):
        assert_grid_is_fixed(joint_estimate, "joint-variance", 30)


class TestGammaKnownSigma:
    def test_recovers_power(self):
        result = gamma_known_sigma(simulated_path(seed=10), sigma=0.3)
        assert result.gamma_hat == pytest.approx(0.6, abs=0.15)

    def test_level_term_identifies_hovering_paths(self):
        # paths hovering at a level away from 1 leave the dispersion-only
        # (joint) objective nearly flat; the known-sigma level term pins
        # the power down to the nearest grid point
        for level, seed in ((3.0, 0), (3.0, 1), (0.4, 2)):
            model = ckls_model(a=1.0, b=level, sigma=0.3, gamma=0.6)
            path = euler_maruyama(model, SimConfig(n_steps=10_000, y0=level), np.random.default_rng(seed))
            result = gamma_known_sigma(path, sigma=0.3)
            assert result.gamma_hat == pytest.approx(0.6, abs=1 / 30 + 1e-12)

    def test_no_worse_than_joint_search_on_same_paths(self):
        # knowing sigma removes one fitted degree of freedom, so across a
        # spread of starting levels the error should not be worse
        joint_errs, known_errs = [], []
        for trial in range(25):
            rng = np.random.default_rng(np.random.SeedSequence((9090, trial)))
            model = ckls_model(a=1.0, b=1.0, sigma=0.3, gamma=0.6)
            path = euler_maruyama(
                model, SimConfig(n_steps=10_000, y0_range=(0.1, 10.0)), rng
            )
            joint_errs.append(joint_estimate(path).gamma_hat - 0.6)
            known_errs.append(gamma_known_sigma(path, sigma=0.3).gamma_hat - 0.6)
        rms = lambda e: float(np.sqrt(np.mean(np.square(e))))
        assert rms(known_errs) <= rms(joint_errs) * 1.05

    @pytest.mark.parametrize(
        "sigma, match",
        [(1e-100, "level term is not finite"), (1e-200, "sigma\\*\\*2 is 0"), (1e200, "sigma\\*\\*2 is inf")],
    )
    def test_level_term_out_of_float_range_raises(self, sigma, match):
        # (v_bar / (delta * sigma**2) - 1) ** 2 overflows, or delta * sigma**2 underflows to 0 or overflows
        with pytest.raises(DegeneratePathError, match=match):
            gamma_known_sigma(make_path([1.0, 1.1, 1.05, 1.2], delta=0.01), sigma=sigma)

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            gamma_known_sigma(make_path([1.0, 2.0]), sigma=0.0)

    def test_grid_size_is_fixed(self):
        assert_grid_is_fixed(gamma_known_sigma, "gamma-known-sigma", 30, sigma=0.3)


# eta**2 overflows on the first path, so some spread objective values are nan; on the second
# the ratio search's probe sums are finite, but its power ratio y**2 = 4e308 is not
SPREAD_OVERFLOW = make_path([1e300, 2e300, 1e-300, 5.0])
RATIO_OVERFLOW = make_path([1e154, 2e154])


@pytest.mark.parametrize(
    "estimate, path",
    [
        (joint_estimate, SPREAD_OVERFLOW),
        (gamma_ratio_estimate, RATIO_OVERFLOW),
        (lambda path: gamma_known_sigma(path, sigma=1.0), SPREAD_OVERFLOW),
    ],
    ids=["joint", "gamma_ratio", "gamma_known_sigma"],
)
def test_nonfinite_objective_raises_instead_of_argmin(estimate, path):
    with np.errstate(all="ignore"), pytest.raises(DegeneratePathError, match="objective is not finite"):
        estimate(path)


def test_joint_estimate_raises_on_nonfinite_scale():
    # finite objective, but mean(v) / delta overflows on a subnormal step
    with np.errstate(over="ignore"), pytest.raises(DegeneratePathError, match="scale estimate is not finite"):
        joint_estimate(make_path([1.0, 2.0, 1.0], delta=1e-310))


# The grid searches written plainly, one candidate h per loop iteration.  The
# block evaluation of joint_estimate and gamma_known_sigma must reproduce them
# bit for bit; gamma_ratio_estimate's split power sums agree to 1e-12 relative.


def reference_grid(grid_n, search_range):
    lo, hi = search_range
    return lo + (hi - lo) * np.arange(1, grid_n + 1) / grid_n


def reference_ratio_objective(path, grid, h1=0.0, h2=1.0):
    rhs = float(np.sum(compute_aux(path, h1).v)) / float(np.sum(compute_aux(path, h2).v))
    log_tail = np.log(path.values[1:])
    objective = np.empty(grid.size)
    for i, g in enumerate(grid):
        num = float(np.sum(np.exp((2.0 * (g - h1)) * log_tail)))
        den = float(np.sum(np.exp((2.0 * (g - h2)) * log_tail)))
        objective[i] = abs(num / den - rhs)
    return objective


def reference_power_ratio(path, grid, h1=0.0, h2=1.0):
    """sum y**(2*(g-h1)) / sum y**(2*(g-h2)) per candidate g, the ratio term of the objective."""
    log_tail = np.log(path.values[1:])
    num = [float(np.sum(np.exp((2.0 * (g - h1)) * log_tail))) for g in grid]
    den = [float(np.sum(np.exp((2.0 * (g - h2)) * log_tail))) for g in grid]
    return np.array(num) / np.array(den)


def reference_spread_objectives(path, grid, sigma):
    """(v_bars, joint_estimate objective, gamma_known_sigma objective)."""
    dy, prev = np.diff(path.values), path.values[:-1]
    level_target = path.delta * sigma * sigma
    v_bars, joint, known = np.empty(grid.size), np.empty(grid.size), np.empty(grid.size)
    for i, h in enumerate(grid):
        eta = dy / prev**h
        v = np.log1p(eta * eta)
        v_bars[i] = v.mean()
        joint[i] = float(np.sum((v / v_bars[i] - 1.0) ** 2))
        known[i] = joint[i] + v.size * (float(v_bars[i]) / level_target - 1.0) ** 2
    return v_bars, joint, known


def reference_summary(grid, objective, sigma_hat=None):
    best = int(np.argmin(objective))
    curve = tuple((float(g), float(o)) for g, o in zip(grid, objective))
    return float(grid[best]), sigma_hat, float(objective[best]), curve


def summary(result):
    return result.gamma_hat, result.sigma_hat, result.objective_min, result.objective_curve


@pytest.mark.parametrize("search_range", [(0.0, 1.0), (0.5, 1.0)], ids=["default", "upper-half"])
@pytest.mark.parametrize(
    "n_increments",
    [1, 250, 1001, _BLOCK + 3617],
    ids=["N=2", "N=250", "ragged-blocks", "one-row-blocks"],
)
def test_grid_searches_match_per_candidate_loops_bitwise(n_increments, search_range):
    if n_increments == 1001:  # the last block of both searches is short
        rows = _BLOCK // n_increments
        assert 300 % rows != 0 and 30 % rows != 0
    paths = [random_positive_path(np.random.default_rng(seed), n_increments + 1) for seed in range(3)]
    if n_increments > 1:
        paths.append(simulated_path(n=n_increments, seed=21, gamma=0.5, sigma=0.8))
    spread_grid = reference_grid(30, search_range)
    for path in paths:
        v_bars, joint, known = reference_spread_objectives(path, spread_grid, sigma=0.7)
        best = int(np.argmin(joint))
        expected = reference_summary(spread_grid, joint, math.sqrt(v_bars[best] / path.delta))
        assert summary(joint_estimate(path, search_range=search_range)) == expected
        expected = reference_summary(spread_grid, known)
        assert summary(gamma_known_sigma(path, sigma=0.7, search_range=search_range)) == expected


@pytest.mark.parametrize("probes", [(0.0, 1.0), (0.25, 0.75)], ids=["h=0,1", "h=.25,.75"])
@pytest.mark.parametrize("search_range", [(0.0, 1.0), (0.5, 1.0)], ids=["default", "upper-half"])
@pytest.mark.parametrize(
    "n_increments",
    [1, 250, 1001, _BLOCK + 3617],
    ids=["N=2", "N=250", "ragged-blocks", "one-row-blocks"],
)
def test_ratio_search_matches_per_candidate_loop(n_increments, search_range, probes):
    # the split power sums round differently from one exp per candidate: each objective value
    # agrees to 1e-12 of the larger of its two terms, and the argmin does not move
    h1, h2 = probes
    paths = [random_positive_path(np.random.default_rng(seed), n_increments + 1) for seed in range(3)]
    if n_increments > 1:
        paths.append(simulated_path(n=n_increments, seed=21, gamma=0.5, sigma=0.8))
    grid = reference_grid(300, search_range)
    for path in paths:
        result = gamma_ratio_estimate(path, h1=h1, h2=h2, search_range=search_range)
        expected = reference_ratio_objective(path, grid, h1, h2)
        rhs = float(np.sum(compute_aux(path, h1).v)) / float(np.sum(compute_aux(path, h2).v))
        scale = np.maximum(reference_power_ratio(path, grid, h1, h2), rhs)
        candidates, objective = map(np.array, zip(*result.objective_curve))
        assert candidates.tolist() == grid.tolist()
        assert np.all(np.abs(objective - expected) <= 1e-12 * scale)
        assert result.objective_min == objective.min()
        if n_increments > 1:  # at N = 2 the curve is constant in g and its argmin is rounding noise
            assert result.gamma_hat == float(grid[int(np.argmin(expected))])


def test_power_sums_scale_exactly_and_cannot_overflow():
    # log y + log c scales every sum by c**s, so S1/S2 by c**(2*(h2-h1)) = c at (h1, h2) = (0.25, 0.75)
    c = 1e200
    log_y = math.log(1e10) + np.cumsum(np.random.default_rng(0).normal(0.0, 1e-5, 1000))
    scales = 2.0 * (reference_grid(300, (0.0, 1.0)) - np.array([[0.25], [0.75]]))

    def ratio(log_y):
        sums, shifts = _power_sums(log_y, scales)
        assert np.all((sums > 0.0) & (sums <= log_y.size))
        return sums[0] / sums[1] * np.exp(shifts[0] - shifts[1])

    np.testing.assert_allclose(ratio(log_y + math.log(c)), c * ratio(log_y), rtol=1e-12, atol=0.0)
    # near 1e210, y**1.5 overflows: one exp per candidate gives a non-finite objective
    result = gamma_ratio_estimate(make_path(c * np.exp(log_y)), h1=0.25, h2=0.75)
    assert math.isfinite(result.gamma_hat) and math.isfinite(result.objective_min)


# search sub-ranges (lo < hi) and probe pairs (h1 != h2) of the ratio search, drawn from [0, 1]
SEARCH_RANGES = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted).filter(lambda r: r[0] < r[1])
PROBES = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda p: p[0] != p[1])


@settings(max_examples=100, deadline=None)
@given(SEARCH_RANGES, PROBES)
@example(search_range=[0.0, 1.0], probes=[0.0, 1.0])  # the largest step, 2/300
def test_power_sums_match_max_shifted_sums_across_the_float_range(search_range, probes):
    # the ratio search's 300 candidates split 17 wide: the split shifts exceed a sum's largest term
    # by at most 16 * (2/300) * 1454.2 = 155 e-folds, even where log y spans the whole double range
    scales = 2.0 * (reference_grid(300, search_range) - np.array(probes)[:, None])
    for values in (
        [1e308, 1e-300, 1e-316, 3.0, 1e200],
        [1e200, 1e-234, 3.0, 1e-100, 1e100],
        [5e-324, 1.0, 1.7976931348623157e308, 1e-10],
    ):
        log_y = np.log(values)
        sums, shifts = _power_sums(log_y, scales)
        top = np.maximum(scales * log_y.min(), scales * log_y.max())
        expected = np.exp(scales[:, :, None] * log_y - top[:, :, None]).sum(axis=2)
        np.testing.assert_allclose(sums * np.exp(shifts - top), expected, rtol=1e-12, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40), SEARCH_RANGES, PROBES.map(sorted))
# R lies in the subnormal range here, where its product form carries too few digits for 1e-12
@example(log_y=[0.0, -700.0], search_range=[0.3597063697699661, 0.375], probes=[0.0, 0.8919085786547962])
def test_ratio_search_power_ratio_is_nondecreasing(log_y, search_range, probes):
    # R(g) = sum y**(2(g - h1)) / sum y**(2(g - h2)) is a weighted mean of y**(2(h2 - h1)) under
    # weights y**(2(g - h2)), which shift towards the larger y as g grows: for h1 < h2 it never falls.
    # log R is compared, as R itself may lie below the normal doubles or above the largest one;
    # no shifted sum is 0 or inf, so every log R is finite
    h1, h2 = probes
    log_y = np.array(log_y)
    scales = 2.0 * (reference_grid(300, search_range) - np.array([[h1], [h2]]))
    sums, shifts = _power_sums(log_y, scales)
    log_ratio = np.log(sums[0]) - np.log(sums[1]) + (shifts[0] - shifts[1])
    assert np.all(log_ratio[1:] >= log_ratio[:-1] + math.log1p(-1e-12))


def test_known_sigma_level_term_matches_python_floats_bitwise():
    # numpy's square and CPython's float ** 2 disagree in the last bit on a
    # fraction of a percent of inputs, so this takes many short paths
    grid = reference_grid(30, (0.0, 1.0))
    for seed in range(200):
        path = random_positive_path(np.random.default_rng(seed), 53)
        for sigma in (0.3, 0.7, 2.0):
            _, _, known = reference_spread_objectives(path, grid, sigma)
            assert summary(gamma_known_sigma(path, sigma=sigma)) == reference_summary(grid, known)


@pytest.mark.parametrize(
    "n_increments",
    [1, 2, 250, _BLOCK // 7 - 1, _BLOCK // 7, _BLOCK // 7 + 1, _BLOCK, _BLOCK + 1, 20_000],
)
def test_increment_sums_match_compute_aux_bitwise(n_increments):
    # seven exponents straddle the block edge _BLOCK // 7 (one block, then two)
    exponents = [0.0, 0.25, 0.5, 0.6, 0.75, 1.0, 1.0 / 3.0]
    for seed in range(3):
        path = random_positive_path(np.random.default_rng(seed), n_increments + 1)
        expected = [float(np.sum(compute_aux(path, h).v)) for h in exponents]
        assert _increment_sums(path, exponents).tolist() == expected
        assert _increment_sums(path, exponents[:2]).tolist() == expected[:2]


# paths whose sigma estimate overflows: in the increment sum, or in the quotient by a subnormal delta
OVERFLOWING_SUM = [make_path([1.0, 1e200, 1.0]), make_path([5e-324, 1.0])]
SUBNORMAL_DELTA = make_path([1.0, 2.0, 1.0], delta=1e-310)


# the estimators that take increment sums; the ratio search's h2 = 1 sum (dy / y)**2 overflows on the
# subnormal level, where s1 / inf = 0 is no ratio to match
SUM_CALLS = {
    "sigma-known-gamma": lambda path: sigma_known_gamma(path, gamma=0.5),
    "integrated-sigma-sq": lambda path: EstimatorSpec("integrated-sigma-sq", gamma=0.5).result(path),
    "integrated_sigma_sq": lambda path: integrated_sigma_sq(path, gamma=0.5),
    "gamma-ratio": gamma_ratio_estimate,
}


@pytest.mark.parametrize("call", SUM_CALLS.values(), ids=SUM_CALLS.keys())
@pytest.mark.parametrize("path", OVERFLOWING_SUM, ids=["huge-step", "subnormal-level"])
def test_overflowing_increment_sum_raises(call, path):
    with np.errstate(all="ignore"), pytest.raises(DegeneratePathError, match="increment sum is not finite"):
        call(path)


# a varying path whose (dy / y**h)**2 underflows to 0 at every step at h = 0: sigma**2 =
# sum dy**2 / (delta * m) = 6.25e-399 is below the smallest double, and the path is not constant
UNDERFLOWING_SUM = make_path([1e-200, 2e-200, 1.5e-200], delta=0.01)
UNDERFLOW_CALLS = {
    "sigma-known-gamma": lambda path: sigma_known_gamma(path, gamma=0.0),
    "integrated-sigma-sq": lambda path: EstimatorSpec("integrated-sigma-sq", gamma=0.0).result(path),
    "integrated_sigma_sq": lambda path: integrated_sigma_sq(path, gamma=0.0),
    "gamma-ratio": gamma_ratio_estimate,
}


@pytest.mark.parametrize("call", UNDERFLOW_CALLS.values(), ids=UNDERFLOW_CALLS.keys())
def test_underflowing_increment_sum_on_a_varying_path_raises(call):
    # not read as a constant path: no degenerate sigma = 0, no "constant path" error
    with pytest.raises(DegeneratePathError) as exc:
        call(UNDERFLOWING_SUM)
    assert str(exc.value) == "increment sum underflows to 0 on a path that is not constant"


@pytest.mark.parametrize("method", ["sigma-known-gamma", "integrated-sigma-sq"])
def test_overflowing_scale_raises(method):
    with pytest.raises(DegeneratePathError, match="scale estimate is not finite"):
        EstimatorSpec(method, gamma=0.5).result(SUBNORMAL_DELTA)


def own_spec(method, **params):
    """The method's spec from those of ``params`` it takes: a spec refuses any other value."""
    entry = METHODS[method]
    return EstimatorSpec(method, **{k: v for k, v in params.items() if k in (*entry.required, *entry.defaults)})


@pytest.mark.parametrize("method", METHODS)
def test_overflowing_path_raises_without_numpy_warnings(method):
    # (dy / y**h)**2 overflows at the 1e200 step: each method names the error, and no
    # RuntimeWarning comes before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePathError):
            own_spec(method, gamma=0.5, sigma=1.0).result(OVERFLOWING_SUM[0])


# v_bar[h] underflows to 0 at small h while the last increment's v[h, k] is a subnormal
SUBNORMAL_MEAN = make_path([1e-292, 1e-292, 1e-292, 1.0000000000000003e-292])


@pytest.mark.parametrize(
    "search",
    [joint_estimate, lambda path: gamma_known_sigma(path, sigma=0.3)],
    ids=["joint_estimate", "gamma_known_sigma"],
)
def test_underflowing_mean_raises_without_numpy_warnings(search):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePathError, match="objective is not finite"):
            search(SUBNORMAL_MEAN)


def test_infinite_shifted_weight_raises_named_error():
    # the window delta * m = 1e308 * 2 overflows: no scale can be taken from it
    with pytest.raises(DegeneratePathError, match="scale estimate is not finite"):
        sigma_known_gamma(make_path([1.0, 2.0, 3.0], delta=1e308), gamma=0.5)


# not constant, but sum dy**2 / (delta * m) = 2e-320 / 2e10 underflows to 0 (and likewise mean(v) / delta
# at delta = 1e300): a sigma of 0 would read a varying path as a constant one
UNDERFLOWING_SCALE = [1e-150, 1e-150 + 1e-160, 1e-150]


@pytest.mark.parametrize(
    "estimate, delta",
    [(lambda path: sigma_known_gamma(path, gamma=0.0), 1e10), (joint_estimate, 1e300)],
    ids=["sigma-known-gamma", "joint-variance"],
)
def test_scale_that_underflows_to_zero_raises(estimate, delta):
    with pytest.raises(DegeneratePathError, match=r"scale estimate is not finite and > 0: 0\.0"):
        estimate(make_path(UNDERFLOWING_SCALE, delta=delta))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
    st.floats(0.0, 1.0),
)
def test_sigma_known_gamma_without_overflow_is_the_plain_quotient(values, gamma):
    path = make_path(values)
    total = float(_increment_sums(path, [gamma])[0])
    weight = path.delta * (len(values) - 1)
    result = sigma_known_gamma(path, gamma=gamma)
    if total == 0.0:
        assert result.degenerate
    else:
        assert result.sigma_hat == math.sqrt(total / weight)


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _outcome(call):
    """The call's result, or the message of the DegeneratePathError it raises."""
    try:
        return call()
    except DegeneratePathError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        st.lists(positive_floats, min_size=2, max_size=8),
        st.tuples(positive_floats, st.integers(2, 8)).map(lambda vn: [vn[0]] * vn[1]),  # constant
        st.lists(st.sampled_from([1.0, 1e200, 5e-324, 1e-300]), min_size=2, max_size=6),  # overflowing
    ),
    delta=st.sampled_from([0.01, 1.0, 1e-310, 1e300]),
    gamma=st.floats(0.0, 1.0),
)
def test_integrated_method_is_sigma_known_gamma_at_h_gamma(values, delta, gamma):
    path = make_path(values, delta=delta)
    outcome = _outcome(lambda: EstimatorSpec("integrated-sigma-sq", gamma=gamma).result(path))
    assert outcome == _outcome(lambda: sigma_known_gamma(path, gamma=gamma))
    if isinstance(outcome, EstimateResult) and not outcome.degenerate:
        # the integral over the window, as the method's own sum
        window = path.delta * (len(values) - 1)
        assert outcome.sigma_hat == math.sqrt(integrated_sigma_sq(path, gamma=gamma) / window)


class TestIntegratedSigmaSq:
    def test_matches_series_sum(self):
        path = simulated_path(n=500, seed=11)
        total = integrated_sigma_sq(path, gamma=0.6)
        assert total == pytest.approx(float(np.sum(compute_aux(path, 0.6).v)), rel=1e-14, abs=0)

    def test_estimates_integral_of_constant_scale(self):
        path = simulated_path(n=20_000, seed=12)
        window = path.delta * (len(path.values) - 1)
        assert math.sqrt(integrated_sigma_sq(path, gamma=0.6) / window) == pytest.approx(
            0.3, abs=0.01
        )

    def test_estimates_integral_of_time_dependent_scale(self):
        # Euler path of dy = (1 - y) dt + sigma(t) y**0.6 dw with sigma(t) = 0.2 + 0.2 t on
        # [0, 1]; the integral of sigma(s)**2 is 0.04 * (2**3 - 1) / 3 = 7/75.  The sum of
        # v_k ~ sigma(t_k)**2 * delta * xi_k**2 has standard deviation sqrt(2 delta int sigma**4),
        # with int sigma**4 = 0.0016 * (2**5 - 1) / 5; the band is four of them (about 0.004).
        n, gamma = 20_000, 0.6
        delta = 1.0 / n
        band = 4.0 * math.sqrt(2.0 * delta * 0.0016 * 31.0 / 5.0)
        xi = np.random.default_rng(13).standard_normal(n).tolist()
        values = [1.0]
        for k in range(n):
            y, sigma_t = values[-1], 0.2 + 0.2 * k * delta
            values.append(y + (1.0 - y) * delta + sigma_t * y**gamma * math.sqrt(delta) * xi[k])
        total = integrated_sigma_sq(make_path(values, delta=delta), gamma=gamma)
        assert abs(total - 7.0 / 75.0) < band


# a back-out makes at most 449 calls of cir_variance (400 scan points, up to 49 bisection steps)
_VARIANCE_CALL_BUDGET = 2000


def install_variance(monkeypatch, variance):
    """Make ``variance`` the estimators' cir_variance, failing the test at the first call beyond the budget.

    A bisection that does not end fails here in seconds, not at a suite timeout.
    """
    calls = iter(range(_VARIANCE_CALL_BUDGET))

    def budgeted(*args):
        if next(calls, None) is None:
            raise AssertionError(f"cir_variance called more than {_VARIANCE_CALL_BUDGET} times")
        return variance(*args)

    monkeypatch.setattr(pathvol.estimators, "cir_variance", budgeted)


class TestCirMoments:
    @pytest.fixture(autouse=True)
    def variance_call_budget(self, monkeypatch):
        # the closed form behind the budget; a test that installs a stand-in replaces it
        install_variance(monkeypatch, cir_variance)

    def test_mean_fixed_point(self):
        # starting at the reversion level keeps the mean there
        assert cir_mean(a=1.0, b=1.0, y0=1.0, horizon=1.0) == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_frozen_values(self):
        assert cir_mean(1.0, 2.0, 0.5, 2.0) == pytest.approx(1.796997075145081, rel=1e-14, abs=0)
        assert cir_variance(1.0, 2.0, 0.4, 0.5, 2.0) == pytest.approx(
            0.14770792622997228, rel=1e-14, abs=0
        )

    def test_analytic_round_trip_tight(self):
        a, b, sigma, y0, horizon = 2.0, 1.0, 0.3, 1.0, 1.0
        mean = cir_mean(a, b, y0, horizon)
        var = cir_variance(a, b, sigma, y0, horizon)
        a_hat, b_hat = cir_backout(mean, var, sigma, y0, horizon)
        assert a_hat == pytest.approx(a, abs=1e-6)
        assert b_hat == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("a,b", [(0.5, 3.0), (1.0, 1.0), (4.0, 0.2), (0.2, 0.7), (1.5, 0.8)])
    def test_round_trip_other_parameters(self, a, b):
        for y0 in (1.0, 0.4, 2.5):
            mean = cir_mean(a, b, y0, 1.0)
            var = cir_variance(a, b, 0.3, y0, 1.0)
            a_hat, b_hat = cir_backout(mean, var, 0.3, y0, 1.0)
            assert a_hat == pytest.approx(a, rel=1e-6)
            assert b_hat == pytest.approx(b, rel=1e-6)

    def test_no_solution_reports_residual_curve(self):
        with pytest.raises(NoSolutionError) as err:
            cir_backout(mean_t=1.0, var_t=1e-12, sigma=0.3, y0=1.0, horizon=1.0)
        curve = err.value.residual_curve
        assert len(curve) > 100
        assert all(r > 0 for _, r in curve)

    def test_horizon_where_the_discount_rounds_to_one_finds_no_solution(self):
        # exp(-a * T) == 1.0 on the whole bracket: 1 - exp(-a * T) is taken without cancelling to 0
        with pytest.raises(NoSolutionError) as err:
            cir_backout(1.0, 0.01, 0.3, 1.0, 1e-12)
        assert all(math.isfinite(r) for _, r in err.value.residual_curve)

    @pytest.mark.parametrize("horizon", [1e-320, 5e-324])
    def test_subnormal_horizon_is_refused_by_name(self, horizon):
        # a * horizon underflows to 0 at the bracket's lower end: b has no finite value there
        with pytest.raises(ValueError, match="horizon"):
            cir_backout(1.0, 0.01, 0.3, 1.0, horizon)

    def test_input_validation(self):
        base = dict(mean_t=1.0, var_t=0.01, sigma=0.3, y0=1.0, horizon=1.0)
        for name, value in (("var_t", -0.1), ("var_t", 0.0), ("sigma", 0.0), ("y0", 0.0), ("horizon", 0.0)):
            with pytest.raises(ValueError, match="sigma, y0, horizon and var_t must all be > 0"):
                cir_backout(**{**base, name: value})
        # a non-finite input is refused up front, not by a NoSolutionError over a nan residual curve
        for name in ("mean_t", "var_t", "sigma", "y0"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="mean_t, var_t, sigma and y0 must be finite"):
                    cir_backout(**{**base, name: value})
        # an infinite horizon is the stationary law: mean b, variance sigma**2 * b / (2 * a)
        a_hat, b_hat = cir_backout(1.0, 0.0225, 0.3, 1.0, math.inf)
        assert a_hat == pytest.approx(2.0, rel=1e-9) and b_hat == pytest.approx(1.0, rel=1e-9)

    def test_root_on_a_scan_point_is_returned_exactly(self, monkeypatch):
        # residual a - a_star, zero on a scan point: the scan returns that point, not the double below it
        a_star = np.geomspace(*pathvol.estimators._A_BRACKET, pathvol.estimators._SCAN_POINTS).tolist()[200]
        install_variance(monkeypatch, lambda a, b, sigma, y0, horizon: a)
        a_hat, _ = cir_backout(mean_t=1.0, var_t=a_star, sigma=1.0, y0=1.0, horizon=1.0)
        assert a_hat == a_star

    @pytest.mark.parametrize("falling", [False, True], ids=["rising", "falling"])
    def test_root_on_a_midpoint_is_returned_exactly(self, monkeypatch, falling):
        # a root on the first midpoint after scan point 200 is returned, whichever way the residual
        # crosses it, not the double below it for one direction and the root for the other
        scan = np.geomspace(*pathvol.estimators._A_BRACKET, pathvol.estimators._SCAN_POINTS).tolist()
        a_star = 0.5 * (scan[200] + scan[201])
        variance = (lambda a: 2.0 * a_star - a) if falling else (lambda a: a)
        install_variance(monkeypatch, lambda a, b, sigma, y0, horizon: variance(a))
        a_hat, _ = cir_backout(mean_t=1.0, var_t=a_star, sigma=1.0, y0=1.0, horizon=1.0)
        assert a_hat == a_star

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_sign_change_without_a_zero_ends_in_adjacent_doubles(self, monkeypatch, ulps):
        # residual -0.5 below a_star and +0.5 from it on, never 0: the bisection stops at the double
        # below a_star; for one of two neighbouring a_star the last midpoint rounds down to a_lo
        scan = np.geomspace(*pathvol.estimators._A_BRACKET, pathvol.estimators._SCAN_POINTS).tolist()
        a_star = 0.5 * (scan[200] + scan[201])
        for _ in range(ulps):
            a_star = math.nextafter(a_star, math.inf)
        step = lambda a, b, sigma, y0, horizon: 1.0 + math.copysign(0.5, a - a_star)
        install_variance(monkeypatch, step)
        a_hat, _ = cir_backout(mean_t=1.0, var_t=1.0, sigma=1.0, y0=1.0, horizon=1.0)
        assert a_hat == math.nextafter(a_star, 0.0)

    def test_importing_the_package_does_not_load_scipy_optimize(self):
        code = "import sys, pathvol; print('scipy' in sys.modules)"
        src = str(Path(pathvol.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        assert subprocess.check_output([sys.executable, "-c", code], env=env, text=True) == "False\n"


class TestEstimateResult:
    def test_search_arrays_are_read_only(self):
        result = joint_estimate(simulated_path(n=300, seed=9))
        for array in (result.grid, result.objective):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_equality_leaves_the_arrays_out(self):
        path = simulated_path(n=300, seed=9)
        result = gamma_ratio_estimate(path)
        assert result == gamma_ratio_estimate(path)
        assert result == replace(result, objective=result.objective + 1.0)
        assert hash(result) == hash(replace(result, grid=None, objective=None))

    def test_properties_read_the_arrays(self):
        result = gamma_ratio_estimate(simulated_path(n=300, seed=9))
        assert result.grid_n == 300 and isinstance(result.grid_n, int)
        assert result.objective_min == float(result.objective[np.argmin(result.objective)])
        assert result.objective_curve == tuple(zip(result.grid.tolist(), result.objective.tolist()))


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(0.05, 1.0),
    gamma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**20),
)
def test_known_power_scale_estimate_is_finite_and_positive(sigma, gamma, seed):
    model = ckls_model(a=1.0, b=1.0, sigma=sigma, gamma=gamma)
    path = euler_maruyama(model, SimConfig(n_steps=100, y0=1.0), np.random.default_rng(seed))
    result = sigma_known_gamma(path, gamma=gamma)
    assert result.sigma_hat is not None
    if not result.degenerate:
        assert result.sigma_hat > 0
        assert math.isfinite(result.sigma_hat)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(positive_floats, min_size=2, max_size=8).filter(lambda v: len(set(v)) >= 2),
    sigma=st.floats(-250.0, 250.0).map(lambda e: 10.0**e),
    gamma=st.floats(0.0, 1.0),
    method=st.sampled_from(sorted(METHODS)),
)
def test_every_method_gives_finite_values_or_a_named_error(values, sigma, gamma, method):
    try:
        result = own_spec(method, gamma=gamma, sigma=sigma).result(make_path(values))
    except DegeneratePathError:
        return
    curve = [objective for _, objective in result.objective_curve or ()]
    numbers = [result.gamma_hat, result.sigma_hat, result.objective_min, *curve]
    assert all(math.isfinite(x) for x in numbers if x is not None)
