"""Release acceptance gate: nine criteria, one pass/fail line each under -v.

Criteria 2-7 rerun the benchmark error tables and check the measured
statistics against the reference values stored in the experiment module,
inside explicit tolerance bands.  The table runs are module-scoped
fixtures, so each configuration is simulated exactly once per session and
its wall time can be bounded where a criterion demands it.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import log_modulus_complex_oracle, make_path, random_positive_path
from pathvol.auxprocess import compute_aux
from pathvol.estimators import (
    cir_backout,
    cir_mean,
    cir_variance,
    joint_estimate,
    sigma_known_gamma,
)
from pathvol.experiment import reproduce_table
from pathvol.model import ModelSpec, cir_model, ckls_model, sample_delay_drift
from pathvol.simulate import DegeneratePathError, SimConfig, euler_maruyama

IDENTITY_RTOL = 1e-12

# Reference error statistics the criteria test against, with their bands.
REF_FINE_MATCHED_RMSE = 0.0136        # criterion 2: +/- 25 %, |bias| <= 0.005
REF_FINE_MISMATCH_BIASES = (0.0259, -0.0215, -0.0414)  # criterion 3: +/- 40 %, signs fixed
REF_COARSE_MATCHED_RMSE = 0.0312      # criterion 4: +/- 25 %
REF_SEARCH_RMSE_RATIO = 0.2078        # criterion 5: +/- 30 %, bias > 0
REF_SEARCH_RMSE_JOINT = 0.2304        # criterion 5: +/- 30 %, bias > 0
REF_SEARCH_RMSE_RATIO_FINE = 0.0309   # criterion 6: +/- 40 %
REF_SCALE_RMSE = 0.0515               # criterion 7: +/- 40 %


def _timed_table(table_id, trials, n_steps_filter=None):
    start = time.perf_counter()
    report = reproduce_table(table_id, trials=trials, n_steps_filter=n_steps_filter)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def fine_grid_run():
    # 4 rows at 250 steps, estimator power hypothesis 0.5 against true
    # powers 0.5 / 0.4 / 0.6 / 0.7
    return _timed_table("t1b", trials=1000)


@pytest.fixture(scope="module")
def coarse_grid_run():
    # same rows at 52 steps
    return _timed_table("t1a", trials=1000)


@pytest.fixture(scope="module")
def power_search_coarse_run():
    # both power-search estimators at 250 steps
    return _timed_table("t2", trials=500, n_steps_filter=(250,))


@pytest.fixture(scope="module")
def power_search_fine_run():
    # both power-search estimators at 10000 steps
    return _timed_table("t2", trials=200, n_steps_filter=(10000,))


@pytest.fixture(scope="module")
def joint_scale_run():
    # sigma from the joint estimate at 250 steps
    return _timed_table("t3", trials=500, n_steps_filter=(250,))


def test_criterion_1_log_modulus_identity_on_mixed_paths():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    paths = []
    for _ in range(600):
        paths.append(random_positive_path(rng, int(rng.integers(2, 2001)), delta=0.001))
    for _ in range(350):
        model = ckls_model(1.0, 1.0, 0.3, float(rng.uniform()))
        paths.append(euler_maruyama(model, SimConfig(n_steps=int(rng.integers(2, 1501))), rng))
    for _ in range(45):
        model = cir_model(2.0, 1.0, 0.4)
        paths.append(euler_maruyama(model, SimConfig(n_steps=int(rng.integers(2, 1001))), rng))
    for _ in range(5):
        model = ModelSpec(drift=sample_delay_drift(rng), sigma=0.3, gamma=0.6)
        paths.append(euler_maruyama(model, SimConfig(n_steps=10000), rng))
    assert len(paths) == 1000

    for path in paths:
        aux = compute_aux(path, float(rng.uniform()))
        direct = log_modulus_complex_oracle(aux.eta)
        half_sum = float(aux.log_modulus_running[-1])
        tol = IDENTITY_RTOL * max(1.0, abs(direct), abs(half_sum))
        assert abs(direct - half_sum) <= tol
    assert time.perf_counter() - start < 10.0


def test_criterion_2_matched_power_scale_error_fine_grid(fine_grid_run):
    report, elapsed = fine_grid_run
    assert report.trials == 1000
    matched = report.rows[0].stats
    assert 0.75 * REF_FINE_MATCHED_RMSE <= matched.rmse <= 1.25 * REF_FINE_MATCHED_RMSE
    assert abs(matched.bias) <= 0.005
    assert elapsed < 60.0


def test_criterion_3_mismatched_power_bias_signs_and_sizes(fine_grid_run):
    report, _ = fine_grid_run
    mismatch_rows = report.rows[1:]
    assert len(mismatch_rows) == len(REF_FINE_MISMATCH_BIASES)
    for row, ref_bias in zip(mismatch_rows, REF_FINE_MISMATCH_BIASES):
        lo, hi = sorted((0.6 * ref_bias, 1.4 * ref_bias))
        assert lo <= row.stats.bias <= hi, f"{row.row_id}: bias {row.stats.bias}"


def test_criterion_4_matched_power_scale_error_coarse_grid(coarse_grid_run):
    report, _ = coarse_grid_run
    assert report.trials == 1000
    matched = report.rows[0].stats
    assert 0.75 * REF_COARSE_MATCHED_RMSE <= matched.rmse <= 1.25 * REF_COARSE_MATCHED_RMSE


def test_criterion_5_power_search_errors_coarse_grid(power_search_coarse_run):
    report, elapsed = power_search_coarse_run
    assert report.trials == 500
    ratio_row, joint_row = report.rows
    assert "gamma-ratio" in ratio_row.row_id and "joint" in joint_row.row_id
    assert 0.70 * REF_SEARCH_RMSE_RATIO <= ratio_row.stats.rmse <= 1.30 * REF_SEARCH_RMSE_RATIO
    assert 0.70 * REF_SEARCH_RMSE_JOINT <= joint_row.stats.rmse <= 1.30 * REF_SEARCH_RMSE_JOINT
    assert ratio_row.stats.bias > 0
    assert joint_row.stats.bias > 0
    assert elapsed < 120.0


def test_criterion_6_power_search_errors_shrink_with_frequency(
    power_search_coarse_run, power_search_fine_run
):
    coarse, _ = power_search_coarse_run
    fine, elapsed = power_search_fine_run
    assert fine.trials == 200
    ratio_fine, joint_fine = fine.rows
    ratio_coarse, joint_coarse = coarse.rows
    assert ratio_fine.stats.rmse < ratio_coarse.stats.rmse
    assert joint_fine.stats.rmse < joint_coarse.stats.rmse
    low = 0.60 * REF_SEARCH_RMSE_RATIO_FINE
    high = 1.40 * REF_SEARCH_RMSE_RATIO_FINE
    assert low <= ratio_fine.stats.rmse <= high
    assert elapsed < 600.0


def test_criterion_7_joint_scale_error_coarse_grid(joint_scale_run):
    report, _ = joint_scale_run
    assert report.trials == 500
    rmse = report.rows[0].stats.rmse
    assert 0.60 * REF_SCALE_RMSE <= rmse <= 1.40 * REF_SCALE_RMSE


def test_criterion_8_cir_moment_backout_round_trip():
    a_true, b_true, sigma_true, y0, horizon = 2.0, 1.0, 0.3, 1.0, 1.0

    # analytic moments in, parameters out
    mean_t = cir_mean(a_true, b_true, y0, horizon)
    var_t = cir_variance(a_true, b_true, sigma_true, y0, horizon)
    a_hat, b_hat = cir_backout(mean_t, var_t, sigma_true, y0, horizon)
    assert abs(a_hat - a_true) <= 1e-6 * a_true
    assert abs(b_hat - b_true) <= 1e-6 * b_true

    # Monte-Carlo moments in: simulate, estimate sigma pathwise, invert
    rng = np.random.default_rng(88)
    model = cir_model(a_true, b_true, sigma_true)
    cfg = SimConfig(n_steps=250, y0=y0)
    terminals = np.empty(10000)
    sigma_hats = np.empty(10000)
    for i in range(10000):
        path = euler_maruyama(model, cfg, rng)
        assert not path.stopped_early
        terminals[i] = path.values[-1]
        sigma_hats[i] = sigma_known_gamma(path, gamma=0.5).sigma_hat
    sigma_mc = float(sigma_hats.mean())
    a_mc, b_mc = cir_backout(
        float(terminals.mean()), float(terminals.var(ddof=1)), sigma_mc, y0, horizon
    )
    assert abs(sigma_mc - sigma_true) <= 0.10 * sigma_true
    assert abs(a_mc - a_true) <= 0.10 * a_true
    assert abs(b_mc - b_true) <= 0.10 * b_true


def test_criterion_9_structural_invariants(fine_grid_run):
    # positivity: every simulated value stays > 0, including under noise
    # strong enough to trigger the positivity fix
    rng = np.random.default_rng(9)
    for i in range(200):
        sigma = 2.0 if i % 4 == 0 else 0.3
        gamma = float(rng.uniform())
        model = ckls_model(1.0, 1.0, sigma, gamma)
        path = euler_maruyama(model, SimConfig(n_steps=200), rng)
        assert np.all(path.values > 0)

    # determinism: identical seeds give bit-identical paths and reports
    model = ckls_model(1.0, 1.0, 0.3, 0.6)
    cfg = SimConfig(n_steps=100, y0=1.0)
    p1 = euler_maruyama(model, cfg, np.random.default_rng(42))
    p2 = euler_maruyama(model, cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(p1.values, p2.values)
    r1 = reproduce_table("t1a", trials=3)
    r2 = reproduce_table("t1a", trials=3)
    assert r1 == r2

    # h = 1 makes the normalized increments scale-free
    base = random_positive_path(np.random.default_rng(7), 500)
    scaled = make_path(137.0 * base.values, delta=base.delta)
    np.testing.assert_allclose(
        compute_aux(scaled, 1.0).eta, compute_aux(base, 1.0).eta, rtol=1e-12, atol=1e-14
    )

    # rmse dominates |bias| on every benchmark row
    report, _ = fine_grid_run
    for row in report.rows:
        assert row.stats.rmse >= abs(row.stats.bias)
        assert row.stats.mae >= abs(row.stats.bias)

    # the joint objective is U-shaped (single strict minimum) in at least
    # 95 of 100 fine-grid trials
    rng = np.random.default_rng(777)
    unimodal = 0
    for _ in range(100):
        model = ModelSpec(drift=sample_delay_drift(rng), sigma=0.3, gamma=0.6)
        path = euler_maruyama(model, SimConfig(n_steps=10000), rng)
        obj = np.array([o for _, o in joint_estimate(path).objective_curve])
        padded = np.concatenate([[np.inf], obj, [np.inf]])
        n_minima = int(np.sum((padded[1:-1] < padded[:-2]) & (padded[1:-1] < padded[2:])))
        unimodal += n_minima == 1
    assert unimodal >= 95

    # constant paths: flagged by the closed form, rejected by the searches
    flat = make_path([5.0, 5.0, 5.0, 5.0])
    result = sigma_known_gamma(flat, gamma=0.5)
    assert result.degenerate and result.sigma_hat == 0.0
    with pytest.raises(DegeneratePathError):
        joint_estimate(flat)
