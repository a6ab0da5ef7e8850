"""Monte-Carlo harness: error aggregation, trial protocol, benchmark tables."""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numpy_kernels_are_libm
from pathvol.estimators import (
    METHOD_GAMMA_RATIO,
    METHOD_JOINT_VARIANCE,
    METHOD_SIGMA_KNOWN_GAMMA,
    EstimatorSpec,
)
from pathvol import estimators, experiment
from pathvol.experiment import (
    AllTrialsFailedError,
    ExperimentConfig,
    TABLE_IDS,
    reproduce_table,
    rmse_se,
    run_experiment,
    run_trials,
)
from pathvol.simulate import DegeneratePathError, SimConfig


def _csv_writer_text(report) -> str:
    """The report as csv.writer renders it: the reference for TableReport.to_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_id", "rmse", "mae", "bias", "paper_rmse", "paper_mae", "paper_bias", "ratio"])
    for row in report.rows:
        writer.writerow(
            [
                row.row_id,
                f"{row.stats.rmse:.6g}",
                f"{row.stats.mae:.6g}",
                f"{row.stats.bias:.6g}",
                f"{row.paper_rmse:.6g}",
                f"{row.paper_mae:.6g}",
                f"{row.paper_bias:.6g}",
                f"{row.ratio:.4g}",
            ]
        )
    return buf.getvalue()


def tiny_config(**overrides):
    defaults = dict(
        trials=4,
        sim=SimConfig(n_steps=30),
        gamma=0.6,
        estimator=EstimatorSpec(method=METHOD_JOINT_VARIANCE, target="sigma"),
        master_seed=(123,),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestErrorStats:
    """_aggregate, the one summary of a row's errors."""

    def test_frozen_oracle(self):
        stats = experiment._aggregate(np.array([0.3, 0.1]), 0)
        assert stats.rmse == pytest.approx(0.22360679774997896, rel=1e-15, abs=0)
        assert stats.mae == pytest.approx(0.2, rel=1e-14, abs=0)
        assert stats.bias == pytest.approx(0.2, rel=1e-14, abs=0)
        assert stats.n_effective == 2 and stats.failures == 0

    def test_signs_cancel_in_bias_not_in_rmse(self):
        stats = experiment._aggregate(np.array([0.1, -0.1]), 0)
        assert stats.bias == 0.0
        assert stats.rmse == pytest.approx(0.1, rel=1e-14, abs=0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
def test_rmse_dominates_bias_and_mae(errors):
    stats = experiment._aggregate(np.array(errors), 0)
    assert stats.rmse + 1e-12 >= abs(stats.bias)
    assert stats.rmse + 1e-12 >= stats.mae - 1e-12 * abs(stats.mae)
    assert stats.mae + 1e-12 >= abs(stats.bias)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64), st.integers(0, 3))
def test_aggregate_is_the_numpy_mean_formulas_bitwise(errors, failures):
    # numpy's pairwise sum changes its order above 8 elements; the sizes cover both sides
    err = np.array(errors)
    stats = experiment._aggregate(err, failures)
    assert stats.rmse == float(np.sqrt(np.mean(err * err)))
    assert stats.mae == float(np.mean(np.abs(err)))
    assert stats.bias == float(np.mean(err))
    assert (stats.n_effective, stats.failures) == (err.size, failures)


class TestRunTrials:
    def test_deterministic_under_master_seed(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a == b

    def test_master_seed_changes_results(self):
        a = run_experiment(tiny_config(master_seed=(1,)))
        b = run_experiment(tiny_config(master_seed=(2,)))
        assert a != b

    def test_tuple_master_seed_accepted(self):
        stats = run_experiment(tiny_config(master_seed=(0, 3)))
        assert stats.n_effective == 4
        assert run_experiment(tiny_config(master_seed=())).n_effective == 4

    @pytest.mark.parametrize(
        "seed", [5, (-1,), (1.5,), [3], (True,)], ids=["int", "negative", "float", "list", "bool"]
    )
    def test_master_seed_must_be_a_tuple_of_integers_at_least_zero(self, seed):
        # refused when built, not first inside run_trials
        with pytest.raises(ValueError) as exc:
            tiny_config(master_seed=seed)
        assert str(exc.value) == f"master_seed must be a tuple of integers >= 0, got {seed!r}"

    def test_all_failures_raise(self, monkeypatch):
        # EstimatorSpec looks its estimator up at call time, so every trial meets the patched one
        def degenerate(path, **kwargs):
            raise DegeneratePathError("flat path")

        monkeypatch.setattr(estimators, "gamma_ratio_estimate", degenerate)
        cfg = tiny_config(estimator=EstimatorSpec(method=METHOD_GAMMA_RATIO))
        errors, failures = run_trials(cfg)
        assert errors.size == 0 and failures == 4
        with pytest.raises(AllTrialsFailedError):
            run_experiment(cfg)

    def test_config_has_no_sigma(self):
        # every trial runs at the tables' sigma: there is no field to set it
        assert [f.name for f in fields(ExperimentConfig)] == ["trials", "sim", "gamma", "estimator", "master_seed"]
        with pytest.raises(TypeError):
            tiny_config(sigma=0.3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(gamma=3.0), "gamma must lie in [0, 1]"),
            (dict(gamma=math.nan), "gamma must lie in [0, 1]"),
        ],
        ids=["gamma-above-1", "nan-gamma"],
    )
    def test_randomized_drift_refusals_in_full(self, kwargs, message):
        # gamma by ModelSpec's rules, so no trial fails on the model it builds around its drift
        with pytest.raises(ValueError) as exc:
            tiny_config(**kwargs)
        assert str(exc.value) == message

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            tiny_config(trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, 3.0])
    def test_trials_must_be_a_whole_number(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            tiny_config(trials=trials)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            reproduce_table("t1a", trials=trials)

    def test_numpy_integer_trials_accepted(self):
        assert run_experiment(tiny_config(trials=np.int64(4))) == run_experiment(tiny_config(trials=4))


class TestEstimatorSpec:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            EstimatorSpec(method="maximum-likelihood")

    def test_required_parameters_enforced(self):
        with pytest.raises(ValueError, match="gamma"):
            EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA)
        with pytest.raises(ValueError, match="sigma"):
            EstimatorSpec(method="gamma-known-sigma")

    @pytest.mark.parametrize("sigma", [0.0, -0.3, math.nan, math.inf])
    def test_nonpositive_known_sigma_rejected_when_built(self, sigma):
        # refused here rather than by every trial of the run
        with pytest.raises(ValueError, match="sigma must be > 0"):
            EstimatorSpec(method="gamma-known-sigma", sigma=sigma)

    def test_target_defaults_follow_method(self):
        assert EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA, gamma=0.5).target == "sigma"
        assert EstimatorSpec(method=METHOD_GAMMA_RATIO).target == "gamma"
        assert EstimatorSpec(method=METHOD_JOINT_VARIANCE).target == "gamma"

    def test_incompatible_targets_rejected(self):
        with pytest.raises(ValueError, match="does not estimate"):
            EstimatorSpec(method=METHOD_GAMMA_RATIO, target="sigma")
        with pytest.raises(ValueError, match="does not estimate"):
            EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA, gamma=0.5, target="gamma")

    def test_search_range_is_forwarded(self):
        cfg = tiny_config(
            trials=6,
            estimator=EstimatorSpec(method=METHOD_JOINT_VARIANCE, search_range=(0.5, 1.0)),
        )
        errors, _ = run_trials(cfg)
        # gamma_hat >= 0.5 + grid step (0.5 / 30), so errors are bounded below
        assert np.all(errors >= 0.5 + 0.5 / 30 - 0.6 - 1e-12)


class TestRmseSe:
    def test_frozen_oracle(self):
        # sd(e**2) / (2 * rmse * sqrt(5)) in 40-digit decimal arithmetic
        assert rmse_se([0.1, -0.2, 0.05, 0.3, -0.15]) == pytest.approx(0.04293891009329417, rel=1e-14, abs=0)
        # the fewest errors it takes: sd(e**2) = 0.03 / sqrt(2), rmse = sqrt(0.025)
        assert rmse_se([0.1, -0.2]) == pytest.approx(0.047434164902525694, rel=1e-14, abs=0)

    def test_agrees_with_a_bootstrap(self):
        errors = np.random.default_rng(2024).normal(0.01, 0.03, 300)
        idx = np.random.default_rng(7).integers(0, errors.size, size=(2000, errors.size))
        boot = float(np.std(np.sqrt(np.mean(errors[idx] ** 2, axis=1)), ddof=1))
        assert rmse_se(errors) == pytest.approx(boot, rel=0.05)

    def test_zero_errors_give_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rmse_se([0.0, 0.0, 0.0]) == 0.0

    def test_needs_two_errors(self):
        for errors in ([], [0.1]):
            with pytest.raises(ValueError, match="at least two"):
                rmse_se(errors)


# (row_id, rmse, mae, bias, n_effective, failures) of reproduce_table(table, trials=5, master_seed=0)
_PINNED_STATS = {
    ("t1a", 52): (
        ("gamma=0.5 h=0.5", "0.03958673433123491", "0.036836708823107064", "0.0030991025242533997", 5, 0),
        ("gamma=0.4 h=0.5", "0.02922531291155332", "0.027006969308904637", "0.01752593822720837", 5, 0),
        ("gamma=0.6 h=0.5", "0.021073003764150597", "0.01673965269118478", "0.006412113012517695", 5, 0),
        ("gamma=0.7 h=0.5", "0.04624208864246971", "0.04161828835303304", "-0.04161828835303304", 5, 0),
    ),
    ("t1b", 250): (
        ("gamma=0.5 h=0.5", "0.011385766334490238", "0.00997286847255996", "0.0013846715952688271", 5, 0),
        ("gamma=0.4 h=0.5", "0.02479515319683624", "0.022024642549986994", "0.016964827191481468", 5, 0),
        ("gamma=0.6 h=0.5", "0.016399212510513204", "0.012266565393583295", "-0.01215689829485932", 5, 0),
        ("gamma=0.7 h=0.5", "0.032276675409567024", "0.02987226415013885", "-0.02987226415013885", 5, 0),
    ),
    ("t2", 250): (
        ("delta=1/250 gamma-ratio", "0.22942197899164862", "0.19400000000000003", "0.19400000000000003", 5, 0),
        ("delta=1/250 joint-variance", "0.21781745670272726", "0.17333333333333334", "0.14000000000000004", 5, 0),
    ),
    ("t3", 250): (
        ("delta=1/250", "0.01772910387773009", "0.015185050054723714", "0.0031765832472859246", 5, 0),
    ),
}
# the pins where numpy's log1p and ** give libm's bits (no AVX-512 dispatch): one t1a row ends in other digits
_PINNED_STATS_LIBM = {
    **_PINNED_STATS,
    ("t1a", 52): (
        _PINNED_STATS["t1a", 52][0],
        ("gamma=0.4 h=0.5", "0.029225312911553315", "0.027006969308904626", "0.01752593822720836", 5, 0),
        *_PINNED_STATS["t1a", 52][2:],
    ),
}


class TestTables:
    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_table("t9", trials=2)

    def test_table_ids_exposed(self):
        assert TABLE_IDS == ("t1a", "t1b", "t2", "t3")

    def test_fixed_power_table_shape_and_references(self):
        report = reproduce_table("t1a", trials=3)
        assert report.table_id == "t1a" and report.trials == 3
        assert [row.row_id for row in report.rows] == [
            "gamma=0.5 h=0.5",
            "gamma=0.4 h=0.5",
            "gamma=0.6 h=0.5",
            "gamma=0.7 h=0.5",
        ]
        first = report.rows[0]
        assert (first.paper_rmse, first.paper_mae, first.paper_bias) == (0.0312, 0.0248, 0.0034)
        assert all(row.stats.n_effective == 3 for row in report.rows)

    def test_slowest_rows_reference_values(self):
        report = reproduce_table("t3", trials=2, n_steps_filter=(20000,))
        row = report.rows[0]
        assert (row.paper_rmse, row.paper_mae, row.paper_bias) == (0.0168, 0.0108, 0.00003)

    def test_filter_selects_rows(self):
        report = reproduce_table("t2", trials=2, n_steps_filter=(250,))
        assert len(report.rows) == 2
        assert all("1/250" in row.row_id for row in report.rows)

    def test_filtered_rows_keep_their_seeds(self):
        # row i runs on seeds (master_seed, i, trial) whatever the filter keeps
        alone = reproduce_table("t2", trials=2, n_steps_filter=(250,))
        more = reproduce_table("t2", trials=2, n_steps_filter=(250, 10000))
        assert alone.rows == more.rows[:2]
        # a later row alone keeps its index in the table, not its place in the report
        later = reproduce_table("t3", trials=1, n_steps_filter=(10000,))
        assert later.rows == reproduce_table("t3", trials=1, n_steps_filter=(250, 10000)).rows[1:]

    def test_filter_builds_configs_only_for_kept_rows(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(kwargs["sim"].n_steps)
            return ExperimentConfig(*args, **kwargs)

        monkeypatch.setattr(experiment, "ExperimentConfig", counting)
        monkeypatch.setattr(experiment, "EstimatorSpec", None)  # the table specs exist already
        reproduce_table("t2", trials=1, n_steps_filter=(250,))
        assert built == [250, 250]

    @pytest.mark.parametrize("table_id, n_steps", list(_PINNED_STATS))
    def test_five_trial_stats_are_pinned(self, table_id, n_steps):
        # the per-trial streams, simulator and estimators, bit for bit: reprs recorded at seed 0 for each kind of kernel
        pins = _PINNED_STATS_LIBM if numpy_kernels_are_libm() else _PINNED_STATS
        report = reproduce_table(table_id, trials=5, master_seed=0, n_steps_filter=(n_steps,))
        got = [
            (row.row_id, repr(row.stats.rmse), repr(row.stats.mae), repr(row.stats.bias),
             row.stats.n_effective, row.stats.failures)
            for row in report.rows
        ]
        assert got == list(pins[table_id, n_steps])

    def test_filter_removing_everything_rejected(self):
        with pytest.raises(ValueError, match="filter"):
            reproduce_table("t2", trials=2, n_steps_filter=(777,))

    def test_csv_and_text_rendering(self):
        for table_id in TABLE_IDS:
            report = reproduce_table(table_id, trials=3)
            csv_text = report.to_csv()
            assert csv_text == _csv_writer_text(report)
            assert csv_text.count("\n") == len(experiment._TABLES[table_id]) + 1
            text = report.format_text()
            assert f"table {table_id}" in text and "ratio" in text

    def test_row_ids_need_no_csv_quoting(self):
        # csv.writer then quotes no field, so to_csv's plain comma-joined lines are its bytes
        for rows in experiment._TABLES.values():
            for row_id, *_ in rows:
                assert not set(row_id) & set(',"\r\n'), row_id

    def test_ratio_definition(self):
        report = reproduce_table("t1b", trials=2)
        row = report.rows[0]
        assert row.ratio == pytest.approx(row.stats.rmse / row.paper_rmse, rel=1e-15, abs=0)
