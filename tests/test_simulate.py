"""Simulation recursion, guards, reproducibility, and CSV persistence."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drift_value, make_path, random_positive_path
from pathvol.model import DelayDriftSpec, ModelSpec, ckls_model, cir_model, sample_delay_drift
from pathvol.simulate import (
    _STOP_RATIO,
    CsvFormatError,
    DegeneratePathError,
    SamplePath,
    SimConfig,
    euler_maruyama,
    read_path_csv,
    write_path_csv,
)


class TestSamplePath:
    def test_grid_and_stop_index(self):
        p = SamplePath(delta=0.1, values=[1.0, 2.0, 3.0])
        assert p.m == 2
        assert p.times.tolist() == [0.0, 0.1, 0.2]  # t_k = k * delta: a path has no other origin

    def test_needs_two_points(self):
        with pytest.raises(DegeneratePathError):
            SamplePath(delta=0.1, values=[1.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match="positive"):
            SamplePath(delta=0.1, values=[1.0, 0.0])

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            SamplePath(delta=0.1, values=[1.0, float("inf")])

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            SamplePath(delta=0.0, values=[1.0, 2.0])

    @pytest.mark.parametrize(
        "delta, values, error, message",
        [
            (0.0, [1.0, 2.0], ValueError, "delta must be finite and > 0"),
            (-0.1, [1.0, 2.0], ValueError, "delta must be finite and > 0"),
            (float("nan"), [1.0, 2.0], ValueError, "delta must be finite and > 0"),
            (float("inf"), [1.0, 2.0], ValueError, "delta must be finite and > 0"),
            (0.1, [1.0], DegeneratePathError, "path needs at least 2 points"),
            (0.1, [[1.0, 2.0], [3.0, 4.0]], DegeneratePathError, "path needs at least 2 points"),
            (0.1, [1.0, float("nan")], ValueError, "path values must be finite"),
            (0.1, [1.0, float("-inf")], ValueError, "path values must be finite"),
            # finiteness is checked first
            (0.1, [-1.0, float("inf")], ValueError, "path values must be finite"),
            (0.1, [1.0, -2.0], ValueError, "path values must be strictly positive"),
            (0.1, [0.0, 1.0], ValueError, "path values must be strictly positive"),
        ],
    )
    def test_refusals_in_full(self, delta, values, error, message):
        with pytest.raises(error) as exc:
            SamplePath(delta=delta, values=values)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("last, stopped", [(0.001, True), (0.0009, True), (0.0011, False), (2.0, False)])
    def test_stopped_early_is_read_from_the_values(self, last, stopped):
        # a path built by hand reports the stop rule as a simulated one does: last <= 1e-3 * first
        assert SamplePath(1.0, [1.0, 0.5, last]).stopped_early is stopped
        assert SamplePath(1.0, [1.0, last]).stopped_early is stopped
        assert SamplePath(1.0, [1000.0, 1000.0 * last]).stopped_early is stopped

    def test_stopped_early_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(SamplePath)] == ["delta", "values", "positivity_fixes"]
        with pytest.raises(TypeError):
            SamplePath(1.0, [1.0, 2.0], stopped_early=True)

    def test_values_become_a_float_array(self):
        path = SamplePath(delta=0.5, values=[1, 2, 3])
        assert path.values.dtype == np.float64 and path.values.tolist() == [1.0, 2.0, 3.0]


class TestSimConfig:
    def test_delta(self):
        assert SimConfig(n_steps=250).delta == pytest.approx(1 / 250)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_steps=1),
            dict(n_steps=10, y0_range=(0.1, 1.0, 10.0)),
            dict(n_steps=10, y0=0.0),
            dict(n_steps=10, y0=-1.0),
            dict(n_steps=10, y0_range=(0.0, 1.0)),
            dict(n_steps=10, y0_range=(2.0, 1.0)),
            dict(n_steps=10, y0_range=(1.0, float("inf"))),
            dict(n_steps=10, y0_range=(1.0, 1.0)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        # the message names the refused setting, the last one given
        with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]} "):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("n_steps", [2.5, True, 10.0])
    def test_n_steps_must_be_a_whole_number(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 2"):
            SimConfig(n_steps=n_steps)

    def test_numpy_integer_n_steps_accepted(self):
        model = ckls_model(1.0, 1.0, 0.3, 0.6)
        a = euler_maruyama(model, SimConfig(n_steps=np.int64(20), y0=1.0), np.random.default_rng(3))
        b = euler_maruyama(model, SimConfig(n_steps=20, y0=1.0), np.random.default_rng(3))
        assert a.m == 20 and np.array_equal(a.values, b.values)

    def test_sampled_start_default_range_and_mean(self):
        model = cir_model(1.0, 1.0, 0.3)
        cfg = SimConfig(n_steps=2)  # y0 = None, default y0_range
        rng = np.random.default_rng(3)
        starts = np.array([euler_maruyama(model, cfg, rng).values[0] for _ in range(10_000)])
        assert np.all((starts >= 0.1) & (starts <= 10.0))
        assert abs(starts.mean() - 5.05) < 0.1


class TestRecursion:
    def test_first_step_matches_hand_computation(self):
        model = ckls_model(a=1.2, b=0.9, sigma=0.4, gamma=0.7)
        cfg = SimConfig(n_steps=4, y0=2.0)
        rng = np.random.default_rng(11)
        path = euler_maruyama(model, cfg, rng)
        # replay the same generator: no y0 draw, then the normal block
        xi = np.random.default_rng(11).standard_normal(4)
        delta = 0.25
        expected = 2.0 + 1.2 * (0.9 - 2.0) * delta + 0.4 * 2.0**0.7 * math.sqrt(delta) * xi[0]
        assert path.values[1] == expected
        assert path.delta == delta

    def test_noiseless_mean_reversion_monotone(self):
        model = ckls_model(a=1.0, b=1.0, sigma=0.0, gamma=0.5)
        path = euler_maruyama(model, SimConfig(n_steps=50, y0=4.0), np.random.default_rng(0))
        assert np.all(np.diff(path.values) < 0)
        assert path.values[-1] > 1.0  # approaches but never crosses the level

        path_up = euler_maruyama(model, SimConfig(n_steps=50, y0=0.25), np.random.default_rng(0))
        assert np.all(np.diff(path_up.values) > 0)
        assert path_up.values[-1] < 1.0

    def test_same_seed_same_path_bitwise(self):
        model = ckls_model(1.0, 1.0, 0.3, 0.6)
        cfg = SimConfig(n_steps=200)
        a = euler_maruyama(model, cfg, np.random.default_rng(42))
        b = euler_maruyama(model, cfg, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)
        assert (a.delta, a.m, a.stopped_early, a.positivity_fixes) == (b.delta, b.m, b.stopped_early, b.positivity_fixes)

    def test_generator_is_required(self):
        with pytest.raises(TypeError):
            euler_maruyama(ckls_model(1.0, 1.0, 0.3, 0.6), SimConfig(n_steps=10, y0=1.0))

    def test_different_seeds_differ(self):
        model = ckls_model(1.0, 1.0, 0.3, 0.6)
        a = euler_maruyama(model, SimConfig(n_steps=200), np.random.default_rng(1))
        b = euler_maruyama(model, SimConfig(n_steps=200), np.random.default_rng(2))
        assert not np.array_equal(a.values, b.values)

    def test_sampled_start_uses_configured_range(self):
        model = cir_model(1.0, 1.0, 0.3)
        cfg = SimConfig(n_steps=10, y0_range=(0.2, 0.3))
        for seed in range(20):
            path = euler_maruyama(model, cfg, np.random.default_rng(seed))
            assert 0.2 <= path.values[0] <= 0.3

    def test_noise_drawn_upfront_so_stopping_does_not_shift_it(self):
        # a path that stops early still takes all n_steps normals from the
        # generator, so what the caller draws next does not depend on the stop
        model = ModelSpec(drift=DelayDriftSpec(
            a=(10.0,), b=(0.0,), nu=(0.5,), c=(0.0,), d=(0.0,), e=(0.0,),
            a_hat=(0.0,), b_hat=(0.0,), nu_hat=(0.0,)), sigma=0.05, gamma=0.5)
        rng = np.random.default_rng(5)
        stopping = euler_maruyama(model, SimConfig(n_steps=400, y0=1.0), rng)
        assert stopping.stopped_early and stopping.m < 400
        fresh = np.random.default_rng(5)
        fresh.standard_normal(400)
        assert rng.standard_normal() == fresh.standard_normal()

    def test_stop_rule_fires_at_threshold(self):
        # noiseless decay: y_{k+1} = 0.9 * y_k hits 0.001*y0 near step 66
        model = ModelSpec(drift=DelayDriftSpec(
            a=(10.0,), b=(0.0,), nu=(0.5,), c=(0.0,), d=(0.0,), e=(0.0,),
            a_hat=(0.0,), b_hat=(0.0,), nu_hat=(0.0,)), sigma=0.0, gamma=0.5)
        path = euler_maruyama(model, SimConfig(n_steps=100, y0=1.0), np.random.default_rng(0))
        assert path.stopped_early
        assert path.values[-1] <= 0.001 * 1.0
        assert path.values[-2] > 0.001 * 1.0
        assert path.m == len(path.values) - 1 < 100

    def test_step_landing_exactly_on_the_threshold_stops(self):
        # a = n_steps, b = 1: the first step lands on b = 1.0 = 0.001 * 1000 with no rounding
        path = euler_maruyama(ckls_model(4.0, 1.0, 0.0, 0.5), SimConfig(n_steps=4, y0=1000.0), np.random.default_rng(0))
        assert path.values.tolist() == [1000.0, 1.0] and path.stopped_early

    def test_step_landing_exactly_on_zero_is_fixed(self):
        # a = n_steps, b = 0: every step proposes exactly 0.0, which is not a positive value
        path = euler_maruyama(ckls_model(4.0, 0.0, 0.0, 0.5), SimConfig(n_steps=4, y0=1.0), np.random.default_rng(0))
        assert path.values.tolist() == [1.0] * 5 and path.positivity_fixes == 4

    def test_positivity_fix_replaces_bad_step_and_counts(self):
        # enormous noise forces nonpositive proposals; the path must stay
        # positive and report how often the guard fired
        model = ckls_model(a=0.0, b=0.0, sigma=50.0, gamma=0.5)
        path = euler_maruyama(model, SimConfig(n_steps=300, y0=1.0), np.random.default_rng(9))
        assert np.all(path.values > 0)
        assert path.positivity_fixes > 0

    def test_delay_takes_effect_for_delayed_drift(self):
        drift = DelayDriftSpec(
            a=(0.0,), b=(0.0,), nu=(0.5,), c=(0.0,), d=(0.0,), e=(0.0,),
            a_hat=(1.0,), b_hat=(0.0,), nu_hat=(0.5,), delay=0.1,
        )
        model = ModelSpec(drift=drift, sigma=0.0, gamma=0.5)
        # lag = floor(0.1 / (1/100)) = 10 steps
        delayed = euler_maruyama(model, SimConfig(n_steps=100, y0=2.0), np.random.default_rng(0))
        no_delay = euler_maruyama(
            ModelSpec(drift=dataclasses.replace(drift, delay=0.0), sigma=0.0, gamma=0.5),
            SimConfig(n_steps=100, y0=2.0),
            np.random.default_rng(0),
        )
        assert not np.array_equal(delayed.values, no_delay.values)

    def test_lagged_value_is_frozen_start_during_warmup(self):
        # with lag l, steps k <= l must read the starting value
        drift = DelayDriftSpec(
            a=(0.0,), b=(0.0,), nu=(0.5,), c=(0.0,), d=(0.0,), e=(0.0,),
            a_hat=(1.0,), b_hat=(0.0,), nu_hat=(0.5,), delay=0.5,
        )
        model = ModelSpec(drift=drift, sigma=0.0, gamma=0.5)
        path = euler_maruyama(model, SimConfig(n_steps=10, y0=2.0), np.random.default_rng(0))
        # lag = 5; during warmup each step subtracts 0.1 * 2.0**1 * delta
        delta = 0.1
        expected = 2.0
        for _ in range(5):
            expected = expected + 0.1 * 1.0 * (0.0 - 2.0**1.0) * delta
        assert path.values[5] == pytest.approx(expected, rel=1e-14, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 3.0),
    b=st.floats(0.0, 3.0),
    sigma=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 1.0),
    y0=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_paths_always_positive(a, b, sigma, gamma, y0, seed):
    model = ckls_model(a, b, sigma, gamma)
    path = euler_maruyama(model, SimConfig(n_steps=60, y0=y0), np.random.default_rng(seed))
    assert np.all(path.values > 0)
    assert np.all(np.isfinite(path.values))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_simulation_determinism_property(seed):
    model = ckls_model(1.0, 1.0, 0.3, 0.6)
    cfg = SimConfig(n_steps=50)
    a = euler_maruyama(model, cfg, np.random.default_rng(seed))
    assert np.array_equal(a.values, euler_maruyama(model, cfg, np.random.default_rng(seed)).values)


def reference_euler(model, cfg, rng):
    """The step loop written plainly: drift_value per step, np.float64 noise."""
    y0 = cfg.y0 if cfg.y0 is not None else float(rng.uniform(*cfg.y0_range))
    lag = math.floor(getattr(model.drift, "delay", 0.0) / cfg.delta)
    noise = rng.standard_normal(cfg.n_steps)
    values, fixes, stopped = [float(y0)], 0, False
    for k in range(1, cfg.n_steps + 1):
        prev = values[-1]
        drift = drift_value(model, prev, values[max(k - 1 - lag, 0)])
        nxt = prev + drift * cfg.delta + model.sigma * prev**model.gamma * math.sqrt(cfg.delta) * noise[k - 1]
        if nxt <= 0.0:
            nxt = prev
            fixes += 1
        values.append(nxt)
        if nxt <= _STOP_RATIO * y0:
            stopped = True
            break
    return np.array(values), stopped, fixes


def _bitwise_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for gamma in (0.0, 0.4, 0.5, 1.0):
        for sigma in (0.3, 3.0):
            a, b = rng.uniform(0.0, 3.0, size=2)
            cases.append(ckls_model(a, b, sigma, gamma))
            for _ in range(2):
                cases.append(ModelSpec(drift=sample_delay_drift(rng), sigma=sigma, gamma=gamma))
    return cases


def _assert_matches_reference(model, cfg, seed):
    path = euler_maruyama(model, cfg, np.random.default_rng(seed))
    values, stopped, fixes = reference_euler(model, cfg, np.random.default_rng(seed))
    assert np.array_equal(path.values, values)
    assert (path.stopped_early, path.positivity_fixes) == (stopped, fixes)
    return path


@pytest.mark.parametrize("n_steps", [52, 2000])
def test_simulator_matches_reference_recursion_bitwise(n_steps):
    for i, model in enumerate(_bitwise_cases()):
        for seed in range(3):
            _assert_matches_reference(model, SimConfig(n_steps=n_steps), 100 * i + seed)


def test_guarded_steps_match_reference_recursion_bitwise():
    drift = sample_delay_drift(np.random.default_rng(7))
    # a 5-term delay drift under sqrt noise that first needs fixes, then stops
    guarded = _assert_matches_reference(
        ModelSpec(drift=drift, sigma=3.0, gamma=0.5), SimConfig(n_steps=2000, y0=1.0), 0
    )
    assert drift.n_terms == 5 and guarded.stopped_early and guarded.positivity_fixes > 0
    fixed = _assert_matches_reference(ckls_model(0.5, 1.0, 50.0, 0.5), SimConfig(n_steps=300, y0=1.0), 9)
    assert fixed.positivity_fixes > 0


def _delay_for_lag(cfg, lag):
    """A delay that the simulator turns into a lag of ``lag`` steps on cfg's grid."""
    return (lag + 0.5) * cfg.delta


@pytest.mark.parametrize("n_terms", [1, 2, 3, 4, 5])
def test_each_delay_drift_shape_matches_reference_bitwise(n_terms):
    # one compiled loop per term count: no lag, a lag inside the path, lags of
    # n_steps or more, where every step reads the starting value, and the edges
    # 1 and n_steps - 1 (last, so the earlier cases keep their draws).  Drift
    # rates a, c, a_hat times 30 and sigma times sqrt(30) give each step of
    # delta = 1/300 the size of a step of 0.1, so a one-ulp change in the drift
    # shows in the path.
    rng = np.random.default_rng(n_terms)
    cfg = SimConfig(n_steps=300)
    rates = np.array([30.0, 1.0, 1.0, 30.0, 1.0, 1.0, 30.0, 1.0, 1.0])[:, None]  # rows a, b, nu, c, ..., nu_hat
    for lag in (0, 7, 300, 1000, 1, 299):
        for gamma in (0.0, 0.5, 1.0):
            seed = int(rng.integers(2**31))
            delay = _delay_for_lag(cfg, lag) if lag else 0.0
            drift = DelayDriftSpec(*rates * rng.uniform(0.0, 1.0, size=(9, n_terms)), delay=delay)
            model = ModelSpec(drift=drift, sigma=0.5 * math.sqrt(30.0), gamma=gamma)
            _assert_matches_reference(model, cfg, seed)


@pytest.mark.parametrize("lag", [150, 20])
def test_early_stop_in_each_phase_matches_reference_bitwise(lag):
    # every term pulls toward zero: the path falls below 0.001 * y0 at step 69
    # with lag 150 (still reading y0 as the delayed state) and at step 101 with lag 20
    cfg = SimConfig(n_steps=200, y0=1.0)
    drift = DelayDriftSpec(
        a=(10.0, 0.5, 0.2), b=(0.0,) * 3, nu=(0.5, 0.2, 0.0), c=(0.0,) * 3, d=(1.0,) * 3, e=(0.0,) * 3,
        a_hat=(1.0, 0.5, 0.3), b_hat=(0.0,) * 3, nu_hat=(0.5,) * 3, delay=_delay_for_lag(cfg, lag),
    )
    path = _assert_matches_reference(ModelSpec(drift=drift, sigma=0.05, gamma=0.5), cfg, 11)
    steps = len(path.values) - 1
    assert path.stopped_early
    assert (steps <= lag) if lag == 150 else (steps > lag)


def test_positivity_fixes_in_both_phases_match_reference_bitwise():
    cfg = SimConfig(n_steps=400, y0=1.0)
    lag = 200
    drift = DelayDriftSpec(*np.random.default_rng(0).uniform(0.0, 1.0, size=(9, 4)), delay=_delay_for_lag(cfg, lag))
    path = _assert_matches_reference(ModelSpec(drift=drift, sigma=20.0, gamma=0.5), cfg, 0)
    fixed_steps = np.flatnonzero(path.values[1:] == path.values[:-1])  # step k kept values[k]
    assert len(fixed_steps) == path.positivity_fixes
    assert fixed_steps.min() < lag <= fixed_steps.max()


@pytest.fixture(scope="session")
def csv_file(tmp_path_factory):
    """One CSV file for the session: Hypothesis refuses function-scoped tmp_path under @given."""
    return tmp_path_factory.mktemp("csv") / "path.csv"


@pytest.fixture(scope="session")
def read_csv(csv_file):
    """read_path_csv of a text, written to a file as ASCII bytes."""
    def read(text: str) -> SamplePath:
        csv_file.write_bytes(text.encode("ascii"))
        return read_path_csv(csv_file)

    return read


@pytest.fixture(scope="session")
def csv_text(csv_file):
    """The text that write_path_csv writes for a path."""
    def text(path: SamplePath) -> str:
        write_path_csv(path, csv_file)
        return csv_file.read_bytes().decode("ascii")

    return text


def _text_at(origin: float, path: SamplePath) -> str:
    """The CSV text of ``path`` as write_path_csv formats it, with its times moved to start at ``origin``.

    The reader keeps no origin, so a file whose times start elsewhere is built from its times here.
    """
    return "t,y\n" + "".join(f"{t:.17g},{y:.17g}\n" for t, y in zip(origin + path.times, path.values))


class TestCsv:
    def test_round_trip_is_bit_exact(self, read_csv, csv_text):
        rng = np.random.default_rng(17)
        path = random_positive_path(rng, 200, delta=1 / 52)
        back = read_csv(csv_text(path))
        assert np.array_equal(back.values, path.values)
        assert back.delta == pytest.approx(path.delta, rel=1e-12, abs=0)

    def test_round_trip_extreme_magnitudes(self, read_csv, csv_text):
        path = make_path([1e-8, 2.5e-8, 1e8, 3.0], delta=0.5)
        back = read_csv(csv_text(path))
        assert np.array_equal(back.values, path.values)

    @pytest.mark.parametrize(
        "path",
        [random_positive_path(np.random.default_rng(23), 3000, delta=1 / 52), make_path([1e-8, 2.5e-8, 1e8, 3.0], delta=0.5)],
        ids=["random", "extreme"],
    )
    def test_text_is_per_row_formatting_of_numpy_scalars(self, path, csv_text):
        rows = [f"{t:.17g},{y:.17g}" for t, y in zip(path.times, path.values)]
        assert csv_text(path) == "\n".join(["t,y", *rows]) + "\n"

    def test_round_trip_far_from_zero_is_bit_exact(self, read_csv):
        # at |t| ~ 1e7 one ulp of t is 1.9e-9: the written times are off the grid by that much
        path = make_path(random_positive_path(np.random.default_rng(29), 500).values, delta=1e-3)
        text = _text_at(1e7, path)
        back = read_csv(text)
        assert np.array_equal(back.values, path.values)
        # the step is the span over m steps: the two rounded end times put it off by under one ulp of t over m
        assert abs(back.delta - path.delta) <= np.spacing(1e7 + path.times[-1]) / path.m
        assert _outcome(read_csv, text) == _outcome(_reference_read, text)

    def test_origin_is_not_kept(self, read_csv):
        # the same values written at three origins read back alike, each on t_k = k * delta
        path = make_path(random_positive_path(np.random.default_rng(29), 500).values, delta=1e-3)
        for origin in (0.0, 1e7, -3.5):
            back = read_csv(_text_at(origin, path))
            assert back.values.tobytes() == path.values.tobytes()
            # within the bound of test_round_trip_far_from_zero_is_bit_exact, at this origin's last time
            assert abs(back.delta - path.delta) <= np.spacing(abs(origin + path.times[-1])) / path.m

    def test_off_grid_row_far_from_zero_is_refused(self, read_csv):
        values = random_positive_path(np.random.default_rng(29), 500).values
        lines = _text_at(1e7, make_path(values, delta=1e-3)).splitlines()
        t, y = lines[100].split(",")
        lines[100] = f"{float(t) + 0.5e-3!r},{y}"  # half a step late
        text = "\n".join(lines) + "\n"
        with pytest.raises(CsvFormatError) as exc:
            read_csv(text)
        assert str(exc.value) == "line 101: time grid is not uniform"
        assert _outcome(_reference_read, text) == ("error", str(exc.value))

    def test_grid_tolerance_grows_with_a_long_step(self, read_csv):
        # at step 1000 a time may sit 1e-9 of the step, 1e-6, off the grid
        def text(jitter):
            return f"t,y\n0,1\n1000,2\n{2000 + jitter!r},3\n3000,4\n"

        back = read_csv(text(5e-7))
        assert back.delta == 1000.0
        with pytest.raises(CsvFormatError) as exc:
            read_csv(text(2e-6))
        assert str(exc.value) == "line 4: time grid is not uniform"

    @pytest.mark.parametrize(
        "origin, step, jitter, refusal",
        [
            # 1e-9 of a unit step
            (0.0, 1.0, 5e-10, None),
            (0.0, 1.0, 2e-9, "line 4: time grid is not uniform"),
            # 1e-9 still below a unit step
            (0.0, 0.01, 5e-10, None),
            (0.0, 0.01, 2e-9, "line 4: time grid is not uniform"),
            # 4 ulps of the largest |t|, 4 * 1.86e-9 at t = 1e7, above the 1e-9 term
            (1e7, 1 / 1024, 6e-9, None),
            (1e7, 1 / 1024, 1.2e-8, "line 4: time grid is not uniform"),
            # exactly 4 ulps, 2**-27 at t = 2**23: a step off by the tolerance itself is on the grid
            (2.0**23, 1 / 1024, 2.0**-27, None),
        ],
    )
    def test_grid_tolerance_edges(self, origin, step, jitter, refusal, read_csv):
        # literal outcomes just inside and just outside each term of the tolerance
        times = [origin + k * step for k in range(4)]
        times[2] += jitter
        text = "t,y\n" + "".join(f"{t!r},{k + 1}\n" for k, t in enumerate(times))
        if refusal is None:
            assert read_csv(text).values.tolist() == [1.0, 2.0, 3.0, 4.0]
        else:
            with pytest.raises(CsvFormatError) as exc:
                read_csv(text)
            assert str(exc.value) == refusal

    def test_header_written(self, csv_text):
        assert csv_text(make_path([1.0, 2.0])).splitlines()[0] == "t,y"

    def test_file_round_trip(self, tmp_path):
        dest = tmp_path / "p.csv"
        path = make_path([1.0, 2.0, 1.5], delta=0.25)
        write_path_csv(path, dest)
        back = read_path_csv(dest)
        assert np.array_equal(back.values, path.values)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "line 1"),
            ("time,value\n0,1\n0.1,2\n", "line 1"),
            ("t,y\n0,1\n0.1\n", "line 3"),
            ("t,y\n0,1\n0.1,abc\n", "line 3"),
            ("t,y\n0,1\n0.1,-2\n", "line 3"),
            ("t,y\n0,1\n0.1,inf\n", "line 3"),
            ("t,y\n0,1\n", "at least 2"),
            ("t,y\n0,1\n0.1,2\n0.15,3\n", "line 4"),
            ("t,y\n\n\n0,1\n0,2\n", "line 5"),  # blank lines before the data rows
            ("t,y\n0,1\n0.1,2\n\n0.25,3\n", "line 5"),
        ],
    )
    def test_malformed_input_names_first_bad_line(self, text, fragment, read_csv):
        with pytest.raises(CsvFormatError, match=fragment):
            read_csv(text)

    def test_trailing_blank_lines_tolerated(self, read_csv):
        back = read_csv("t,y\n0,1\n0.1,2\n\n\n")
        assert len(back.values) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "line 1: empty file, expected header 't,y'"),
            ("time,value\n0,1\n0.1,2\n", "line 1: expected header 't,y', got 'time,value'"),
            ("t,y\n0,1\n0.1\n", "line 3: expected two comma-separated fields, got '0.1'"),
            ("t,y\n0,1\n0.1,abc\n", "line 3: non-numeric field in '0.1,abc'"),
            ("t,y\n0,1\n0.1,inf\n", "line 3: non-finite value in '0.1,inf'"),
            ("t,y\n0,1\n0.1, -2 \n", "line 3: path value must be > 0, got  -2"),
            ("t,y\n0,1\n", "line 2: need at least 2 data rows"),
            ("t,y\n\n\n0,1\n0,2\n", "line 5: time column must be strictly increasing"),
            ("t,y\n0,1\n0.1,2\n0.15,3\n", "line 4: time grid is not uniform"),
            # a backward step within the tolerance of a tiny first step
            ("t,y\n0,1\n1e-12,2\n-1e-10,3\n", "line 4: time grid is not uniform"),
            # a repeated time, also within that tolerance
            ("t,y\n0,1\n1e-12,2\n1e-12,3\n", "line 4: time grid is not uniform"),
            # finite times whose step, or whose span over 20 finite steps, exceeds the largest double
            ("t,y\n-1e308,1\n1e308,2\n", "line 3: time span is not finite"),
            ("t,y\n" + "".join(f"{1.7e307 * (i - 10)!r},1\n" for i in range(21)), "line 22: time span is not finite"),
        ],
        ids=["empty", "header", "field-count", "non-numeric", "non-finite", "nonpositive",
             "row-count", "not-increasing", "off-grid", "backward-step", "repeated-time",
             "step-overflow", "span-overflow"],
    )
    def test_error_messages_in_full(self, text, message, read_csv):
        with pytest.raises(CsvFormatError) as exc:
            read_csv(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t,y\n0,1\n0.1,abc\n0.2,3\n0.3\n", "line 3: non-numeric field in '0.1,abc'"),
            ("t,y\n0,1\n0.1,-1\n0.2,abc\n", "line 3: path value must be > 0, got -1"),
            ("t,y\n0,1\n0.1,nan\n0.2\n", "line 3: non-finite value in '0.1,nan'"),
            # a row error below an off-grid step still comes first
            ("t,y\n0,1\n0.1,2\n0.15,3\n0.3,4\n0.4,-1\n", "line 6: path value must be > 0, got -1"),
        ],
        ids=["non-numeric-before-count", "nonpositive-before-non-numeric", "nan-before-count",
             "row-before-grid"],
    )
    def test_first_bad_line_across_error_kinds(self, text, message, read_csv):
        with pytest.raises(CsvFormatError) as exc:
            read_csv(text)
        assert str(exc.value) == message

    def test_misaligned_fields_name_the_long_row(self, read_csv):
        # three fields then one: the field total matches two rows, the rows do not
        with pytest.raises(CsvFormatError) as exc:
            read_csv("t,y\n0,1,5\n0.1\n0.2,3\n")
        assert str(exc.value) == "line 2: expected two comma-separated fields, got '0,1,5'"

    def test_crlf_line_endings_accepted(self, read_csv):
        back = read_csv("t,y\r\n0,1\r\n0.5,2\r\n\r\n1,3\r\n")
        assert back.values.tolist() == [1.0, 2.0, 3.0]
        assert back.delta == 0.5

    def test_whitespace_only_interior_line_skipped(self, read_csv):
        back = read_csv("t,y\n0,1\n \t \n0.5,2\n")
        assert back.values.tolist() == [1.0, 2.0]
        with pytest.raises(CsvFormatError) as exc:
            read_csv("t,y\n0,1\n \t \n0.5,2\n0.75,3\n")
        assert str(exc.value) == "line 5: time grid is not uniform"

    def test_fields_parse_as_float_parses_them(self, read_csv):
        back = read_csv("t,y\n 0 , 1_0 \n\t0.5,2\t\n1,1e1\n")
        assert back.values.tolist() == [10.0, 2.0, 10.0]
        assert back.delta == 0.5

    def test_row_is_stripped_before_its_fields_are_parsed(self, read_csv):
        # str.strip() drops the unit separator 0x1f, which float() refuses
        back = read_csv("t,y\n0,1\x1f\n\x1f0.5,2\n")
        assert back.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"\xef\xbb\xbft,y\n0,1\n0.5,2\n", "line 1: non-ASCII byte 0xef"),
            (b"t,y\n0,1\n0.5,2\xc3\xa9\n", "line 3: non-ASCII byte 0xc3"),
            (b"t,y\r\n0,1\r\n\r\n0.5,\xff2\r\n", "line 4: non-ASCII byte 0xff"),
            (b"t,y\r0,1\r\xa00.5,2\r", "line 3: non-ASCII byte 0xa0"),
            # an Arabic-Indic digit, which float() reads as 3
            ("t,y\n0,\u0663\n0.5,2\n".encode(), "line 2: non-ASCII byte 0xd9"),
            ("t,y\n0,1\n0.5,2\n1,3\u2028\n".encode(), "line 4: non-ASCII byte 0xe2"),
        ],
        ids=["bom", "utf8-letter", "crlf", "cr", "digit", "line-separator"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, message):
        dest = tmp_path / "bad.csv"
        dest.write_bytes(data)
        with pytest.raises(CsvFormatError) as exc:
            read_path_csv(dest)
        assert str(exc.value) == message


def _reference_read(text: str) -> SamplePath:
    """The per-row reader that read_path_csv replaced, kept to check the vectorised rewrite.

    Its grid tolerance is the reader's, copied word for word: it checks a
    refactor of that tolerance and is not an independent oracle for it.
    test_grid_tolerance_edges pins the tolerance with literal outcomes.
    """
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError("line 1: empty file, expected header 't,y'")
    header = lines[0].strip()
    if header != "t,y":
        raise CsvFormatError(f"line 1: expected header 't,y', got {lines[0]!r}")
    data_lines = [n for n, raw in enumerate(lines, start=1) if raw.strip()][1:]
    times: list[float] = []
    values: list[float] = []
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
        times.append(t)
        values.append(y)
    if len(values) < 2:
        raise CsvFormatError(f"line {len(lines)}: need at least 2 data rows")
    step = times[1] - times[0]
    if step <= 0:
        raise CsvFormatError(f"line {data_lines[1]}: time column must be strictly increasing")
    tol = max(1e-9 * max(step, 1.0), 4 * float(np.spacing(np.abs(times).max())))
    for row in range(1, len(times)):
        if not (0 < times[row] - times[row - 1] and abs(times[row] - times[row - 1] - step) <= tol):
            raise CsvFormatError(f"line {data_lines[row]}: time grid is not uniform")
    return SamplePath(delta=(times[-1] - times[0]) / (len(times) - 1), values=np.array(values))


def _outcome(reader, text: str):
    """("path", delta, value bytes) or ("error", message) of reader(text); equal outcomes are bitwise equal."""
    try:
        path = reader(text)
    except CsvFormatError as exc:
        return ("error", str(exc))
    return ("path", np.float64(path.delta).tobytes(), path.values.tobytes())


_positive_paths = st.builds(
    make_path,
    st.lists(st.floats(1e-300, 1e300), min_size=2, max_size=40),
    delta=st.floats(1e-6, 10.0),
)
_origins = st.floats(-1e9, 1e9)

# each takes the two fields of a data row and gives the row's replacement
_ROW_MUTATIONS = (
    lambda t, y: t,
    lambda t, y: f"{t},{y},{y}",
    lambda t, y: f"{t},abc",
    lambda t, y: f"abc,{y}",
    lambda t, y: f"{t},inf",
    lambda t, y: f"nan,{y}",
    lambda t, y: f"{t},-1",
    lambda t, y: f"{t},0",
    lambda t, y: "",
    lambda t, y: " \t ",
    lambda t, y: f"{t}5,{y}",
    lambda t, y: f" {t} , {y} ",
    lambda t, y: f"\x1f{t},{y}\x1f",
    lambda t, y: f"{t},{y}\n{t},{y}",
)


@settings(max_examples=150, deadline=None)
@given(_positive_paths, _origins)
def test_reader_matches_reference_on_written_paths(read_csv, path, origin):
    text = _text_at(origin, path)
    outcome = _outcome(read_csv, text)
    assert outcome == _outcome(_reference_read, text)
    assert outcome[0] == "path" and outcome[2] == path.values.tobytes()  # every written path reads back
    step = np.frombuffer(outcome[1])[0]
    assert abs(step - path.delta) <= 4 * np.spacing(np.abs(origin + path.times).max()) / path.m


@settings(max_examples=300, deadline=None)
@given(
    _positive_paths,
    _origins,
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, len(_ROW_MUTATIONS) - 1)), min_size=1, max_size=3),
)
def test_reader_matches_reference_on_mutated_rows(read_csv, path, origin, mutations):
    lines = _text_at(origin, path).splitlines()
    for row, kind in mutations:
        lineno = 1 + row % (len(lines) - 1)
        t, y = (lines[lineno].split(",") + ["", ""])[:2]
        lines[lineno] = _ROW_MUTATIONS[kind](t, y)
    text = "\n".join(lines) + "\n"
    assert _outcome(read_csv, text) == _outcome(_reference_read, text)


def test_reader_matches_reference_on_a_simulated_path(read_csv, csv_text):
    path = euler_maruyama(ckls_model(1.0, 1.0, 0.3, 0.6), SimConfig(n_steps=10_000, y0=1.0), np.random.default_rng(3))
    text = csv_text(path)
    back = read_csv(text)
    assert np.array_equal(back.values, _reference_read(text).values)
    assert np.array_equal(back.values, path.values)
