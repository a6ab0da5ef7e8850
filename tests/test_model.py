"""Model specs, the rendered drift source, the drift sampler, and config round trips."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drift_value
from pathvol.model import (
    _VECTOR_FIELDS,
    AffineDrift,
    DelayDriftSpec,
    ModelSpec,
    cir_model,
    ckls_model,
    drift_constants,
    drift_source,
    format_model_config,
    parse_model_config,
    sample_delay_drift,
)


def rendered_drift(spec: ModelSpec, x: float, x_lagged: float) -> float:
    """The drift as the simulator's loop computes it: drift_source compiled, called with drift_constants."""
    names, expr = drift_source(spec.drift.n_terms)
    exec(f"def drift({names}, x, x_lagged):\n    return {expr}\n", namespace := {"cos": math.cos})
    return namespace["drift"](*drift_constants(spec.drift), x, x_lagged)


def one_term(a=0.0, b=0.0, nu=0.0, c=0.0, d=0.0, e=0.0, a_hat=0.0, b_hat=0.0, nu_hat=0.0, delay=0.0):
    return DelayDriftSpec(
        a=(a,), b=(b,), nu=(nu,), c=(c,), d=(d,), e=(e,),
        a_hat=(a_hat,), b_hat=(b_hat,), nu_hat=(nu_hat,), delay=delay,
    )


class TestEvalDrift:
    """The drift the simulator renders, at states whose value is worked out by hand."""

    def test_single_term_mean_reversion_at_fixed_point_is_zero(self):
        # a*(b - x**(nu+1/2)) = 1*(1 - 1**1) = 0, all other terms zeroed
        spec = ModelSpec(drift=one_term(a=1.0, b=1.0, nu=0.5), sigma=0.1, gamma=0.5)
        assert rendered_drift(spec, x=1.0, x_lagged=123.0) == 0.0

    def test_single_term_cancellation(self):
        # -1 (power term) + 1 (cosine at angle 0) + 0.1*1*(1-1) = 0
        spec = ModelSpec(
            drift=one_term(a=1.0, b=0.0, nu=0.5, c=1.0, a_hat=1.0, b_hat=1.0, nu_hat=0.5),
            sigma=0.1,
            gamma=0.5,
        )
        assert rendered_drift(spec, x=1.0, x_lagged=1.0) == 0.0

    def test_affine_drift_value(self):
        spec = ckls_model(a=2.0, b=1.5, sigma=0.3, gamma=0.7)
        assert rendered_drift(spec, x=0.5, x_lagged=0.5) == pytest.approx(2.0 * (1.5 - 0.5))

    def test_affine_ignores_lagged_state(self):
        spec = cir_model(a=1.0, b=1.0, sigma=0.3)
        assert rendered_drift(spec, 0.7, 0.1) == rendered_drift(spec, 0.7, 9.0)

    def test_multi_term_sum(self):
        spec = ModelSpec(
            drift=DelayDriftSpec(
                a=(0.5, 1.0), b=(1.0, 2.0), nu=(0.5, 0.0), c=(0.0, 0.3), d=(0.0, 1.0),
                e=(0.0, 0.5), a_hat=(1.0, 0.0), b_hat=(0.5, 0.0), nu_hat=(0.5, 0.0),
            ),
            sigma=0.1,
            gamma=0.5,
        )
        x, x_lag = 1.3, 0.8
        expected = (
            0.5 * (1.0 - x**1.0)
            + 0.1 * 1.0 * (0.5 - x_lag**1.0)
            + 1.0 * (2.0 - x**0.5)
            + 0.3 * math.cos(1.0 * x + 0.5)
        )
        assert rendered_drift(spec, x, x_lag) == pytest.approx(expected, rel=1e-15, abs=0)


def _delay_drifts():
    coeffs = st.floats(0.0, 5.0)
    return st.integers(1, 5).flatmap(
        lambda n: st.builds(
            DelayDriftSpec,
            *[st.lists(coeffs, min_size=n, max_size=n) for _ in range(9)],
            delay=st.floats(0.0, 0.2),
        )
    )


@settings(max_examples=200, deadline=None)
@given(
    drift=st.one_of(_delay_drifts(), st.builds(AffineDrift, st.floats(0.0, 5.0), st.floats(0.0, 5.0))),
    x=st.floats(1e-6, 1e3),
    x_lag=st.floats(1e-6, 1e3),
)
def test_eval_drift_is_the_written_formula_bitwise(drift, x, x_lag):
    spec = ModelSpec(drift=drift, sigma=0.3, gamma=0.5)
    assert rendered_drift(spec, x, x_lag) == drift_value(spec, x, x_lag)


class TestSpecValidation:
    def test_affine_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            AffineDrift(a=-0.1, b=1.0)
        with pytest.raises(ValueError):
            AffineDrift(a=1.0, b=-0.1)

    def test_affine_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            AffineDrift(a=float("nan"), b=1.0)

    def test_delay_spec_needs_matching_lengths(self):
        with pytest.raises(ValueError, match="length"):
            DelayDriftSpec(
                a=(1.0, 2.0), b=(1.0,), nu=(0.0, 0.0), c=(0.0, 0.0), d=(0.0, 0.0),
                e=(0.0, 0.0), a_hat=(0.0, 0.0), b_hat=(0.0, 0.0), nu_hat=(0.0, 0.0),
            )

    def test_delay_spec_needs_a_term(self):
        with pytest.raises(ValueError, match="at least one"):
            DelayDriftSpec(a=(), b=(), nu=(), c=(), d=(), e=(), a_hat=(), b_hat=(), nu_hat=())

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            one_term(delay=-0.1)

    @pytest.mark.parametrize(
        "vectors, delay, error, message",
        [
            ({"b": (1.0, 2.0)}, 0.0, ValueError, "parameter vector 'b' has length 2, expected 1"),
            ({"nu_hat": ()}, 0.0, ValueError, "parameter vector 'nu_hat' has length 0, expected 1"),
            ({name: () for name in _VECTOR_FIELDS}, 0.0, ValueError,
             "drift needs at least one term"),
            # every vector is converted before any length is checked
            ({"a": (), "e": ("x",)}, 0.0, ValueError, "could not convert string to float: 'x'"),
            ({"c": (None,)}, 0.0, TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
            ({}, -0.1, ValueError, "delay must be finite and >= 0"),
            ({}, math.nan, ValueError, "delay must be finite and >= 0"),
            ({}, math.inf, ValueError, "delay must be finite and >= 0"),
            ({"a": (math.nan,)}, 0.0, ValueError, "parameter vector 'a' must be finite"),
            ({"e": (-math.inf,)}, 0.0, ValueError, "parameter vector 'e' must be finite"),
        ],
        ids=["long", "short", "no-terms", "convert-first", "none", "negative-delay", "nan-delay", "inf-delay",
             "nan-term", "inf-term"],
    )
    def test_delay_spec_refusals_in_full(self, vectors, delay, error, message):
        fields = {name: (0.5,) for name in _VECTOR_FIELDS}
        with pytest.raises(error) as exc:
            DelayDriftSpec(**{**fields, **vectors}, delay=delay)
        assert str(exc.value) == message

    def test_delay_spec_vectors_become_float_tuples(self):
        spec = DelayDriftSpec(
            a=[1, 2], b=np.array([0.5, 1.5]), nu=(0, 0), c=iter([1.0, 2.0]), d=(0.0, 0.0),
            e=(0.0, 0.0), a_hat=(0.0, 0.0), b_hat=(0.0, 0.0), nu_hat=(True, False),
        )
        assert spec.a == (1.0, 2.0) and spec.b == (0.5, 1.5) and spec.c == (1.0, 2.0)
        assert spec.nu_hat == (1.0, 0.0)
        assert all(type(v) is float for v in spec.a + spec.b + spec.nu + spec.nu_hat)

    def test_gamma_outside_unit_interval_rejected(self):
        for gamma in (-0.1, 1.1):
            with pytest.raises(ValueError, match="gamma"):
                ModelSpec(drift=AffineDrift(1.0, 1.0), sigma=0.3, gamma=gamma)

    def test_negative_sigma_rejected_zero_allowed(self):
        with pytest.raises(ValueError, match="sigma"):
            ModelSpec(drift=AffineDrift(1.0, 1.0), sigma=-0.3, gamma=0.5)
        assert ModelSpec(drift=AffineDrift(1.0, 1.0), sigma=0.0, gamma=0.5).sigma == 0.0

    def test_cir_model_fixes_square_root_power(self):
        assert cir_model(1.0, 1.0, 0.3).gamma == 0.5


def reference_sample_delay_drift(rng):
    """The drift sampler with one draw call per coefficient vector."""
    n = int(rng.integers(1, 6))
    delay = float(rng.uniform(0.0, 0.2))
    draws = [tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n)) for _ in range(9)]
    return DelayDriftSpec(*draws, delay=delay)


class TestSampler:
    def test_sampled_coefficient_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            spec = sample_delay_drift(rng)
            assert 1 <= spec.n_terms <= 5
            assert 0.0 <= spec.delay <= 0.2
            for name in ("a", "b", "nu", "c", "d", "e", "a_hat", "b_hat", "nu_hat"):
                values = getattr(spec, name)
                assert len(values) == spec.n_terms
                assert all(0.0 <= v <= 1.0 for v in values)

    def test_first_coefficient_mean_near_half(self):
        rng = np.random.default_rng(1)
        mean = np.mean([sample_delay_drift(rng).a[0] for _ in range(10_000)])
        assert 0.48 <= mean <= 0.52

    def test_term_count_covers_full_support(self):
        rng = np.random.default_rng(2)
        seen = {sample_delay_drift(rng).n_terms for _ in range(200)}
        assert seen == {1, 2, 3, 4, 5}

    def test_sampling_is_deterministic_in_the_generator(self):
        a = sample_delay_drift(np.random.default_rng(7))
        b = sample_delay_drift(np.random.default_rng(7))
        assert a == b

    @pytest.mark.parametrize("c_scale", [0.0, 0.05, 0.3, 2.0])
    def test_c_scale_multiplies_the_c_row_only(self, c_scale):
        for seed in range(6):
            plain = sample_delay_drift(np.random.default_rng(seed))
            scaled = sample_delay_drift(np.random.default_rng(seed), c_scale)
            assert scaled.c == tuple(c_scale * c for c in plain.c)
            assert scaled == dataclasses.replace(plain, c=scaled.c)

    def test_matches_one_draw_call_per_vector(self):
        for seed in range(6):
            # the per-trial stream layout of the Monte-Carlo driver: (master_seed, row, trial)
            ss = np.random.SeedSequence((seed, 2, 7))
            rng, ref = np.random.default_rng(ss), np.random.default_rng(ss)
            for _ in range(40):
                assert sample_delay_drift(rng) == reference_sample_delay_drift(ref)
            assert rng.random() == ref.random()


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            cir_model(1.25, 0.8, 0.3),
            ckls_model(2.0, 1.0, 0.45, 0.7),
            ModelSpec(
                drift=DelayDriftSpec(
                    a=(0.1, 0.9), b=(0.4, 0.2), nu=(0.3, 0.8), c=(0.5, 0.6), d=(0.7, 0.1),
                    e=(0.2, 0.9), a_hat=(0.3, 0.3), b_hat=(0.8, 0.1), nu_hat=(0.5, 0.5),
                    delay=0.17,
                ),
                sigma=0.3,
                gamma=0.6,
            ),
        ],
    )
    def test_format_parse_round_trip(self, spec):
        assert parse_model_config(format_model_config(spec)) == spec

    def test_round_trip_preserves_doubles_exactly(self):
        spec = ckls_model(1 / 3, 2 / 7, 0.1 + 0.2, 0.5000000000000001)
        back = parse_model_config(format_model_config(spec))
        assert back.drift.a == spec.drift.a
        assert back.gamma == spec.gamma

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nmodel=cir\na=1\nb=1\n\nsigma=0.3\n"
        spec = parse_model_config(text)
        assert spec.gamma == 0.5 and spec.sigma == 0.3

    def test_missing_key_reported(self):
        with pytest.raises(ValueError, match="sigma"):
            parse_model_config("model=cir\na=1\nb=1\n")

    def test_bad_number_reported_with_key(self):
        with pytest.raises(ValueError, match="'a'"):
            parse_model_config("model=cir\na=fast\nb=1\nsigma=0.3\n")

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            parse_model_config("model=heston\nsigma=0.3\n")

    def test_line_without_equals_rejected_by_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_model_config("model=cir\njunk\n")

    @pytest.mark.parametrize("n_terms", ["inf", "nan", "1.7", "0"])
    def test_term_count_must_be_a_whole_number_of_at_least_one(self, n_terms):
        spec = ModelSpec(drift=sample_delay_drift(np.random.default_rng(0)), sigma=0.3, gamma=0.6)
        text = format_model_config(spec)  # a repeated key keeps its last value
        with pytest.raises(ValueError, match="'n_terms'"):
            parse_model_config(text + f"n_terms={n_terms}\n")

    def test_vector_length_mismatch_reported(self):
        text = (
            "model=random-delay\nn_terms=2\ndelay=0\nsigma=0.3\ngamma=0.6\n"
            "term_a=0.1,0.2\nterm_b=0.1\nterm_nu=0.1,0.2\nterm_c=0.1,0.2\n"
            "term_d=0.1,0.2\nterm_e=0.1,0.2\nterm_a_hat=0.1,0.2\n"
            "term_b_hat=0.1,0.2\nterm_nu_hat=0.1,0.2\n"
        )
        with pytest.raises(ValueError, match="term_b"):
            parse_model_config(text)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(0.0, 10.0),
    b=st.floats(0.0, 10.0),
    x=st.floats(1e-3, 1e3),
)
def test_affine_drift_matches_closed_form(a, b, x):
    spec = ModelSpec(drift=AffineDrift(a, b), sigma=0.1, gamma=0.5)
    assert rendered_drift(spec, x, x) == pytest.approx(a * b - a * x, rel=1e-12, abs=1e-12)
