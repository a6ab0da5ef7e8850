"""The method registry: one dispatcher behind the command line and the experiments."""
from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_positive_path
import pathvol
from pathvol import estimators, experiment
from pathvol.cli import _estimate_csv, main
from pathvol.estimators import (
    METHOD_GAMMA_KNOWN_SIGMA,
    METHOD_GAMMA_RATIO,
    METHOD_INTEGRATED_SIGMA_SQ,
    METHOD_JOINT_VARIANCE,
    METHOD_SIGMA_KNOWN_GAMMA,
    METHODS,
    EstimateResult,
    EstimatorSpec,
    gamma_known_sigma,
    gamma_ratio_estimate,
    integrated_sigma_sq,
    joint_estimate,
    sigma_known_gamma,
)
from pathvol.model import ckls_model
from pathvol.simulate import SimConfig, euler_maruyama, read_path_csv, write_path_csv

NARROW = (0.5, 1.0)


@pytest.fixture(scope="module")
def path_csv(tmp_path_factory):
    """A simulated N = 2 000 path, written once; tests use the path read back."""
    model = ckls_model(a=1.0, b=1.0, sigma=0.3, gamma=0.6)
    path = euler_maruyama(model, SimConfig(n_steps=2000, y0=1.0), np.random.default_rng(21))
    dest = tmp_path_factory.mktemp("registry") / "path.csv"
    write_path_csv(path, dest)
    return dest


@pytest.fixture(scope="module")
def path(path_csv):
    return read_path_csv(path_csv)


def test_registry_covers_the_five_methods():
    assert set(METHODS) == {
        METHOD_SIGMA_KNOWN_GAMMA,
        METHOD_GAMMA_RATIO,
        METHOD_JOINT_VARIANCE,
        METHOD_GAMMA_KNOWN_SIGMA,
        METHOD_INTEGRATED_SIGMA_SQ,
    }
    assert METHODS[METHOD_SIGMA_KNOWN_GAMMA].required == ("gamma",)
    assert METHODS[METHOD_GAMMA_KNOWN_SIGMA].required == ("sigma",)
    # the grid sizes are constants of the searches, not parameters
    assert METHODS[METHOD_GAMMA_RATIO].defaults == {"h1": 0.0, "h2": 1.0, "search_range": (0.0, 1.0)}
    assert METHODS[METHOD_JOINT_VARIANCE].defaults == {"search_range": (0.0, 1.0)}


# (argv flags, EstimatorSpec parameters) for each method name the command line takes
CLI_CASES = [
    ("sigma-known-gamma", ["--gamma", "0.6"], {"gamma": 0.6}),
    ("sigma-known-gamma", ["--gamma", "0.25"], {"gamma": 0.25}),
    ("gamma-ratio", [], {}),
    ("gamma-ratio", ["--h1", "0.25", "--h2", "0.75"], {"h1": 0.25, "h2": 0.75}),
    ("joint-variance", [], {}),
    ("joint", [], {}),
    ("gamma-known-sigma", ["--sigma", "0.3"], {"sigma": 0.3}),
    ("integrated-sigma-sq", ["--gamma", "0.6"], {"gamma": 0.6}),
    ("integrated", ["--gamma", "0.6"], {"gamma": 0.6}),
    # the t2/t3 searches over the upper half of the unit interval
    ("gamma-ratio", ["--search-range", "0.5", "1"], {"search_range": NARROW}),
    ("joint", ["--search-range", "0.5", "1"], {"search_range": NARROW}),
    ("gamma-known-sigma", ["--sigma", "0.3", "--search-range", "0.5", "1"], {"sigma": 0.3, "search_range": NARROW}),
]
ALIASES = {"joint": METHOD_JOINT_VARIANCE, "integrated": METHOD_INTEGRATED_SIGMA_SQ}


@pytest.mark.parametrize("name, flags, params", CLI_CASES)
def test_cli_prints_the_registry_result(path_csv, path, capsys, name, flags, params):
    assert main(["estimate", "--in", str(path_csv), "--method", name, *flags]) == 0
    method = ALIASES.get(name, name)
    expected = EstimatorSpec(method, **params).result(path)
    assert capsys.readouterr().out == f"{_estimate_csv(method, expected)}\n"


def _direct_integrated(path):
    window = path.delta * (len(path.values) - 1)
    return float(np.sqrt(integrated_sigma_sq(path, gamma=0.6) / window))


# (spec, the value the spec must produce from direct estimator calls)
SPEC_CASES = [
    (
        EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA, gamma=0.6),
        lambda p: sigma_known_gamma(p, gamma=0.6).sigma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA, gamma=0.0),
        lambda p: sigma_known_gamma(p, gamma=0.0).sigma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_GAMMA_RATIO, h1=0.25, h2=0.75, search_range=NARROW),
        lambda p: gamma_ratio_estimate(p, h1=0.25, h2=0.75, search_range=NARROW).gamma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_GAMMA_RATIO),
        lambda p: gamma_ratio_estimate(p).gamma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_JOINT_VARIANCE, search_range=NARROW),
        lambda p: joint_estimate(p, search_range=NARROW).gamma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_JOINT_VARIANCE, target="sigma", search_range=NARROW),
        lambda p: joint_estimate(p, search_range=NARROW).sigma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_GAMMA_KNOWN_SIGMA, sigma=0.3, search_range=NARROW),
        lambda p: gamma_known_sigma(p, sigma=0.3, search_range=NARROW).gamma_hat,
    ),
    (EstimatorSpec(method=METHOD_INTEGRATED_SIGMA_SQ, gamma=0.6), _direct_integrated),
]


@pytest.mark.parametrize("spec, direct", SPEC_CASES)
def test_spec_matches_the_direct_call(path, spec, direct):
    assert spec.estimate(path) == direct(path)


def test_estimator_is_looked_up_when_called(path, monkeypatch):
    # a wrapper installed on the module attribute must see the registry's calls
    calls = []
    original = estimators.joint_estimate

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "joint_estimate", spy)
    EstimatorSpec(METHOD_JOINT_VARIANCE, search_range=NARROW, sigma=None).result(path)
    EstimatorSpec(method=METHOD_JOINT_VARIANCE).estimate(path)
    assert calls == [{"search_range": NARROW}, {}]


def test_estimator_spec_has_one_home():
    assert pathvol.EstimatorSpec is estimators.EstimatorSpec
    assert "EstimatorSpec" in estimators.__all__ and "EstimatorSpec" not in experiment.__all__
    for gone in ("check_params", "estimate"):
        assert not hasattr(estimators, gone) and gone not in estimators.__all__


def test_spec_kwargs_are_read_only():
    spec = EstimatorSpec(METHOD_JOINT_VARIANCE, search_range=NARROW)
    with pytest.raises(TypeError):
        spec.kwargs["search_range"] = (0.0, 1.0)
    assert spec.kwargs == {"search_range": NARROW}


def test_list_and_tuple_search_range_build_equal_specs():
    as_list = EstimatorSpec(METHOD_JOINT_VARIANCE, search_range=[0.5, 1.0])
    as_tuple = EstimatorSpec(METHOD_JOINT_VARIANCE, search_range=(0.5, 1.0))
    assert as_list == as_tuple
    assert as_list.kwargs["search_range"] == (0.5, 1.0)


def test_cli_estimate_checks_its_parameters_once(path_csv, monkeypatch, capsys):
    # the value check runs twice: once as the spec is built, once in the estimator itself
    calls = []
    original = estimators._check

    def spy(**params):
        calls.append(tuple(params["search_range"]))
        return original(**params)

    monkeypatch.setattr(estimators, "_check", spy)
    assert main(["estimate", "--in", str(path_csv), "--method", "joint", "--search-range", "0.5", "1"]) == 0
    assert calls == [NARROW, NARROW]


class TestCheckParams:
    def test_check_knows_exactly_the_estimator_parameters(self):
        # parameter names live in the estimator signatures, _check and the flags alone
        assert set(inspect.signature(estimators._check).parameters) == estimators._PARAMS

    def test_drops_none_and_refuses_parameters_the_method_does_not_take(self):
        unset = dict.fromkeys(estimators._PARAMS)
        assert EstimatorSpec(METHOD_JOINT_VARIANCE, **unset).kwargs == {}
        assert EstimatorSpec(METHOD_SIGMA_KNOWN_GAMMA, **{**unset, "gamma": 0.5}).kwargs == {"gamma": 0.5}
        assert EstimatorSpec(METHOD_GAMMA_RATIO, **{**unset, "h1": 0.25}).kwargs == {"h1": 0.25}
        # a value given for a parameter the method does not take is refused, even one in range
        params = {"gamma": 0.5, "h1": 0.25, "h2": None, "sigma": 0.3}
        for method, foreign in [
            (METHOD_JOINT_VARIANCE, "gamma"),
            (METHOD_SIGMA_KNOWN_GAMMA, "h1"),
            (METHOD_GAMMA_RATIO, "gamma"),
            (METHOD_GAMMA_KNOWN_SIGMA, "gamma"),
        ]:
            with pytest.raises(ValueError, match=f"^{method} takes no {foreign} parameter$"):
                EstimatorSpec(method, **params)

    @pytest.mark.parametrize(
        "method, params, match",
        [
            ("maximum-likelihood", {}, "unknown estimator method"),
            (METHOD_INTEGRATED_SIGMA_SQ, {}, "needs its gamma"),
            (METHOD_GAMMA_RATIO, {"h1": 1.0}, "h1 and h2 must differ"),  # h2 defaults to 1
            (METHOD_GAMMA_KNOWN_SIGMA, {}, "needs its sigma"),
            (METHOD_JOINT_VARIANCE, {"search_range": (0.5, 0.5)}, "search_range"),
            (METHOD_SIGMA_KNOWN_GAMMA, {"gamma": 1.5}, "gamma must lie"),
            # a parameter the method does not take is refused, before its value is checked
            (METHOD_JOINT_VARIANCE, {"sigma": -1.0}, "takes no sigma"),
            # a search_range is a pair; accepted, three values failed only in the estimator
            (METHOD_JOINT_VARIANCE, {"search_range": (0.2, 0.5, 1.0)}, "search_range"),
            # and integrated-sigma-sq takes none: "takes no search_range parameter"
            (METHOD_INTEGRATED_SIGMA_SQ, {"gamma": 0.5, "search_range": (0.5,)}, "search_range"),
        ],
        # explicit ids, the names these cases already had: rewording a message renames no test
        ids=[
            "maximum-likelihood-params0-unknown estimator method",
            "integrated-sigma-sq-params1-needs its gamma",
            "gamma-ratio-params2-h1 and h2 must differ",
            "gamma-known-sigma-params3-needs its sigma",
            "joint-variance-params4-search_range",
            "sigma-known-gamma-params5-gamma must lie",
            "joint-variance-params6-takes no sigma",
            "joint-variance-params7-search_range",
            "integrated-sigma-sq-params8-search_range",
        ],
    )
    def test_rejects_bad_parameters(self, method, params, match):
        with pytest.raises(ValueError, match=match):
            EstimatorSpec(method, **params)

    def test_unknown_parameter_name_is_a_type_error(self):
        # grid_n included: every search scans a grid of fixed size
        for name in ("gridn", "grid_n"):
            with pytest.raises(TypeError, match=name):
                EstimatorSpec(METHOD_JOINT_VARIANCE, **{name: 30})

    @pytest.mark.parametrize("name", ["grid_n", "h", "foo"])
    def test_unknown_parameter_name_set_to_none_is_a_type_error(self, name):
        # refused before None values are dropped; h is no parameter: sigma-known-gamma runs at h = gamma
        for method in (METHOD_JOINT_VARIANCE, METHOD_SIGMA_KNOWN_GAMMA):
            for value in (None, 0.5):
                with pytest.raises(TypeError, match=name):
                    EstimatorSpec(method, **{"gamma": 0.5, name: value})


# values from None, the unit interval, outside it and nan; a search_range from pairs
# and sequences of other lengths
_UNIT = st.one_of(st.floats(0.0, 1.0), st.floats(-1.0, 2.0), st.just(math.nan))
SPEC_PARAMS = st.fixed_dictionaries(
    {
        "gamma": st.none() | _UNIT,
        "h1": st.none() | _UNIT,
        "h2": st.none() | _UNIT,
        "sigma": st.none() | st.floats(1e-3, 1e3) | st.floats(-1.0, 0.0) | st.sampled_from([math.nan, math.inf]),
        "search_range": st.none() | st.tuples(_UNIT, _UNIT) | st.lists(_UNIT, min_size=0, max_size=3),
    }
)
BENIGN = random_positive_path(np.random.default_rng(5), 60)


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=150, deadline=None)
@given(params=SPEC_PARAMS)
def test_what_a_spec_accepts_its_estimator_accepts(method, params):
    try:
        spec = EstimatorSpec(method, **params)
    except ValueError:
        return
    assert isinstance(spec.result(BENIGN), EstimateResult)
