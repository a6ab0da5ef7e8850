"""The method registry: one dispatcher behind the command line and the experiments."""
from __future__ import annotations

import numpy as np
import pytest

import pathvol
from pathvol import cli, estimators, experiment
from pathvol.cli import main
from pathvol.estimators import (
    METHOD_GAMMA_KNOWN_SIGMA,
    METHOD_GAMMA_RATIO,
    METHOD_INTEGRATED_SIGMA_SQ,
    METHOD_JOINT_VARIANCE,
    METHOD_SIGMA_KNOWN_GAMMA,
    METHODS,
    EstimateResult,
    check_params,
    estimate,
    gamma_known_sigma,
    gamma_ratio_estimate,
    integrated_sigma_sq,
    joint_estimate,
    sigma_known_gamma,
)
from pathvol.experiment import EstimatorSpec
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
    assert METHODS[METHOD_GAMMA_RATIO].defaults["grid_n"] == 300
    assert METHODS[METHOD_JOINT_VARIANCE].defaults["grid_n"] == 30


# (argv flags, estimate() parameters) for each method name the command line takes
CLI_CASES = [
    ("sigma-known-gamma", ["--gamma", "0.6"], {"gamma": 0.6}),
    ("sigma-known-gamma", ["--gamma", "0.6", "--h", "0.25"], {"gamma": 0.6, "h": 0.25}),
    ("gamma-ratio", [], {}),
    ("gamma-ratio", ["--h1", "0.25", "--h2", "0.75", "--grid-n", "40"], {"h1": 0.25, "h2": 0.75, "grid_n": 40}),
    ("joint-variance", [], {}),
    ("joint", ["--grid-n", "12"], {"grid_n": 12}),
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
    expected = estimate(path, ALIASES.get(name, name), **params)
    assert capsys.readouterr().out == f"{EstimateResult.CSV_HEADER}\n{expected.to_csv_row()}\n"


def _direct_integrated(path):
    window = path.delta * (len(path.values) - 1)
    return float(np.sqrt(integrated_sigma_sq(path, gamma=0.6) / window))


# (spec, the value the spec must produce from direct estimator calls)
SPEC_CASES = [
    (
        EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA, gamma=0.6),
        lambda p: sigma_known_gamma(p, gamma=0.6, h=0.6).sigma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_SIGMA_KNOWN_GAMMA, gamma=0.6, h=0.0),
        lambda p: sigma_known_gamma(p, gamma=0.6, h=0.0).sigma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_GAMMA_RATIO, h1=0.25, h2=0.75, search_range=NARROW),
        lambda p: gamma_ratio_estimate(p, h1=0.25, h2=0.75, grid_n=300, search_range=NARROW).gamma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_GAMMA_RATIO),
        lambda p: gamma_ratio_estimate(p).gamma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_JOINT_VARIANCE, search_range=NARROW),
        lambda p: joint_estimate(p, grid_n=30, search_range=NARROW).gamma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_JOINT_VARIANCE, grid_n=12, target="sigma", search_range=NARROW),
        lambda p: joint_estimate(p, grid_n=12, search_range=NARROW).sigma_hat,
    ),
    (
        EstimatorSpec(method=METHOD_GAMMA_KNOWN_SIGMA, sigma=0.3, search_range=NARROW),
        lambda p: gamma_known_sigma(p, sigma=0.3, grid_n=30, search_range=NARROW).gamma_hat,
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
    estimate(path, METHOD_JOINT_VARIANCE, grid_n=12, sigma=None)
    EstimatorSpec(method=METHOD_JOINT_VARIANCE).estimate(path)
    assert calls == [{"grid_n": 12}, {}]


def test_estimator_spec_has_one_home():
    assert pathvol.EstimatorSpec is estimators.EstimatorSpec is experiment.EstimatorSpec


def test_spec_kwargs_are_read_only():
    spec = EstimatorSpec(METHOD_JOINT_VARIANCE, grid_n=12)
    with pytest.raises(TypeError):
        spec.kwargs["grid_n"] = 1
    assert spec.kwargs == {"grid_n": 12}


def test_list_and_tuple_search_range_build_equal_specs():
    as_list = EstimatorSpec(METHOD_JOINT_VARIANCE, search_range=[0.5, 1.0])
    as_tuple = EstimatorSpec(METHOD_JOINT_VARIANCE, search_range=(0.5, 1.0))
    assert as_list == as_tuple
    assert as_list.kwargs["search_range"] == (0.5, 1.0)


def test_cli_estimate_checks_its_parameters_once(path_csv, monkeypatch, capsys):
    # a spy wherever a pathvol module refers to check_params
    calls = []
    original = estimators.check_params

    def spy(method, **params):
        calls.append(method)
        return original(method, **params)

    for module in (estimators, experiment, cli):
        if getattr(module, "check_params", None) is original:
            monkeypatch.setattr(module, "check_params", spy)
    assert main(["estimate", "--in", str(path_csv), "--method", "joint", "--search-range", "0.5", "1"]) == 0
    assert calls == [METHOD_JOINT_VARIANCE]


class TestCheckParams:
    def test_drops_none_and_parameters_the_method_does_not_take(self):
        params = {"gamma": 0.5, "h": None, "h1": 0.25, "grid_n": None, "sigma": 0.3}
        assert check_params(METHOD_JOINT_VARIANCE, **params) == {}
        assert check_params(METHOD_SIGMA_KNOWN_GAMMA, **params) == {"gamma": 0.5}
        assert check_params(METHOD_GAMMA_RATIO, **params) == {"h1": 0.25}

    @pytest.mark.parametrize(
        "method, params, match",
        [
            ("maximum-likelihood", {}, "unknown estimator method"),
            (METHOD_INTEGRATED_SIGMA_SQ, {}, "needs its gamma"),
            (METHOD_GAMMA_RATIO, {"h1": 1.0}, "h1 and h2 must differ"),  # h2 defaults to 1
            (METHOD_JOINT_VARIANCE, {"grid_n": 1}, "grid_n"),
            (METHOD_JOINT_VARIANCE, {"search_range": (0.5, 0.5)}, "search_range"),
            (METHOD_SIGMA_KNOWN_GAMMA, {"gamma": 0.5, "h": 1.5}, "h must lie"),
            # a value no estimator accepts is refused whichever method runs
            (METHOD_JOINT_VARIANCE, {"sigma": -1.0}, "sigma must be > 0"),
        ],
    )
    def test_rejects_bad_parameters(self, method, params, match):
        with pytest.raises(ValueError, match=match):
            check_params(method, **params)

    def test_unknown_parameter_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="gridn"):
            check_params(METHOD_JOINT_VARIANCE, gridn=10)
