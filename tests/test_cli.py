"""End-to-end command line tests driven through cli.main(argv)."""
from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pathvol
from pathvol import cli, experiment
from pathvol.cli import _MODEL_FLAGS, build_parser, main
from pathvol.estimators import (
    METHOD_GAMMA_KNOWN_SIGMA,
    METHOD_GAMMA_RATIO,
    METHOD_JOINT_VARIANCE,
    METHODS,
    EstimateResult,
    EstimatorSpec,
)
from pathvol.experiment import TABLE_IDS
from pathvol.model import ModelSpec, ckls_model, format_model_config, sample_delay_drift
from pathvol.simulate import DegeneratePathError, read_path_csv


def run_cli(*argv):
    return main(list(argv))


def write_csv(tmp_path, name, text):
    dest = tmp_path / name
    dest.write_text(text)
    return dest


def assert_estimate_usage_error(*argv, capsys):
    """Run ``pathvol estimate *argv``, check that it is a usage error of estimate, and return stderr."""
    with pytest.raises(SystemExit) as exc:
        run_cli("estimate", *argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: pathvol estimate ")
    return err


# an in-range value of each estimator parameter flag
FLAG_VALUES = {"gamma": ["0.4"], "h1": ["0.25"], "h2": ["0.75"], "sigma": ["0.3"], "search_range": ["0.5", "1"]}
# every (method name of the command line, parameter that its method does not read)
FOREIGN_FLAGS = [
    (name, param)
    for name in (*METHODS, *cli._METHOD_ALIASES)
    for m in [METHODS[cli._METHOD_ALIASES.get(name, name)]]
    for param in FLAG_VALUES
    if param not in (*m.required, *m.defaults)
]


class TestSimulate:
    def test_zero_noise_cir_at_equilibrium_is_constant(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code = run_cli(
            "simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0",
            "--y0", "1", "--n", "10", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        path = read_path_csv(out)
        assert len(path.values) == 11
        np.testing.assert_array_equal(path.values, np.ones(11))
        np.testing.assert_allclose(path.times, np.arange(11) / 10, rtol=0, atol=1e-15)
        assert "stopped_early=False" in capsys.readouterr().err

    def test_zero_noise_above_equilibrium_decreases(self, tmp_path):
        out = tmp_path / "path.csv"
        assert run_cli(
            "simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0",
            "--y0", "4", "--n", "10", "--out", str(out),
        ) == 0
        values = read_path_csv(out).values
        assert values[0] == 4.0
        assert np.all(np.diff(values) < 0)
        assert np.all(values > 1.0)

    def test_seed_reproducibility(self, tmp_path):
        outs = [tmp_path / f"p{i}.csv" for i in range(3)]
        for out in outs[:2]:
            assert run_cli(
                "simulate", "--model", "ckls", "--a", "1", "--b", "1", "--sigma", "0.3",
                "--gamma", "0.6", "--y0", "1", "--n", "50", "--seed", "11",
                "--out", str(out),
            ) == 0
        assert run_cli(
            "simulate", "--model", "ckls", "--a", "1", "--b", "1", "--sigma", "0.3",
            "--gamma", "0.6", "--y0", "1", "--n", "50", "--seed", "12",
            "--out", str(outs[2]),
        ) == 0
        assert outs[0].read_text() == outs[1].read_text()
        assert outs[0].read_text() != outs[2].read_text()

    def test_random_delay_model_runs(self, tmp_path):
        out = tmp_path / "path.csv"
        assert run_cli(
            "simulate", "--model", "random-delay", "--sigma", "0.3", "--gamma", "0.6",
            "--n", "100", "--seed", "3", "--out", str(out),
        ) == 0
        path = read_path_csv(out)
        assert np.all(path.values > 0)

    def test_config_file_round_trip(self, tmp_path):
        cfg = write_csv(tmp_path, "model.cfg", format_model_config(ckls_model(1.0, 1.0, 0.3, 0.6)))
        out = tmp_path / "path.csv"
        assert run_cli(
            "simulate", "--config", str(cfg), "--y0", "1", "--n", "20", "--out", str(out)
        ) == 0
        assert len(read_path_csv(out).values) == 21

    def test_flags_override_config_scalars(self, tmp_path):
        cfg = write_csv(tmp_path, "model.cfg", format_model_config(ckls_model(1.0, 1.0, 0.3, 0.6)))
        quiet = tmp_path / "quiet.csv"
        assert run_cli(
            "simulate", "--config", str(cfg), "--sigma", "0", "--y0", "1", "--n", "20",
            "--out", str(quiet),
        ) == 0
        np.testing.assert_array_equal(read_path_csv(quiet).values, np.ones(21))

    @pytest.mark.parametrize("with_model", [False, True], ids=["config-kind", "model-flag"])
    @pytest.mark.parametrize("flag,value", [("a", 3.0), ("b", 0.25), ("sigma", 0.5), ("gamma", 0.8)])
    @pytest.mark.parametrize("kind", ["cir", "ckls"])
    def test_each_model_flag_overrides_the_config(self, tmp_path, kind, flag, value, with_model):
        params = {"a": 1.0, "b": 2.0, "sigma": 0.3, "gamma": 0.5 if kind == "cir" else 0.6}
        cfg = write_csv(tmp_path, "model.cfg", format_model_config(ckls_model(**params)))
        model = ("--model", kind) if with_model else ()
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        common = ("--y0", "1", "--n", "20", "--seed", "4")
        assert run_cli(
            "simulate", "--config", str(cfg), *model, f"--{flag}", str(value), *common, "--out", str(got)
        ) == 0
        params[flag] = value
        flags = [arg for key, v in params.items() for arg in (f"--{key}", str(v))]
        assert run_cli("simulate", "--model", "ckls", *flags, *common, "--out", str(want)) == 0
        assert got.read_text() == want.read_text()

    def test_flag_completes_a_config_without_sigma(self, tmp_path):
        cfg = write_csv(tmp_path, "model.cfg", "model=cir\na=1\nb=1\n")
        outs = [tmp_path / "got.csv", tmp_path / "want.csv"]
        assert run_cli(
            "simulate", "--config", str(cfg), "--sigma", "0.3", "--y0", "1", "--n", "20", "--out", str(outs[0])
        ) == 0
        assert run_cli(
            "simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
            "--y0", "1", "--n", "20", "--out", str(outs[1]),
        ) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_random_delay_flag_draws_the_same_drift_over_a_config(self, tmp_path):
        cfg = write_csv(tmp_path, "ckls.cfg", format_model_config(ckls_model(1.0, 2.0, 0.3, 0.6)))
        outs = [tmp_path / "got.csv", tmp_path / "want.csv"]
        common = ("--model", "random-delay", "--n", "200", "--seed", "8")
        assert run_cli("simulate", "--config", str(cfg), *common, "--out", str(outs[0])) == 0
        assert run_cli("simulate", "--sigma", "0.3", "--gamma", "0.6", *common, "--out", str(outs[1])) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_every_model_flag_is_a_config_key(self):
        delay = ModelSpec(drift=sample_delay_drift(np.random.default_rng(0)), sigma=0.3, gamma=0.6)
        keys = {
            line.partition("=")[0]
            for spec in (ckls_model(1.0, 2.0, 0.3, 0.6), delay)
            for line in format_model_config(spec).splitlines()
        }
        dests = set(vars(build_parser().parse_args(["simulate", "--n", "1", "--out", "x.csv"])))
        # the flags read as config lines are exactly the simulate flags named after a config key
        assert set(_MODEL_FLAGS) == dests & keys

    def test_missing_key_is_named_with_its_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--model", "cir", "--a", "1", "--b", "1", "--n", "10", "--out", "x.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "missing config key 'sigma'" in err and "--sigma" in err and "--config" in err

    def test_term_vector_of_another_length_is_usage_error_naming_it(self, tmp_path, capsys):
        spec = ModelSpec(drift=sample_delay_drift(np.random.default_rng(0)), sigma=0.3, gamma=0.6)
        n = spec.drift.n_terms
        text = format_model_config(spec) + "term_b=" + ",".join(["0.5"] * (n + 1)) + "\n"
        cfg, out = write_csv(tmp_path, "model.cfg", text), tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--config", str(cfg), "--y0", "1", "--n", "10", "--out", str(out))
        assert exc.value.code == 2
        assert f"parameter vector 'b' has length {n + 1}, expected {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_term_is_usage_error_naming_it(self, tmp_path, capsys):
        spec = ModelSpec(drift=sample_delay_drift(np.random.default_rng(0)), sigma=0.3, gamma=0.6)
        text = format_model_config(spec) + "term_a=" + ",".join(["nan"] * spec.drift.n_terms) + "\n"
        cfg, out = write_csv(tmp_path, "model.cfg", text), tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--config", str(cfg), "--y0", "1", "--n", "10", "--out", str(out))
        assert exc.value.code == 2
        assert "parameter vector 'a' must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--config", str(tmp_path / "nope.cfg"), "--y0", "1", "--n", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "--config: cannot read file" in capsys.readouterr().err

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p.csv"
        assert run_cli("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
                       "--y0", "1", "--n", "10", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_bad_config_file_is_usage_error(self, tmp_path):
        cfg = write_csv(tmp_path, "model.cfg", "model=banana\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--config", str(cfg), "--y0", "1", "--n", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
             "--n", "1", "--out", "x.csv"),
            ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
             "--gamma", "1.5", "--n", "10", "--out", "x.csv"),
            ("simulate", "--model", "ckls", "--a", "1", "--b", "1", "--sigma", "0.3",
             "--n", "10", "--out", "x.csv"),  # ckls without gamma
            ("simulate", "--model", "cir", "--sigma", "0.3", "--n", "10", "--out", "x.csv"),
            ("simulate", "--n", "10", "--out", "x.csv"),  # neither model nor config
            ("simulate", "--model", "cir", "--a", "-1", "--b", "1", "--sigma", "0.3",
             "--y0", "1", "--n", "10", "--out", "x.csv"),
            ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "nan",
             "--y0", "1", "--n", "10", "--out", "x.csv"),
            ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
             "--y0", "nan", "--n", "10", "--out", "x.csv"),
            ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
             "--n", "10", "--delay-rule", "scaled", "--out", "x.csv"),  # a removed flag
            ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3",
             "--n", "10", "--stop-ratio", "0.5", "--out", "x.csv"),  # a removed flag: the stop rule is fixed
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


class TestEstimateCsv:
    """cli._estimate_csv, the header and row that ``pathvol estimate`` prints."""

    def test_csv_row_full_precision(self):
        result = EstimateResult(gamma_hat=0.6, sigma_hat=1 / 3, grid=np.arange(1, 31) / 30)
        row = cli._estimate_csv("joint-variance", result).splitlines()[1]
        assert row.startswith("joint-variance,0.59999999999999998,0.33333333333333331,30,")

    def test_csv_row_empty_fields_for_missing(self):
        row = cli._estimate_csv("gamma-ratio", EstimateResult(gamma_hat=0.5)).splitlines()[1]
        assert row == "gamma-ratio,0.5,,,"

    def test_header_matches_row_arity(self):
        header, row = cli._estimate_csv("x", EstimateResult()).split("\n")
        assert row.count(",") == header.count(",")


class TestEstimate:
    def test_known_power_scale_from_two_point_path(self, tmp_path, capsys):
        src = write_csv(tmp_path, "two.csv", "t,y\n0,1\n0.01,1.1\n")
        assert run_cli(
            "estimate", "--in", str(src), "--method", "sigma-known-gamma", "--gamma", "1"
        ) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0] == "method,gamma_hat,sigma_hat,grid_n,objective_min"
        fields = out_lines[1].split(",")
        assert fields[0] == "sigma-known-gamma"
        assert float(fields[2]) == pytest.approx(0.997513451195927, rel=1e-13, abs=0)

    def test_simulate_then_estimate_round_trip(self, tmp_path, capsys):
        src = tmp_path / "path.csv"
        assert run_cli(
            "simulate", "--model", "ckls", "--a", "1", "--b", "1", "--sigma", "0.3",
            "--gamma", "0.6", "--y0", "1", "--n", "20000", "--seed", "5",
            "--out", str(src),
        ) == 0
        curve = tmp_path / "curve.csv"
        assert run_cli(
            "estimate", "--in", str(src), "--method", "joint", "--curve", str(curve)
        ) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        gamma_hat, sigma_hat = float(row[1]), float(row[2])
        assert abs(gamma_hat - 0.6) < 0.15
        assert abs(sigma_hat - 0.3) < 0.05
        # each grid search's curve file: a header, then every (candidate, objective) pair bit for bit
        path = read_path_csv(src)
        for method, known, rows in [
            (METHOD_GAMMA_RATIO, {}, 300),
            (METHOD_JOINT_VARIANCE, {}, 30),
            (METHOD_GAMMA_KNOWN_SIGMA, {"sigma": 0.3}, 30),
        ]:
            flags = [f"--{name}={value}" for name, value in known.items()]
            assert run_cli("estimate", "--in", str(src), "--method", method, *flags, "--curve", str(curve)) == 0
            header, *lines = curve.read_text().splitlines()
            assert header == "h,objective" and len(lines) == rows
            grid, objective = np.array([[float(field) for field in line.split(",")] for line in lines]).T
            result = EstimatorSpec(method, **known).result(path)
            assert grid.tobytes() == result.grid.tobytes()
            assert objective.tobytes() == result.objective.tobytes()

    def test_integrated_method(self, tmp_path, capsys):
        src = write_csv(tmp_path, "two.csv", "t,y\n0,1\n0.01,1.1\n")
        assert run_cli(
            "estimate", "--in", str(src), "--method", "integrated", "--gamma", "1"
        ) == 0
        fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert fields[0] == "integrated-sigma-sq"
        assert float(fields[2]) == pytest.approx(0.997513451195927, rel=1e-13, abs=0)

    def test_malformed_csv_exit_2_names_line(self, tmp_path, capsys):
        src = write_csv(tmp_path, "bad.csv", "t,y\n0,1\nbad,row\n")
        err = assert_estimate_usage_error("--in", str(src), "--method", "joint", capsys=capsys)
        assert f"error: --in {src}: line 3: " in err

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"t,y\n0,1\n0.5,2\xc3\xa9\n", "line 3: non-ASCII byte 0xc3"),
            (b"\xef\xbb\xbft,y\n0,1\n0.5,2\n", "line 1: non-ASCII byte 0xef"),
        ],
        ids=["utf8-letter", "bom"],
    )
    def test_non_ascii_csv_exit_2_names_line(self, tmp_path, capsys, data, message):
        src = tmp_path / "bad.csv"
        src.write_bytes(data)
        err = assert_estimate_usage_error(
            "--in", str(src), "--method", "integrated", "--gamma", "0.5", capsys=capsys
        )
        assert err.endswith(f"pathvol estimate: error: --in {src}: {message}\n")

    def test_missing_file_exit_2(self, tmp_path, capsys):
        err = assert_estimate_usage_error("--in", str(tmp_path / "nope.csv"), "--method", "joint", capsys=capsys)
        assert "error: --in: cannot read file: " in err and "nope.csv" in err

    def test_unwritable_curve_exit_1(self, tmp_path, capsys):
        src = write_csv(tmp_path, "path.csv", "t,y\n0,1\n0.5,1.2\n1,0.9\n")
        curve = tmp_path / "missing" / "c.csv"
        assert run_cli("estimate", "--in", str(src), "--method", "joint", "--curve", str(curve)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "c.csv" in err

    @pytest.mark.parametrize("method", ["sigma-known-gamma", "integrated", "integrated-sigma-sq"])
    def test_curve_without_a_search_is_a_usage_error(self, tmp_path, capsys, method):
        # refused before the input is read: the missing file goes unreported
        curve = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "estimate", "--in", str(tmp_path / "nope.csv"), "--method", method,
                "--gamma", "0.6", "--curve", str(curve),
            )
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "cannot read" not in err
        assert "--curve needs a grid search method: gamma-ratio, joint-variance, gamma-known-sigma" in err
        assert not curve.exists()

    def test_overflowing_time_span_exit_2_names_line(self, tmp_path, capsys):
        src = write_csv(tmp_path, "wide.csv", "t,y\n-1e308,1\n1e308,2\n")
        err = assert_estimate_usage_error("--in", str(src), "--method", "joint", capsys=capsys)
        assert err.endswith(f"pathvol estimate: error: --in {src}: line 3: time span is not finite\n")

    @pytest.mark.parametrize("name, param", FOREIGN_FLAGS)
    def test_flag_the_method_does_not_read_is_a_usage_error(self, tmp_path, capsys, name, param):
        # refused before the input is read: the missing file goes unreported
        method = cli._METHOD_ALIASES.get(name, name)
        own = [arg for p in METHODS[method].required for arg in (f"--{p}", *FLAG_VALUES[p])]
        flag = "--" + param.replace("_", "-")
        err = assert_estimate_usage_error(
            "--in", str(tmp_path / "nope.csv"), "--method", name, *own, flag, *FLAG_VALUES[param], capsys=capsys
        )
        assert err.endswith(f"pathvol estimate: error: {method} takes no {param} parameter\n")

    def test_scale_that_underflows_exit_1(self, tmp_path, capsys):
        # a path that is not constant, whose sigma estimate sqrt(2e-320 / 2e10) underflows to 0
        src = write_csv(tmp_path, "tiny.csv", "t,y\n0,1e-150\n1e10,1.0000000001e-150\n2e10,1e-150\n")
        assert run_cli("estimate", "--in", str(src), "--method", "sigma-known-gamma", "--gamma", "0") == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: scale estimate is not finite and > 0: 0.0\n"

    def test_constant_path_exit_1(self, tmp_path, capsys):
        src = write_csv(tmp_path, "flat.csv", "t,y\n0,5\n0.5,5\n1,5\n")
        assert run_cli("estimate", "--in", str(src), "--method", "joint") == 1
        assert "error" in capsys.readouterr().err

    def test_constant_path_known_gamma_warns_zero(self, tmp_path, capsys):
        src = write_csv(tmp_path, "flat.csv", "t,y\n0,5\n0.5,5\n1,5\n")
        assert run_cli(
            "estimate", "--in", str(src), "--method", "sigma-known-gamma", "--gamma", "0.5"
        ) == 0
        captured = capsys.readouterr()
        assert "zero-variance" in captured.err
        assert float(captured.out.strip().splitlines()[1].split(",")[2]) == 0.0

    def test_constant_path_integrated_warns_zero(self, tmp_path, capsys):
        src = write_csv(tmp_path, "flat.csv", "t,y\n0,5\n0.5,5\n1,5\n")
        assert run_cli("estimate", "--in", str(src), "--method", "integrated", "--gamma", "0.5") == 0
        captured = capsys.readouterr()
        assert "zero-variance" in captured.err
        fields = captured.out.strip().splitlines()[1].split(",")
        assert fields[0] == "integrated-sigma-sq" and float(fields[2]) == 0.0

    def test_every_estimator_parameter_is_a_flag(self):
        dests = set(vars(build_parser().parse_args(["estimate", "--in", "x.csv", "--method", "joint"])))
        assert {name for m in METHODS.values() for name in (*m.required, *m.defaults)} <= dests

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--in", "x.csv", "--method", "sigma-known-gamma"),  # no gamma
            ("estimate", "--in", "x.csv", "--method", "gamma-known-sigma"),  # no sigma
            ("estimate", "--in", "x.csv", "--method", "maximum-likelihood"),
            ("estimate", "--in", "x.csv", "--method", "gamma-ratio", "--h1", "0.5", "--h2", "0.5"),
            ("estimate", "--in", "x.csv", "--method", "joint", "--grid-n", "40"),  # no such flag
            ("estimate", "--in", "x.csv", "--method", "sigma-known-gamma", "--gamma", "2"),
            ("estimate", "--in", "x.csv", "--method", "gamma-known-sigma", "--sigma", "0"),
            ("estimate", "--in", "x.csv", "--method", "joint", "--search-range", "1", "0.5"),
            ("estimate", "--in", "x.csv", "--method", "gamma-ratio", "--search-range", "0.5", "1.5"),
            ("estimate", "--in", "x.csv", "--method", "joint", "--search-range", "0.5"),
            # a removed flag: sigma-known-gamma estimates at h = gamma
            ("estimate", "--in", "x.csv", "--method", "sigma-known-gamma", "--gamma", "0.5", "--h", "0.5"),
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


    @pytest.mark.parametrize("method", ["sigma-known-gamma", "integrated"])
    def test_underflowing_increment_sum_exit_1(self, tmp_path, capsys, method):
        # every dy**2 underflows to 0 at gamma = 0, yet the path varies: no zero-variance warning
        src = write_csv(tmp_path, "tiny.csv", "t,y\n0,1e-200\n0.01,2e-200\n0.02,1.5e-200\n")
        assert run_cli("estimate", "--in", str(src), "--method", method, "--gamma", "0") == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: increment sum underflows to 0 on a path that is not constant\n"

    @pytest.mark.parametrize("sigma", ["1e-100", "1e-200"])
    def test_level_term_out_of_float_range_exit_1(self, tmp_path, capsys, sigma):
        # (v_bar / (delta * sigma**2) - 1) ** 2 overflows, or delta * sigma**2 underflows to 0
        src = write_csv(tmp_path, "four.csv", "t,y\n0,1\n0.01,1.1\n0.02,1.05\n0.03,1.2\n")
        assert run_cli("estimate", "--in", str(src), "--method", "gamma-known-sigma", "--sigma", sigma) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_path_prints_one_error_line(self, tmp_path, capsys):
        src = write_csv(tmp_path, "spike.csv", "t,y\n0,1\n0.5,1e200\n1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would print before the error
            code = run_cli("estimate", "--in", str(src), "--method", "sigma-known-gamma", "--gamma", "0.5")
        assert code == 1
        assert capsys.readouterr().err == "error: increment sum is not finite\n"

    def test_overflowing_probe_sum_of_the_ratio_search_prints_one_error_line(self, tmp_path, capsys):
        # (dy / y)**2 overflows at the first step, so the h2 = 1 probe sum is not finite
        src = write_csv(tmp_path, "steep.csv", "t,y\n0,1e-300\n0.25,1e-140\n0.5,2e-140\n0.75,1.5e-140\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("estimate", "--in", str(src), "--method", "gamma-ratio")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: increment sum is not finite\n"

    @pytest.mark.parametrize(
        "method", [("joint-variance",), ("gamma-known-sigma", "--sigma", "0.3")], ids=lambda m: m[0]
    )
    def test_underflowing_mean_prints_one_error_line(self, tmp_path, capsys, method):
        # the mean of v[h] underflows to 0 while one v[h, k] is a subnormal
        rows = "0,1e-292\n0.01,1e-292\n0.02,1e-292\n0.03,1.0000000000000003e-292\n"
        src = write_csv(tmp_path, "tiny.csv", "t,y\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("estimate", "--in", str(src), "--method", *method)
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: objective is not finite at candidate 0.033333333333333333\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("experiment", "--table", "t1a", "t2", "--out", "x.csv"),
        ("estimate", "--in", "nope.csv", "--method", "gamma-known-sigma", "--sigma", "0"),
        ("simulate", "--n", "1", "--out", "x.csv"),
        # an --in file that cannot be read, and one that is malformed
        ("estimate", "--in", "{tmp}/nope.csv", "--method", "joint"),
        ("estimate", "--in", "{tmp}/bad.csv", "--method", "joint"),
    ],
    ids=["experiment", "estimate", "simulate", "estimate-missing-in", "estimate-malformed-in"],
)
def test_usage_error_shows_the_subcommand_usage(argv, tmp_path, capsys):
    write_csv(tmp_path, "bad.csv", "t,y\n0,1\nbad,row\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: pathvol {argv[0]} ")
    assert f"pathvol {argv[0]}: error: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--model", "cir", "--a", "1", "--b", "1", "--sigma", "0.3", "--n", "10", "--out", "x.csv"),
        ("experiment", "--table", "t1a", "--trials", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", "-1")
    assert exc.value.code == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_main_calls_share_no_parsed_state(monkeypatch):
    # main() parses with one parser; a handler that consumes its arguments in place leaks nothing
    seen = []

    def consume(args, parser):
        seen.append((tuple(args.table), args.trials))
        if isinstance(args.table, list):
            args.table.clear()

    monkeypatch.setattr(cli, "cmd_experiment", consume)
    assert main(["experiment", "--table", "t2", "--trials", "3"]) == 0
    assert main(["experiment"]) == 0
    with pytest.raises(SystemExit):
        main(["experiment", "--table", "t9"])
    assert main(["experiment", "--seed", "4"]) == 0
    assert seen == [(("t2",), 3), (TABLE_IDS, 1000), (TABLE_IDS, 1000)]


class TestExperiment:
    def test_small_table_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "t1b.csv"
        assert run_cli(
            "experiment", "--table", "t1b", "--trials", "2", "--out", str(out)
        ) == 0
        assert "table t1b" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "row_id,rmse,mae,bias,paper_rmse,paper_mae,paper_bias,ratio"
        assert len(lines) == 5

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        assert run_cli("experiment", "--table", "t1a", "--trials", "2", "--out", str(out)) == 1
        stdout, err = capsys.readouterr()
        # refused before the table runs: no report on stdout, no wall time on stderr
        assert stdout == "" and err.startswith("error: ") and "t.csv" in err and "table t1a" not in err

    def test_all_trials_failing_exit_1(self, monkeypatch, capsys):
        def degenerate(path, **kwargs):
            raise DegeneratePathError("flat path")

        monkeypatch.setattr("pathvol.estimators.sigma_known_gamma", degenerate)
        assert run_cli("experiment", "--table", "t1a", "--trials", "3") == 1
        assert "error: all 3 trials failed" in capsys.readouterr().err

    def test_trials_must_be_positive(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--table", "t1b", "--trials", "0")
        assert exc.value.code == 2

    def test_unknown_table_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--table", "t7")
        assert exc.value.code == 2

    def test_each_table_runs_whole_with_its_wall_time(self, capsys):
        assert run_cli("experiment", "--table", "t1a", "t1b", "--trials", "2") == 0
        captured = capsys.readouterr()
        assert "table t1a (2 trials per row)" in captured.out and "table t1b (2 trials per row)" in captured.out
        assert "table t1a: " in captured.err and "table t1b: " in captured.err

    def test_out_with_several_tables_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--table", "t1a", "t1b", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2

    def test_no_row_filter_of_its_own(self, capsys):
        # a table runs whole; --trials and --table are the fast pass
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--max-steps", "250", "--trials", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-steps" in capsys.readouterr().err
        assert not hasattr(experiment, "TABLE_STEPS")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("estimate", "--in", "x.csv", "--method", "integrated", "--gam", "0.6"), "--gam"),
        (("simulate", "--model", "cir", "--sig", "0.3", "--n", "10", "--out", "x.csv"), "--sig"),
        (("experiment", "--table", "t1a", "--tri", "2"), "--tri"),
        # a removed flag is refused as unknown, not as a prefix of --h1 and --h2
        (("estimate", "--in", "x.csv", "--method", "sigma-known-gamma", "--gamma", "0.6", "--h", "0.6"), "--h"),
    ],
    ids=("gam", "sig", "tri", "h"),
)
def test_flag_prefixes_are_unrecognized(argv, prefix, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {prefix} " in err
    assert err.startswith(f"usage: pathvol {argv[0]} ")  # the subcommand's usage, not the top parser's


def test_python_m_pathvol_runs_the_command_line(tmp_path):
    src = str(Path(pathvol.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pathvol", *argv], env=env, capture_output=True, text=True)

    usage = run("--help")
    assert usage.returncode == 0 and usage.stdout.startswith("usage: pathvol")
    table = run("experiment", "--table", "t1a", "--trials", "2")
    assert table.returncode == 0 and "table t1a (2 trials per row)" in table.stdout
    missing = run("estimate", "--in", str(tmp_path / "nope.csv"), "--method", "joint")
    assert missing.returncode == 2 and missing.stderr.startswith("usage: pathvol estimate ")
    assert "cannot read" in missing.stderr
