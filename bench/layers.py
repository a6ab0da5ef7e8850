"""Per-layer figures from a traced pass: probes on wrapped calls, then metrics.

A probe runs after a wrapped call returns and adds work counts (steps,
points, bytes, argmins at a grid end) to the tracer's counters, so that
ratios such as microseconds per step are measured where the work happens.
"""
from __future__ import annotations

import os

import numpy as np

from spans import TRACED_MODULES

ESTIMATORS = ("joint_estimate", "gamma_ratio_estimate", "gamma_known_sigma", "sigma_known_gamma", "integrated_sigma_sq")
GRID_SEARCHES = ("joint_estimate", "gamma_ratio_estimate", "gamma_known_sigma")


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _add(counters, key, amount) -> None:
    counters[key] = counters.get(key, 0) + amount


# Drift kinds whose per-step cost the ROADMAP baseline quotes.
EULER_KINDS = {"affine": 0, "delay5": 5}


def _euler(counters, span, args, kwargs, path) -> None:
    _add(counters, "simulate.euler_maruyama.steps", len(path.values) - 1)
    _add(counters, "simulate.euler_maruyama.early_stops", int(path.stopped_early))
    _add(counters, "simulate.euler_maruyama.positivity_fixes", path.positivity_fixes)
    drift = (args[0] if args else kwargs["model"]).drift
    terms = getattr(drift, "n_terms", 0)
    counters.setdefault("simulate.euler_maruyama.by_call", []).append((span, terms, len(path.values) - 1))


def _aux(counters, span, args, kwargs, result) -> None:
    _add(counters, "auxprocess.compute_aux.points", len(_path_arg(args, kwargs).values) - 1)


def _grid_probe(name):
    def probe(counters, span, args, kwargs, result) -> None:
        points = len(_path_arg(args, kwargs).values) - 1
        _add(counters, f"{name}.point_candidates", points * result.grid_n)
        _add(counters, f"{name}.results", 1)
        curve = result.objective_curve
        if curve and result.gamma_hat in (curve[0][0], curve[-1][0]):
            _add(counters, f"{name}.edge_argmins", 1)

    return probe


def _run_experiment(counters, span, args, kwargs, stats) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    _add(counters, "experiment.trials", cfg.trials)
    _add(counters, "experiment.failures", stats.failures)


def _bytes_probe(name, position, keyword):
    def probe(counters, span, args, kwargs, result) -> None:
        target = args[position] if len(args) > position else kwargs.get(keyword)
        if isinstance(target, (str, os.PathLike)):
            _add(counters, f"{name}.bytes", os.path.getsize(target))

    return probe


PROBES = {
    "simulate.euler_maruyama": _euler,
    "auxprocess.compute_aux": _aux,
    "experiment.run_experiment": _run_experiment,
    "simulate.write_path_csv": _bytes_probe("simulate.write_path_csv", 1, "dest"),
    "simulate.read_path_csv": _bytes_probe("simulate.read_path_csv", 0, "src"),
    **{f"estimators.{fn}": _grid_probe(f"estimators.{fn}") for fn in GRID_SEARCHES},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _us_per_step_by_kind(arrays, span_cost, calls) -> dict[str, float]:
    """Corrected simulator microseconds per step for each kind in EULER_KINDS."""
    span, terms, steps = np.array(calls, dtype=np.int64).reshape(-1, 3).T
    busy = arrays["end"][span] - arrays["start"][span] - span_cost * arrays["desc"][span]
    return {
        kind: _ratio(float(busy[terms == n].sum()) * 1e6, int(steps[terms == n].sum()))
        for kind, n in EULER_KINDS.items()
    }


def metrics(summary, arrays, counters, raised, wall_untraced, wall_traced, span_cost, top_raw) -> dict[str, float]:
    """Every per-layer figure of a traced pass.

    Shares are taken of the corrected traced wall: the traced wall minus
    the calibrated cost of every span, which is what the untraced pass
    would have taken if the correction were exact.
    """
    zero = {"calls": 0, "busy": 0.0, "self": 0.0, "busy_raw": 0.0, "self_raw": 0.0}

    def s(name):
        return summary.get(name, zero)

    def layer_self(layer):
        return sum(v["self"] for k, v in summary.items() if k.startswith(layer + "."))

    n_spans = len(arrays["start"])
    wall = wall_traced - span_cost * n_spans
    m: dict[str, float] = {}
    em = s("simulate.euler_maruyama")
    steps = counters.get("simulate.euler_maruyama.steps", 0)
    m["simulate.euler_maruyama.calls"] = em["calls"]
    m["simulate.euler_maruyama.busy_s"] = em["busy"]
    m["simulate.euler_maruyama.self_s"] = em["self"]
    m["simulate.euler_maruyama.steps"] = steps
    m["simulate.euler_maruyama.us_per_step"] = _ratio(em["busy"] * 1e6, steps)
    by_kind = _us_per_step_by_kind(arrays, span_cost, counters.get("simulate.euler_maruyama.by_call", []))
    for kind, value in by_kind.items():
        m[f"simulate.euler_maruyama.us_per_step_{kind}"] = value
    m["simulate.euler_maruyama.early_stops"] = counters.get("simulate.euler_maruyama.early_stops", 0)
    m["simulate.euler_maruyama.positivity_fixes"] = counters.get("simulate.euler_maruyama.positivity_fixes", 0)
    m["simulate.euler_maruyama.busy_share"] = _ratio(em["busy"], wall)
    m["simulate.euler_maruyama.self_share"] = _ratio(em["self"], wall)
    for fn in ("eval_drift", "sample_delay_drift"):
        m[f"model.{fn}.calls"] = s(f"model.{fn}")["calls"]
        m[f"model.{fn}.busy_s"] = s(f"model.{fn}")["busy"]
    estimators_busy = 0.0
    for fn in ESTIMATORS:
        name = f"estimators.{fn}"
        m[f"{name}.calls"] = s(name)["calls"]
        m[f"{name}.busy_s"] = s(name)["busy"]
        m[f"{name}.self_s"] = s(name)["self"]
        estimators_busy += s(name)["busy"]
    for fn in GRID_SEARCHES:
        name = f"estimators.{fn}"
        m[f"{name}.ns_per_point_candidate"] = _ratio(s(name)["busy"] * 1e9, counters.get(f"{name}.point_candidates", 0))
        m[f"{name}.edge_argmin_share"] = _ratio(counters.get(f"{name}.edge_argmins", 0), counters.get(f"{name}.results", 0))
        m[f"{name}.raised"] = raised.get(name, 0)
    aux = s("auxprocess.compute_aux")
    m["auxprocess.compute_aux.calls"] = aux["calls"]
    m["auxprocess.compute_aux.busy_s"] = aux["busy"]
    m["auxprocess.compute_aux.points"] = counters.get("auxprocess.compute_aux.points", 0)
    m["experiment.run_experiment.calls"] = s("experiment.run_experiment")["calls"]
    m["experiment.run_experiment.busy_s"] = s("experiment.run_experiment")["busy"]
    trials = counters.get("experiment.trials", 0)
    driver = layer_self("experiment")
    m["experiment.trials"] = trials
    m["experiment.failures"] = counters.get("experiment.failures", 0)
    m["experiment.driver_self_s"] = driver
    m["experiment.driver_us_per_trial"] = _ratio(driver * 1e6, trials)
    m["experiment.driver_estimators_share"] = _ratio(driver + estimators_busy, wall)
    csv_busy = 0.0
    for fn in ("write_path_csv", "read_path_csv"):
        name = f"simulate.{fn}"
        m[f"{name}.calls"] = s(name)["calls"]
        m[f"{name}.busy_s"] = s(name)["busy"]
        m[f"{name}.bytes"] = counters.get(f"{name}.bytes", 0)
        csv_busy += s(name)["busy"]
    m["simulate.csv_share"] = _ratio(csv_busy, wall)
    m["cli.main.calls"] = s("cli.main")["calls"]
    m["cli.main.busy_s"] = s("cli.main")["busy"]
    m["cli.self_s"] = layer_self("cli")
    layered = 0.0
    for layer in TRACED_MODULES:
        share = _ratio(layer_self(layer), wall)
        m[f"{layer}.self_share"] = share
        layered += share
    m["bench.self_share"] = 1.0 - layered
    m["trace.overhead_share"] = _ratio(wall_traced - wall_untraced, wall_untraced)
    m["trace.corrected_error_share"] = _ratio(wall - wall_untraced, wall_untraced)
    m["trace.coverage_share"] = _ratio(top_raw, wall_traced)
    m["trace.span_cost_ns"] = span_cost * 1e9
    m["trace.spans"] = n_spans
    return m
