"""Tests of the benchmark's own arithmetic, inputs and tracer.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 500), (99, 500), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert measure.tail_permille(n) == expected


def test_p90_of_100_samples_leaves_exactly_ten_beyond():
    values = list(range(1, 101))
    assert measure.percentile(values, 900) == 90
    assert measure.samples_beyond(100, 900) == 10
    assert sum(v > measure.percentile(values, 900) for v in values) == 10


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 500) == 3.0
    assert measure.percentile(values, 999) == 5.0
    assert measure.label(999) == "p99.9" and measure.label(900) == "p90"


# ---------------------------------------------------------------------------
# self-time arithmetic on hand-built spans


def _hand_built():
    # 0 root [0, 10]
    #   1 child [1, 4]
    #     2 grandchild [2, 3]
    #   3 child [5, 9]
    # 4 second root [11, 12]
    names = ["a", "b", "c"]
    arrays = {
        "name_id": np.array([0, 1, 2, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0, 12.0]),
        "parent": np.array([-1, 0, 1, 0, -1]),
        "desc": np.array([3, 1, 0, 0, 0]),
    }
    return names, arrays


def test_self_time_subtracts_direct_children_only():
    _, a = _hand_built()
    own = spans.self_times(a["start"], a["end"], a["parent"])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    top = a["parent"] < 0
    assert own.sum() == pytest.approx((a["end"] - a["start"])[top].sum())


def test_summary_aggregates_by_name_and_corrects_for_span_cost():
    names, a = _hand_built()
    raw = spans.summarize(a, names, span_cost=0.0)
    assert raw["a"] == {"calls": 2, "busy_raw": 11.0, "self_raw": 4.0, "busy": 11.0, "self": 4.0}
    assert raw["b"]["busy"] == 7.0 and raw["b"]["self"] == 6.0
    corr = spans.summarize(a, names, span_cost=0.5)
    # root: 3 descendants, 2 children; span 1: 1 descendant, 1 child
    assert corr["a"]["busy"] == pytest.approx(11.0 - 0.5 * 3)
    assert corr["a"]["self"] == pytest.approx(4.0 - 0.5 * 2)
    assert corr["b"]["busy"] == pytest.approx(7.0 - 0.5 * 1)
    assert corr["c"]["self"] == 1.0


def test_tracer_records_nesting_and_descendants():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap(leaf, "m.leaf")

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    assert tracer.wrap(outer, "m.outer")(1) == 3
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name_id"]] == ["m.outer", "m.leaf", "m.leaf"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["desc"].tolist() == [2, 0, 0]
    assert np.all(a["end"] >= a["start"])


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs_another_seed_different(workload):
    first = [workloads.session_input(workload, 7, i) for i in range(12)]
    again = [workloads.session_input(workload, 7, i) for i in range(12)]
    other = [workloads.session_input(workload, 8, i) for i in range(12)]
    assert first == again
    assert first != other


def test_mc_sessions_cycle_with_fresh_master_seeds():
    cycle = workloads.MC_CYCLES["mc_highfreq"]
    sessions = [workloads.session_input("mc_highfreq", 0, i) for i in range(2 * len(cycle))]
    shapes = [tuple((c.table, c.n_steps, c.rows) for c in s.calls) for s in sessions]
    assert shapes == 2 * list(cycle)
    assert [s.rows for s in sessions] == [2] * len(sessions)
    coarse = workloads.session_input("mc_coarse", 0, 0)
    seeds = [call.master_seed for s in sessions + [coarse] for call in s.calls]
    assert len(set(seeds)) == len(seeds)


# ---------------------------------------------------------------------------
# wrappers


def test_untraced_session_leaves_no_wrapper_and_tracer_restores_originals(tmp_path):
    modules = spans.pathvol_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    session = workloads.McSession((workloads.McCall("t3", (250,), 1, 12345),))
    outcome = workloads.execute(session, tmp_path)
    assert workloads.check(session, outcome, None, tmp_path) == (0, [])
    assert spans.installed_wrappers(modules) == []

    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert "pathvol.experiment.euler_maruyama" in spans.installed_wrappers(modules)
        assert "pathvol.simulate.eval_drift" in spans.installed_wrappers(modules)
        traced = workloads.execute(session, tmp_path)
    finally:
        tracer.uninstall()
    assert traced == outcome
    assert spans.installed_wrappers(modules) == []
    for name, mod in modules.items():
        assert {k: v for k, v in vars(mod).items() if k in before[name]} == before[name]
    names = {tracer.names[i] for i in tracer.arrays()["name_id"]}
    assert {"experiment.reproduce_table", "simulate.euler_maruyama", "model.eval_drift"} <= names


def test_golden_files_cover_each_workload():
    for workload in workloads.WORKLOADS:
        golden = workloads.load_golden(workload, workloads.DEFAULT_SEED)
        assert len(golden) >= 4 * workloads.cycle_length(workload)
    assert workloads.load_golden("mc_coarse", workloads.DEFAULT_SEED + 1) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_session_of_default_seed_matches_golden(workload, tmp_path):
    session = workloads.session_input(workload, workloads.DEFAULT_SEED, 0)
    outcome = workloads.execute(session, tmp_path)
    golden = workloads.load_golden(workload, workloads.DEFAULT_SEED)[0]
    assert workloads.check(session, outcome, golden, tmp_path) == (0, [])
    assert workloads.golden_entry(session, outcome) == golden


def test_traced_session_yields_every_per_layer_metric(tmp_path):
    import json

    import layers

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    modules = spans.pathvol_modules()
    session = workloads.session_input("single_path", 3, 0)
    tracer = spans.Tracer(layers.PROBES)
    tracer.install(modules)
    try:
        outcome = workloads.execute(session, tmp_path)
    finally:
        tracer.uninstall()
    assert workloads.check(session, outcome, None, tmp_path) == (0, [])
    arrays = tracer.arrays()
    summary = spans.summarize(arrays, tracer.names, 0.0)
    top = float(np.sum((arrays["end"] - arrays["start"])[arrays["parent"] < 0]))
    raised = dict(zip(tracer.names, tracer.raised))
    m = layers.metrics(summary, arrays, tracer.counters, raised, top, top, 0.0, top)
    assert sorted(m) == sorted(x["name"] for x in spec["per_layer"])
    assert m["cli.main.calls"] == 6 and m["simulate.read_path_csv.calls"] == 5
    assert m["simulate.euler_maruyama.steps"] == workloads.SP_STEPS
    assert m["simulate.euler_maruyama.us_per_step_affine"] > 0 == m["simulate.euler_maruyama.us_per_step_delay5"]
    assert m["bench.self_share"] == pytest.approx(0.0, abs=1e-9)
