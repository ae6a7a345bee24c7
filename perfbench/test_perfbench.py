"""Tests of the benchmark itself: metric list, seeding, spans, and the gate
catching a deliberately broken program (curvature sign flipped by a
wrapper in worker.py, the program untouched)."""

from __future__ import annotations

import json

import pytest

import calibrate
import run
import scenarios
import spans


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(scenarios.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        run.per_layer_metrics()


def test_seed_varies_coefficients_not_work():
    for workload in scenarios.WORKLOADS:
        a = scenarios.build(workload, 3)
        assert a == scenarios.build(workload, 3)
        b = scenarios.build(workload, 4)
        assert [doc for _, doc in a] != [doc for _, doc in b]
        for (op_a, doc_a), (op_b, doc_b) in zip(a, b):
            assert (op_a.name, op_a.directions, op_a.output_nodes) == \
                (op_b.name, op_b.directions, op_b.output_nodes)
            assert doc_a["integrator"] == doc_b["integrator"]
            assert doc_a["sampler"]["count"] == doc_b["sampler"]["count"]
            assert doc_a.get("blowup", {}).get("resolution") == \
                doc_b.get("blowup", {}).get("resolution")


def test_span_self_time_and_outermost_total():
    # a(0..10) > b(1..4) > a(2..3);  a(0..10) > c(5..9)
    recs = [[0, -1, "a", 0.0, 10.0, None, None],
            [1, 0, "b", 1.0, 4.0, None, None],
            [2, 1, "a", 2.0, 3.0, None, None],
            [3, 0, "c", 5.0, 9.0, None, None]]
    calls, total, self_t = spans.span_times(recs)
    assert calls["a"] == 2
    assert total["a"] == 10.0            # the nested a is inside the outer
    assert self_t["a"] == (10.0 - 3.0 - 4.0) + 1.0
    assert self_t["b"] == 2.0


def test_times_are_scaled_to_the_reference_speed():
    rep = {"wall_s": 2.0, "cpu_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 9.0}
    slow = 2 * calibrate.REFERENCE_S      # machine at half the speed
    run.normalize(rep, 0.9 * slow, 1.1 * slow)
    assert rep["calibration_s"] == pytest.approx(slow)
    assert (rep["raw_wall_s"], rep["raw_cpu_s"], rep["raw_setup_s"]) == \
        (2.0, 1.0, 0.5)
    assert (rep["wall_s"], rep["cpu_s"], rep["setup_s"]) == \
        pytest.approx((1.0, 0.5, 0.25))
    assert rep["peak_rss_mb"] == 9.0


def _front_run(tmp_path, **flags):
    work = tmp_path / ("flipped" if flags.get("flip_curvature") else "plain")
    ops = scenarios.write("blowup3d", 5, work / "scenarios")
    (work / "ops.json").write_text(scenarios.ops_to_json(ops))
    ledger = run.Ledger(ops)
    rep = run.run_rep(work, 0, oracle=True, **flags)
    ledger.check(work, 0, rep)
    return ops[0], rep, ledger


def test_correct_program_passes_gate_and_traces_layers(tmp_path):
    op, rep, ledger = _front_run(tmp_path, traced=True)
    assert (ledger.attempted, ledger.failed) == (1, 0), ledger.messages
    layers = rep["layers"]
    steps = round(scenarios.BLOWUP3D_T_END / scenarios.BLOWUP3D_STEP)
    assert layers["cli.main.calls"] == 1
    assert layers["dynamics.integrate_batch.calls"] == 1
    assert layers["dynamics.rhs_evals"] == 4 * steps
    assert layers["dynamics.row_steps"] == op.directions * steps
    assert layers["blowup.export_rows"] == op.directions * op.output_nodes
    assert layers["geometry.riemann.self_s"] > 0.0
    assert layers["normality.samples"] == 0


def test_gate_counts_a_flipped_curvature_sign(tmp_path):
    _, rep, ledger = _front_run(tmp_path, flip_curvature=True)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert any("oracle" in m for m in ledger.messages), ledger.messages
    # psi alone does not see the broken curvature term
    assert not any("max_psi" in m for m in ledger.messages)


def test_verdicts_pass_the_gate(tmp_path):
    # on this seed an S^3 drag launch from a box without the pole margin
    # of scenarios._rank_box passes within 0.15 of the chart's singular
    # circle, where RK4's error alone takes sigma3/sigma1 past 1e-6
    ops = scenarios.write("verdicts", 1303515335, tmp_path / "scenarios")
    (tmp_path / "ops.json").write_text(scenarios.ops_to_json(ops))
    ledger = run.Ledger(ops)
    ledger.check(tmp_path, 0, run.run_rep(tmp_path, 0))
    assert (ledger.attempted, ledger.failed) == (6, 0), ledger.messages
