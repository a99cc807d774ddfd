"""Tests of the benchmark's own parts: oracles on hand cases, self-time
arithmetic, the tracer, and smoke-sized rounds of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layertrace
import oracles
import steadiness
import worker
import workloads
from conftest import BENCH


def test_gram_norm_matches_einsum():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((2, 3, 2))
    grams = [np.diag([1.0, 4.0]), np.diag([1.0, 2.0, 3.0]),
             np.array([[2.0, 1.0], [1.0, 2.0]])]
    want = math.sqrt(np.einsum("abc,ad,be,cf,def->", data, *grams, data))
    assert oracles.gram_norm(data, grams) == pytest.approx(want, rel=1e-14)
    assert oracles.gram_norm(np.array(-3.0), []) == 3.0
    # strided input (a transposed map) and blocks smaller than an axis
    strided = np.ascontiguousarray(data.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert oracles.gram_norm(strided, grams, chunk=2) == pytest.approx(
        want, rel=1e-14)


def test_exp_on_flat_line_has_closed_form_jet_norms():
    from jetcalc.scenarios import builtin_scenario, function_field
    from jetcalc.seminorms import CompactSample, jet_norm_profile
    line = builtin_scenario("flat-line")
    # exp has every derivative 1 at 0; the order-j component carries 1/j!
    want = [math.sqrt(sum(1.0 / math.factorial(j) ** 2 for j in range(m + 1)))
            for m in range(4)]
    n0, n1 = oracles.section_jet01(line, ["(exp x1)"], [0.0])
    assert n0 == pytest.approx(1.0, rel=1e-12)
    assert math.hypot(n0, n1) == pytest.approx(want[1], rel=1e-9)

    def provider(x):
        bun = line.bundle_at(x, cap=5)
        return bun, function_field(bun, "(exp x1)")

    prof = jet_norm_profile(provider, CompactSample([[0.0]]), 3)
    assert prof[0] == pytest.approx(want, rel=1e-12)


def test_section_jet01_sees_the_connection():
    from jetcalc.scenarios import builtin_scenario
    tw = builtin_scenario("twisted-bundle")
    x = tw.base_points[0]
    section = ["1", "0"]                   # constant in the chart
    _n0, n1 = oracles.section_jet01(tw, section, x)
    omega = oracles.matrix_at(tw.connection, x)
    h = oracles.matrix_at(tw.fibre_metric, x)
    g_inv = np.linalg.inv(oracles.matrix_at(tw.metric, x))
    nabla = omega[:, :, 0]                 # d xi = 0, so nabla xi = omega xi
    want = math.sqrt(np.einsum("ai,bj,ab,ij->", nabla, nabla, h, g_inv))
    assert n1 == pytest.approx(want, rel=1e-9)


def test_total_space_metric_matches_program_at_the_point():
    from jetcalc.scenarios import builtin_scenario
    tw = builtin_scenario("twisted-bundle")
    x, u = tw.base_points[1], tw.fibre_points[0]
    ts = tw.total_at(x, u, cap=2)
    np.testing.assert_allclose(oracles.total_space_metric(tw, x, u),
                               ts.G_E.data[0], rtol=1e-13, atol=1e-15)


def test_self_times_on_a_nested_trace():
    spans = [(0, "root", 0.0, 10.0, None),
             (1, "a", 1.0, 4.0, 0),
             (2, "a.inner", 2.0, 3.0, 1),
             (3, "b", 5.0, 9.0, 0),
             # overlapping children are merged, not counted twice
             (4, "c", 0.0, 6.0, None),
             (5, "c1", 1.0, 4.0, 4),
             (6, "c2", 3.0, 5.0, 4)]
    got = layertrace.self_times(spans)
    assert got == {0: pytest.approx(3.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(4.0),
                   4: pytest.approx(2.0), 5: pytest.approx(3.0),
                   6: pytest.approx(2.0)}


def test_tracer_counts_contract_and_restores_the_package():
    from jetcalc import fields, taylor
    original = taylor.TaylorContext.contract
    original_lc = fields.levi_civita
    tracer = layertrace.Tracer()
    layertrace.reset_round(tracer, "r0")
    layertrace.install(tracer)
    try:
        ctx = taylor.TaylorContext(2, 2)
        a = np.ones((ctx.size(2), 3))
        b = np.ones((ctx.size(2), 3, 4))
        out = ctx.contract(a, 2, b, 2, [0], [0])
        metrics = layertrace.round_metrics(tracer, "r0")
    finally:
        tracer.uninstall()
    pairs = len(ctx.pair_arrays(2, 2, 2)[0])
    assert metrics["taylor.contract.calls"] == 1
    assert metrics["taylor.contract.pairs"] == pairs
    assert metrics["taylor.contract.madds"] == pairs * 3 * 4
    assert metrics["taylor.contract.max_out_mb"] == out.size * 8 / 2**20
    assert taylor.TaylorContext.contract is original
    assert fields.levi_civita is original_lc


@pytest.fixture
def small_workloads(monkeypatch):
    """Shrink every workload to a smoke-sized round."""
    monkeypatch.setattr(workloads, "CHECK_SUITES", ("taylor", "jets"))
    monkeypatch.setattr(workloads, "GROWTH_TABLES",
                        (("P", 2, 10), ("C", 2, 10)))
    monkeypatch.setattr(workloads, "PROFILE_ORDER", 3)
    monkeypatch.setattr(workloads, "COMPARE_ORDER", 2)
    monkeypatch.setattr(workloads, "LIFT_ORDER", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round(name, small_workloads, tmp_path):
    wl = workloads.WORKLOADS[name](7, str(tmp_path))
    wl.setup()
    tracer = layertrace.Tracer()
    layertrace.reset_round(tracer, "smoke")
    layertrace.install(tracer)
    try:
        rnd = worker.run_round(wl, tracer)
    finally:
        tracer.uninstall()
    assert rnd["attempted"] > 0
    assert rnd["failed"] == 0, rnd["errors"]
    assert rnd["problems"] == []
    metrics = layertrace.round_metrics(tracer, "smoke")
    assert set(metrics) == {m for m, _u in layertrace.LAYER_METRICS} \
        - {"trace.overhead_s"}
    assert metrics["taylor.contract.calls"] > 0
    again = worker.run_round(wl)
    assert again["attempted"] == rnd["attempted"]


@pytest.mark.parametrize("name,touched", [
    ("check-matrix", ("suites.taylor.s", "suites.jets.s", "reporting.bytes")),
    ("growth-frontier", ("recursions.build.calls", "recursions.verify.calls",
                         "recursions.growth.self_s", "recursions.map_mfloats")),
    ("jet-samples", ("seminorms.profile.calls", "jets.decompose.calls",
                     "total_space.lift.calls"))])
def test_paired_round_traces_every_layer_it_touches(name, touched,
                                                    small_workloads,
                                                    tmp_path):
    wl = workloads.WORKLOADS[name](7, str(tmp_path))
    wl.setup()
    worker.run_round(wl)                    # warm-up, as a traced run does
    tracer = layertrace.Tracer()
    layertrace.reset_round(tracer, "pair")
    plain, traced = worker.paired_round(wl, tracer)
    assert plain["attempted"] == traced["attempted"] > 0
    assert plain["problems"] == traced["problems"] == []
    metrics = layertrace.round_metrics(tracer, "pair")
    assert all(metrics[m] > 0 for m in touched), {m: metrics[m]
                                                  for m in touched}
    if name == "check-matrix":
        assert set(wl.digests) == {"taylor", "jets"}
        assert all(len(d) == 64 for d in wl.digests.values())


def test_bounds_follow_spread_and_shift():
    def cell(spreads, shift):
        return {"sets": [{"spread": s} for s in spreads], "shift": shift}
    table = {"a": {"wall_s": cell([0.04, 0.02], 0.01),
                   "setup_s": cell([0.01, 0.01], 0.02),
                   "peak_rss_mb": cell([0.0, 0.0], 0.0)},
             "b": {"wall_s": cell([0.03, 0.03], -0.10),
                   "setup_s": cell([0.02, 0.01], 0.0),
                   "peak_rss_mb": cell([0.001, 0.0], 0.0)}}
    bounds = steadiness.bounds_from(table, ["wall_s", "setup_s",
                                            "peak_rss_mb"])
    assert bounds["wall_s"] == (0.15, pytest.approx(0.15))
    assert bounds["peak_rss_mb"][0] == steadiness.MIN_BOUND
    # set-up takes the largest bound; its own need is kept
    assert bounds["setup_s"] == (0.15, pytest.approx(0.06))
    assert steadiness.agrees(table["b"]["wall_s"], 0.15)
    assert not steadiness.agrees(table["b"]["wall_s"], 0.09)
    capped = steadiness.bounds_from({"a": {"wall_s": cell([0.2, 0.1], 0.0)}},
                                    ["wall_s"])
    assert capped["wall_s"] == (steadiness.MAX_BOUND, pytest.approx(0.6))


def test_growth_memory_guard_counts_refused_tables(small_workloads,
                                                   monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "mem_available_mb", lambda: 1.0)
    wl = workloads.WORKLOADS["growth-frontier"](7, str(tmp_path))
    wl.setup()
    rnd = worker.run_round(wl)
    assert rnd["refused"] == 2
    assert rnd["failed"] == rnd["attempted"] == (2 + 3) * 2


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "jet-samples",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
