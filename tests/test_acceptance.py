"""End-to-end acceptance: every criterion at its stated tolerance.

Each test prints one pass/fail line; the full module doubles as the
acceptance report when run with `pytest -s tests/test_acceptance.py`.
"""

import time

from jetcalc.cli import SuiteConfig, run_suite

CFG = SuiteConfig(seed=7)

_results = {}


def _collect(name):
    if name not in _results:
        t0 = time.time()
        rows = run_suite(name, CFG)
        _results[name] = (rows, time.time() - t0)
    return _results[name]


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.1f}s) {detail}")


def _failures(rows, prefix=""):
    return [r for r in rows if not r.passed and r.check_id.startswith(prefix)]


def test_criterion_1_tensor_law_suite():
    rows, dt = _collect("tensor-laws")
    law_tags = ("tensor/id-norm", "tensor/otimes-norm", "tensor/apply-bound",
                "tensor/opnorm-upper", "tensor/sym-contraction",
                "tensor/ins-op-1", "tensor/ins-op-2")
    counts = {t: sum(1 for r in rows if r.tag == t) for t in law_tags}
    bad = _failures(rows, "tensor/")
    ok = not bad and all(c >= 100 for c in counts.values()) and dt < 10.0
    _report("1 [tensor laws]", ok, dt,
            f"rows={len(rows)} per-law>=100: {min(counts.values())}")
    assert not bad, bad[:5]
    assert all(c >= 100 for c in counts.values()), counts
    assert dt < 10.0


def test_criterion_2_symmetrization_projection():
    rows, dt = _collect("tensor-laws")
    proj = [r for r in rows if r.tag == "tensor/sym-projection"]
    rank = [r for r in rows if r.tag == "tensor/sym-rank"]
    ok = proj and rank and all(r.passed for r in proj + rank)
    _report("2 [symmetrization projection]", ok, dt,
            f"projection rows={len(proj)} rank rows={len(rank)}")
    assert ok


def test_criterion_3_taylor_oracle():
    rows, dt = _collect("taylor")
    fd = [r for r in rows if r.tag == "taylor/fd-agreement"]
    ok = fd and all(r.passed for r in fd) and dt < 5.0
    _report("3 [series vs finite differences]", ok, dt, f"fd rows={len(fd)}")
    assert ok, [r.check_id for r in fd if not r.passed][:5]


def test_criterion_4_metric_connection():
    rows, dt = _collect("geometry")
    tags = ("geometry/metric-parallel", "geometry/torsion-free",
            "geometry/sphere-coefficients")
    sel = [r for r in rows if r.tag in tags]
    ok = sel and all(r.passed for r in sel)
    # independent symbolic cross-check of the sphere-chart coefficients
    import sympy as sp
    th, ph = sp.symbols("th ph")
    g = sp.Matrix([[1, 0], [0, sp.sin(th) ** 2]])
    gi = g.inv()
    from jetcalc.scenarios import builtin_scenario
    scn = builtin_scenario("sphere-chart")
    geo = scn.chart_at(cap=6)
    point = dict(zip((th, ph), scn.base_points[0]))
    worst = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = float(sum(
                    gi[i, l] * (sp.diff(g[l, k], (th, ph)[j])
                                + sp.diff(g[l, j], (th, ph)[k])
                                - sp.diff(g[j, k], (th, ph)[l]))
                    for l in range(2)).subs(point) / 2)
                worst = max(worst, abs(geo.gamma.data[0][i, j, k] - want))
    ok = ok and worst < 1e-10
    _report("4 [metric connection]", ok, dt, f"oracle gap={worst:.2e}")
    assert ok


def test_criterion_5_submersion_identities():
    rows, dt = _collect("submersion")
    bad = _failures(rows)
    scen_cover = {r.check_id.split("/")[2] for r in rows
                  if r.tag.startswith("submersion/")}
    ok = not bad and len(scen_cover) >= 3 and dt < 60.0
    _report("5 [submersion identities]", ok, dt,
            f"rows={len(rows)} scenarios={sorted(scen_cover)}")
    assert ok, bad[:5]


def test_criterion_6_recursion_expansions():
    rows, dt = _collect("recursions")
    exp_rows = [r for r in rows if "expansion" in r.tag or "inverse" in r.tag
                or "roundtrip" in r.tag]
    bad = [r for r in exp_rows if not r.passed]
    fams = {r.tag.split("/")[1].split("-")[0] for r in exp_rows}
    ok = (not bad and dt < 300.0
          and fams >= {"P", "V", "H", "Vstar", "L", "D", "C", "PB", "CONN"})
    _report("6 [derivative exchange recursions]", ok, dt,
            f"rows={len(exp_rows)} families={sorted(fams)}")
    assert ok, (bad[:5], dt)


def test_criterion_7_growth_template():
    rows, dt = _collect("recursions")
    growth = [r for r in rows if r.tag.endswith("growth-coverage")]
    ok = len(growth) == 7 and all(r.passed for r in growth)
    _report("7 [growth template]", ok, dt,
            "; ".join(r.inputs for r in growth[:2]))
    assert ok, [r.check_id for r in growth if not r.passed]


def test_criterion_8_analyticity_certificates():
    rows, dt = _collect("seminorms")
    radii = [r for r in rows if r.tag.startswith("seminorms/radius")]
    ok = len(radii) == 3 and all(r.passed for r in radii)
    _report("8 [analyticity certificates]", ok, dt,
            "; ".join(f"{r.tag.split('/')[-1]}: {r.inputs}" for r in radii))
    assert ok, [(r.check_id, r.inputs) for r in radii]


def test_criterion_9_metric_independence():
    rows, dt = _collect("connection-compare")
    fam = [r for r in rows if r.tag == "compare/jet-norm-families"]
    loc = [r for r in rows if r.tag == "compare/local-intrinsic"]
    ok = (len(fam) >= 10 and len(loc) >= 10
          and all(r.passed for r in fam + loc))
    _report("9 [metric independence]", ok, dt,
            f"sections={len(fam)} local-vs-intrinsic={len(loc)}")
    assert ok


def test_criterion_10_continuity_kernels():
    rows, dt = _collect("continuity")
    need = {"continuity/add-triangle": 10,
            "continuity/compose-envelope": 250,
            "continuity/jet-envelope": 12,
            "continuity/pullback-chain": 6,
            "continuity/tangent-decomposition": 8}
    counts = {t: sum(1 for r in rows if r.tag == t) for t in need}
    lift_tags = [r for r in rows if r.tag.startswith("continuity/lift-bounds")]
    bad = _failures(rows)
    ok = (not bad and len(lift_tags) == 7
          and all(counts[t] >= n for t, n in need.items()))
    _report("10 [continuity kernels]", ok, dt, f"counts={counts}")
    assert ok, (bad[:5], counts)


def test_criterion_11_determinism(tmp_path):
    import subprocess
    import sys
    t0 = time.time()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        res = subprocess.run(
            [sys.executable, "-m", "jetcalc.cli", "verify", "all",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=1800)
        assert res.returncode == 0, res.stderr[-2000:]
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _report("11 [determinism]", ok, time.time() - t0,
            f"report bytes={len(outs[0])}")
    assert ok


def test_check_matrix_coverage_manifest():
    """Every advertised check tag is emitted by its suite."""
    from jetcalc.suites import CHECK_MANIFEST
    missing = {}
    for suite, want in CHECK_MANIFEST.items():
        rows, _ = _collect(suite)
        got = {r.tag for r in rows}
        lost = sorted(set(want) - got)
        if lost:
            missing[suite] = lost
    assert not missing, missing
