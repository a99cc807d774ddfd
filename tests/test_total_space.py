import numpy as np
import pytest

from jetcalc.fields import (FIB, PTN, TAN, BundleGeometry, ChartGeometry,
                            bracket, lie_derivative, random_field, torsion)
from jetcalc.scenarios import builtin_scenario, function_field, section_field
from jetcalc.tensor_core import CONTRA, COV
from jetcalc.total_space import (LIFT_KINDS, MapData, PullbackGeometry,
                                 TotalSpaceGeometry, lift, slot_kinds)


def flat_total():
    fl = builtin_scenario("flat")
    return fl.total_at(cap=7)


def twisted_total():
    tw = builtin_scenario("twisted-bundle")
    return tw.total_at(cap=5)


def test_flat_total_space_is_euclidean():
    ts = flat_total()
    nk = ts.n + ts.k
    assert np.allclose(ts.G_E.data[0], np.eye(nk))
    assert np.abs(ts.G_E.data[1:]).max() == 0.0
    assert np.abs(ts.gamma_E.data).max() == 0.0
    a_pi, t_pi = ts.oneill_tensors()
    assert np.abs(a_pi.data).max() == 0.0
    assert np.abs(t_pi.data).max() == 0.0
    assert np.abs(ts.b_tensor().data).max() == 0.0


def test_metric_blocks_small_example():
    # n = k = 1 with a single twisting coefficient: the cross term of the
    # metric must be h * w * u and the fibre block h
    base = ChartGeometry([0.2], 4, [["(+ 1 (* 0.5 (* x1 x1)))"]])
    bun = BundleGeometry(base, 1, [["2"]], [[["(* 0.7 x1)"]]])
    u0 = 0.9
    ts = TotalSpaceGeometry(bun, [u0])
    g00 = 1 + 0.5 * 0.2 ** 2
    w = 0.7 * 0.2
    G = ts.G_E.data[0]
    assert G[1, 1] == pytest.approx(2.0)
    assert G[0, 1] == pytest.approx(2.0 * w * u0)
    assert G[0, 0] == pytest.approx(g00 + 2.0 * (w * u0) ** 2)


def test_projectors():
    ts = twisted_total()
    nk = ts.n + ts.k
    tot = ts.hor + ts.ver
    assert np.abs(tot.data[0] - np.eye(nk)).max() < 1e-14
    assert np.abs(tot.data[1:]).max() < 1e-14
    assert np.abs(ts.hor.contract_pair(1, ts.ver, 0).data).max() < 1e-14
    mixed = ts.G_E.contract_pair(0, ts.hor, 0).contract_pair(0, ts.ver, 0)
    assert np.abs(mixed.data[0]).max() < 1e-12


def test_total_space_connection_is_levi_civita():
    ts = twisted_total()
    assert np.abs(ts.cov(ts.G_E).data[0]).max() < 1e-9
    assert np.abs(torsion(ts.gamma_E).data[0]).max() < 1e-12


def test_fibres_totally_geodesic():
    ts = twisted_total()
    _, t_pi = ts.oneill_tensors()
    assert np.abs(t_pi.data[0]).max() < 1e-12


def test_oneill_horizontal_vertical_part():
    ts = twisted_total()
    bun = ts.bundle
    X = section_field(bun, ["(+ 1 (* 0.3 x1))", "(* 0.2 x2)"],
                      slots=[(TAN, CONTRA)])
    Y = section_field(bun, ["(* 0.4 x2)", "1"], slots=[(TAN, CONTRA)])
    Xh, Yh = ts.lift(X), ts.lift(Y)
    a_pi, _ = ts.oneill_tensors()
    lhs = a_pi.contract_pair(1, Xh, 0).contract_pair(1, Yh, 0)
    rhs = ts.ver.contract_pair(1, bracket(ts, Xh, Yh), 0) * 0.5
    assert np.abs((lhs - rhs).data[0]).max() < 1e-10
    assert np.abs(lhs.data[0]).max() > 1e-4      # genuinely nonflat


def test_oneill_tensoriality_under_rescaling():
    ts = twisted_total()
    f = ts.lift_function(ts.bundle.chart.expand("(+ 1 (* 0.5 x1))"))
    Z = random_field(ts.chart, [(TAN, CONTRA)], (ts.n + ts.k,), 3)
    W = random_field(ts.chart, [(TAN, CONTRA)], (ts.n + ts.k,), 4)
    a_pi, _ = ts.oneill_tensors()
    lhs = a_pi.contract_pair(1, Z.scale_series(f.entry(())), 0) \
        .contract_pair(1, W, 0)
    rhs = a_pi.contract_pair(1, Z, 0).contract_pair(1, W, 0) \
        .scale_series(f.entry(()))
    assert np.abs((lhs - rhs).data[0]).max() < 1e-12


def test_structure_tensor_on_vertical_arguments():
    ts = twisted_total()
    xi = section_field(ts.bundle, ["(+ 1 (* 0.5 x1))", "(* 0.7 x2)"])
    xiv = ts.lift(xi)
    Z = random_field(ts.chart, [(TAN, CONTRA)], (ts.n + ts.k,), 5)
    B = ts.b_tensor()
    a_pi, _ = ts.oneill_tensors()
    lhs = B.contract_pair(1, xiv, 0).contract_pair(1, Z, 0)
    rhs = a_pi.contract_pair(1, Z, 0).contract_pair(1, xiv, 0)
    assert np.abs((lhs - rhs).data[0]).max() < 1e-10


def test_lift_coordinate_formulas():
    ts = twisted_total()
    bun = ts.bundle
    n, k = ts.n, ts.k
    X = section_field(bun, ["1", "0"], slots=[(TAN, CONTRA)])
    Xh = ts.lift(X)
    # horizontal lift: base part is X, vertical part is -omega u X
    assert np.allclose(Xh.data[0][:n], [1.0, 0.0])
    om = ts.omega.data
    want = -np.einsum("ab,b->a", om[0][:, 0, :], ts.chart.point[n:])
    assert np.allclose(Xh.data[0][n:], want, atol=1e-13)
    lam = section_field(bun, ["(* 2 x1)", "1"], slots=[(FIB, COV)])
    lame = ts.lift(lam, evaluate=True)
    x0, u0 = ts.chart.point[:n], ts.chart.point[n:]
    assert float(lame.data[0]) == pytest.approx(
        2 * x0[0] * u0[0] + u0[1], abs=1e-13)
    # vertical dual lift annihilates horizontal lifts
    lamv = ts.lift(lam)
    pair = lamv.contract_pair(0, Xh, 0)
    assert np.abs(pair.data).max() < 1e-13


def test_flat_horizontal_lift_exact():
    ts = flat_total()
    X = section_field(ts.bundle, ["(* 2 x2)", "1"], slots=[(TAN, CONTRA)])
    Xh = ts.lift(X)
    assert np.abs(Xh.data[:, ts.n:]).max() == 0.0


def test_function_lift_derivatives():
    ts = twisted_total()
    bun = ts.bundle
    f = bun.chart.expand("(* x1 (exp x2))")
    fh = ts.lift_function(f)
    xi = section_field(bun, ["1", "(* 0.5 x1)"])
    xiv = ts.lift(xi)
    assert np.abs(lie_derivative(ts, xiv, fh).data).max() < 1e-13
    X = section_field(bun, ["(* 0.3 x2)", "1"], slots=[(TAN, CONTRA)])
    Xh = ts.lift(X)
    lhs = lie_derivative(ts, Xh, fh)
    ff = function_field(bun, "(* x1 (exp x2))")
    rhs = ts.lift_function(bun.cov(ff).contract_pair(0, X, 0).entry(()))
    assert np.abs((lhs - rhs).data[0]).max() < 1e-12


def test_vertical_evaluation_derivative_rules():
    ts = twisted_total()
    bun = ts.bundle
    lam = section_field(bun, ["(+ 0.5 (* 0.2 x2))", "(* 0.4 x1)"],
                        slots=[(FIB, COV)])
    xi = section_field(bun, ["(+ 1 (* 0.5 x1))", "(* 0.7 x2)"])
    lame = ts.lift(lam, evaluate=True)
    lhs = lie_derivative(ts, ts.lift(xi), lame)
    rhs = ts.lift_function(lam.contract_pair(0, xi, 0).entry(()))
    assert np.abs((lhs - rhs).data[0]).max() < 1e-12
    X = section_field(bun, ["1", "(* 0.2 x1)"], slots=[(TAN, CONTRA)])
    lhs = lie_derivative(ts, ts.lift(X), lame)
    rhs = ts.lift(bun.cov(lam).contract_pair(1, X, 0), evaluate=True)
    assert np.abs((lhs - rhs).data[0]).max() < 1e-12


def test_endo_point_evaluation():
    ts = twisted_total()
    L = random_field(ts.bundle.chart, [(FIB, CONTRA), (FIB, COV)],
                     (ts.k, ts.k), 6)
    lv = ts.lift(L)
    le = ts.lift(L, evaluate=True)
    assert np.abs((ts.vertical_point_eval(lv) - le).data).max() < 1e-13


def test_lift_dispatcher_covers_kinds():
    ts = twisted_total()
    bun = ts.bundle
    ch = bun.chart
    f = function_field(bun, "(* x1 x2)")
    xi = section_field(bun, ["1", "(* 0.5 x1)"])
    X = section_field(bun, ["(* 0.3 x2)", "1"], slots=[(TAN, CONTRA)])
    lam = section_field(bun, ["1", "(* 0.4 x1)"], slots=[(FIB, COV)])
    L = random_field(ch, [(FIB, CONTRA), (FIB, COV)], (2, 2), 7)
    A2 = random_field(ch, [(TAN, COV), (TAN, COV)], (2, 2), 8)
    Av = random_field(ch, [(FIB, CONTRA), (TAN, COV)], (2, 2), 9)
    Ae = random_field(ch, [(FIB, COV), (TAN, COV)], (2, 2), 10)
    for kind, obj in (("horiz_function", f.entry(())), ("vert_section", xi),
                      ("horiz_vector_field", X), ("vert_dual", lam),
                      ("vert_endo", L), ("eval_dual", lam),
                      ("eval_endo", L), ("horiz_tensor", A2),
                      ("vert_tensor", Av), ("tensor_eval", Ae)):
        assert kind in LIFT_KINDS
        out = lift(obj, kind, ts)
        assert out.data.size > 0
    with pytest.raises(ValueError):
        lift(f, "bogus", ts)


def test_slot_rule():
    slots = [(TAN, CONTRA), (TAN, COV), (FIB, CONTRA), (FIB, COV)]
    assert slot_kinds(slots) == ["hor", "base", "vert", "theta"]
    assert slot_kinds(slots, evaluate=True) == ["hor", "base", "vert", "eval"]
    assert slot_kinds([]) == []
    with pytest.raises(ValueError):
        slot_kinds([(PTN, CONTRA)])


def test_lift_follows_the_slot_rule():
    ts = twisted_total()
    T = random_field(ts.bundle.chart,
                     [(FIB, CONTRA), (FIB, COV), (TAN, COV), (TAN, CONTRA)],
                     (2, 2, 2, 2), 12)
    for evaluate, kinds in ((False, ["vert", "theta", "base", "hor"]),
                            (True, ["vert", "eval", "base", "hor"])):
        got = ts.lift(T, evaluate)
        want = ts.lift_mixed(T, kinds)
        assert got.slots == want.slots
        assert np.array_equal(got.data, want.data)


def test_lifts_share_read_only_converters(monkeypatch):
    ts = twisted_total()
    T = random_field(ts.bundle.chart, [(FIB, CONTRA), (TAN, COV)], (2, 2),
                     13)
    seen = []
    converters = ts._slot_converters

    def spy(d):
        seen.append(converters(d))
        return seen[-1]

    monkeypatch.setattr(ts, "_slot_converters", spy)
    first, second = ts.lift(T), ts.lift(T)
    assert seen[0] is seen[1]
    assert all(not c.data.flags.writeable for c in seen[0].values())
    assert np.array_equal(first.data, second.data)


@pytest.mark.parametrize("kind", LIFT_KINDS)
def test_named_lift_rejects_wrong_slots(kind):
    ts = twisted_total()
    bun = ts.bundle
    ch = bun.chart
    xi = section_field(bun, ["1", "(* 0.5 x1)"])
    X = section_field(bun, ["(* 0.3 x2)", "1"], slots=[(TAN, CONTRA)])
    flipped = random_field(ch, [(FIB, COV), (FIB, CONTRA)], (2, 2), 13)
    Av = random_field(ch, [(FIB, CONTRA), (TAN, COV)], (2, 2), 14)
    wrong = {"horiz_function": xi, "vert_section": X,
             "horiz_vector_field": xi, "vert_dual": xi,
             "vert_endo": flipped, "eval_dual": X, "eval_endo": flipped,
             "horiz_tensor": Av, "vert_tensor": X, "tensor_eval": X}
    with pytest.raises(ValueError):
        lift(wrong[kind], kind, ts)
    if kind not in ("horiz_function", "horiz_tensor", "vert_tensor",
                    "tensor_eval"):
        with pytest.raises(ValueError):     # a function has no slots
            lift(ch.expand("x1"), kind, ts)


def test_lift_isometries():
    ts = twisted_total()
    bun = ts.bundle
    xi = section_field(bun, ["(+ 1 (* 0.5 x1))", "(* 0.7 x2)"])
    obj = bun.cov(xi)
    lifted = ts.lift(obj)
    assert ts.norm(lifted) == pytest.approx(bun.norm(obj), abs=1e-10)


def _pullback_pair(name="pullback-map"):
    scn = builtin_scenario(name)
    return scn.map_at(cap=6)


def test_map_data_validates_target_point():
    dom = ChartGeometry([0.5], 4, [["1"]])
    bad_target = ChartGeometry([0.0, 0.0], 4, [["1", "0"], ["0", "1"]])
    with pytest.raises(ValueError):
        MapData(dom, bad_target, ["x1", "(* x1 x1)"])


def test_pullback_defect_identity_and_linear_cases():
    # identity map with a common connection: no defect
    g = [["(+ 1 (* 0.1 (* x1 x1)))", "0"], ["0", "1"]]
    dom = ChartGeometry([0.3, -0.2], 4, g)
    tgt = ChartGeometry([0.3, -0.2], 4, g)
    md = MapData(dom, tgt, ["x1", "x2"])
    pb = PullbackGeometry(md)
    assert np.abs(pb.a_phi().data[0]).max() < 1e-12
    # linear map between flat spaces: no defect
    dom2 = ChartGeometry([0.4], 4, [["1"]])
    tgt2 = ChartGeometry([0.8, -0.4], 4, [["1", "0"], ["0", "1"]])
    md2 = MapData(dom2, tgt2, ["(* 2 x1)", "(- 0 x1)"])
    pb2 = PullbackGeometry(md2)
    assert np.abs(pb2.a_phi().data).max() < 1e-13


def test_pullback_square_map_carries_second_derivative():
    dom = ChartGeometry([0.5], 4, [["1"]])
    tgt = ChartGeometry([0.5, 0.25], 4, [["1", "0"], ["0", "1"]])
    md = MapData(dom, tgt, ["x1", "(* x1 x1)"])
    pb = PullbackGeometry(md)
    aphi = pb.a_phi().data[0]
    assert aphi[0, 0, 0] == pytest.approx(0.0, abs=1e-13)
    assert aphi[1, 0, 0] == pytest.approx(-2.0, abs=1e-13)


def test_pullback_derivative_identity_random_tensor():
    md, pb = _pullback_pair()
    tgt = md.target
    A = random_field(tgt.chart, [(TAN, COV), (TAN, COV)], (2, 2), 11)
    Q = md.pullback_field(A)
    lhs = md.domain.cov(pb.convert_all(Q))
    rhs = pb.convert_all(md.pullback_field(tgt.cov(A)))
    for j in (1, 2):
        rhs = rhs - pb.pullback_insert(Q, j)
    assert np.abs((lhs - rhs).data[0]).max() < 1e-10


def test_pullback_defining_property_on_matched_fields():
    # Phi(x) = (x, x^2): a target field matching the pushforward along the
    # image is built by reparametrizing through the first coordinate
    dom = ChartGeometry([0.5], 5, [["1"]])
    tgt = ChartGeometry([0.5, 0.25], 5,
                        [["(+ 1 (* 0.1 x2))", "0"], ["0", "1"]])
    md = MapData(dom, tgt, ["x1", "(* x1 x1)"])
    pb = PullbackGeometry(md)
    Y = section_field(dom, ["(+ 1 (* 0.3 x1))"], slots=[(TAN, CONTRA)])
    X = section_field(dom, ["(* 0.7 x1)"], slots=[(TAN, CONTRA)])
    # Z on the target with Z(Phi(x)) = TPhi(Y(x)): components as functions
    # of y1 alone, using y1 as the curve parameter
    Z = section_field(tgt, ["(+ 1 (* 0.3 x1))",
                            "(* (* 2 x1) (+ 1 (* 0.3 x1)))"],
                      slots=[(TAN, CONTRA)])
    hatY = md.dphi.contract_pair(1, Y, 0)
    checkZ = md.pullback_field(Z)
    assert np.abs((hatY - checkZ).data).max() < 1e-12
    lhs = md.dphi.contract_pair(1, dom.cov(Y).contract_pair(1, X, 0), 0) \
        - pb.cov(md.pullback_field(Z) * 1.0).contract_pair(1, X, 0)
    rhs = pb.a_phi().contract_pair(1, X, 0).contract_pair(1, Y, 0)
    assert np.abs((lhs - rhs).data[0]).max() < 1e-10
