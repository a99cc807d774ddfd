import math

import numpy as np
import pytest
import sympy as sp

from jetcalc.fields import (FIB, TAN, BundleGeometry, Chart, ChartGeometry,
                            FieldTensor, Geometry, bracket,
                            connection_difference,
                            lie_derivative, matrix_inverse_field,
                            random_field, torsion)
from jetcalc.tensor_core import CONTRA, COV


def sympy_christoffels(g_mat, coords, point):
    """Independent symbolic oracle for the metric connection coefficients."""
    g = sp.Matrix(g_mat)
    gi = g.inv()
    n = len(coords)
    out = np.zeros((n, n, n))
    subs = dict(zip(coords, point))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                expr = sum(gi[i, l] * (sp.diff(g[l, k], coords[j])
                                       + sp.diff(g[l, j], coords[k])
                                       - sp.diff(g[j, k], coords[l]))
                           for l in range(n)) / 2
                out[i, j, k] = float(expr.subs(subs))
    return out


def test_flat_connection_vanishes():
    geo = ChartGeometry([0.2, 0.4], 3, [["1", "0"], ["0", "1"]])
    assert np.abs(geo.gamma.data).max() == 0.0


def test_sphere_chart_against_symbolic_oracle():
    th, ph = sp.symbols("theta phi")
    point = (0.8, 0.3)
    want = sympy_christoffels([[1, 0], [0, sp.sin(th) ** 2]], (th, ph), point)
    geo = ChartGeometry(list(point), 4,
                        [["1", "0"], ["0", "(* (sin x1) (sin x1))"]])
    assert np.abs(geo.gamma.data[0] - want).max() < 1e-10
    assert geo.gamma.data[0][0, 1, 1] == pytest.approx(
        -math.sin(0.8) * math.cos(0.8), abs=1e-12)


def test_conformal_against_symbolic_oracle():
    x, y = sp.symbols("x y")
    phi = sp.Rational(3, 10) * x + sp.Rational(1, 10) * y
    gm = [[sp.exp(2 * phi), 0], [0, sp.exp(2 * phi)]]
    point = (0.2, -0.1)
    want = sympy_christoffels(gm, (x, y), point)
    e = "(exp (* 2 (+ (* 0.3 x1) (* 0.1 x2))))"
    geo = ChartGeometry(list(point), 4, [[e, "0"], ["0", e]])
    assert np.abs(geo.gamma.data[0] - want).max() < 1e-10
    assert geo.gamma.data[0][0, 0, 0] == pytest.approx(0.3, abs=1e-12)


def test_levi_civita_is_metric_and_torsion_free():
    e = "(exp (* 2 (+ (* 0.3 x1) (* 0.1 x2))))"
    geo = ChartGeometry([0.2, -0.1], 4, [[e, "0"], ["0", e]])
    assert np.abs(geo.cov(geo.g).data).max() < 1e-9
    assert np.abs(torsion(geo.gamma).data).max() < 1e-12


def test_singular_metric_rejected():
    with pytest.raises(ValueError):
        ChartGeometry([0.0], 3, [["0"]])


def test_metric_that_is_not_spd_at_the_point_is_rejected_by_space():
    # the Gram check runs before levi_civita inverts the metric
    for bad in ([["0"]], [["1", "0"], ["0", "(- x1 1)"]]):
        with pytest.raises(ValueError, match="^tan metric at the base point"):
            ChartGeometry([0.0] * len(bad), 3, bad)
    base = ChartGeometry([0.1, -0.2], 3, [["1", "0"], ["0", "1"]])
    # a Gram symmetric in one triangle only is not symmetric
    with pytest.raises(ValueError, match="^fib metric at the base point: "
                                         "Gram matrix must be symmetric"):
        BundleGeometry(base, 2, [["1", "0.5"], ["0", "1"]])


def test_a_gram_the_parent_checked_keeps_the_parents_space():
    from jetcalc.fields import PTN
    from jetcalc.scenarios import builtin_scenario
    bun = builtin_scenario("twisted-bundle").bundle_at(cap=2)
    assert bun.registry[TAN] is bun.base.registry[TAN]
    alt = bun.with_connections(omega=bun.conns[FIB])
    assert all(alt.registry[s] is bun.registry[s] for s in (TAN, FIB))
    md, pb = builtin_scenario("pullback-map").map_at(cap=2)
    assert pb.registry[TAN] is md.domain.registry[TAN]
    assert pb.registry[PTN] is not md.target.registry[TAN]
    # a Gram that is not the parent's own object is checked again
    grams = dict(bun.grams)
    grams[FIB] = bun.grams[FIB].copy()
    again = Geometry(bun.chart, bun.dims, grams, bun.conns, _parent=bun)
    assert again.registry[TAN] is bun.registry[TAN]
    assert again.registry[FIB] is not bun.registry[FIB]


def test_chart_coordinate_takes_its_degree():
    ch = Chart([0.3], 4)
    assert ch.coordinate(0, 0).degree == 0
    assert ch.coordinate(0, 2).coeffs.tolist() == [0.3, 1.0, 0.0]


def _bundle():
    e = "(exp (* 0.4 x2))"
    psi = "(* 0.15 x1)"
    dpsi = ["0.15", "0"]
    a = ["(* 0.3 x2)", "(* 0.2 x1)"]
    h = [[f"(exp (* 2 {psi}))", "0"], ["0", f"(exp (* 2 {psi}))"]]
    om = [[[dpsi[i] if b == 0 else f"(- 0 {a[i]})" for b in range(2)]
           for i in range(2)],
          [[a[i] if b == 0 else dpsi[i] for b in range(2)]
           for i in range(2)]]
    base = ChartGeometry([0.1, -0.2], 5, [[e, "0"], ["0", e]])
    return BundleGeometry(base, 2, h, om)


def test_covariant_derivative_on_functions_is_differential():
    geo = ChartGeometry([0.0, 0.0], 3, [["1", "0"], ["0", "1"]])
    f = FieldTensor.from_scalar(geo.chart, geo.chart.expand("(* x1 x1)"))
    grad = geo.cov(f)
    assert np.allclose(grad.data[0], [0.0, 0.0])
    assert grad.data[geo.chart.ctx.lookup[(1, 0)]][0] == pytest.approx(2.0)


def test_section_derivative_components():
    bun = _bundle()
    ch = bun.chart
    xi = random_field(ch, [(FIB, CONTRA)], (2,), 5)
    got = bun.cov(xi)
    parts = bun.partials(xi)
    om = bun.omega
    corr = om.contract_pair(2, xi, 0)
    assert np.allclose(got.data, (parts + corr).data, atol=1e-13)


def test_nabla_g_zero_and_leibniz():
    bun = _bundle()
    ch = bun.chart
    assert np.abs(bun.cov(bun.base.g).data).max() < 1e-9
    xi = random_field(ch, [(FIB, CONTRA)], (2,), 6)
    eta = random_field(ch, [(FIB, CONTRA)], (2,), 7)
    lhs = bun.cov(xi.product(eta))
    rhs = bun.cov(xi).product(eta).permuted([0, 2, 1]) \
        + xi.product(bun.cov(eta))
    assert np.abs((lhs - rhs).data).max() < 1e-12


def test_iterated_and_symmetrized_derivatives():
    geo = ChartGeometry([0.0, 0.0], 4, [["1", "0"], ["0", "1"]])
    f = FieldTensor.from_scalar(geo.chart,
                                geo.chart.expand("(* x1 (* x2 x2))"))
    assert geo.iterated(f, 0) is not None
    d2 = geo.iterated(f, 2)
    assert np.allclose(d2.data, np.swapaxes(d2.data, 1, 2), atol=1e-13)
    d2s = geo.sym_derivative(f, 2)
    assert np.allclose(d2.data, d2s.data, atol=1e-13)


def test_degree_budget_guard():
    geo = ChartGeometry([0.0], 2, [["1"]])
    f = FieldTensor.from_scalar(geo.chart, geo.chart.expand("(exp x1)"))
    geo.iterated(f, 2)
    with pytest.raises(ValueError):
        geo.iterated(f, 3)


def test_torsion_definition_and_antisymmetry():
    geo = ChartGeometry([0.0, 0.0], 3, [["1", "0"], ["0", "1"]])
    gam = FieldTensor.zeros(geo.chart,
                            [(TAN, CONTRA), (TAN, COV), (TAN, COV)],
                            (2, 2, 2), 3)
    gam.data[0][0, 0, 1] = 1.0      # direction 1, argument 2
    t = torsion(gam)
    assert t.data[0][0, 0, 1] == 1.0
    assert t.data[0][0, 1, 0] == -1.0
    rnd = random_field(geo.chart, [(TAN, CONTRA), (TAN, COV), (TAN, COV)],
                       (2, 2, 2), 8)
    tr = torsion(rnd)
    assert np.allclose(tr.data, -np.swapaxes(tr.data, 2, 3), atol=1e-14)


def test_lie_and_bracket_facts():
    geo = ChartGeometry([0.0, 0.0], 4, [["1", "0"], ["0", "1"]])
    ch = geo.chart
    f = FieldTensor.from_scalar(ch, ch.expand("(* x1 x1)"))
    d1 = FieldTensor.assemble(ch, [(TAN, CONTRA)], (2,),
                              {(0,): 1.0}, 4)
    assert np.allclose(lie_derivative(geo, d1, f).data,
                       geo.partials(f).contract_pair(0, d1, 0).data)
    # [x2 d1, d2] = -d1
    x2d1 = FieldTensor.assemble(ch, [(TAN, CONTRA)], (2,),
                                {(0,): ch.coordinate(1, ch.cap)}, 4)
    d2 = FieldTensor.assemble(ch, [(TAN, CONTRA)], (2,), {(1,): 1.0}, 4)
    br = bracket(geo, x2d1, d2)
    assert br.data[0][0] == pytest.approx(-1.0)
    X = random_field(ch, [(TAN, CONTRA)], (2,), 9)
    Y = random_field(ch, [(TAN, CONTRA)], (2,), 10)
    assert np.allclose(bracket(geo, X, Y).data, lie_derivative(geo, X, Y).data)
    assert np.allclose((bracket(geo, X, Y) + bracket(geo, Y, X)).data, 0.0,
                       atol=1e-14)
    alpha = random_field(ch, [(TAN, COV)], (2,), 11)
    lhs = lie_derivative(geo, X, alpha.contract_pair(0, Y, 0))
    rhs = lie_derivative(geo, X, alpha).contract_pair(0, Y, 0) \
        + alpha.contract_pair(0, lie_derivative(geo, X, Y), 0)
    assert np.abs((lhs - rhs).data).max() < 1e-12


def test_bracket_equals_connection_antisymmetrization():
    bun = _bundle()
    ch = bun.chart
    X = random_field(ch, [(TAN, CONTRA)], (2,), 12)
    Y = random_field(ch, [(TAN, CONTRA)], (2,), 13)
    nxy = bun.cov(Y).contract_pair(1, X, 0) - bun.cov(X).contract_pair(1, Y, 0)
    assert np.abs((nxy - bracket(bun, X, Y)).data[0]).max() < 1e-9


def test_connection_difference_reproduces():
    bun = _bundle()
    alt = ChartGeometry([0.1, -0.2], 5,
                        [["(+ 1 (* 0.2 (* x1 x1)))", "0"], ["0", "1"]])
    bar = bun.with_connections(gamma=alt.gamma)
    s_m = connection_difference(bar.conns[TAN], bun.conns[TAN])
    Y = random_field(bun.chart, [(TAN, CONTRA)], (2,), 14)
    lhs = bar.cov(Y)
    rhs = bun.cov(Y) + Y.substitute(0, s_m)
    assert np.abs((lhs - rhs).data).max() < 1e-12
    # equal connections give a vanishing difference
    z = connection_difference(bun.conns[TAN], bun.conns[TAN])
    assert np.abs(z.data).max() == 0.0


def test_matrix_inverse_field_series():
    geo = ChartGeometry([0.3, 0.1], 4,
                        [["(+ 1 (* 0.3 (* x1 x1)))", "(* 0.1 x2)"],
                         ["(* 0.1 x2)", "1"]])
    gi = matrix_inverse_field(geo.g)
    prod = geo.g.contract_pair(1, gi, 0)
    eye = np.zeros_like(prod.data)
    eye[0] = np.eye(2)
    assert np.abs(prod.data - eye).max() < 1e-12


def _signed_substitution(T, pos, S):
    """One term of D_S built from a natural pairing: S's slot that replaces
    slot `pos` is moved back to `pos`, S's extra slots stay last."""
    up = T.slots[pos].variance == CONTRA
    t = T.contract_pair(pos, S, 1 if up else 0).move_slot(T.order - 1, pos)
    return t if up else t * -1.0


def test_derivation_is_the_signed_sum_of_substitutions():
    from jetcalc.scenarios import builtin_scenario
    tw = builtin_scenario("twisted-bundle")
    bun = tw.bundle_at(cap=4)
    ch, n, k = bun.chart, tw.n, tw.k
    # slots on two spaces: each S acts on its own value space only
    T = random_field(ch, [(FIB, CONTRA), (TAN, CONTRA), (FIB, COV),
                          (TAN, COV)], (k, n, k, n), 31)
    s_tan = random_field(ch, [(TAN, CONTRA), (TAN, COV), (TAN, COV)],
                         (n, n, n), 32)
    s_fib = random_field(ch, [(FIB, CONTRA), (FIB, COV), (TAN, COV)],
                         (k, k, n), 33, degree=3)
    for S, positions in ((s_tan, (1, 3)), (s_fib, (0, 2))):
        want = None
        for pos in positions:
            term = _signed_substitution(T, pos, S)
            want = term if want is None else want + term
        got = T.derivation(S)
        assert got.degree == min(T.degree, S.degree) >= 2
        assert got.slots == want.slots
        assert got.slots[T.order:] == S.slots[2:]
        assert np.abs(got.data - want.data).max() < 1e-13
        assert np.abs(want.data).max() > 0.1
    # no slot on S's value space: zero, with S's extra slots appended
    xi = random_field(ch, [(FIB, CONTRA), (FIB, COV)], (k, k), 34)
    zero = xi.derivation(s_tan)
    assert zero.slots == tuple(xi.slots) + tuple(s_tan.slots[2:])
    assert zero.data.shape == xi.data.shape + (n,)
    assert zero.degree == 4 and not np.any(zero.data)
