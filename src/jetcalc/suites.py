"""The verification check matrix: every identity and estimate, as rows.

Each suite function returns a list of CheckRow.  A row either measures a
residual (pass iff value <= threshold) or a margin of an inequality
(pass iff value <= threshold, where the value is lhs - rhs or a ratio).
Check ids are stable strings `<tag>/<scenario>/<point>/<order>` so reports
can be diffed across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .fields import (FIB, TAN, BundleGeometry, ChartGeometry, FieldTensor,
                     bracket, connection_difference, identity_field,
                     lie_derivative, point_geometry, random_field, torsion)
from .jets import (decompose_jet, delta_hat, jet_norm, jet_project,
                   nested_jet_norm, nested_sym_gap, nested_table_gap,
                   prolong_decompose)
from .recursions import (BUNDLE_FAMILY_KINDS, EVALUATING_FAMILIES,
                         FAMILY_SLOTS, build_coefficients, bundle_family,
                         conn_family, growth_profile, pullback_family,
                         pullback_inverse_residual, verify_expansion,
                         verify_inverse_pair)
from .scenarios import builtin_scenario, function_field, section_field
from .total_space import TotalSpaceGeometry
from .seminorms import (CompactSample, WeightSequence, fit_envelope,
                        growth_fit, jet_norm_profile, local_seminorm,
                        norm_compare, p_infinity, p_omega,
                        topology_equivalence_check)
from .taylor import expand, finite_difference_check
from .tensor_core import CONTRA, COV

NONFLAT_SCENARIOS = ("conformal-base", "sphere-chart", "twisted-bundle")

#: the orders of the recursion growth template, the two-pair jet-norm
#: comparison and the analyticity-radius fits
GROWTH_ORDER, COMPARE_ORDER, RADIUS_ORDER = 4, 6, 10

#: the submersion suite's degree budgets: its rows read base-point values,
#: so each geometry is built only to the deepest derivative a row takes
SUBMERSION_CAP = 2  # total spaces: submersion/norm-pullback takes nabla^2 f
PULLBACK_CAP = 3    # pull-back maps: pullback/norm-bound runs to order 3


@dataclass
class CheckRow:
    check_id: str
    tag: str
    inputs: str
    value: float
    threshold: float
    passed: bool

    @classmethod
    def residual(cls, tag, where, value, threshold, inputs=""):
        return cls(check_id=f"{tag}/{where}", tag=tag, inputs=inputs,
                   value=float(value), threshold=float(threshold),
                   passed=bool(value <= threshold))

    @classmethod
    def flag(cls, tag, where, ok, inputs="", value=None):
        v = 0.0 if ok else 1.0
        if value is not None:
            v = float(value)
        return cls(check_id=f"{tag}/{where}", tag=tag, inputs=inputs,
                   value=v, threshold=0.5, passed=bool(ok))


def _rng(seed, *salt):
    return np.random.Generator(np.random.PCG64([seed, *salt]))


def _point_geometry(rng, dims, orthonormal=False):
    grams = {}
    for name, dim in dims.items():
        if orthonormal:
            grams[name] = np.eye(dim)
        else:
            a = rng.uniform(-0.3, 0.3, size=(dim, dim))
            grams[name] = np.eye(dim) + 0.5 * (a + a.T)
    return point_geometry(grams)


def _random(geo, slots, rng):
    """A degree-0 random tensor of `geo` with entries in [-1, 1]."""
    return random_field(geo.chart, slots, [geo.dims[s] for s, _ in slots],
                        int(rng.integers(1 << 30)), degree=0)


def _inner(geo, a, b):
    return tc.inner_product(geo.value(a), geo.value(b))


# --------------------------------------------------------------------------
# tensor-laws
# --------------------------------------------------------------------------

def suite_tensor_laws(config):
    seed = config.seed
    rows = []
    # identity norm, including non-orthonormal Grams
    for i in range(100):
        rng = _rng(seed, 1, i)
        dim = 2 + i % 4
        geo = _point_geometry(rng, {"V": dim}, orthonormal=(i % 2 == 0))
        t = identity_field(geo.chart, "V", dim, 0)
        rows.append(CheckRow.residual(
            "tensor/id-norm", f"case{i}/-/-",
            abs(geo.norm(t) - math.sqrt(dim)), 1e-12, inputs=f"dim={dim}"))
    # product norm
    for i in range(100):
        rng = _rng(seed, 2, i)
        geo = _point_geometry(rng, {"V": 3, "W": 2})
        a = _random(geo, [("V", COV)] * 3, rng)
        b = _random(geo, [("W", COV), ("V", CONTRA)], rng)
        lhs = geo.norm(a.product(b))
        rows.append(CheckRow.residual(
            "tensor/otimes-norm", f"case{i}/-/-",
            abs(lhs - geo.norm(a) * geo.norm(b)) / max(lhs, 1e-12), 1e-12))
    # evaluation bound
    for i in range(100):
        rng = _rng(seed, 3, i)
        geo = _point_geometry(rng, {"U": 3, "V": 4})
        L = _random(geo, [("V", CONTRA), ("U", COV)], rng)
        u = _random(geo, [("U", CONTRA)], rng)
        lu = L.apply_map(1, u)
        rows.append(CheckRow.residual(
            "tensor/apply-bound", f"case{i}/-/-",
            geo.norm(lu) - geo.norm(L) * geo.norm(u), 1e-12))
    # operator-norm upper bound via SVD in orthonormal frames
    for i in range(100):
        rng = _rng(seed, 4, i)
        geo = _point_geometry(rng, {"U": 3, "V": 4})
        L = _random(geo, [("V", CONTRA), ("U", COV)], rng)
        ru, rv = (geo.registry[s].whiteners[0] for s in "UV")
        mat = rv @ L.data[0] @ np.linalg.inv(ru)
        op = float(np.linalg.svd(mat, compute_uv=False)[0])
        rows.append(CheckRow.residual(
            "tensor/opnorm-upper", f"case{i}/-/-",
            geo.norm(L) - math.sqrt(3) * op, 1e-10))
    # symmetrization contracts, and is the orthogonal projection
    for i in range(100):
        rng = _rng(seed, 5, i)
        k = 2 + i % 3
        geo = _point_geometry(rng, {"V": 2 + i % 3})
        a = _random(geo, [("V", COV)] * k, rng)
        rows.append(CheckRow.residual(
            "tensor/sym-contraction", f"case{i}/-/{k}",
            geo.norm(a.symmetrized(range(k))) - geo.norm(a), 1e-12))
    for i in range(60):
        rng = _rng(seed, 6, i)
        k = 2 + i % 3
        dim = 2 + i % 3
        geo = _point_geometry(rng, {"V": dim})
        a = _random(geo, [("V", COV)] * k, rng)
        s = _random(geo, [("V", COV)] * k, rng).symmetrized(range(k))
        gap = abs(_inner(geo, a.symmetrized(range(k)), s) - _inner(geo, a, s))
        rows.append(CheckRow.residual(
            "tensor/sym-projection", f"case{i}/-/{k}", gap, 1e-10))
    # symmetric-subspace dimension
    for dim in (2, 3, 4):
        for k in (1, 2, 3, 4):
            want = math.comb(dim + k - 1, k)
            got = tc.sym_rank(dim, k)
            rows.append(CheckRow.flag(
                "tensor/sym-rank", f"dim{dim}/-/{k}", got == want,
                inputs=f"rank={got} expect={want}"))
    # insertion operator norms on unit arguments
    for i in range(100):
        rng = _rng(seed, 8, i)
        geo = _point_geometry(rng, {"U": 3, "V": 2, "W": 2})
        s_t = _random(geo, [("U", CONTRA), ("U", COV), ("U", COV)], rng)
        amap = _random(geo, [("U", COV)] * 2 + [("W", CONTRA)]
                       + [("U", CONTRA)] * 2 + [("V", COV)] + [("U", CONTRA)],
                       rng)
        beta = _random(geo, [("U", COV)] * 2 + [("V", CONTRA)], rng)
        beta = beta * (1.0 / geo.norm(beta))
        ins = beta.insert(s_t, 1 + i % 2)
        val = geo.norm(amap.apply_map(3, ins))
        rows.append(CheckRow.residual(
            "tensor/ins-op-1", f"case{i}/-/-",
            val - geo.norm(amap) * geo.norm(s_t), 1e-10))
    for i in range(100):
        rng = _rng(seed, 9, i)
        geo = _point_geometry(rng, {"U": 3, "V": 2})
        s_t = _random(geo, [("U", CONTRA), ("U", COV), ("U", COV)], rng)
        bmap = _random(geo, [("U", COV)] * 2 + [("U", CONTRA)] * 2
                       + [("V", COV)], rng)
        beta = _random(geo, [("U", COV)] * 2 + [("V", CONTRA)], rng)
        beta = beta * (1.0 / geo.norm(beta))
        val = geo.norm(bmap.apply_map(2, beta).insert(s_t, 1 + i % 2))
        rows.append(CheckRow.residual(
            "tensor/ins-op-2", f"case{i}/-/-",
            val - geo.norm(bmap) * geo.norm(s_t), 1e-10))
    # shuffle count, product associativity, split roundtrip, push, derivation
    for k, l in ((1, 1), (2, 1), (2, 2), (3, 1)):
        got = len(tc.shuffles(k, l))
        want = math.comb(k + l, k)
        rows.append(CheckRow.flag("tensor/shuffle-count", f"k{k}l{l}/-/-",
                                  got == want))
    for i in range(20):
        rng = _rng(seed, 10, i)
        geo = _point_geometry(rng, {"V": 3})
        al, be, ga = (_random(geo, [("V", COV)], rng) for _ in range(3))
        lhs = tc.sym_product(tc.sym_product(al, be), ga)
        rhs = tc.sym_product(al, tc.sym_product(be, ga))
        rows.append(CheckRow.residual(
            "tensor/sym-product-assoc", f"case{i}/-/-",
            geo.norm(lhs - rhs) / max(geo.norm(lhs), 1e-12), 1e-10))
        two = tc.sym_product(al, be)
        alt = al.product(be).symmetrized(range(2)) * 2.0
        rows.append(CheckRow.residual(
            "tensor/sym-product-altform", f"case{i}/-/-",
            geo.norm(two - alt) / max(geo.norm(two), 1e-12), 1e-10))
    for i in range(20):
        rng = _rng(seed, 11, i)
        geo = _point_geometry(rng, {"V": 3})
        a = _random(geo, [("V", COV)] * 3, rng).symmetrized(range(3))
        split = tc.delta_split(a, 2, 1)
        back = split.symmetrized(range(3))
        rows.append(CheckRow.residual(
            "tensor/delta-roundtrip", f"case{i}/-/-",
            geo.norm(back - a) / max(geo.norm(a), 1e-12), 1e-10))
    for i in range(20):
        rng = _rng(seed, 12, i)
        geo = _point_geometry(rng, {"V": 3})
        a = _random(geo, [("V", COV)] * 4, rng)
        p = tc.push(a, 1 + i % 4, 1 + (i + 2) % 4)
        rows.append(CheckRow.residual(
            "tensor/push-isometry", f"case{i}/-/-",
            abs(geo.norm(p) - geo.norm(a)), 1e-12))
    geo = _point_geometry(_rng(seed, 13), {"V": 2})
    a13 = random_field(geo.chart, [("V", COV)] * 2, (2, 2), 5, degree=0)
    rows.append(CheckRow.residual(
        "tensor/push-identity", "k2/-/-",
        geo.norm(tc.push(a13, 2, 2) - a13), 1e-15))
    # derivation on vectors and the mixed expansion formula
    geo = _point_geometry(_rng(seed, 14), {"V": 3})

    def fixed(slots, s):
        return random_field(geo.chart, slots, (3,) * len(slots), s, degree=0)

    s_t = fixed([("V", CONTRA), ("V", COV), ("V", COV)], 21)
    v = fixed([("V", CONTRA)], 22)
    dv = v.derivation(s_t)
    direct = v.substitute(0, s_t)
    rows.append(CheckRow.residual(
        "tensor/derivation-vector", "case0/-/-",
        geo.norm(dv - direct) / max(geo.norm(direct), 1e-12), 1e-12))
    t0 = fixed([("V", COV)] * 2, 23)
    t = t0.product(v)
    lhs = t.derivation(s_t)
    # hand expansion: feed the vector through the structure tensor, minus
    # the insertions into the covariant part (vector slot moved back last)
    term1 = t0.product(v.substitute(0, s_t))
    term2 = None
    for j in (1, 2):
        w = t0.insert(s_t, j).product(v).permuted([0, 1, 3, 2])
        term2 = w if term2 is None else term2 + w
    gap = geo.norm(lhs - (term1 - term2)) / max(geo.norm(lhs), 1e-12)
    rows.append(CheckRow.residual("tensor/derivation-mixed", "case0/-/-",
                                  gap, 1e-10))
    # the dual-factor expansion: all slots covariant, every term enters
    # with a minus sign; the covector slot rides at its original position
    alpha = fixed([("V", COV)], 24)
    t2 = t0.product(alpha)
    lhs2 = t2.derivation(s_t)
    rhs2 = -t2.substitute(2, s_t)
    for j in (1, 2):
        w = t0.insert(s_t, j).product(alpha).permuted([0, 1, 3, 2])
        rhs2 = rhs2 - w
    gap2 = geo.norm(lhs2 - rhs2) / max(geo.norm(lhs2), 1e-12)
    rows.append(CheckRow.residual("tensor/derivation-dual", "case0/-/-",
                                  gap2, 1e-10))
    # 1/2/inf norm equivalences on flattened tensors
    for i in range(20):
        rng = _rng(seed, 15, i)
        x = rng.uniform(-1, 1, size=12)
        n2 = float(np.linalg.norm(x))
        n1 = float(np.abs(x).sum())
        ninf = float(np.abs(x).max())
        ok = (n2 <= n1 + 1e-12 and n1 <= math.sqrt(12) * n2 + 1e-12
              and ninf <= n2 + 1e-12 and n2 <= math.sqrt(12) * ninf + 1e-12
              and ninf <= n1 + 1e-12 and n1 <= 12 * ninf + 1e-12)
        rows.append(CheckRow.flag("tensor/norm-equiv", f"case{i}/-/-", ok))
    return rows


# --------------------------------------------------------------------------
# taylor
# --------------------------------------------------------------------------

def suite_taylor(config):
    rows = []
    prims = []
    for name in ("flat", "conformal-base", "sphere-chart", "twisted-bundle"):
        scn = builtin_scenario(name)
        x0 = scn.base_points[0]
        seen = set()
        for mat in (scn.metric, scn.fibre_metric):
            for row_ in mat:
                for e in row_:
                    if e not in seen and e not in ("0", "1"):
                        seen.add(e)
                        prims.append((name, e, x0, scn.n))
        if scn.connection:
            for blk in scn.connection:
                for row_ in blk:
                    for e in row_:
                        if e not in seen and e not in ("0", "1"):
                            seen.add(e)
                            prims.append((name, e, x0, scn.n))
    for pi, (name, e, x0, n) in enumerate(prims):
        for I in _multi_indices_upto(n, 3):
            if sum(I) == 0:
                continue
            res = finite_difference_check(e, x0, I, step=2e-3)
            rows.append(CheckRow.residual(
                "taylor/fd-agreement", f"{name}/p0/{sum(I)}",
                res, 1e-5, inputs=f"prim{pi} I={I}"))
    # ring and calculus laws
    from .taylor import derive as t_derive
    for i in range(10):
        a = expand("(sin (+ x1 (* x2 x2)))", [0.2, -0.1], 5)
        b = expand("(exp (* 0.3 (* x1 x2)))", [0.2, -0.1], 5)
        c = expand("(cos x1)", [0.2, -0.1], 5)
        lhs = (a + b) * c
        rhs = a * c + b * c
        rows.append(CheckRow.residual(
            "taylor/ring-distributive", f"case{i}/-/-",
            float(np.abs(lhs.coeffs - rhs.coeffs).max()), 1e-12))
        prod = a * b
        leib = t_derive(a, 0) * b + a * t_derive(b, 0)
        rows.append(CheckRow.residual(
            "taylor/leibniz", f"case{i}/-/-",
            float(np.abs(t_derive(prod, 0).coeffs - leib.coeffs).max()),
            1e-12))
    comp = expand("(exp (sin x1))", [0.3], 6)
    inner = expand("(sin x1)", [0.3], 6)
    outer = expand("(exp x1)", [inner.value], 6)
    chained = outer.compose_args([inner])
    rows.append(CheckRow.residual(
        "taylor/chain-rule", "exp-sin/-/-",
        float(np.abs(comp.coeffs - chained.coeffs).max()), 1e-12))
    geom = expand("(/ 1 (+ 1 (* x1 x1)))", [0.0], 6)
    rows.append(CheckRow.residual(
        "taylor/series-reciprocal", "geometric/-/-",
        float(np.abs(geom.coeffs - np.array([1, 0, -1, 0, 1, 0, -1]))
              .max()), 1e-12))
    return rows


def _multi_indices_upto(n, order):
    import itertools
    out = []
    for total in range(order + 1):
        for comb in itertools.combinations_with_replacement(range(n), total):
            I = [0] * n
            for v in comb:
                I[v] += 1
            out.append(tuple(I))
    return out


# --------------------------------------------------------------------------
# geometry
# --------------------------------------------------------------------------

def suite_geometry(config):
    rows = []
    # Levi-Civita on the built-in charts: the order-1 rows read nabla g and
    # the Christoffel symbols, so these charts are built to degree 1
    for name in ("flat",) + NONFLAT_SCENARIOS:
        scn = builtin_scenario(name)
        for pi, x0 in enumerate(scn.base_points):
            geo = scn.chart_at(x0, cap=1)
            met = geo.cov(geo.g)
            rows.append(CheckRow.residual(
                "geometry/metric-parallel", f"{name}/p{pi}/1",
                float(np.abs(met.data).max()), 1e-9))
            rows.append(CheckRow.residual(
                "geometry/torsion-free", f"{name}/p{pi}/1",
                float(np.abs(torsion(geo.gamma).data).max()), 1e-9))
    flat = builtin_scenario("flat").chart_at(cap=1)
    rows.append(CheckRow.residual(
        "geometry/flat-connection", "flat/p0/1",
        float(np.abs(flat.gamma.data).max()), 1e-14))
    # classical sphere-chart coefficients
    sph = builtin_scenario("sphere-chart")
    for pi, x0 in enumerate(sph.base_points):
        geo = sph.chart_at(x0, cap=1)
        th = x0[0]
        vals = geo.gamma.data[0]
        gap = max(abs(vals[0, 1, 1] + math.sin(th) * math.cos(th)),
                  abs(vals[1, 0, 1] - math.cos(th) / math.sin(th)),
                  abs(vals[1, 1, 0] - math.cos(th) / math.sin(th)),
                  abs(vals[0, 0, 0]), abs(vals[1, 1, 1]))
        rows.append(CheckRow.residual(
            "geometry/sphere-coefficients", f"sphere-chart/p{pi}/1",
            gap, 1e-10))
    # conformal 2d: Gamma^1_{11} = d_1 phi for g = exp(2 phi) delta
    conf = ChartGeometry([0.2, -0.1], 1,
                         [["(exp (* 2 (+ (* 0.3 x1) (* 0.1 x2))))", "0"],
                          ["0", "(exp (* 2 (+ (* 0.3 x1) (* 0.1 x2))))"]])
    rows.append(CheckRow.residual(
        "geometry/conformal-coefficient", "conformal/p0/1",
        abs(conf.gamma.data[0][0, 0, 0] - 0.3), 1e-10))
    # derivative laws on a nonflat bundle: the composite-derivative rows
    # run to order k_hi, the others to order 2 at most
    k_hi = 3
    scn = builtin_scenario("twisted-bundle")
    bun = scn.bundle_at(cap=k_hi)
    ch = bun.chart
    xi = random_field(ch, [(FIB, CONTRA)], (scn.k,), 61)
    eta = random_field(ch, [(FIB, CONTRA)], (scn.k,), 62)
    X = random_field(ch, [(TAN, CONTRA)], (scn.n,), 63)
    Y = random_field(ch, [(TAN, CONTRA)], (scn.n,), 64)
    alpha = random_field(ch, [(TAN, COV)], (scn.n,), 65)
    f = function_field(bun, scn.random_function(66))
    # product rule for the tensor connection
    lhs = bun.cov(xi.product(eta))
    t1 = bun.cov(xi).product(eta).permuted([0, 2, 1])   # [fib, fib, dir]
    t2 = xi.product(bun.cov(eta))
    gap = lhs - (t1 + t2)
    rows.append(CheckRow.residual(
        "geometry/tensor-leibniz", "twisted-bundle/p0/1",
        float(np.abs(gap.data).max()), 1e-10))
    # gradient on a flat chart
    fl = builtin_scenario("flat")
    bfl = fl.bundle_at(cap=1)
    ffl = function_field(bfl, "(* x1 x1)")
    grad = bfl.cov(ffl)
    hand = np.zeros(2)
    hand[0] = 2 * fl.base_points[0][0]
    rows.append(CheckRow.residual(
        "geometry/flat-gradient", "flat/p0/1",
        float(np.abs(grad.data[0] - hand).max()), 1e-12))
    # Lie derivative facts
    lxy = lie_derivative(bun, X, Y)
    br = bracket(bun, X, Y)
    rows.append(CheckRow.residual(
        "geometry/lie-bracket", "twisted-bundle/p0/1",
        float(np.abs((lxy - br).data).max()), 1e-12))
    pair = alpha.contract_pair(0, Y, 0)
    lhs = lie_derivative(bun, X, pair)
    rhs = lie_derivative(bun, X, alpha).contract_pair(0, Y, 0) \
        + alpha.contract_pair(0, lie_derivative(bun, X, Y), 0)
    rows.append(CheckRow.residual(
        "geometry/lie-pairing", "twisted-bundle/p0/1",
        float(np.abs((lhs - rhs).data).max()), 1e-10))
    anti = bracket(bun, X, Y) + bracket(bun, Y, X)
    rows.append(CheckRow.residual(
        "geometry/bracket-antisymmetry", "twisted-bundle/p0/1",
        float(np.abs(anti.data).max()), 1e-12))
    nxy = bun.cov(Y).contract_pair(1, X, 0) - bun.cov(X).contract_pair(1, Y, 0)
    rows.append(CheckRow.residual(
        "geometry/bracket-torsion-free", "twisted-bundle/p0/1",
        float(np.abs((nxy - br).data[0]).max()), 1e-9))
    # second derivative of a function is symmetric (torsion-free)
    d2f = bun.iterated(f, 2)
    rows.append(CheckRow.residual(
        "geometry/hessian-symmetric", "twisted-bundle/p0/2",
        float(np.abs(d2f.data - np.swapaxes(d2f.data, 1, 2)).max()), 1e-9))
    # connection difference reproduces the other derivative
    alt = scn.alt_bundle_at(cap=1)
    bun_bar = bun.with_connections(gamma=alt.conns[TAN], omega=alt.conns[FIB])
    s_m = connection_difference(bun_bar.conns[TAN], bun.conns[TAN])
    s_e = connection_difference(bun_bar.conns[FIB], bun.conns[FIB])
    lhs = bun_bar.cov(Y)
    rhs = bun.cov(Y) + Y.derivation(s_m)
    rows.append(CheckRow.residual(
        "geometry/connection-difference", "twisted-bundle/p0/1",
        float(np.abs((lhs - rhs).data).max()), 1e-10))
    # derivative comparison for a mixed tensor (order-1 case)
    Bt = random_field(ch, [(FIB, CONTRA), (TAN, COV), (TAN, COV)],
                      (scn.k, scn.n, scn.n), 67)
    lhs = bun_bar.cov(Bt)
    rhs = bun.cov(Bt) + Bt.derivation(s_m) + Bt.derivation(s_e)
    rows.append(CheckRow.residual(
        "geometry/derivative-comparison", "twisted-bundle/p0/1",
        float(np.abs((lhs - rhs).data).max()), 1e-10))
    # insertion derivative law
    A = random_field(ch, [(FIB, COV), (FIB, COV)], (scn.k, scn.k), 68)
    S = random_field(ch, [(FIB, CONTRA), (FIB, COV), (FIB, COV)],
                     (scn.k, scn.k, scn.k), 69)
    lhs = bun.cov(A.substitute(0, S))              # [sub, fib, extra, dir]
    t1 = bun.cov(A).substitute(0, S).permuted([0, 1, 3, 2])
    t2 = A.substitute(0, bun.cov(S))
    rows.append(CheckRow.residual(
        "geometry/insertion-derivative", "twisted-bundle/p0/1",
        float(np.abs((lhs - (t1 + t2)).data).max()), 1e-10))
    # composite derivative expansion (binomial form), orders 1..3
    L = random_field(ch, [(FIB, CONTRA), (FIB, COV)], (scn.k, scn.k), 70)
    for korder in range(1, k_hi + 1):
        lhs = bun.sym_derivative(L.contract_pair(1, xi, 0), korder)
        rhs = None
        for l in range(korder + 1):
            dl = bun.iterated(L, l)
            dk = bun.iterated(xi, korder - l)
            term = dl.contract_pair(1, dk, 0).symmetrized(range(1, korder + 1))
            term = term * math.comb(korder, l)
            rhs = term if rhs is None else rhs + term
        num = float(np.abs((lhs - rhs).data[0]).max())
        rows.append(CheckRow.residual(
            "geometry/composite-derivative", f"twisted-bundle/p0/{korder}",
            num / max(float(np.abs(lhs.data[0]).max()), 1e-12), 1e-8))
    return rows


# --------------------------------------------------------------------------
# jets
# --------------------------------------------------------------------------

def suite_jets(config):
    rows = []
    fl = builtin_scenario("flat")
    bun = fl.bundle_at([0.0, 0.0], cap=2)
    f = function_field(bun, "(* x1 x1)")
    jet = decompose_jet(f, bun, 2)
    a2 = np.zeros((2, 2))
    a2[0, 0] = 1.0              # (1/2!) * d^2(x^2) = 1 on the (1,1) entry
    gap = max(abs(jet.components[0].data), float(np.abs(jet.components[1].data).max()),
              float(np.abs(jet.components[2].data - a2).max()))
    rows.append(CheckRow.residual("jets/function-decompose", "flat/p0/2",
                                  gap, 1e-12))
    # constant section against a twisted connection: first component is
    # the connection acting on the constant
    tw = builtin_scenario("twisted-bundle")
    bt = tw.bundle_at(cap=1)
    const = FieldTensor.zeros(bt.chart, [(FIB, CONTRA)], (tw.k,), bt.chart.cap)
    const.data[0] = [0.7, -0.2]
    jc = decompose_jet(const, bt, 1)
    om = bt.omega.data[0]
    # component layout of nabla xi is [fib, dir]
    hand = np.einsum("aib,b->ai", om, const.data[0])
    rows.append(CheckRow.residual(
        "jets/constant-section", "twisted-bundle/p0/1",
        float(np.abs(jc.components[1].data - hand).max()), 1e-10))
    # factorial-weighted norm of the exponential jet
    line = builtin_scenario("flat-line")
    bl = line.bundle_at([0.0], cap=3)
    fe = function_field(bl, "(exp x1)")
    je = decompose_jet(fe, bl, 3)
    want = math.sqrt(1 + 1 + 0.25 + 1.0 / 36.0)
    rows.append(CheckRow.residual(
        "jets/factorial-norm", "flat-line/p0/3",
        abs(jet_norm(je) - want), 1e-12))
    # projection monotone + identity
    tw3 = tw.bundle_at(cap=3)
    sec = random_field(tw3.chart, [(FIB, CONTRA)], (tw.k,), 81)
    j3 = decompose_jet(sec, tw3, 3)
    rows.append(CheckRow.flag(
        "jets/projection-monotone", "twisted-bundle/p0/3",
        jet_norm(jet_project(j3, 1)) <= jet_norm(jet_project(j3, 2)) + 1e-15
        <= jet_norm(j3) + 2e-15))
    # wellposedness: two sections with equal 2-jets decompose equally
    sec2 = sec.copy()
    idx3 = [i for i, I in enumerate(tw3.chart.ctx.indices) if I.order == 3]
    sec2.data[idx3] += 1.0
    ja = decompose_jet(sec, tw3, 2)
    jb = decompose_jet(sec2, tw3, 2)
    gap = max(float(np.abs((a - b).data).max())
              for a, b in zip(ja.components, jb.components))
    rows.append(CheckRow.residual("jets/wellposed", "twisted-bundle/p0/2",
                                  gap, 1e-12))
    # prolongation: flat cubic by hand at (k, m) = (1, 1)
    blf = fl.bundle_at([0.0, 0.0], cap=3)
    f3 = function_field(blf, "(* x1 (* x1 x1))")
    nested = prolong_decompose(f3, blf, 1, 1)
    flatjet = decompose_jet(f3, blf, 2)
    dh = delta_hat(flatjet, 1, 1)
    rows.append(CheckRow.residual(
        "jets/prolong-flat-cubic", "flat/p0/(1,1)",
        nested_table_gap(nested, dh), 1e-12))
    # nonflat re-slicing: exact after joint symmetrization (the raw mixed
    # entries differ by curvature, which is reported separately)
    for (kk, mm) in ((1, 1), (1, 2), (2, 1)):
        secn = random_field(tw3.chart, [(FIB, CONTRA)], (tw.k,), 82)
        nested = prolong_decompose(secn, tw3, kk, mm)
        dh = delta_hat(decompose_jet(secn, tw3, kk + mm), kk, mm)
        rows.append(CheckRow.residual(
            "jets/prolong-square", f"twisted-bundle/p0/({kk},{mm})",
            nested_sym_gap(nested, dh), 1e-9))
    # on a flat scenario the raw square is exact
    secf = random_field(blf.chart, [(FIB, CONTRA)], (fl.k,), 83)
    nested = prolong_decompose(secf, blf, 1, 2)
    dh = delta_hat(decompose_jet(secf, blf, 3), 1, 2)
    rows.append(CheckRow.residual(
        "jets/prolong-square-flat", "flat/p0/(1,2)",
        nested_table_gap(nested, dh), 1e-12))
    return rows


# --------------------------------------------------------------------------
# submersion
# --------------------------------------------------------------------------

def _vf(ch, n, seedv):
    return random_field(ch, [(TAN, CONTRA)], (n,), seedv)


#: the tag of each lift family's covariant-derivative check, in the order
#: of BUNDLE_FAMILY_KINDS
_COV_DERIVATIVE_TAGS = ("horiz", "vert", "horizvf", "dual", "endo", "eval",
                        "endo-eval")


def suite_submersion(config):
    rows = []
    seed = config.seed
    for name in NONFLAT_SCENARIOS:
        scn = builtin_scenario(name)
        for pi, x0 in enumerate(scn.base_points):
            ts = scn.total_at(x0, scn.fibre_points[0], cap=SUBMERSION_CAP)
            bun = ts.bundle
            ch = bun.chart
            where = f"{name}/p{pi}"
            X = _vf(ch, scn.n, seed + 11 + pi)
            Y = _vf(ch, scn.n, seed + 12 + pi)
            xi = random_field(ch, [(FIB, CONTRA)], (scn.k,), seed + 13 + pi)
            eta = random_field(ch, [(FIB, CONTRA)], (scn.k,), seed + 14 + pi)
            lam = random_field(ch, [(FIB, COV)], (scn.k,), seed + 15 + pi)
            f = function_field(bun, scn.random_function(16 + pi))
            Xh, Yh = ts.lift(X), ts.lift(Y)
            xiv, etav = ts.lift(xi), ts.lift(eta)
            lame = ts.lift(lam, evaluate=True)
            fh = ts.lift_function(f.entry(()))
            api, tpi = ts.oneill_tensors()

            def rel(a, b):
                return (float(np.abs((a - b).data[0]).max())
                        / max(float(np.abs(a.data[0]).max()), 1e-12))

            # function/vector-field derivative table
            lhs = lie_derivative(ts, Xh, fh)
            rhs = ts.lift_function(
                bun.cov(f).contract_pair(0, X, 0).entry(()))
            rows.append(CheckRow.residual(
                "submersion/horiz-function", f"{where}/1", rel(lhs, rhs), 1e-9))
            rows.append(CheckRow.residual(
                "submersion/vert-kills-horiz", f"{where}/1",
                float(np.abs(lie_derivative(ts, xiv, fh).data[0]).max()), 1e-9))
            lhs = lie_derivative(ts, xiv, lame)
            rhs = ts.lift_function(lam.contract_pair(0, xi, 0).entry(()))
            rows.append(CheckRow.residual(
                "submersion/vert-evaluation", f"{where}/1", rel(lhs, rhs), 1e-9))
            lhs = lie_derivative(ts, Xh, lame)
            rhs = ts.lift(bun.cov(lam).contract_pair(1, X, 0), evaluate=True)
            rows.append(CheckRow.residual(
                "submersion/horiz-evaluation", f"{where}/1", rel(lhs, rhs), 1e-9))

            # covariant-derivative decompositions on the total space
            nYh = ts.cov(Yh)
            nXhYh = nYh.contract_pair(1, Xh, 0)
            lhs = ts.hor.contract_pair(1, nXhYh, 0)
            rhs = ts.lift(bun.cov(Y).contract_pair(1, X, 0))
            rows.append(CheckRow.residual(
                "submersion/hor-hor-derivative", f"{where}/1",
                rel(lhs, rhs), 1e-8))
            apiXY = api.contract_pair(1, Xh, 0).contract_pair(1, Yh, 0)
            half = ts.ver.contract_pair(1, bracket(ts, Xh, Yh), 0) * 0.5
            rows.append(CheckRow.residual(
                "submersion/hor-hor-vertical-part", f"{where}/1",
                float(np.abs((apiXY - half).data[0]).max()), 1e-8))
            rows.append(CheckRow.residual(
                "submersion/fibres-geodesic", f"{where}/0",
                float(np.abs(tpi.data[0]).max()), 1e-9))
            # (iii)-(vi): projections recombine the derivative
            U, V = xiv, etav
            nUV = ts.cov(V).contract_pair(1, U, 0)
            rhs = ts.ver.contract_pair(1, nUV, 0) \
                + tpi.contract_pair(1, U, 0).contract_pair(1, V, 0)
            rows.append(CheckRow.residual(
                "submersion/vert-vert-split", f"{where}/1",
                float(np.abs((nUV - rhs).data[0]).max()), 1e-8))
            nVXh = ts.cov(Xh).contract_pair(1, V, 0)
            rhs = ts.hor.contract_pair(1, nVXh, 0) \
                + tpi.contract_pair(1, V, 0).contract_pair(1, Xh, 0)
            rows.append(CheckRow.residual(
                "submersion/vert-hor-split", f"{where}/1",
                float(np.abs((nVXh - rhs).data[0]).max()), 1e-8))
            nXhV = ts.cov(V).contract_pair(1, Xh, 0)
            rhs = ts.ver.contract_pair(1, nXhV, 0) \
                + api.contract_pair(1, Xh, 0).contract_pair(1, V, 0)
            rows.append(CheckRow.residual(
                "submersion/hor-vert-split", f"{where}/1",
                float(np.abs((nXhV - rhs).data[0]).max()), 1e-8))
            rhs0 = ts.lift(bun.cov(Y).contract_pair(1, X, 0)) + apiXY
            rows.append(CheckRow.residual(
                "submersion/hor-hor-full", f"{where}/1",
                float(np.abs((nXhYh - rhs0).data[0]).max()), 1e-8))
            # (vii): metric pairing antisymmetry
            g_e = ts.G_E
            pair1 = g_e.contract_pair(0, ts.cov(Xh).contract_pair(1, V, 0), 0) \
                .contract_pair(0, Yh, 0)
            br = ts.ver.contract_pair(1, bracket(ts, Xh, Yh), 0)
            pair2 = g_e.contract_pair(0, br, 0).contract_pair(0, V, 0) * -0.5
            pair3 = g_e.contract_pair(0, ts.cov(Yh).contract_pair(1, V, 0), 0) \
                .contract_pair(0, Xh, 0) * -1.0
            gap = max(abs(pair1.data[0] - pair2.data[0]),
                      abs(pair1.data[0] - pair3.data[0]))
            rows.append(CheckRow.residual(
                "submersion/mixed-pairing", f"{where}/1", float(gap), 1e-8))
            # (x)-(xiii)
            lhs = ts.ver.contract_pair(1, nXhV, 0)
            rhs = ts.ver.contract_pair(1, bracket(ts, Xh, V), 0)
            rows.append(CheckRow.residual(
                "submersion/hor-vert-bracket", f"{where}/1",
                float(np.abs((lhs - rhs).data[0]).max()), 1e-8))
            nVXh2 = ts.cov(Xh).contract_pair(1, V, 0)
            rhs = api.contract_pair(1, Xh, 0).contract_pair(1, V, 0)
            rows.append(CheckRow.residual(
                "submersion/vert-of-horiz", f"{where}/1",
                float(np.abs((nVXh2 - rhs).data[0]).max()), 1e-8))
            rows.append(CheckRow.residual(
                "submersion/vert-vert-flat", f"{where}/1",
                float(np.abs(ts.cov(etav).contract_pair(1, xiv, 0)
                             .data[0]).max()), 1e-8))
            lhs = ts.ver.contract_pair(1, ts.cov(xiv).contract_pair(1, Xh, 0), 0)
            rhs = ts.lift(bun.cov(xi).contract_pair(1, X, 0))
            rows.append(CheckRow.residual(
                "submersion/section-derivative", f"{where}/1",
                rel(lhs, rhs), 1e-8))
            # tensoriality of the fundamental tensor: rescale one argument
            fXh = Xh.scale_series(fh.entry(()))
            lhsf = api.contract_pair(1, fXh, 0).contract_pair(1, Yh, 0)
            rhsf = apiXY.scale_series(fh.entry(()))
            rows.append(CheckRow.residual(
                "submersion/fundamental-tensorial", f"{where}/1",
                float(np.abs((lhsf - rhsf).data[0]).max()), 1e-8))
            # structure-tensor identities
            B = ts.b_tensor()
            lhs = B.contract_pair(1, xiv, 0)
            Z = _vf(ts.chart, scn.n + scn.k, seed + 17 + pi)
            lhsz = lhs.contract_pair(1, Z, 0)
            rhsz = api.contract_pair(1, Z, 0).contract_pair(1, xiv, 0)
            rows.append(CheckRow.residual(
                "submersion/structure-on-vertical", f"{where}/1",
                float(np.abs((lhsz - rhsz).data[0]).max()), 1e-8))
            # derivative formulas for the lifted tensors, orders 1 and 2:
            # one test object per lift family, its slots then korder
            # covariant ones
            for korder in (1, 2):
                for offset, (kind, tag) in enumerate(zip(
                        BUNDLE_FAMILY_KINDS, _COV_DERIVATIVE_TAGS)):
                    slots = list(FAMILY_SLOTS[kind]) + [(TAN, COV)] * korder
                    dims = tuple(scn.k if space == FIB else scn.n
                                 for space, _variance in slots)
                    A = random_field(ch, slots, dims,
                                     seed + 18 + offset + pi + korder)
                    evaluate = kind in EVALUATING_FAMILIES
                    lifted = ts.lift(A, evaluate)
                    lhs = ts.cov(lifted)
                    rhs = ts.lift(bun.cov(A), evaluate) + lifted.derivation(B)
                    if evaluate:
                        # the pure lift rides along, its evaluated slot
                        # moved to the end
                        pure = ts.lift(A)
                        at = FAMILY_SLOTS[kind].index((FIB, COV))
                        rhs = rhs + pure.move_slot(at, pure.order - 1)
                    rows.append(CheckRow.residual(
                        f"submersion/{tag}-cov-derivative", f"{where}/{korder}",
                        float(np.abs((lhs - rhs).data[0]).max()), 1e-8))
            # lift isometries at the sample point
            for tag, obj in (("norm-pullback", bun.iterated(f, 2)),
                             ("norm-vertical", bun.cov(xi)),
                             ("norm-horizontal", bun.cov(X)),
                             ("norm-dual", bun.cov(lam))):
                rows.append(CheckRow.residual(
                    f"submersion/{tag}", f"{where}/1",
                    abs(ts.norm(ts.lift(obj)) - bun.norm(obj)), 1e-10))
            lam1 = bun.cov(lam)
            ev = ts.lift(lam1, evaluate=True)
            evald = lam1.contract_pair(0, _const_field(bun, ts), 0)
            rows.append(CheckRow.residual(
                "submersion/norm-evaluated", f"{where}/1",
                abs(ts.norm(ev) - bun.norm(evald)), 1e-10))
            # endomorphism evaluation vs vertical point evaluation
            Lr = random_field(ch, [(FIB, CONTRA), (FIB, COV)],
                              (scn.k, scn.k), seed + 25 + pi)
            lv = ts.lift(Lr)
            le = ts.lift(Lr, evaluate=True)
            pe = ts.vertical_point_eval(lv)
            rows.append(CheckRow.residual(
                "submersion/endo-point-eval", f"{where}/0",
                float(np.abs((pe - le).data[0]).max()), 1e-12))
    # pull-back map checks
    for name in ("pullback-map", "pullback-split"):
        scn = builtin_scenario(name)
        for pi, x0 in enumerate(scn.base_points):
            md, pb = scn.map_at(x0, cap=PULLBACK_CAP)
            where = f"{name}/p{pi}"
            aphi = pb.a_phi()
            # defining property on matched fields (the second field rides on
            # the image; built from a section along the first coordinate)
            dom, tgt = md.domain, md.target
            Yf = _vf(dom.chart, dom.n, seed + 31 + pi)
            Xf = _vf(dom.chart, dom.n, seed + 32 + pi)
            hatY = md.dphi.contract_pair(1, Yf, 0)
            lhs1 = md.dphi.contract_pair(
                1, dom.cov(Yf).contract_pair(1, Xf, 0), 0)
            # pullback-connection derivative of hatY along X
            pb_dY = pb.cov(hatY).contract_pair(1, Xf, 0)
            lhs = lhs1 - pb_dY
            rhs = aphi.contract_pair(1, Xf, 0).contract_pair(1, Yf, 0)
            rows.append(CheckRow.residual(
                "pullback/defect-property", f"{where}/1",
                float(np.abs((lhs - rhs).data[0]).max())
                / max(float(np.abs(rhs.data[0]).max()), 1e-12), 1e-8))
            # derivative identity for pulled-back covariant tensors
            for korder in (1, 2):
                A = random_field(tgt.chart, [(TAN, COV)] * korder,
                                 (tgt.n,) * korder, seed + 33 + pi + korder)
                Q = md.pullback_field(A)
                Astar = pb.convert_all(Q)
                lhs = dom.cov(Astar)
                rhs = pb.convert_all(md.pullback_field(tgt.cov(A)))
                for j in range(1, korder + 1):
                    rhs = rhs - pb.pullback_insert(Q, j)
                rows.append(CheckRow.residual(
                    "pullback/derivative-identity", f"{where}/{korder}",
                    float(np.abs((lhs - rhs).data[0]).max())
                    / max(float(np.abs(lhs.data[0]).max()), 1e-12), 1e-8))
            # the norm bound with the explicit constant
            fN = function_field(tgt, scn.random_function(34 + pi, nvars=tgt.n))
            c_k = _pullback_constant(md)
            for mord in range(1, 4):
                up = md.pullback_field(tgt.iterated(fN, mord))
                down = pb.convert_all(up)
                lhsn = pb.norm(down)
                rhsn = (c_k ** mord) * tgt.norm(tgt.iterated(fN, mord))
                rows.append(CheckRow.residual(
                    "pullback/norm-bound", f"{where}/{mord}",
                    lhsn - rhsn, 1e-10))
    return rows


def _const_field(bun, ts):
    """The fibre point of the total space as a constant section downstairs."""
    out = FieldTensor.zeros(bun.chart, [(FIB, CONTRA)], (bun.k,),
                            bun.chart.cap)
    out.data[0] = ts.chart.point[bun.n:]
    return out


def _pullback_constant(md):
    """sqrt(dim_N * dim_M) * max orthonormal-frame entry of the tangent map."""
    dom, tgt = md.domain, md.target
    ru = dom.registry[TAN].whiteners[0]
    rv = tgt.registry[TAN].whiteners[0]
    mat = rv @ md.dphi.data[0] @ np.linalg.inv(ru)
    n, m = tgt.n, dom.n
    return math.sqrt(n * m) * float(np.abs(mat).max())


# --------------------------------------------------------------------------
# recursions
# --------------------------------------------------------------------------

def _family_objects(scn, kind, salt):
    if kind == "P":
        return scn.random_function(salt)
    if kind == "H":
        return scn.random_vector_field(salt)
    if kind in ("L", "C"):
        return scn.random_endo(salt)
    if kind in ("V", "Vstar", "D"):
        return scn.random_section(salt)
    raise ValueError(kind)


def _object_field(bun, kind, exprs):
    """The test object of a lift family, with the family's slots."""
    slots = FAMILY_SLOTS[kind]
    if not slots:
        return function_field(bun, exprs)
    return section_field(bun, exprs, slots=slots)


def suite_recursions(config):
    """The built-in recursion matrix or, when `config.scenarios` is given,
    the expansion and inverse rows of `config.families` (default: all) up
    to `config.max_order` on those scenarios alone."""
    seed = config.seed
    if config.scenarios:
        plans = [(scn, config.max_order) for scn in config.scenarios]
        families = config.families or BUNDLE_FAMILY_KINDS
    else:
        plans = [(builtin_scenario("flat-line"), 5),
                 (builtin_scenario("twisted-bundle"), 3)]
        families = BUNDLE_FAMILY_KINDS
    rows = []
    for scn, m_hi in plans:
        # the rows read the tables at the base point; an order-0 run still
        # needs degree 1, as the Levi-Civita connection takes one
        # derivative of the metric
        ts = scn.total_at(cap=max(m_hi, 1))
        bun = ts.bundle
        flat = bun.conns[TAN].is_zero(1e-14) and bun.conns[FIB].is_zero(1e-14)
        thr = 1e-11 if flat else 1e-8
        where = f"{scn.name}/p0"
        for kind in families:
            fam = bundle_family(kind, ts)
            fwd = build_coefficients(fam, m_hi, "forward")
            inv = build_coefficients(fam, m_hi, "inverse")
            obj = _object_field(bun, kind, _family_objects(scn, kind, seed + 40))
            for m in range(m_hi + 1):
                rows.append(CheckRow.residual(
                    f"recursions/{kind}-expansion", f"{where}/{m}",
                    verify_expansion(fam, fwd, obj, m), thr))
                rows.append(CheckRow.residual(
                    f"recursions/{kind}-inverse", f"{where}/{m}",
                    verify_inverse_pair(fam, inv, obj, m), thr))
            if config.scenarios:
                continue
            # diagonal acts as the identity: its values through the generic
            # contraction, not the identity's closed-form action
            arg = fam.stream_lifted(0, obj, m_hi)
            diag = fwd.get(m_hi, 0, m_hi).copy()
            back = diag.apply_map(fam.n_aux_out() + m_hi, arg)
            rows.append(CheckRow.residual(
                f"recursions/{kind}-diagonal", f"{where}/{m_hi}",
                ts.norm(back - arg) / max(ts.norm(arg), 1e-12), 1e-12))
            if flat:
                # the evaluation couplings keep structural identity chains
                # even on flat data; only the main block must collapse
                offdiag = max((float(np.abs(A.data).max())
                               for (mm, c, s), A in fwd.items()
                               if c == 0 and s < mm), default=0.0)
                rows.append(CheckRow.residual(
                    f"recursions/{kind}-flat-collapse", f"{where}/-",
                    offdiag, 1e-12))
    if config.scenarios:
        return rows
    # breadth: every nonflat scenario at three sample points, to order m_lo;
    # together with the flat runs above this covers five scenarios
    m_lo = 2
    for scen_name in NONFLAT_SCENARIOS:
        scn = builtin_scenario(scen_name)
        for pi, x0 in enumerate(scn.base_points):
            if scen_name == "twisted-bundle" and pi == 0:
                continue            # already covered at full order above
            ts = scn.total_at(x0, cap=m_lo)
            for kind in BUNDLE_FAMILY_KINDS:
                fam = bundle_family(kind, ts)
                fwd = build_coefficients(fam, m_lo, "forward")
                obj = _object_field(ts.bundle, kind,
                                    _family_objects(scn, kind, seed + 40))
                for m in range(1, m_lo + 1):
                    rows.append(CheckRow.residual(
                        f"recursions/{kind}-expansion",
                        f"{scen_name}/p{pi}/{m}",
                        verify_expansion(fam, fwd, obj, m), 1e-8))
    # the connection-change and pull-back families, to order m_fam; the
    # change reads the other connection only through the difference tensor,
    # to degree m_fam - 2, and a connection is one degree short of its chart
    m_fam = 3
    tw = builtin_scenario("twisted-bundle")
    bun = tw.bundle_at(cap=m_fam)
    alt = tw.alt_bundle_at(cap=m_fam - 1)
    bun_bar = bun.with_connections(gamma=alt.conns[TAN], omega=alt.conns[FIB])
    fam = conn_family(bun, bun_bar)
    fwd = build_coefficients(fam, m_fam, "forward")
    inv = build_coefficients(fam, m_fam, "inverse")
    xi = section_field(bun, tw.random_section(seed + 41))
    for m in range(m_fam + 1):
        rows.append(CheckRow.residual(
            "recursions/CONN-expansion", f"twisted-bundle/p0/{m}",
            verify_expansion(fam, fwd, xi, m), 1e-8))
        rows.append(CheckRow.residual(
            "recursions/CONN-roundtrip", f"twisted-bundle/p0/{m}",
            verify_inverse_pair(fam, inv, xi, m), 1e-8))
    # trivial change collapses
    fam0 = conn_family(bun, bun)
    fwd0 = build_coefficients(fam0, 2, "forward")
    off = max((float(np.abs(A.data).max()) for (mm, c, s), A in fwd0.items()
               if s < mm), default=0.0)
    rows.append(CheckRow.residual(
        "recursions/CONN-trivial", "twisted-bundle/p0/-", off, 1e-13))
    # pull-back families
    for scen_name in ("pullback-map", "pullback-split"):
        scn = builtin_scenario(scen_name)
        md, pb = scn.map_at(cap=m_fam)
        fam = pullback_family(pb)
        fwd = build_coefficients(fam, m_fam, "forward")
        fobj = function_field(md.target, scn.random_function(
            seed + 42, nvars=md.target.n))
        for m in range(m_fam + 1):
            rows.append(CheckRow.residual(
                "recursions/PB-expansion", f"{scen_name}/p0/{m}",
                verify_expansion(fam, fwd, fobj, m), 1e-8))
        if scen_name == "pullback-split":
            rows.append(CheckRow.residual(
                "recursions/PB-inverse", f"{scen_name}/p0/{m_fam}",
                pullback_inverse_residual(pb, fwd, fobj, m_fam), 1e-8))
    # growth template on the twisted bundle; the template bound is taken at
    # half the growth order
    go = GROWTH_ORDER
    half = max(1, go // 2)
    ts4 = builtin_scenario("twisted-bundle").total_at(cap=go)
    for kind in BUNDLE_FAMILY_KINDS:
        fam = bundle_family(kind, ts4)
        tab = build_coefficients(fam, go, "forward")
        prof = growth_profile(tab, ts4, slack=2.0)
        rows.append(CheckRow.flag(
            f"recursions/{kind}-growth-coverage", f"twisted-bundle/p0/{go}",
            prof["coverage"] >= 1.0 - 1e-12,
            inputs=(f"C={prof['C']:.3g} sigma={prof['sigma']:.3g} "
                    f"rho={prof['rho']:.3g}"), value=1.0 - prof["coverage"]))
        dim_id = math.sqrt(np.prod([ts4.dims[TAN]] * (go + fam.n_aux_out())))
        # the padded norm of the entry, from its terms; the padded-norm row
        # below checks that norm against the dense Gram norm
        diag = tab.get(go, 0, go)
        rows.append(CheckRow.residual(
            f"recursions/{kind}-diagonal-norm", f"twisted-bundle/p0/{go}",
            abs(ts4.norm(diag) - dim_id), 1e-9,
            inputs=f"expect sqrt({ts4.dims[TAN]}^{go + fam.n_aux_out()})"))
        # the padded norm of every entry small enough to form against the
        # dense Gram norm of the formed map
        gap, covered = 0.0, 0
        for A in tab.entries.values():
            if math.prod(A.dims) > tc.WHITEN_CHUNK:
                continue
            want = ts4.norm(A.dense())
            gap = max(gap, abs(A.norm(ts4) - want) / max(want, 1e-300))
            covered += 1
        rows.append(CheckRow.residual(
            f"recursions/{kind}-padded-norm", f"twisted-bundle/p0/{go}",
            gap, 1e-13, inputs=f"{covered} of {len(tab.entries)} entries"))
        # template operator bounds at order zero: each substitution term is
        # controlled by the structure tensor norm times the map norm
        B = ts4.b_tensor()
        a_ref = tab.get(half, 0, half - 1)
        n_out = fam.n_aux_out() + half
        worst = 0.0
        for p in range(n_out, a_ref.order):
            term = a_ref.substitute(p, B)
            worst = max(worst, ts4.norm(term)
                        / max(ts4.norm(a_ref) * ts4.norm(B), 1e-300))
        rows.append(CheckRow.residual(
            f"recursions/{kind}-template-bound", f"twisted-bundle/p0/{half}",
            worst - 1.0, 1e-9))
    # growth profile degenerates on a flat scenario
    tsf = builtin_scenario("flat-line").total_at(cap=go)
    famf = bundle_family("V", tsf)
    tabf = build_coefficients(famf, go, "forward")
    proff = growth_profile(tabf, tsf, slack=2.0)
    rows.append(CheckRow.flag(
        "recursions/flat-growth-degenerate", f"flat-line/p0/{go}",
        proff["degenerate"]))
    return rows


# --------------------------------------------------------------------------
# connection-compare
# --------------------------------------------------------------------------

def suite_connection_compare(config):
    rows = []
    seed = config.seed
    # Gram-transfer two-sided bound with the eigenvalue construction
    for i in range(20):
        rng = _rng(seed, 100, i)
        dim = 3
        a1 = rng.uniform(-0.4, 0.4, size=(dim, dim))
        g1 = np.eye(dim) + 0.5 * (a1 + a1.T)
        a2 = rng.uniform(-0.4, 0.4, size=(dim, dim))
        g2 = np.eye(dim) + 0.5 * (a2 + a2.T)
        lam = np.linalg.eigvals(np.linalg.solve(g1, g2)).real
        sigma = min(lam.min(), 1.0 / lam.max())
        geo1, geo2 = point_geometry({"V": g1}), point_geometry({"V": g2})
        r, s = 1 + i % 2, 1 + (i // 2) % 2
        slots = [("V", CONTRA)] * r + [("V", COV)] * s
        data = rng.uniform(-1, 1, size=(1,) + (dim,) * (r + s))
        n1 = geo1.norm(FieldTensor(geo1.chart, slots, data, 0))
        n2 = geo2.norm(FieldTensor(geo2.chart, slots, data, 0))
        ok = (n1 <= n2 / sigma ** (r + s) + 1e-9
              and n2 <= n1 / sigma ** (r + s) + 1e-9)
        rows.append(CheckRow.flag(
            "compare/gram-transfer", f"case{i}/-/{r + s}", ok,
            inputs=f"sigma={sigma:.3g}"))
    # jet-norm families for two (metric, connection) pairs
    tw = builtin_scenario("twisted-bundle")
    m_hi = COMPARE_ORDER
    K = CompactSample(tw.base_points, "K")
    for si in range(10):
        exprs = tw.random_section(seed + 200 + si)

        def prov_a(x, e=exprs):
            bun = tw.bundle_at(x, cap=m_hi)
            return bun, section_field(bun, e)

        def prov_b(x, e=exprs):
            bun = tw.alt_bundle_at(x, cap=m_hi)
            return bun, section_field(bun, e)

        rep = norm_compare(prov_a, prov_b, K, m_hi)
        ok = (rep["forward"]["coverage"] >= 1.0 - 1e-12
              and rep["backward"]["coverage"] >= 1.0 - 1e-12)
        rows.append(CheckRow.flag(
            "compare/jet-norm-families", f"twisted-bundle/s{si}/{m_hi}", ok,
            inputs=(f"fwd C={rep['forward']['C']:.3g} "
                    f"sigma={rep['forward']['sigma']:.3g}; "
                    f"bwd C={rep['backward']['C']:.3g} "
                    f"sigma={rep['backward']['sigma']:.3g}")))
    # block scaling: quadrupling the fibre metric halves dual-slot norms;
    # the row reads order 0, and the Levi-Civita connection one beyond it
    bun = tw.bundle_at(cap=1)
    lam = section_field(bun, tw.random_section(seed + 230), slots=[(FIB, COV)])
    scaled = [[f"(* 4 {e})" for e in row_] for row_ in tw.fibre_metric]
    bun4 = BundleGeometry(tw.chart_at(cap=1), tw.k, scaled, tw.connection)
    ratio = bun4.norm(lam) / bun.norm(lam)
    rows.append(CheckRow.residual(
        "compare/gram-scaling", "twisted-bundle/p0/0",
        abs(ratio - 0.5), 1e-12))
    # intrinsic vs local seminorms, with rescaled-weight witnesses
    weights = [WeightSequence.geometric(0.5, m_hi),
               WeightSequence.geometric(1.0, m_hi),
               WeightSequence.harmonic(m_hi)]
    for si in range(10):
        exprs = tw.random_section(seed + 240 + si)

        def prov(x, e=exprs):
            bun = tw.bundle_at(x, cap=m_hi)
            return bun, section_field(bun, e)

        rep = topology_equivalence_check(prov, K, weights, m_hi)
        ok = all(w["local_le"] and w["intrinsic_le"] for w in rep["weights"])
        rows.append(CheckRow.flag(
            "compare/local-intrinsic", f"twisted-bundle/s{si}/{m_hi}", ok,
            inputs=(f"C_loc={rep['local_le_intrinsic']['C']:.3g} "
                    f"sigma={rep['local_le_intrinsic']['sigma']:.3g}")))
    # multinomial envelope, exhaustively at small size
    import itertools
    ok = True
    for n in (1, 2, 3):
        for m in range(9):
            for split in itertools.product(range(m + 1), repeat=n):
                if sum(split) != m:
                    continue
                multi = math.factorial(m)
                for p in split:
                    multi //= math.factorial(p)
                if multi > n ** m:
                    ok = False
    rows.append(CheckRow.flag("compare/multinomial-envelope", "small/-/8", ok))
    return rows


# --------------------------------------------------------------------------
# seminorms
# --------------------------------------------------------------------------

def suite_seminorms(config):
    rows = []
    seed = config.seed
    line = builtin_scenario("flat-line")
    K0 = CompactSample([[0.0]], "origin")

    def prov_f(expr):
        def inner(x):
            bun = line.bundle_at(x, cap=RADIUS_ORDER)
            return bun, function_field(bun, expr)
        return inner

    # seminorm axioms on a nonflat scenario
    tw = builtin_scenario("twisted-bundle")
    K = CompactSample(tw.base_points, "K")
    exprs1 = tw.random_section(seed + 300)
    exprs2 = tw.random_section(seed + 301)
    m_hi = 4

    def prov(e):
        def inner(x):
            bun = tw.bundle_at(x, cap=m_hi)
            return bun, section_field(bun, e)
        return inner

    def prov_sum(x):
        bun = tw.bundle_at(x, cap=m_hi)
        return bun, section_field(bun, exprs1) + section_field(bun, exprs2)

    def prov_scaled(x):
        bun = tw.bundle_at(x, cap=m_hi)
        return bun, section_field(bun, exprs1) * -2.5

    a = WeightSequence.geometric(0.5, m_hi)
    p1 = p_omega(prov(exprs1), K, a, m_hi)
    p2 = p_omega(prov(exprs2), K, a, m_hi)
    psum = p_omega(prov_sum, K, a, m_hi)
    pscaled = p_omega(prov_scaled, K, a, m_hi)
    rows.append(CheckRow.residual("seminorms/triangle", "twisted-bundle/K/4",
                                  psum - (p1 + p2), 1e-12))
    rows.append(CheckRow.residual("seminorms/homogeneity",
                                  "twisted-bundle/K/4",
                                  abs(pscaled - 2.5 * p1), 1e-12))
    prof = jet_norm_profile(prov(exprs1), K, m_hi)
    mono_m = bool(np.all(np.diff(prof, axis=1) >= -1e-15))
    rows.append(CheckRow.flag("seminorms/monotone-order",
                              "twisted-bundle/K/4", mono_m))
    Ksub = CompactSample(tw.base_points[:1], "K0")
    rows.append(CheckRow.flag(
        "seminorms/monotone-sample", "twisted-bundle/K/4",
        p_infinity(prov(exprs1), Ksub, m_hi)
        <= p_infinity(prov(exprs1), K, m_hi) + 1e-15))
    # hand values
    rows.append(CheckRow.residual(
        "seminorms/exp-profile", "flat-line/origin/3",
        abs(p_infinity(prov_f("(exp x1)"), K0, 3)
            - math.sqrt(1 + 1 + 0.25 + 1.0 / 36.0)), 1e-12))
    flc = builtin_scenario("flat")

    def prov_const(x):
        bun = flc.bundle_at(x, cap=3)
        return bun, section_field(bun, ["0.8", "-0.6"])

    rows.append(CheckRow.residual(
        "seminorms/constant-section", "flat/K/3",
        abs(p_infinity(prov_const, CompactSample(flc.base_points), 3) - 1.0),
        1e-12))
    # p_omega truncation stability for an entire function, geometric weights
    vals = [p_omega(prov_f("(exp x1)"), K0, WeightSequence.geometric(0.5, m), m)
            for m in (6, 8, 10)]
    rows.append(CheckRow.residual(
        "seminorms/weighted-stability", "flat-line/origin/10",
        abs(vals[-1] - vals[-2]), 1e-9))
    rows.append(CheckRow.residual(
        "seminorms/order-zero", "flat-line/origin/0",
        abs(p_omega(prov_f("(exp x1)"), K0, WeightSequence([0.7]), 0)
            - 0.7 * 1.0), 1e-12))
    # local seminorm of a single monomial
    def prov_mono(x):
        bun = line.bundle_at(x, cap=6)
        return bun, function_field(bun, "(* 0.5 (* x1 (* x1 x1)))")
    aa = WeightSequence.geometric(0.5, 6)
    # x^3/3! has normalized coefficient 1/2 * 3!/3! ... the stored entry is
    # the raw coefficient of x^3, namely 0.5
    want = 0.5 * np.prod(aa.values[:4])
    rows.append(CheckRow.residual(
        "seminorms/local-monomial", "flat-line/origin/3",
        abs(local_seminorm(prov_mono, K0, aa, 6) - want), 1e-12))
    def prov_zero(x):
        bun = line.bundle_at(x, cap=6)
        return bun, function_field(bun, "0")
    rows.append(CheckRow.residual(
        "seminorms/zero", "flat-line/origin/6",
        local_seminorm(prov_zero, K0, aa, 6)
        + p_omega(prov_zero, K0, aa, 6), 1e-15))
    # analyticity certificates: fitted radius brackets the pole distance
    fit1 = growth_fit(prov_f("(/ 1 (+ 1 (* x1 x1)))"), K0, RADIUS_ORDER)
    rows.append(CheckRow.flag(
        "seminorms/radius-unit-pole", "flat-line/origin/10",
        0.8 <= fit1.r <= 1.2 and fit1.max_violation <= 1e-9,
        inputs=f"r={fit1.r:.3f} C={fit1.C:.3g}", value=abs(fit1.r - 1.0)))
    fit2 = growth_fit(prov_f("(/ 1 (+ 1 (* 4 (* x1 x1))))"), K0,
                      RADIUS_ORDER)
    rows.append(CheckRow.flag(
        "seminorms/radius-half-pole", "flat-line/origin/10",
        0.4 <= fit2.r <= 0.6 and fit2.max_violation <= 1e-9,
        inputs=f"r={fit2.r:.3f}", value=abs(fit2.r - 0.5)))
    fit3 = growth_fit(prov_f("(+ 1 (* x1 (* x1 x1)))"), K0,
                      RADIUS_ORDER)
    rows.append(CheckRow.flag(
        "seminorms/radius-polynomial", "flat-line/origin/10",
        fit3.trivial or fit3.r >= 1.0, inputs=f"r={fit3.r:.3f}"))
    return rows


# --------------------------------------------------------------------------
# continuity
# --------------------------------------------------------------------------

def suite_continuity(config):
    rows = []
    seed = config.seed
    tw = builtin_scenario("twisted-bundle")
    # (a) exact triangle inequality for jet norms
    for i in range(10):
        e1 = tw.random_section(seed + 400 + i)
        e2 = tw.random_section(seed + 420 + i)
        bun = tw.bundle_at(cap=3)
        j1 = decompose_jet(section_field(bun, e1), bun, 3)
        j2 = decompose_jet(section_field(bun, e2), bun, 3)
        jsum = decompose_jet(section_field(bun, e1)
                             + section_field(bun, e2), bun, 3)
        rows.append(CheckRow.residual(
            "continuity/add-triangle", f"twisted-bundle/case{i}/3",
            jet_norm(jsum) - (jet_norm(j1) + jet_norm(j2)), 1e-12))
    # (b) composition envelope, to order m_env
    m_env = 4
    count = 0
    for i in range(50):
        ei = tw.random_endo(seed + 440 + i, degree=2)
        es = tw.random_section(seed + 500 + i, degree=2)
        x0 = tw.base_points[i % len(tw.base_points)]
        bun = tw.bundle_at(x0, cap=m_env)
        L = _object_field(bun, "L", ei)
        xi = section_field(bun, es)
        for m in range(m_env + 1):
            jl = jet_norm(decompose_jet(L, bun, m))
            jx = jet_norm(decompose_jet(xi, bun, m))
            jc = jet_norm(decompose_jet(L.contract_pair(1, xi, 0), bun, m))
            rows.append(CheckRow.residual(
                "continuity/compose-envelope", f"twisted-bundle/case{i}/{m}",
                jc - (3.0 ** (m + 1)) * jl * jx, 1e-10))
            count += 1
        if count >= 250:
            break
    # (c) prolongation envelope, to order kk + mm = 5
    for name in ("twisted-bundle", "conformal-base"):
        scn = builtin_scenario(name)
        bun = scn.bundle_at(cap=5)
        sec = section_field(bun, scn.random_section(seed + 460))
        for kk in (1, 2):
            for mm in (1, 2, 3):
                nested = prolong_decompose(sec, bun, mm, kk)
                nn = nested_jet_norm(nested)
                fj = jet_norm(decompose_jet(sec, bun, kk + mm))
                rows.append(CheckRow.residual(
                    "continuity/jet-envelope", f"{name}/p0/({kk},{mm})",
                    nn - (mm + kk) ** kk * (mm + 1) * fj, 1e-10))
    # (d) pull-back chain bound over the sampled compact set, to order 3
    for name in ("pullback-map", "pullback-split"):
        scn = builtin_scenario(name)
        consts = []
        mds = []
        for x0 in scn.base_points:
            md, pb = scn.map_at(x0, cap=3)
            consts.append(_pullback_constant(md))
            mds.append((md, pb))
        c_k = max(consts)
        fN = scn.random_function(seed + 470, nvars=mds[0][0].target.n)
        for pi, (md, pb) in enumerate(mds):
            fNf = function_field(md.target, fN)
            for m in range(1, 4):
                up = md.pullback_field(md.target.iterated(fNf, m))
                pulled = pb.norm(pb.convert_all(up))
                target = md.target.norm(md.target.iterated(fNf, m))
                rows.append(CheckRow.residual(
                    "continuity/pullback-chain", f"{name}/p{pi}/{m}",
                    pulled - c_k ** m * target, 1e-10))
    # (e) two-sided jet bounds for every lift family; the lower bound for
    # the evaluation families needs the sup over the unit fibre slice, so
    # the total-space norms are aggregated over the fibre samples
    m_lift = 3
    for kind in BUNDLE_FAMILY_KINDS:
        ms_up, up_ratio = [], []
        ms_down, down_ratio = [], []
        for oi in range(3):
            exprs = _family_objects(tw, kind, seed + 480 + oi)
            for x0 in tw.base_points[:2]:
                je_by_m = {}
                jb_by_m = {}
                for u0 in tw.fibre_points[:2]:
                    ts = tw.total_at(x0, u0, cap=m_lift)
                    bun = ts.bundle
                    obj = _object_field(bun, kind, exprs)
                    fam = bundle_family(kind, ts)
                    lifted = fam.stream_lifted(0, obj, 0)
                    for m in range(m_lift + 1):
                        je = jet_norm(decompose_jet(lifted, ts, m))
                        jb = jet_norm(decompose_jet(obj, bun, m))
                        ms_up.append(m)
                        up_ratio.append(je / max(jb, 1e-300))
                        je_by_m[m] = max(je_by_m.get(m, 0.0), je)
                        jb_by_m[m] = jb
                for m, jb in jb_by_m.items():
                    if jb < 1e-13 and je_by_m[m] < 1e-13:
                        continue
                    ms_down.append(m)
                    down_ratio.append(jb / max(je_by_m[m], 1e-300))
        C_up, s_up, cov_up = fit_envelope(ms_up, up_ratio)
        C_dn, s_dn, cov_dn = fit_envelope(ms_down, down_ratio)
        rows.append(CheckRow.flag(
            f"continuity/lift-bounds-{kind}", f"twisted-bundle/K/{m_lift}",
            min(cov_up, cov_dn) >= 1.0 - 1e-12,
            inputs=(f"up C={C_up:.3g} sigma={s_up:.3g}; "
                    f"down C={C_dn:.3g} sigma={s_dn:.3g}")))
    # (f) tangent lift: decomposition, then the fitted envelope to order
    # m_tan, which reads the base field's jet one order beyond
    m_tan = 2
    ms, ratios = [], []
    for name in ("flat", "twisted-bundle"):
        scn = builtin_scenario(name)
        for pi, x0 in enumerate(scn.base_points[:2]):
            base = scn.chart_at(x0, cap=m_tan + 1)
            omega_tb = FieldTensor(base.chart,
                                   [(FIB, CONTRA), (TAN, COV), (FIB, COV)],
                                   base.gamma.data, base.gamma.degree)
            tb = BundleGeometry(base, scn.n, scn.metric, omega=omega_tb)
            for ui, u0 in enumerate(([0.4, -0.3], [0.7, 0.2])):
                tst = TotalSpaceGeometry(tb, u0)
                Xe = scn.random_vector_field(seed + 520 + pi)
                X = section_field(tb, Xe, slots=[(TAN, CONTRA)])
                xt = _tangent_lift(tst, X)
                xh = tst.lift(X)
                # torsion of the Levi-Civita fibre connection vanishes, so
                # the vertical part is the evaluated derivative endomorphism
                L = _as_endo(tb.cov(X))
                le = tst.lift(L, evaluate=True)
                gap = tst.norm(xt - (xh + le)) / max(tst.norm(xt), 1e-12)
                rows.append(CheckRow.residual(
                    "continuity/tangent-decomposition", f"{name}/p{pi}u{ui}/1",
                    gap, 1e-9))
                for m in range(m_tan + 1):
                    je = jet_norm(decompose_jet(xt, tst, m))
                    jb = jet_norm(decompose_jet(X, base, m + 1))
                    ms.append(m)
                    ratios.append(je / max(jb, 1e-300))
    C, sigma, cov = fit_envelope(ms, ratios)
    rows.append(CheckRow.flag(
        "continuity/tangent-envelope", "mixed/K/2", cov >= 1.0 - 1e-12,
        inputs=f"C={C:.3g} sigma={sigma:.3g}"))
    # differential / covariant derivative / lie / bracket kernels to order
    # m_ker, each bounded by jets one order beyond
    m_ker = 3
    bun = tw.bundle_at(cap=m_ker + 1)
    f = function_field(bun, tw.random_function(seed + 530))
    xi = section_field(bun, tw.random_section(seed + 531))
    X = section_field(bun, tw.random_vector_field(seed + 532),
                      slots=[(TAN, CONTRA)])
    Y = section_field(bun, tw.random_vector_field(seed + 533),
                      slots=[(TAN, CONTRA)])
    for m in range(m_ker + 1):
        jd = jet_norm(decompose_jet(bun.cov(f), bun, m))
        jf = jet_norm(decompose_jet(f, bun, m + 1))
        rows.append(CheckRow.residual(
            "continuity/differential-bound", f"twisted-bundle/p0/{m}",
            jd - (m + 1) * jf, 1e-10))
        jn = jet_norm(decompose_jet(bun.cov(xi), bun, m))
        jxi = jet_norm(decompose_jet(xi, bun, m + 1))
        rows.append(CheckRow.residual(
            "continuity/nabla-bound", f"twisted-bundle/p0/{m}",
            jn - (m + 1) * jxi, 1e-10))
        jb = jet_norm(decompose_jet(bracket(bun, X, Y), bun, m))
        jX, jY = (jet_norm(decompose_jet(Z, bun, m + 1)) for Z in (X, Y))
        jXm, jYm = (jet_norm(decompose_jet(Z, bun, m)) for Z in (X, Y))
        rows.append(CheckRow.residual(
            "continuity/bracket-bound", f"twisted-bundle/p0/{m}",
            jb - (3.0 ** (m + 1)) * (m + 1) * (jY * jXm + jX * jYm), 1e-10))
        jl = jet_norm(decompose_jet(lie_derivative(bun, X, f), bun, m))
        rows.append(CheckRow.residual(
            "continuity/lie-bound", f"twisted-bundle/p0/{m}",
            jl - (3.0 ** (m + 1)) * (m + 1) * jf * jXm, 1e-10))
    return rows


def _as_endo(nx):
    """Reinterpret nabla X (slots [tan up, tan down]) as a fibre endo field."""
    out = FieldTensor(nx.chart, [(FIB, CONTRA), (FIB, COV)], nx.data,
                      nx.degree)
    return out


def _tangent_lift(tst, X):
    """The complete lift of a vector field to the tangent bundle chart:
    components (X, dX . u) in the induced coordinates."""
    n = tst.n
    ctx = tst.chart.ctx
    xe = tst.from_base(X)
    d = xe.degree - 1
    size = ctx.size(d)
    parts = [ctx.truncate(ctx.derive(xe.data, xe.degree, j), d)
             for j in range(n)]
    dmat = np.stack(parts, axis=-1)     # [C, i, j] = d_j X^i
    uarr = ctx.truncate(tst.u_vec.data, d)
    vert = ctx.contract(dmat, d, uarr, d, [1], [0], d)
    data = np.zeros((size, 2 * n))
    data[:, :n] = xe.data[:size]
    data[:, n:] = vert
    return FieldTensor(tst.chart, [(TAN, CONTRA)], data, d)


#: every check tag each suite must emit; regressions that silently
#: drop checks from the matrix fail the coverage test
CHECK_MANIFEST = {
    "connection-compare": (
        "compare/gram-scaling",
        "compare/gram-transfer",
        "compare/jet-norm-families",
        "compare/local-intrinsic",
        "compare/multinomial-envelope",
    ),
    "continuity": (
        "continuity/add-triangle",
        "continuity/bracket-bound",
        "continuity/compose-envelope",
        "continuity/differential-bound",
        "continuity/jet-envelope",
        "continuity/lie-bound",
        "continuity/lift-bounds-C",
        "continuity/lift-bounds-D",
        "continuity/lift-bounds-H",
        "continuity/lift-bounds-L",
        "continuity/lift-bounds-P",
        "continuity/lift-bounds-V",
        "continuity/lift-bounds-Vstar",
        "continuity/nabla-bound",
        "continuity/pullback-chain",
        "continuity/tangent-decomposition",
        "continuity/tangent-envelope",
    ),
    "geometry": (
        "geometry/bracket-antisymmetry",
        "geometry/bracket-torsion-free",
        "geometry/composite-derivative",
        "geometry/conformal-coefficient",
        "geometry/connection-difference",
        "geometry/derivative-comparison",
        "geometry/flat-connection",
        "geometry/flat-gradient",
        "geometry/hessian-symmetric",
        "geometry/insertion-derivative",
        "geometry/lie-bracket",
        "geometry/lie-pairing",
        "geometry/metric-parallel",
        "geometry/sphere-coefficients",
        "geometry/tensor-leibniz",
        "geometry/torsion-free",
    ),
    "jets": (
        "jets/constant-section",
        "jets/factorial-norm",
        "jets/function-decompose",
        "jets/projection-monotone",
        "jets/prolong-flat-cubic",
        "jets/prolong-square",
        "jets/prolong-square-flat",
        "jets/wellposed",
    ),
    "recursions": (
        "recursions/C-diagonal",
        "recursions/C-diagonal-norm",
        "recursions/C-expansion",
        "recursions/C-flat-collapse",
        "recursions/C-growth-coverage",
        "recursions/C-inverse",
        "recursions/C-padded-norm",
        "recursions/C-template-bound",
        "recursions/CONN-expansion",
        "recursions/CONN-roundtrip",
        "recursions/CONN-trivial",
        "recursions/D-diagonal",
        "recursions/D-diagonal-norm",
        "recursions/D-expansion",
        "recursions/D-flat-collapse",
        "recursions/D-growth-coverage",
        "recursions/D-inverse",
        "recursions/D-padded-norm",
        "recursions/D-template-bound",
        "recursions/H-diagonal",
        "recursions/H-diagonal-norm",
        "recursions/H-expansion",
        "recursions/H-flat-collapse",
        "recursions/H-growth-coverage",
        "recursions/H-inverse",
        "recursions/H-padded-norm",
        "recursions/H-template-bound",
        "recursions/L-diagonal",
        "recursions/L-diagonal-norm",
        "recursions/L-expansion",
        "recursions/L-flat-collapse",
        "recursions/L-growth-coverage",
        "recursions/L-inverse",
        "recursions/L-padded-norm",
        "recursions/L-template-bound",
        "recursions/P-diagonal",
        "recursions/P-diagonal-norm",
        "recursions/P-expansion",
        "recursions/P-flat-collapse",
        "recursions/P-growth-coverage",
        "recursions/P-inverse",
        "recursions/P-padded-norm",
        "recursions/P-template-bound",
        "recursions/PB-expansion",
        "recursions/PB-inverse",
        "recursions/V-diagonal",
        "recursions/V-diagonal-norm",
        "recursions/V-expansion",
        "recursions/V-flat-collapse",
        "recursions/V-growth-coverage",
        "recursions/V-inverse",
        "recursions/V-padded-norm",
        "recursions/V-template-bound",
        "recursions/Vstar-diagonal",
        "recursions/Vstar-diagonal-norm",
        "recursions/Vstar-expansion",
        "recursions/Vstar-flat-collapse",
        "recursions/Vstar-growth-coverage",
        "recursions/Vstar-inverse",
        "recursions/Vstar-padded-norm",
        "recursions/Vstar-template-bound",
        "recursions/flat-growth-degenerate",
    ),
    "seminorms": (
        "seminorms/constant-section",
        "seminorms/exp-profile",
        "seminorms/homogeneity",
        "seminorms/local-monomial",
        "seminorms/monotone-order",
        "seminorms/monotone-sample",
        "seminorms/order-zero",
        "seminorms/radius-half-pole",
        "seminorms/radius-polynomial",
        "seminorms/radius-unit-pole",
        "seminorms/triangle",
        "seminorms/weighted-stability",
        "seminorms/zero",
    ),
    "submersion": (
        "pullback/defect-property",
        "pullback/derivative-identity",
        "pullback/norm-bound",
        "submersion/dual-cov-derivative",
        "submersion/endo-cov-derivative",
        "submersion/endo-eval-cov-derivative",
        "submersion/endo-point-eval",
        "submersion/eval-cov-derivative",
        "submersion/fibres-geodesic",
        "submersion/fundamental-tensorial",
        "submersion/hor-hor-derivative",
        "submersion/hor-hor-full",
        "submersion/hor-hor-vertical-part",
        "submersion/hor-vert-bracket",
        "submersion/hor-vert-split",
        "submersion/horiz-cov-derivative",
        "submersion/horiz-evaluation",
        "submersion/horiz-function",
        "submersion/horizvf-cov-derivative",
        "submersion/mixed-pairing",
        "submersion/norm-dual",
        "submersion/norm-evaluated",
        "submersion/norm-horizontal",
        "submersion/norm-pullback",
        "submersion/norm-vertical",
        "submersion/section-derivative",
        "submersion/structure-on-vertical",
        "submersion/vert-cov-derivative",
        "submersion/vert-evaluation",
        "submersion/vert-hor-split",
        "submersion/vert-kills-horiz",
        "submersion/vert-of-horiz",
        "submersion/vert-vert-flat",
        "submersion/vert-vert-split",
    ),
    "taylor": (
        "taylor/chain-rule",
        "taylor/fd-agreement",
        "taylor/leibniz",
        "taylor/ring-distributive",
        "taylor/series-reciprocal",
    ),
    "tensor-laws": (
        "tensor/apply-bound",
        "tensor/delta-roundtrip",
        "tensor/derivation-dual",
        "tensor/derivation-mixed",
        "tensor/derivation-vector",
        "tensor/id-norm",
        "tensor/ins-op-1",
        "tensor/ins-op-2",
        "tensor/norm-equiv",
        "tensor/opnorm-upper",
        "tensor/otimes-norm",
        "tensor/push-identity",
        "tensor/push-isometry",
        "tensor/shuffle-count",
        "tensor/sym-contraction",
        "tensor/sym-product-altform",
        "tensor/sym-product-assoc",
        "tensor/sym-projection",
        "tensor/sym-rank",
    ),
}
