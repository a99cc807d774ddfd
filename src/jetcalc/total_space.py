"""The total space E = U x R^k as a chart geometry.

Coordinates on E are (x, u).  The bundle metric, fibre metric, and linear
connection are re-expanded on the E-chart (they depend on x only, so this is
an index embedding, not a recomputation), the Sasaki-style metric is
assembled from the horizontal/vertical coframe, and its Levi-Civita
connection is computed by the same generic routine used on the base.

Horizontal/vertical structure is carried as explicit projector fields so
the dense tensor contractions apply verbatim; all lifted objects live in
tangent-space slots of the E-chart.
"""

from __future__ import annotations

import numpy as np

from .fields import (FIB, PTN, TAN, Chart, FieldTensor, Geometry,
                     identity_field, levi_civita)
from .taylor import MultiIndex
from .tensor_core import COV, CONTRA, TensorShape

__all__ = [
    "TotalSpaceGeometry",
    "LIFT_KINDS",
    "slot_kinds",
    "lift",
    "MapData",
    "PullbackGeometry",
]

_TAN_UP, _TAN_DOWN = (TAN, CONTRA), (TAN, COV)
_FIB_UP, _FIB_DOWN = (FIB, CONTRA), (FIB, COV)

#: how a base slot lifts, by its space and variance (see `slot_kinds`)
_SLOT_RULE = {_TAN_UP: "hor", _TAN_DOWN: "base", _FIB_UP: "vert",
              _FIB_DOWN: "theta"}

#: the named lifts: the base slots each takes and whether it evaluates;
#: a set stands for any sequence of its slots
_NAMED_LIFTS = {
    "horiz_function": ((), False),
    "vert_section": ((_FIB_UP,), False),
    "horiz_vector_field": ((_TAN_UP,), False),
    "vert_dual": ((_FIB_DOWN,), False),
    "vert_endo": ((_FIB_UP, _FIB_DOWN), False),
    "eval_dual": ((_FIB_DOWN,), True),
    "eval_endo": ((_FIB_UP, _FIB_DOWN), True),
    "horiz_tensor": ({_TAN_UP, _TAN_DOWN}, False),
    "vert_tensor": ({_FIB_UP, _FIB_DOWN, _TAN_DOWN}, False),
    "tensor_eval": ({_FIB_UP, _FIB_DOWN, _TAN_DOWN}, True),
}
LIFT_KINDS = tuple(_NAMED_LIFTS)


def slot_kinds(slots, evaluate=False):
    """The `lift_mixed` kinds of base slots, one per slot.

    A TAN up slot lifts horizontally, a TAN down slot is pulled back, a
    FIB up slot lifts vertically, and a FIB down slot goes to the vertical
    coframe theta or, when `evaluate`, is contracted with the tautological
    fibre point.
    """
    kinds = []
    for s in TensorShape(slots):
        kind = _SLOT_RULE.get((s.space, s.variance))
        if kind is None:
            raise ValueError(f"a {s.space} slot has no lift to the total "
                             f"space")
        kinds.append("eval" if evaluate and kind == "theta" else kind)
    return kinds


def _embedding_map(m_ctx, e_ctx, n):
    """Index map from base-chart multi-indices into E-chart ones (u-exponents
    zero)."""
    src, dst = [], []
    for i, I in enumerate(m_ctx.indices):
        if I.order > e_ctx.cap:
            continue
        J = MultiIndex(tuple(I) + (0,) * (e_ctx.nvars - n))
        src.append(i)
        dst.append(e_ctx.lookup[J])
    return np.array(src), np.array(dst)


class TotalSpaceGeometry(Geometry):
    """Chart geometry of E with the submersion metric and its connection."""

    def __init__(self, bundle, fibre_point):
        self.bundle = bundle
        n, k = bundle.n, bundle.k
        point = np.concatenate([bundle.chart.point,
                                np.asarray(fibre_point, dtype=float)])
        chart = Chart(point, bundle.chart.cap)
        self.n, self.k = n, k
        self._emb = _embedding_map(bundle.chart.ctx, chart.ctx, n)
        self._echart = chart

        g = self.from_base(bundle.base.g)
        h = self.from_base(bundle.h)
        om = self.from_base(bundle.omega)       # [fib up, tan_M down, fib down]
        self.g_base, self.h_fib, self.omega = g, h, om

        d = min(g.degree, h.degree, om.degree)
        nk = n + k
        # tautological fibre point as a series vector u^a
        u = np.zeros((chart.ctx.size(d), k))
        for a in range(k):
            s = chart.coordinate(n + a, d)
            u[:, a] = s.coeffs
        self.u_vec = FieldTensor(chart, [(FIB, CONTRA)], u, d)

        # theta^a_J = omega^a_{jb} u^b for J = j < n; delta for J = n + a
        omu = om.contract_pair(2, self.u_vec, 0)    # [fib up, tan_M down]
        theta = FieldTensor.zeros(chart, [(FIB, CONTRA), (TAN, COV)],
                                  (k, nk), d)
        theta.data[:, :, :n] = omu.data
        theta.data[0, :, n:] += np.eye(k)
        self.theta = theta

        # vertical/horizontal projectors on TE
        ver = FieldTensor.zeros(chart, [(TAN, CONTRA), (TAN, COV)],
                                (nk, nk), d)
        ver.data[:, n:, :] = theta.data
        hor = identity_field(chart, TAN, nk, d) - ver
        self.ver, self.hor = ver, hor

        # G_E = pi^* g + h_ab theta^a theta^b
        GE = FieldTensor.zeros(chart, [(TAN, COV), (TAN, COV)], (nk, nk), d)
        GE.data[:, :n, :n] = g.data[: chart.ctx.size(d)]
        hth = h.contract_pair(1, theta, 0)          # [fib down, tan down]
        GE = GE + hth.contract_pair(0, theta, 0)    # [tan down, tan down]
        gamma = levi_civita(GE)
        super().__init__(chart, {TAN: nk, FIB: k},
                         {TAN: GE, FIB: h},
                         {TAN: gamma, FIB: None})
        self.G_E = GE
        self.gamma_E = gamma
        self._oneill = None
        self._b_tensor = None
        self._converters = {}

    # --- base-to-total transport -------------------------------------------

    def from_base(self, T):
        """Re-expand a base-chart field on the E-chart (same slots)."""
        src, dst = self._emb
        d = min(T.degree, self._echart.cap)
        size = self._echart.ctx.size(d)
        data = np.zeros((size,) + T.dims)
        keep = dst < size
        data[dst[keep]] = T.data[src[keep]]
        return FieldTensor(self._echart, T.slots, data, d)

    # --- lifts ---------------------------------------------------------------

    def _slot_converters(self, d):
        """The constant fields that convert each kind of base slot at degree
        `d`, built once per degree and read-only."""
        if d in self._converters:
            return self._converters[d]
        n, k, nk = self.n, self.k, self.n + self.k
        chart = self.chart
        size = chart.ctx.size(d)
        conv = {}
        # each converter: [E slot (output)][pairing slot dual to the M slot]
        pb = FieldTensor.zeros(chart, [(TAN, COV), (TAN, CONTRA)], (nk, n), d)
        pb.data[0, :n, :] = np.eye(n)
        conv["base"] = pb
        pv = FieldTensor.zeros(chart, [(TAN, CONTRA), (FIB, COV)], (nk, k), d)
        pv.data[0, n:, :] = np.eye(k)
        conv["vert"] = pv
        ph = FieldTensor.zeros(chart, [(TAN, CONTRA), (TAN, COV)], (nk, n), d)
        ph.data[0, :n, :] = np.eye(n)
        ph.data[:, n:, :] = -self.theta.data[:size, :, :n]
        conv["hor"] = ph
        th = FieldTensor.zeros(chart, [(TAN, COV), (FIB, CONTRA)], (nk, k), d)
        th.data[:] = np.swapaxes(self.theta.data[:size], 1, 2)
        conv["theta"] = th
        for c in conv.values():
            c.data.flags.writeable = False
        self._converters[d] = conv
        return conv

    def lift_mixed(self, T, kinds):
        """Lift a base-chart field; `kinds[i]` tells how slot i converts.

        Kinds: "base" (pull a base covector back), "hor"/"vert" (horizontal /
        vertical vector), "theta" (fibre covector to the vertical coframe),
        "eval" (contract a fibre-dual slot with the tautological point).
        """
        out = self.from_base(T)
        d = min(out.degree, self.theta.degree)
        conv = self._slot_converters(d)
        # process from the last slot so earlier positions stay valid
        for pos in reversed(range(len(kinds))):
            kind = kinds[pos]
            if kind == "eval":
                out = out.contract_pair(pos, self.u_vec, 0)
                continue
            c = conv[kind]
            out = out.contract_pair(pos, c, 1).move_slot(out.order - 1, pos)
        return out

    def lift(self, T, evaluate=False):
        """Lift a base-chart field slot by slot (see `slot_kinds`)."""
        return self.lift_mixed(T, slot_kinds(T.slots, evaluate))

    def lift_function(self, f_scalar):
        return self.from_base(FieldTensor.from_scalar(self.bundle.chart,
                                                      f_scalar))

    def tautological_field(self):
        """The vertical vector field whose value at (x, u) is u itself."""
        nk = self.n + self.k
        out = FieldTensor.zeros(self.chart, [(TAN, CONTRA)], (nk,),
                                self.u_vec.degree)
        out.data[:, self.n:] = self.u_vec.data
        return out

    def vertical_point_eval(self, A):
        """P_{E,F}: contract the trailing covariant slot with the
        tautological vertical point."""
        return A.contract_pair(A.order - 1, self.tautological_field(), 0)

    # --- submersion tensors ---------------------------------------------------

    def oneill_tensors(self):
        """(A_pi, T_pi), each with slots [value up, arg1 down, arg2 down]."""
        if self._oneill is None:
            dhor = self.cov(self.hor)      # [up, down, dir down]
            dver = self.cov(self.ver)
            p = (self.ver.contract_pair(1, dhor, 0)
                 + self.hor.contract_pair(1, dver, 0))
            # p[A, eta, dir]; A_pi(xi, eta) = p(eta, hor xi)
            a_pi = p.contract_pair(2, self.hor, 0)     # [A, eta, xi]
            a_pi = a_pi.permuted([0, 2, 1])            # [A, xi, eta]
            t_pi = p.contract_pair(2, self.ver, 0).permuted([0, 2, 1])
            self._oneill = (a_pi, t_pi)
        return self._oneill

    def b_tensor(self):
        """The structure tensor feeding every lift recursion on E."""
        if self._b_tensor is None:
            a_pi, _ = self.oneill_tensors()
            hor_sub = self.hor   # (1,1) substitution tensor [value, arg1]
            ver_sub = self.ver
            t1 = a_pi.insert(hor_sub, 2).insert(hor_sub, 1).permuted([0, 2, 1])
            t2 = a_pi.insert(ver_sub, 2)
            t3 = t2.permuted([0, 2, 1])
            self._b_tensor = t1 + t2 + t3
        return self._b_tensor


def lift(T, kind, ts):
    """Lift `T` by the name of its kind: a base-chart FieldTensor, or a
    TaylorScalar for "horiz_function".  ValueError when the kind is unknown
    or `T` does not have the slots that the kind takes."""
    if kind not in _NAMED_LIFTS:
        raise ValueError(f"unknown lift kind {kind!r}")
    takes, evaluate = _NAMED_LIFTS[kind]
    slots = tuple((s.space, s.variance) for s in getattr(T, "slots", ()))
    if not (set(slots) <= takes if isinstance(takes, set)
            else slots == takes):
        raise ValueError(f"lift {kind!r} does not take slots {slots}")
    if not isinstance(T, FieldTensor):
        return ts.lift_function(T)
    return ts.lift(T, evaluate)


# --------------------------------------------------------------------------
# pull-backs along general maps
# --------------------------------------------------------------------------

class MapData:
    """An analytic map between chart geometries, with its derivative data."""

    def __init__(self, domain, target, exprs):
        self.domain = domain          # ChartGeometry (M)
        self.target = target          # ChartGeometry (N)
        self.exprs = list(exprs)
        chart = domain.chart
        self.components = [chart.expand(e) for e in self.exprs]
        value = np.array([c.value for c in self.components])
        if not np.allclose(value, target.chart.point, atol=1e-12):
            raise ValueError("target base point must be the image of the "
                             "domain base point")
        # dPhi[alpha, j] = d_j Phi^alpha, a [PTN up, TAN down] field over M
        d = chart.cap - 1
        data = np.zeros((chart.ctx.size(d), len(self.exprs), chart.n))
        for a, comp in enumerate(self.components):
            for j in range(chart.n):
                data[:, a, j] = chart.ctx.derive(comp.coeffs, comp.degree, j)
        self.dphi = FieldTensor(chart, [(PTN, CONTRA), (TAN, COV)], data, d)

    def compose(self, f_target):
        """Pull a target-chart TaylorScalar back to the domain chart."""
        return f_target.compose_args(self.components)

    def pullback_field(self, T):
        """Pull a target-chart field back: entries composed with the map,
        slots retagged onto the pulled-back target tangent space."""
        chart = self.domain.chart
        d = min(min(c.degree for c in self.components), T.degree)
        out = FieldTensor.zeros(chart, [(PTN, s.variance) for s in T.slots],
                                T.dims, d)
        for idx in np.ndindex(*T.dims):
            s = T.entry(idx)
            out.data[(slice(None),) + idx] = \
                chart.ctx.truncate(self.compose(s).coeffs, d)
        return out


class PullbackGeometry(Geometry):
    """Mixed geometry on the domain chart: the domain tangent space plus the
    pulled-back target tangent space with its pullback connection."""

    def __init__(self, mapdata):
        dom, tgt = mapdata.domain, mapdata.target
        chart = dom.chart
        m = tgt.n
        # pullback connection on PTN: Gt[a, j, b] = Gamma_N[a, g, b](Phi) dPhi^g_j
        gamma_n = mapdata.pullback_field(tgt.gamma)  # [PTN up, PTN down, PTN down]
        gt = gamma_n.contract_pair(1, mapdata.dphi, 0)
        # slots now [up a, down b, down j]; connection layout wants [a, j, b]
        gt = gt.permuted([0, 2, 1])
        gt = FieldTensor(chart, [(PTN, CONTRA), (TAN, COV), (PTN, COV)],
                         gt.data, gt.degree)
        g_n = mapdata.pullback_field(tgt.g)
        dims = dict(dom.dims)
        dims[PTN] = m
        grams = dict(dom.grams)
        grams[PTN] = g_n
        conns = dict(dom.conns)
        conns[PTN] = gt
        super().__init__(chart, dims, grams, conns, _parent=dom)
        self.mapdata = mapdata

    def a_phi(self):
        """The second-order defect tensor of the map, slots
        [PTN up, TAN down (X), TAN down (Y)]:
        dPhi Gamma_M - (d^2 Phi + Gamma_N(Phi) dPhi dPhi)."""
        md = self.mapdata
        dom, tgt = md.domain, md.target
        chart = dom.chart
        d = chart.cap - 2
        n, mdim = dom.n, tgt.n
        ctx = chart.ctx
        d2 = np.zeros((ctx.size(d), mdim, n, n))
        for a, comp in enumerate(md.components):
            for j in range(n):
                dj = ctx.derive(comp.coeffs, comp.degree, j)
                for kk in range(n):
                    d2[:, a, j, kk] = ctx.truncate(
                        ctx.derive(dj, comp.degree - 1, kk), d)
        second = FieldTensor(chart, [(PTN, CONTRA), (TAN, COV), (TAN, COV)],
                             d2, d)
        term1 = md.dphi.contract_pair(1, dom.gamma, 0)   # dPhi^a_i Gamma^i_{jk}
        gamma_n = md.pullback_field(tgt.gamma)
        gn_d = gamma_n.contract_pair(1, md.dphi, 0)      # [a, b down, j down]
        term3 = gn_d.contract_pair(1, md.dphi, 0)        # [a, j, k]
        return term1 - second - term3

    def b_phi(self):
        """push_{1,2} of `a_phi`: substitution tensor for pullback slots."""
        a = self.a_phi()
        return a.permuted([0, 2, 1])

    def conversion(self):
        """dPhi as an insertable tensor [TAN down (out), PTN up (in-dual)]."""
        md = self.mapdata
        return FieldTensor(md.domain.chart,
                           [(TAN, COV), (PTN, CONTRA)],
                           np.swapaxes(md.dphi.data, 1, 2), md.dphi.degree)

    def convert_all(self, Q):
        """Turn a PTN-covariant tensor into the genuine M-covariant pullback."""
        out = Q
        for pos in range(Q.order):
            if out.slots[pos].space == PTN:
                out = out.contract_pair(pos, self.mapdata.dphi, 0)
                out = out.move_slot(out.order - 1, pos)
        return out

    def pullback_insert(self, Q, j):
        """The mixed insertion behind the pullback derivative identity: feed
        `b_phi` into slot j of a PTN-covariant tensor, convert the rest."""
        sub = Q.substitute(j - 1, self.b_phi())
        return self.convert_all(sub)
