"""Tensor fields on a single chart, with exact Taylor-series entries.

A `Chart` fixes a base point and a truncation context; a `FieldTensor` is a
tensor whose entries are truncated series on that chart.  A `Geometry`
assigns to each slot space a Gram field (for norms) and optionally a
connection field (for covariant differentiation).  Manifolds are open boxes
in R^n: all statements verified downstream are pointwise once connections
are fixed, so no atlas machinery is carried around.

Slot conventions match `tensor_core`: intrinsic slots first, covariant
argument slots last, and every operation that creates new covariant slots
appends them at the end.
"""

from __future__ import annotations

import math

import numpy as np

from .taylor import TaylorContext, TaylorScalar, expand
from .tensor_core import (COV, CONTRA, DenseTensor, SpaceRegistry,
                          TensorShape, symmetrized_data)

__all__ = [
    "TAN",
    "FIB",
    "PTN",
    "Chart",
    "FieldTensor",
    "Geometry",
    "point_geometry",
    "ChartGeometry",
    "BundleGeometry",
    "levi_civita",
    "matrix_inverse_field",
    "torsion",
    "lie_derivative",
    "bracket",
    "connection_difference",
]

TAN = "tan"   # the chart's own tangent space
FIB = "fib"   # vector-bundle fibre over an M-chart
PTN = "ptn"   # pulled-back target tangent space (general maps)


class Chart:
    """A coordinate chart: base point plus shared truncation tables."""

    def __init__(self, point, cap):
        self.point = np.asarray(point, dtype=float)
        self.n = len(self.point)
        self.cap = int(cap)
        self.ctx = TaylorContext(self.n, self.cap)

    def scalar(self, value):
        return TaylorScalar.constant(self.ctx, value, self.cap)

    def coordinate(self, i, degree):
        return TaylorScalar.variable(self.ctx, i, self.point[i], degree)

    def expand(self, expr):
        """Expand an analytic expression (in this chart's variables)."""
        return expand(expr, self.point, self.cap, self.ctx)


class FieldTensor:
    """A tensor field germ: slots plus a (coeffs, *dims) array."""

    def __init__(self, chart, slots, data, degree):
        self.chart = chart
        self.slots = TensorShape(slots)
        self.degree = int(degree)
        self.data = np.asarray(data, dtype=float)

    # --- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, chart, slots, dims, degree):
        return cls(chart, slots, np.zeros((chart.ctx.size(degree),) + tuple(dims)),
                   degree)

    @classmethod
    def from_scalar(cls, chart, scalar):
        return cls(chart, (), scalar.coeffs.copy(), scalar.degree)

    @classmethod
    def assemble(cls, chart, slots, dims, entries, degree):
        """Build from a dict mapping index tuples to TaylorScalars/floats."""
        out = cls.zeros(chart, slots, dims, degree)
        for idx, val in entries.items():
            if isinstance(val, TaylorScalar):
                if val.degree < degree:
                    raise ValueError("entry degree below tensor degree")
                out.data[(slice(None),) + tuple(idx)] = \
                    chart.ctx.truncate(val.coeffs, degree)
            else:
                out.data[(0,) + tuple(idx)] = float(val)
        return out

    # --- basics ------------------------------------------------------------

    @property
    def order(self):
        return len(self.slots)

    @property
    def dims(self):
        return self.data.shape[1:]

    def entry(self, idx):
        return TaylorScalar(self.chart.ctx, self.degree,
                            self.data[(slice(None),) + tuple(idx)].copy())

    def truncated(self, degree):
        if degree >= self.degree:
            return self
        return FieldTensor(self.chart, self.slots,
                           self.chart.ctx.truncate(self.data, degree), degree)

    def copy(self):
        return FieldTensor(self.chart, self.slots, self.data.copy(), self.degree)

    def _binary(self, other, op):
        if self.slots != other.slots:
            raise ValueError("slot mismatch")
        d = min(self.degree, other.degree)
        a = self.chart.ctx.truncate(self.data, d)
        b = self.chart.ctx.truncate(other.data, d)
        return FieldTensor(self.chart, self.slots, op(a, b), d)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return FieldTensor(self.chart, self.slots, self.data * float(scalar),
                           self.degree)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def scale_series(self, s):
        """Multiply by a TaylorScalar."""
        d = min(self.degree, s.degree)
        data = self.chart.ctx.contract(
            self.chart.ctx.truncate(s.coeffs, d), d,
            self.chart.ctx.truncate(self.data, d), d, [], [], d)
        return FieldTensor(self.chart, self.slots, data, d)

    def permuted(self, perm):
        slots = [self.slots[p] for p in perm]
        data = np.transpose(self.data, [0] + [p + 1 for p in perm])
        return FieldTensor(self.chart, slots, data, self.degree)

    def move_slot(self, src, dst):
        perm = list(range(self.order))
        perm.insert(dst, perm.pop(src))
        return self.permuted(perm)

    # --- multilinear algebra -----------------------------------------------

    def product(self, other):
        """Tensor product.  When `other` has degree-0 support only (every
        product of the pointwise algebra, say), one outer product replaces
        the series kernel: its other coefficient pairs would add exact zeros."""
        d = min(self.degree, other.degree)
        a = self.chart.ctx.truncate(self.data, d)
        b = self.chart.ctx.truncate(other.data, d)
        if not np.any(b[1:]):
            data = np.multiply.outer(a, b[0])
        else:
            data = self.chart.ctx.contract(a, d, b, d, [], [], d)
        return FieldTensor(self.chart, tuple(self.slots) + tuple(other.slots),
                           data, d)

    def contract_pair(self, ax_self, other, ax_other):
        """Natural pairing of one slot against one slot (opposite variance)."""
        sa, sb = self.slots[ax_self], other.slots[ax_other]
        if sa.space != sb.space or sa.variance == sb.variance:
            raise ValueError("contraction needs dual slots on one space")
        d = min(self.degree, other.degree)
        data = self.chart.ctx.contract(
            self.chart.ctx.truncate(self.data, d), d,
            self.chart.ctx.truncate(other.data, d), d, [ax_self], [ax_other], d)
        slots = ([s for i, s in enumerate(self.slots) if i != ax_self]
                 + [s for i, s in enumerate(other.slots) if i != ax_other])
        return FieldTensor(self.chart, slots, data, d)

    def substitute(self, pos, s):
        """Replace slot `pos` using the structure tensor `s`.

        `s` has slots [value][arg1][arg2..argl].  A covariant slot is
        contracted with the value of `s` and arg1 takes its place (ordinary
        insertion); a contravariant slot is contracted with arg1 and the
        value takes its place (the dual action used by tensor derivations).
        The remaining args of `s` are appended as trailing slots.
        """
        slot = self.slots[pos]
        val, arg1 = s.slots[0], s.slots[1]
        if slot.variance == COV:
            if val.space != slot.space or val.variance != CONTRA:
                raise ValueError("value slot of s does not match")
            ax_s = 0
            new_slot = arg1
        else:
            if arg1.space != slot.space or arg1.variance != COV:
                raise ValueError("arg1 of s does not match")
            ax_s = 1
            new_slot = val
        d = min(self.degree, s.degree)
        data = self.chart.ctx.contract(
            self.chart.ctx.truncate(self.data, d), d,
            self.chart.ctx.truncate(s.data, d), d, [pos], [ax_s], d)
        # the new slot, first after the rest of self, moves to `pos`
        perm = list(range(data.ndim))
        perm.insert(pos + 1, perm.pop(self.order))
        data = data.transpose(perm)
        slots = list(self.slots)
        slots[pos] = new_slot
        slots += list(s.slots[2:])
        return FieldTensor(self.chart, slots, data, d)

    def insert(self, s, j):
        """Ins_j into the j-th covariant slot (1-based over covariant block)."""
        cov_positions = [i for i, sl in enumerate(self.slots)
                         if sl.variance == COV]
        if not 1 <= j <= len(cov_positions):
            raise ValueError("insertion index out of range")
        return self.substitute(cov_positions[j - 1], s)

    def check_argument(self, n_out, arg):
        """The number of IN-dual slots of self as a map with `n_out` OUT
        slots, once each is checked to be dual to the slot of `arg` it
        contracts."""
        n_in = self.order - n_out
        for i in range(n_in):
            ms, ts = self.slots[n_out + i], arg.slots[i]
            if ms.space != ts.space or ms.variance == ts.variance:
                raise ValueError(
                    f"map/argument mismatch at {i}: {ms} vs {ts}")
        return n_in

    def apply_map(self, n_out, arg):
        """Treat self as a map [OUT][IN-dual] and apply it to `arg`."""
        n_in = self.check_argument(n_out, arg)
        d = min(self.degree, arg.degree)
        data = self.chart.ctx.contract(
            self.chart.ctx.truncate(self.data, d), d,
            self.chart.ctx.truncate(arg.data, d), d,
            list(range(n_out, self.order)), list(range(n_in)), d)
        slots = list(self.slots[:n_out]) + list(arg.slots[n_in:])
        return FieldTensor(self.chart, slots, data, d)

    def derivation(self, S):
        """D_S: the tensor derivation of a structure tensor S with slots
        [value][arg1][arg2..argl].

        The signed sum of substitutions of S at every slot on S's value
        space: + at contravariant slots, - at covariant ones.  Without such
        a slot (a scalar, say) it is zero with S's extra slots appended.
        """
        space = S.slots[0].space
        out = None
        for pos, slot in enumerate(self.slots):
            if slot.space != space:
                continue
            term = self.substitute(pos, S)
            if slot.variance == COV:
                term = term * -1.0
            out = term if out is None else out + term
        if out is None:
            extra = S.slots[2:]
            out = FieldTensor.zeros(self.chart, self.slots + extra,
                                    self.dims + S.dims[2:],
                                    min(self.degree, S.degree))
        return out

    def symmetrized(self, axes):
        """Average over all permutations of the slots `axes`, which must
        agree in space and variance."""
        return FieldTensor(self.chart, self.slots,
                           symmetrized_data(self.slots, self.data, axes,
                                            lead=1), self.degree)

    def is_zero(self, tol=0.0):
        return bool(np.all(np.abs(self.data) <= tol))

    def norm(self, geo):
        """The Gram norm of the base-point value in `geo`."""
        return geo.value(self).norm()


def identity_field(chart, space, dim, degree):
    """The (1,1) identity over a space, exact to every degree."""
    data = np.zeros((chart.ctx.size(degree), dim, dim))
    data[0] = np.eye(dim)
    return FieldTensor(chart, [(space, CONTRA), (space, COV)], data, degree)


def random_field(chart, slots, dims, seed, degree=None):
    """A random polynomial field: coefficients decay factorially with the
    order, so samples behave like analytic data with an O(1) radius."""
    degree = chart.cap if degree is None else degree
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.uniform(-1.0, 1.0,
                       size=(chart.ctx.size(degree),) + tuple(dims))
    fac = np.array([1.0 / math.factorial(I.order)
                    for I in chart.ctx.indices[: chart.ctx.size(degree)]])
    data *= fac.reshape((-1,) + (1,) * len(dims))
    return FieldTensor(chart, slots, data, degree)


def point_geometry(grams):
    """The pointwise algebra of fibres: a Geometry on a one-point chart (no
    coordinates, degree 0) whose spaces carry the constant Gram matrices
    `grams` (name -> matrix) and no connections.  Its tensors are degree-0
    FieldTensors; `random_field(..., degree=0)` and `identity_field` build
    them."""
    chart = Chart([], 0)
    dims = {name: len(g) for name, g in grams.items()}
    fields = {name: FieldTensor(chart, [(name, COV), (name, COV)],
                                np.asarray(g, dtype=float)[None], 0)
              for name, g in grams.items()}
    return Geometry(chart, dims, fields, {})


class Geometry:
    """Spaces, Grams, and connections over one chart.

    `grams[s]` is a (0,2) FieldTensor over space s; `conns[s]` is either None
    (flat slot) or a FieldTensor with slots [s up, tan down, s down] holding
    the coefficients G[a, j, b] so that differentiating along direction j
    adds +G[a,j,b] on contravariant and -G[b,j,a] on covariant s-slots.
    """

    def __init__(self, chart, dims, grams, conns, *, _parent=None):
        self.chart = chart
        self.dims = dict(dims)
        self.grams = dict(grams)
        self.conns = dict(conns)
        # the one check of every base-point Gram: its Cholesky factor; a
        # Gram field that `_parent`, the geometry this one extends, has
        # already checked keeps the parent's space
        self.registry = SpaceRegistry()
        for name, dim in self.dims.items():
            if _parent is not None and _parent.dims.get(name) == dim and \
                    _parent.grams.get(name) is self.grams[name]:
                self.registry[name] = _parent.registry[name]
                continue
            try:
                self.registry.add(name, dim, self.grams[name].data[0])
            except ValueError as exc:
                raise ValueError(f"{name} metric at the base point: "
                                 f"{exc}") from None

    # --- evaluation ---------------------------------------------------------

    def value(self, T):
        """The base-point value of T; shares T's degree-0 entries."""
        return DenseTensor(self.registry, T.slots, T.data[0])

    def norm(self, T):
        """The Gram norm of T's base-point value, as T's own type forms it:
        a `PaddedMap` from its terms, never formed."""
        return T.norm(self)

    # --- covariant differentiation -------------------------------------------

    def cov(self, T, corrections=None):
        """Covariant derivative; one tangent covariant slot appended last.

        `corrections` maps slot positions of T to (sign, S), S a structure
        tensor with slots [value][arg1][direction] on the slot's space: the
        slot is differentiated with the connection changed by sign * S,
        G[a, j, b] + sign * S[a, b, j] in the layout of `conns`.  The result
        equals the plain derivative plus sign times the substitution of S at
        that slot (its direction moved last), with one contraction per slot.
        """
        ctx = self.chart.ctx
        corrections = corrections or {}
        dout = self.cov_degree(T, corrections)
        nb = self.chart.n
        # the partials to degree dout need T only to degree dout + 1
        td1 = ctx.truncate(T.data, dout + 1)
        acc = np.empty((ctx.size(dout),) + T.dims + (nb,))
        for v in range(nb):
            acc[..., v] = ctx.derive(td1, dout + 1, v)
        td = ctx.truncate(T.data, dout)
        # the axes of T but the slot's own, after the two of the connection
        rest = list(range(3, T.order + 2))
        for pos, slot in enumerate(T.slots):
            G = self.conns.get(slot.space)
            gd = None if G is None else ctx.truncate(G.data, dout)
            if pos in corrections:
                sign, S = corrections[pos]
                if slot.variance == COV:
                    sign = -sign
                sd = sign * np.swapaxes(ctx.truncate(S.data, dout), 2, 3)
                gd = sd if gd is None else gd + sd
            if gd is None:
                continue
            if slot.variance == CONTRA:
                r = ctx.contract(gd, dout, td, dout, [2], [pos], dout)
                # r: (C, a, j, *rest) -> (C, ...a at pos..., j)
                acc += r.transpose([0] + rest[:pos] + [1] + rest[pos:] + [2])
            else:
                r = ctx.contract(gd, dout, td, dout, [0], [pos], dout)
                # r: (C, j, b, *rest) -> (C, ...b at pos..., j)
                acc -= r.transpose([0] + rest[:pos] + [2] + rest[pos:] + [1])
        return FieldTensor(self.chart, tuple(T.slots) + ((TAN, COV),), acc, dout)

    def cov_degree(self, T, corrections):
        """The degree of `cov(T, corrections)`: one below T's, capped by the
        connections of T's slots and by the corrections' structure tensors,
        each checked against the slot it corrects."""
        if T.degree < 1:
            raise ValueError("degree budget exhausted")
        dout = T.degree - 1
        for slot in T.slots:
            G = self.conns.get(slot.space)
            if G is not None:
                dout = min(dout, G.degree)
        for pos, (_, S) in corrections.items():
            space = T.slots[pos].space
            if S.slots != TensorShape([(space, CONTRA), (space, COV),
                                       (TAN, COV)]):
                raise ValueError(f"structure tensor {S.slots} does not "
                                 f"correct slot {pos} ({T.slots[pos]})")
            dout = min(dout, S.degree)
        return dout

    def iterated(self, T, m):
        for _ in range(m):
            T = self.cov(T)
        return T

    def sym_derivative(self, T, m):
        """Iterated covariant derivative symmetrized over the new slots."""
        base = T.order
        out = self.iterated(T, m)
        return out.symmetrized(range(base, base + m))

    def partials(self, T):
        """Plain coordinate partials with a trailing tangent slot (not
        tensorial; used by Lie derivatives and brackets)."""
        ctx = self.chart.ctx
        dout = T.degree - 1
        parts = [ctx.derive(T.data, T.degree, v) for v in range(self.chart.n)]
        acc = np.stack([ctx.truncate(p, dout) for p in parts], axis=-1)
        return FieldTensor(self.chart, tuple(T.slots) + ((TAN, COV),), acc, dout)


# --------------------------------------------------------------------------
# metric machinery
# --------------------------------------------------------------------------

def matrix_inverse_field(g):
    """Inverse of a (0,2) field along the Taylor ring (Newton iteration)."""
    chart = g.chart
    d = g.degree
    x0 = np.linalg.inv(g.data[0])
    space = g.slots[0].space
    X = FieldTensor.zeros(chart, [(space, CONTRA), (space, CONTRA)],
                          x0.shape, d)
    X.data[0] = x0
    two_eye = FieldTensor.zeros(chart, [(space, COV), (space, CONTRA)],
                                x0.shape, d)
    two_eye.data[0] = 2.0 * np.eye(x0.shape[0])
    steps = max(1, math.ceil(math.log2(d + 1))) if d else 1
    for _ in range(steps):
        gX = g.contract_pair(1, X, 0)            # slots [down c, up b]
        X = X.contract_pair(1, two_eye - gX, 0)  # X^{ac}(2I - gX)_c^b
    return X


def levi_civita(g):
    """Christoffel coefficients of the unique metric torsion-free connection."""
    ginv = matrix_inverse_field(g)
    chart = g.chart
    space = g.slots[0].space
    dg_raw = []
    ctx = chart.ctx
    d = g.degree - 1
    for v in range(chart.n):
        dg_raw.append(ctx.truncate(ctx.derive(g.data, g.degree, v), d))
    dg = np.stack(dg_raw, axis=1)        # (C, l(deriv), a, b) -> dg[l,a,b] = d_l g_ab
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})
    sym = (np.moveaxis(dg, [1, 2, 3], [2, 1, 3])      # d_j g_lk -> [l, j, k]
           + np.moveaxis(dg, [1, 2, 3], [3, 1, 2])    # d_k g_lj -> [l, j, k]
           - dg)                                      # d_l g_jk
    sym_ft = FieldTensor(chart, [(space, COV), (space, COV), (space, COV)],
                         sym, d)
    gi = ginv.truncated(d)
    gamma = gi.contract_pair(1, sym_ft, 0) * 0.5      # [up i][j][k]
    return FieldTensor(chart, [(space, CONTRA), (space, COV), (space, COV)],
                       gamma.data, gamma.degree)


def torsion(gamma):
    """T[a, j, k] = Gamma[a, j, k] - Gamma[a, k, j]."""
    data = gamma.data - np.swapaxes(gamma.data, 2, 3)
    return FieldTensor(gamma.chart, gamma.slots, data, gamma.degree)


def connection_difference(conn_bar, conn):
    """The (1,2) tensor S with bar-nabla_X xi = nabla_X xi + S(xi, X).

    Layout: S[a, (section) b, (direction) j]; inputs use the connection
    layout G[a, j, b].
    """
    diff = conn_bar - conn
    data = np.swapaxes(diff.data, 2, 3)
    space = conn.slots[0].space
    return FieldTensor(conn.chart,
                       [(space, CONTRA), (space, COV), (TAN, COV)],
                       data, diff.degree)


def lie_derivative(geo, X, T):
    """Coordinate Lie derivative of any mixed tangent tensor field."""
    dX = geo.partials(X)        # [up c][down j]: d_j X^c
    dT = geo.partials(T)
    # transport term X^c d_c T
    out = dT.contract_pair(dT.order - 1, X, 0)
    for pos, slot in enumerate(T.slots):
        if slot.variance == CONTRA:
            # - d_c X^{i_pos} T^{..c..}
            term = dX.contract_pair(1, T, pos)
            term = term.move_slot(0, pos)
            out = out - term
        else:
            # + d_{j_pos} X^c T_{..c..}
            term = dX.contract_pair(0, T, pos)
            term = term.move_slot(0, pos)
            out = out + term
    return out


def bracket(geo, X, Y):
    """[X, Y] = X^j d_j Y - Y^j d_j X."""
    return lie_derivative(geo, X, Y)


# --------------------------------------------------------------------------
# concrete geometries
# --------------------------------------------------------------------------

def _expr_matrix_field(chart, exprs, shape, slots):
    entries = {}
    for idx in np.ndindex(*shape):
        node = exprs
        for i in idx:
            node = node[i]
        entries[idx] = chart.expand(node) if not isinstance(node, (int, float)) \
            else chart.scalar(float(node))
    return FieldTensor.assemble(chart, slots, shape, entries, chart.cap)


class ChartGeometry(Geometry):
    """A single-chart manifold with metric and its Levi-Civita connection."""

    def __init__(self, point, cap, metric_exprs):
        chart = Chart(point, cap)
        n = chart.n
        g = _expr_matrix_field(chart, metric_exprs, (n, n),
                               [(TAN, COV), (TAN, COV)])
        # the Gram check runs before levi_civita inverts the metric
        super().__init__(chart, {TAN: n}, {TAN: g}, {})
        self.gamma = self.conns[TAN] = levi_civita(g)
        self.n = n
        self.g = g


class BundleGeometry(Geometry):
    """A vector bundle over a chart geometry: fibre metric plus connection.

    `omega` holds the coefficients w[a, i, b] so that covariant derivatives
    of sections read d_i xi^a + w[a, i, b] xi^b.
    """

    def __init__(self, base, k, fibre_metric_exprs, omega_exprs=None,
                 omega=None):
        chart = base.chart
        h = _expr_matrix_field(chart, fibre_metric_exprs, (k, k),
                               [(FIB, COV), (FIB, COV)])
        if omega is None:
            if omega_exprs is None:
                omega = FieldTensor.zeros(
                    chart, [(FIB, CONTRA), (TAN, COV), (FIB, COV)],
                    (k, base.n, k), chart.cap)
            else:
                omega = _expr_matrix_field(
                    chart, omega_exprs, (k, base.n, k),
                    [(FIB, CONTRA), (TAN, COV), (FIB, COV)])
        dims = dict(base.dims)
        dims[FIB] = k
        grams = dict(base.grams)
        grams[FIB] = h
        conns = dict(base.conns)
        conns[FIB] = omega
        super().__init__(chart, dims, grams, conns, _parent=base)
        self.base = base
        self.n = base.n
        self.k = k
        self.h = h
        self.omega = omega

    def with_connections(self, gamma=None, omega=None):
        conns = dict(self.conns)
        if gamma is not None:
            conns[TAN] = gamma
        if omega is not None:
            conns[FIB] = omega
        return Geometry(self.chart, dict(self.dims), dict(self.grams), conns,
                        _parent=self)
