"""Truncated multivariate power-series arithmetic at a base point.

Everything downstream (covariant derivatives, curvature-free identities,
seminorms) gets its derivatives from this module, so the arithmetic here is
exact on truncations: no finite differencing is involved except in the
independent cross-check `finite_difference_check`.

Coefficients are stored normalized, i.e. the entry for the multi-index I is
(d^I f / I!) at the base point, which keeps magnitudes tame at high order.
Multi-indices are enumerated in graded-lexicographic order; index 0 is the
constant term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "MultiIndex",
    "TaylorContext",
    "TaylorScalar",
    "AnalyticExpr",
    "parse_expr",
    "expand",
    "derive",
    "partial",
    "eval_expr",
    "finite_difference_check",
]


class MultiIndex(tuple):
    """An n-tuple of nonnegative integer exponents."""

    @property
    def order(self):
        return sum(self)

    def __add__(self, other):
        return MultiIndex(a + b for a, b in zip(self, other))


def _graded_lex(nvars, cap):
    out = []
    for total in range(cap + 1):
        for comb in itertools.combinations_with_replacement(range(nvars), total):
            idx = [0] * nvars
            for v in comb:
                idx[v] += 1
            out.append(MultiIndex(idx))
    # combinations_with_replacement is not lex-sorted as exponent tuples; fix it
    out.sort(key=lambda I: (I.order, tuple(I)))
    return out


def n_coeffs(nvars, degree):
    """Number of multi-indices with |I| <= degree."""
    return math.comb(nvars + degree, degree)


@lru_cache(maxsize=None)
def _context_tables(nvars, cap):
    indices = _graded_lex(nvars, cap)
    lookup = {I: i for i, I in enumerate(indices)}
    orders = np.array([I.order for I in indices], dtype=np.int64)
    pi, pj, pk = [], [], []
    for i, I in enumerate(indices):
        for j, J in enumerate(indices):
            if I.order + J.order > cap:
                continue
            pi.append(i)
            pj.append(j)
            pk.append(lookup[I + J])
    # grouped by output coefficient, so every masked subset is too
    order = np.argsort(pk, kind="stable")
    pairs = (np.array(pi)[order], np.array(pj)[order], np.array(pk)[order])
    # derivative table per variable: out[dst] = factor * a[src]
    dmaps = []
    for v in range(nvars):
        src, dst, fac = [], [], []
        for i, I in enumerate(indices):
            if I[v] == 0:
                continue
            J = list(I)
            J[v] -= 1
            # normalized storage: d/dx_v maps coeff(I) -> I_v * coeff at I - e_v
            src.append(i)
            dst.append(lookup[MultiIndex(J)])
            fac.append(float(I[v]))
        dmaps.append((np.array(src), np.array(dst), np.array(fac)))
    return indices, lookup, orders, pairs, dmaps


#: Floats allowed in each operand of one batched chunk (2^14 floats = 128 KB):
#: the gathered blocks of a and b, padded, and the chunk's output blocks.
CHUNK_FLOATS = 1 << 14


@lru_cache(maxsize=None)
def _pair_tables(nvars, cap, da, db, dout):
    """(i, j, k) triples with |I|<=da, |J|<=db, |I+J|<=dout, grouped by k,
    for every context of `nvars` variables and degree cap `cap` (degrees
    clipped to `cap`).  The arrays are shared, so they are read-only."""
    _, _, orders, (pi, pj, pk), _ = _context_tables(nvars, cap)
    mask = (orders[pi] <= da) & (orders[pj] <= db) & (orders[pk] <= dout)
    arrs = (pi[mask], pj[mask], pk[mask])
    for x in arrs:
        x.flags.writeable = False
    return arrs


@lru_cache(maxsize=None)
def _padded_runs(key):
    """The pair table `key` with every run of equal k padded to its width:
    (ti, tj, width, targets), the runs in order of width.

    The width of a run of m pairs is the least power of two >= m, and at
    least 2, so that the one pair of the constant term joins the
    first-order runs.  It depends on m alone: the sum of a run is one fixed
    product whatever other runs the table holds.  ti and tj are the
    coefficients of a and b of the padded pairs, run after run; a pad pair
    reads the zero block that `_series_contract` puts after a's blocks of
    degree <= dout (index size(dout), as no pair reads a block of a higher
    degree) and the first b block of its run.  `targets` is the output
    coefficient of each run.  The arrays are shared, so they are read-only.
    """
    pi, pj, pk = _pair_tables(*key)
    heads = np.flatnonzero(np.concatenate(([True], pk[1:] != pk[:-1])))
    mult = np.diff(np.append(heads, len(pk)))
    width = 1 << np.ceil(np.log2(np.maximum(mult, 2))).astype(int)
    order = np.argsort(width, kind="stable")
    width = width[order]
    run_of = np.repeat(np.arange(len(order)), width)
    col = np.arange(len(run_of)) - (np.cumsum(width) - width)[run_of]
    short = col >= mult[order][run_of]
    pos = heads[order][run_of] + np.where(short, 0, col)
    arrs = (np.where(short, n_coeffs(key[0], key[4]), pi[pos]), pj[pos],
            width, pk[heads[order]])
    for x in arrs:
        x.flags.writeable = False
    return arrs


@lru_cache(maxsize=None)
def _grouped_chunks(key, pair_room, run_room):
    """The padded runs of the pair table `key` cut into chunks: per chunk
    (ti, tj, groups), its slices of the tables of `_padded_runs` and per
    width in it (slice of its padded pairs, runs, width, dest).

    A chunk holds at most `run_room` runs and `pair_room` padded pairs, and
    always at least one run.  `dest` selects the output coefficients of a
    group's runs, a slice when they are consecutive.  The chunks are views
    of the tables that the plans of one pair table share, whatever their
    block shapes and budgets.
    """
    ti, tj, width, targets = _padded_runs(key)
    ends = np.cumsum(width).tolist()
    width = width.tolist()
    chunks = []
    s, n = 0, len(width)
    while s < n:
        e, used = s + 1, width[s]
        while e < n and e - s < run_room and used + width[e] <= pair_room:
            used += width[e]
            e += 1
        groups, p0 = [], ends[s] - width[s]
        for m, rows in itertools.groupby(range(s, e), width.__getitem__):
            rows = list(rows)
            r0, g = rows[0], len(rows)
            dest = targets[r0:r0 + g]
            if np.array_equal(dest, np.arange(dest[0], dest[0] + g)):
                dest = slice(int(dest[0]), int(dest[0]) + g)
            start = ends[r0] - m - p0
            groups.append((slice(start, start + g * m), g, m, dest))
        pairs = slice(p0, ends[e - 1])
        chunks.append((ti[pairs], tj[pairs], tuple(groups)))
        s = e
    return tuple(chunks)


class _Plan(NamedTuple):
    """How `_series_contract` runs for one pair table, chunk budget, pair
    of block shapes and contracted axes."""

    perm_a: tuple       # a transposed to (free_a, coeff, contracted)
    perm_b: tuple       # b transposed to (coeff, contracted, free_b)
    dims_a: tuple
    dims_b: tuple
    fa: int
    kk: int
    fb: int
    n_out: int
    padded_a: tuple     # a's blocks of degree <= dout and a zero block,
                        # transposed like a
    unperm_a: tuple     # padded_a back to a's axis order
    chunks: tuple       # from _grouped_chunks; empty: one pair at a time


@lru_cache(maxsize=None)
def _contract_plan(key, chunk_floats, shape_a, shape_b, axes_a, axes_b):
    axa = [x + 1 for x in axes_a]
    axb = [x + 1 for x in axes_b]
    free_a = [x for x in range(1, len(shape_a) + 1) if x not in axa]
    free_b = [x for x in range(1, len(shape_b) + 1) if x not in axb]
    dims_a = tuple(shape_a[x - 1] for x in free_a)
    dims_b = tuple(shape_b[x - 1] for x in free_b)
    fa, fb = math.prod(dims_a), math.prod(dims_b)
    kk = math.prod(shape_a[x - 1] for x in axa)
    n_out = n_coeffs(key[0], key[4])
    pair_room = chunk_floats // max(fa * kk, kk * fb, 1)
    run_room = chunk_floats // max(fa * fb, 1)
    chunks = (_grouped_chunks(key, pair_room, run_room)
              if pair_room and run_room else ())
    perm_a = (*free_a, 0, *axa)
    padded_a = (*dims_a, n_out + 1, *(shape_a[x - 1] for x in axa))
    return _Plan(perm_a, (0, *axb, *free_b), dims_a, dims_b, fa, kk, fb,
                 n_out, padded_a, tuple(np.argsort(perm_a).tolist()), chunks)


def _series_contract(a, b, axes_a, axes_b, key):
    """sum over (i, j, k) in the pair table `key` of a[i] . b[j] into out[k].

    `key` has dout <= min(da, db), as `mul` and `contract` clip it, so every
    output coefficient k has a pair, (0, k) at least.

    The contracted axes move to the end of a's blocks and the front of b's,
    so each pair is one (Fa, K) @ (K, Fb) product.  The m pairs of one k
    are one product of length m K, [a[i1] ... a[im]] @ [b[j1]; ...; b[jm]],
    padded with zero blocks to the run's width: a chunk gathers the blocks
    of its runs once, and each width in it is one batched matmul written
    straight into its output blocks.  Pairs whose blocks alone exceed
    CHUNK_FLOATS are multiplied one at a time, each one matmul into its
    output block; scalar series (no tensor axes) take one weighted
    bincount.  Everything that depends only on the shapes is a cached
    `_Plan`.
    """
    if a.ndim == b.ndim == 1:       # scalar series: one weighted count
        pi, pj, pk = _pair_tables(*key)
        return np.bincount(pk, a[pi] * b[pj], n_coeffs(key[0], key[4]))
    plan = _contract_plan(key, CHUNK_FLOATS, a.shape[1:], b.shape[1:],
                          tuple(axes_a), tuple(axes_b))
    fa, kk, fb, n_out = plan.fa, plan.kk, plan.fb, plan.n_out
    lead = len(plan.dims_a)
    A = a.transpose(plan.perm_a)
    B = b.transpose(plan.perm_b)
    shape = (n_out,) + plan.dims_a + plan.dims_b
    if not plan.chunks:
        out = np.zeros((n_out, fa, fb))
        pi, pj, pk = _pair_tables(*key)
        head = (slice(None),) * lead
        for i, j, k in zip(pi.tolist(), pj.tolist(), pk.tolist()):
            out[k] += A[head + (i,)].reshape(fa, kk) @ B[j].reshape(kk, fb)
        return out.reshape(shape)
    # the blocks of a that pairs read and a zero block after them, which the
    # pad pairs read
    A = np.empty(plan.padded_a)
    ext = A.transpose(plan.unperm_a)
    ext[:n_out] = a[:n_out]
    ext[n_out] = 0.0
    # every output block is one run's sum, and a matmul sum starts from
    # +0.0, so products of -0.0 read 0.0
    out = np.empty((n_out, fa, fb))
    for ti, tj, groups in plan.chunks:
        ga = np.take(A, ti, axis=lead).reshape(fa, len(ti), kk)
        gb = B[tj].reshape(len(tj), kk, fb)
        for pairs, g, m, dest in groups:
            x = ga[:, pairs].reshape(fa, g, m * kk).transpose(1, 0, 2)
            y = gb[pairs].reshape(g, m * kk, fb)
            if isinstance(dest, slice):
                np.matmul(x, y, out=out[dest])
            else:
                out[dest] = np.matmul(x, y)
    return out.reshape(shape)


class TaylorContext:
    """Shared tables for series with a fixed variable count and degree cap."""

    def __init__(self, nvars, cap):
        self.nvars = int(nvars)
        self.cap = int(cap)
        (self.indices, self.lookup, self.orders, _,
         self._dmaps) = _context_tables(self.nvars, self.cap)

    def __repr__(self):
        return f"TaylorContext(nvars={self.nvars}, cap={self.cap})"

    def size(self, degree):
        return n_coeffs(self.nvars, min(degree, self.cap))

    def _pair_key(self, da, db, dout):
        cap = self.cap
        return (self.nvars, cap, min(da, cap), min(db, cap), min(dout, cap))

    def pair_arrays(self, da, db, dout):
        """(i, j, k) triples with |I|<=da, |J|<=db, |I+J|<=dout, shared
        (read-only) by every context of this variable count and cap."""
        return _pair_tables(*self._pair_key(da, db, dout))

    # --- raw coefficient-array kernel, coefficient axis first -------------

    def mul(self, a, da, b, db, dout=None):
        """Coefficient product of scalar series arrays (no tensor axes)."""
        dout = min(da, db) if dout is None else min(dout, da, db)
        return _series_contract(a, b, (), (), self._pair_key(da, db, dout))

    def contract(self, a, da, b, db, axes_a, axes_b, dout=None):
        """Tensor contraction with series-valued entries.

        `a` has shape (size(da), *dims_a), similarly `b`; `axes_a`/`axes_b`
        index the tensor axes (0-based, excluding the coefficient axis).
        Result shape: (size(dout), *free_a, *free_b).
        """
        dout = min(da, db) if dout is None else min(dout, min(da, db))
        return _series_contract(a, b, axes_a, axes_b,
                                self._pair_key(da, db, dout))

    def derive(self, a, da, var):
        """d/dx_var of a coefficient array; degree drops by one."""
        if da < 1:
            raise ValueError("degree budget exhausted: cannot differentiate a "
                             "degree-0 truncation")
        dd = da - 1
        out = np.zeros((self.size(dd),) + a.shape[1:])
        src, dst, fac = self._dmaps[var]
        keep = self.orders[dst] <= dd
        src, dst, fac = src[keep], dst[keep], fac[keep]
        # I -> I - e_var is one-to-one, so every dst is written once
        out[dst] = fac.reshape((-1,) + (1,) * (a.ndim - 1)) * a[src]
        return out

    def truncate(self, a, dto):
        return a[: self.size(dto)]


@dataclass
class TaylorScalar:
    """A truncated series: coeffs[i] is d^I f / I! at the base point."""

    ctx: TaylorContext
    degree: int
    coeffs: np.ndarray

    @classmethod
    def constant(cls, ctx, value, degree=None):
        degree = ctx.cap if degree is None else degree
        c = np.zeros(ctx.size(degree))
        c[0] = value
        return cls(ctx, degree, c)

    @classmethod
    def variable(cls, ctx, var, base_value, degree=None):
        degree = ctx.cap if degree is None else degree
        c = np.zeros(ctx.size(degree))
        c[0] = base_value
        if degree >= 1:
            c[ctx.lookup[MultiIndex(tuple(int(v == var) for v in range(ctx.nvars)))]] = 1.0
        return cls(ctx, degree, c)

    @property
    def value(self):
        return float(self.coeffs[0])

    def _align(self, other):
        if not isinstance(other, TaylorScalar):
            other = TaylorScalar.constant(self.ctx, float(other), self.degree)
        d = min(self.degree, other.degree)
        return (self.ctx.truncate(self.coeffs, d),
                self.ctx.truncate(other.coeffs, d), d)

    def __add__(self, other):
        a, b, d = self._align(other)
        return TaylorScalar(self.ctx, d, a + b)

    __radd__ = __add__

    def __neg__(self):
        return TaylorScalar(self.ctx, self.degree, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TaylorScalar) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if not isinstance(other, TaylorScalar):
            return TaylorScalar(self.ctx, self.degree, self.coeffs * float(other))
        d = min(self.degree, other.degree)
        return TaylorScalar(self.ctx, d, self.ctx.mul(self.coeffs, self.degree,
                                                      other.coeffs, other.degree, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TaylorScalar):
            return self * (1.0 / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, k):
        if k != int(k) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = TaylorScalar.constant(self.ctx, 1.0, self.degree)
        for _ in range(int(k)):
            out = out * self
        return out

    def reciprocal(self):
        """Series reciprocal via Newton iteration on the truncation."""
        c0 = self.value
        if c0 == 0.0:
            raise ZeroDivisionError("series reciprocal at a zero constant term")
        x = TaylorScalar.constant(self.ctx, 1.0 / c0, self.degree)
        # each step doubles the correct order
        steps = max(1, math.ceil(math.log2(self.degree + 1))) if self.degree else 1
        for _ in range(steps):
            x = x * (2.0 - self * x)
        return x

    def nilpotent_part(self):
        c = self.coeffs.copy()
        c[0] = 0.0
        return TaylorScalar(self.ctx, self.degree, c)

    def _poly_in_nilpotent(self, series_coeffs):
        """sum_r series_coeffs[r] * h^r, h the zero-constant part of self."""
        h = self.nilpotent_part()
        out = TaylorScalar.constant(self.ctx, series_coeffs[0], self.degree)
        hp = TaylorScalar.constant(self.ctx, 1.0, self.degree)
        for r in range(1, self.degree + 1):
            hp = hp * h
            out = out + hp * series_coeffs[r]
        return out

    def exp(self):
        e0 = math.exp(self.value)
        return self._poly_in_nilpotent([e0 / math.factorial(r)
                                        for r in range(self.degree + 1)])

    def _cycle(self, v0, v1):
        """sum_r c_r h^r, h the zero-constant part of self, with c_r the
        cycle (v0, v1, -v0, -v1) at r mod 4, over r!."""
        cycle = (v0, v1, -v0, -v1)
        return self._poly_in_nilpotent([cycle[r % 4] / math.factorial(r)
                                        for r in range(self.degree + 1)])

    def sin(self):
        # sin(a + h) = sin a cos h + cos a sin h
        return self._cycle(math.sin(self.value), math.cos(self.value))

    def cos(self):
        # cos(a + h) = cos a cos h - sin a sin h
        return self._cycle(math.cos(self.value), -math.sin(self.value))

    def compose_args(self, args):
        """Evaluate this series at TaylorScalar arguments.

        `args` must be one series per variable, all on a common context, with
        values equal to this series' expansion point offsets handled by the
        caller (the substituted arguments carry their own constant terms; the
        composition uses args[v] - args[v].value as the increment).
        """
        ctx_out = args[0].ctx
        deg_out = min(a.degree for a in args)
        incr = [a.nilpotent_part() for a in args]
        out = TaylorScalar.constant(ctx_out, 0.0, deg_out)
        powers = [[TaylorScalar.constant(ctx_out, 1.0, deg_out)] for _ in incr]
        for v, h in enumerate(incr):
            for _ in range(self.degree):
                powers[v].append(powers[v][-1] * h)
        for i, I in enumerate(self.ctx.indices):
            if I.order > self.degree:
                break
            c = self.coeffs[i]
            if c == 0.0:
                continue
            term = TaylorScalar.constant(ctx_out, c, deg_out)
            for v, e in enumerate(I):
                if e:
                    term = term * powers[v][e]
            out = out + term
        return out


# --------------------------------------------------------------------------
# analytic expressions: a small prefix-notation grammar
# --------------------------------------------------------------------------

#: expression tree node: float | ("x", i) | (op, child...) with op one of
#: "+", "-", "*", "/", "^", "exp", "sin", "cos"
AnalyticExpr = object

_UNARY = {"exp", "sin", "cos"}
_NARY = {"+", "*", "-", "/"}
_MAX_DEPTH = 200    # far above any analytic datum, far below the stack


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_expr(text):
    """Parse prefix notation like ``(+ (* 2 x1) (sin x2))`` into a tree."""
    tokens = _tokenize(text)
    pos = 0

    def parse(depth=0):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        if depth > _MAX_DEPTH:
            raise ValueError(f"expression nested deeper than {_MAX_DEPTH}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise ValueError("dangling '('")
            op = tokens[pos]
            pos += 1
            args = []
            while pos < len(tokens) and tokens[pos] != ")":
                args.append(parse(depth + 1))
            if pos >= len(tokens):
                raise ValueError("missing ')'")
            pos += 1
            if op in _UNARY and len(args) != 1:
                raise ValueError(f"{op} takes one argument")
            if op in _NARY and not args:
                raise ValueError(f"{op} takes at least one argument")
            if op == "^":
                if len(args) != 2 or not isinstance(args[1], float) \
                        or not args[1].is_integer():
                    raise ValueError("^ takes an expression and an integer")
            if op not in _UNARY and op not in _NARY and op != "^":
                raise ValueError(f"unknown operator {op!r}")
            return (op, *args)
        if tok == ")":
            raise ValueError("unexpected ')'")
        if tok.startswith("x") and tok[1:].isdigit():
            index = int(tok[1:]) - 1
            if index < 0:
                raise ValueError(f"variables start at x1, got {tok!r}")
            return ("x", index)
        try:
            return float(tok)
        except ValueError as exc:
            raise ValueError(f"bad token {tok!r}") from exc

    tree = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in expression")
    return tree


def _fold(op, vals):
    if op == "+":
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out
    if op == "*":
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out
    if op == "-":
        if len(vals) == 1:
            return -vals[0]
        out = vals[0]
        for v in vals[1:]:
            out = out - v
        return out
    if op == "/":
        out = vals[0]
        for v in vals[1:]:
            out = out / v
        return out
    raise ValueError(op)


def _variable(node, n):
    """The index of the variable node `node`, which must name one of the
    `n` coordinates of a point."""
    if node[1] >= n:
        raise ValueError(f"x{node[1] + 1} outside a {n}-point")
    return node[1]


def expand(expr, base, degree, ctx=None):
    """Taylor-expand an expression tree at `base` through `degree`."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    base = np.asarray(base, dtype=float)
    ctx = ctx or TaylorContext(len(base), degree)

    def ev(node):
        if isinstance(node, float):
            return TaylorScalar.constant(ctx, node, degree)
        if node[0] == "x":
            i = _variable(node, len(base))
            return TaylorScalar.variable(ctx, i, base[i], degree)
        op = node[0]
        if op == "exp":
            return ev(node[1]).exp()
        if op == "sin":
            return ev(node[1]).sin()
        if op == "cos":
            return ev(node[1]).cos()
        if op == "^":
            return ev(node[1]) ** int(node[2])
        return _fold(op, [ev(a) for a in node[1:]])

    return ev(expr)


def eval_expr(expr, point):
    """Numerically evaluate an expression tree at a float point."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    point = np.asarray(point, dtype=float)

    def ev(node):
        if isinstance(node, float):
            return node
        if node[0] == "x":
            return float(point[_variable(node, len(point))])
        op = node[0]
        if op == "exp":
            return math.exp(ev(node[1]))
        if op == "sin":
            return math.sin(ev(node[1]))
        if op == "cos":
            return math.cos(ev(node[1]))
        if op == "^":
            if node[2] < 0:     # as `expand` would reject it
                raise ValueError("only nonnegative integer powers are "
                                 "supported")
            return ev(node[1]) ** int(node[2])
        return _fold(op, [ev(a) for a in node[1:]])

    return ev(expr)


def derive(t, var):
    """Partial derivative of a TaylorScalar with respect to one variable."""
    return TaylorScalar(t.ctx, t.degree - 1, t.ctx.derive(t.coeffs, t.degree, var))


def partial(t, I):
    """The exact partial derivative d^I f at the base point (times nothing)."""
    I = MultiIndex(I)
    if I.order > t.degree:
        raise ValueError(f"|I|={I.order} exceeds truncation degree {t.degree}")
    fac = 1.0
    for e in I:
        fac *= math.factorial(e)
    return fac * float(t.coeffs[t.ctx.lookup[I]])


def _fd_plain(expr, base, I, step):
    """Plain central-difference estimate of d^I f at `base`."""
    base = np.asarray(base, dtype=float)

    def rec(vars_left, point_shifts):
        if not vars_left:
            return eval_expr(expr, base + point_shifts)
        v = vars_left[0]
        rest = vars_left[1:]
        e = np.zeros_like(base)
        e[v] = step
        return (rec(rest, point_shifts + e) - rec(rest, point_shifts - e)) / (2 * step)

    vars_expanded = []
    for v, k in enumerate(I):
        vars_expanded.extend([v] * k)
    return rec(vars_expanded, np.zeros_like(base))


def finite_difference_check(expr, base, I, step=1e-3):
    """|Richardson-extrapolated FD estimate - Taylor partial|, an oracle gap.

    Central differences are O(step^2); one Richardson step removes that term,
    which is enough for |I| <= 4 on smooth data.
    """
    I = MultiIndex(I)
    t = expand(expr, base, max(I.order, 1) + 1)
    exact = partial(t, I)
    f1 = _fd_plain(expr, base, I, step)
    f2 = _fd_plain(expr, base, I, step / 2.0)
    richardson = (4.0 * f2 - f1) / 3.0
    return abs(richardson - exact)
