"""Coefficient recursions relating iterated derivatives across lifts.

Every family here answers the same question: given the iterated covariant
derivatives of an object downstairs, what are the iterated derivatives of
its lift (or of the same object under a different connection, or of its
pull-back along a map)?  The answer is a triangular family of vector-bundle
maps indexed by (m, s), built by one recursion step shared across families:

    T[m+1] picks up  (i) the covariant derivative of T[m],
                     (ii) an identity shift T[m][s-1] (x) id,
                     (iii) signed substitutions of a structure tensor at
                           every input (forward) or output (inverse) slot,
                     (iv) coupling terms for the evaluation families.

Step (iii) is a connection correction per slot: `Geometry.cov` adds the
signed structure tensor to the connection coefficients of each corrected
slot, so (i) and (iii) take one contraction per slot together.  Every entry
is a `PaddedMap`, a sum of small cores times identity pairs, whose
derivative, action and norm come in closed form.  The identity products of
(ii) and (iv) are never formed: A (x) id is A with one more identity pair on
every term, and the pull-back shift A (x) dPhi is every core times dPhi.
How far an entry stays sparse is up to its terms: a term whose pairs contain
another term's pairs is folded into that term's core.

Map tensors are stored as [OUT block][IN-dual block]: OUT = the main lift's
auxiliary slots followed by m covariant slots, IN-dual = the flipped slots
of the argument objects.  The forward tables expand total-space derivatives
in terms of lifted base derivatives; the inverse tables go back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FIB, PTN, TAN, FieldTensor, Geometry
from .seminorms import upper_envelope_fit
from .tensor_core import COV, CONTRA, TensorShape, whitened

__all__ = ["FamilySpec", "CoefficientTable", "PaddedMap", "build_coefficients",
           "verify_expansion", "verify_inverse_pair", "growth_profile",
           "bundle_family", "conn_family", "pullback_family",
           "BUNDLE_FAMILY_KINDS", "FAMILY_SLOTS", "EVALUATING_FAMILIES"]

#: the base slots of each bundle family's test object; the lift of the
#: object and the argument slots of the family's maps follow from them by
#: the slot rule of `total_space.slot_kinds`
FAMILY_SLOTS = {
    "P": (),
    "V": ((FIB, CONTRA),),
    "H": ((TAN, CONTRA),),
    "Vstar": ((FIB, COV),),
    "L": ((FIB, CONTRA), (FIB, COV)),
    "D": ((FIB, COV),),
    "C": ((FIB, CONTRA), (FIB, COV)),
}

#: the families whose lift contracts the FIB down slot with the
#: tautological point
EVALUATING_FAMILIES = ("D", "C")

BUNDLE_FAMILY_KINDS = tuple(FAMILY_SLOTS)

#: entry norms at or below this count as zero in `growth_profile`
ZERO_NORM = 1e-13


@dataclass
class FamilySpec:
    name: str
    geo: Geometry                  # differentiates coefficients and lifts
    aux: list                      # per component: tuple of (space, variance)
    structure: dict                # space -> the structure tensor S
    base: Geometry                 # the geometry the test object lives on
    lift: object                   # lift(comp, ds): the lift of one derivative
    coupled_pure: object = None    # FamilySpec of the pure lift family
    eval_at: object = None         # its aux slot that component 0 evaluates
    shift_tensor: object = None    # defaults to the tangent identity
    arg_space: str = TAN           # space of the argument covariant slots

    def n_aux_out(self):
        return len(self.aux[0])

    def stream_lifted(self, comp, obj, s):
        """The lift of the s-th derivative of obj, formed anew: the
        reference that the stream memo `_Streams` is checked against."""
        return self.lift(comp, self.base.iterated(obj, s))

    def stream_total(self, comp, obj, s):
        return self.geo.iterated(self.stream_lifted(comp, obj, 0), s)


class _Streams:
    """The derivative streams of one object under one family, each formed
    once: the base stream of every order (the object's derivative on the
    family's base geometry, as `cov` of the one of order s - 1), the lifted
    stream of every order (the lift of that derivative), and the
    total-space stream of order s as `geo.cov` of the one of order s - 1.
    Both streams of order 0 are the lift itself, as in `FamilySpec`."""

    def __init__(self, spec, obj):
        self.spec = spec
        self.obj = obj
        self._base = [obj]
        self._lifted = {}
        self._total = {}

    def lifted(self, comp, s):
        key = (comp, s)
        if key not in self._lifted:
            while len(self._base) <= s:
                self._base.append(self.spec.base.cov(self._base[-1]))
            self._lifted[key] = self.spec.lift(comp, self._base[s])
        return self._lifted[key]

    def total(self, comp, s):
        stream = self._total.get(comp)
        if stream is None:
            stream = self._total[comp] = [self.lifted(comp, 0)]
        while len(stream) <= s:
            stream.append(self.spec.geo.cov(stream[-1]))
        return stream[s]


class CoefficientTable:
    """Entries (m, component, s) -> PaddedMap."""

    def __init__(self, spec, m_max, entries, direction):
        self.spec = spec
        self.m_max = m_max
        self.entries = entries
        self.direction = direction
        self._streams = None

    def get(self, m, comp, s):
        return self.entries.get((m, comp, s))

    def items(self):
        return self.entries.items()

    def _streams_of(self, spec, obj):
        """The stream memo of `obj` under `spec`: one object at a time,
        held by a strong reference and matched by identity, so a new object
        or a new table starts from nothing."""
        memo = self._streams
        if memo is None or memo.spec is not spec or memo.obj is not obj:
            memo = self._streams = _Streams(spec, obj)
        return memo


class PaddedMap(FieldTensor):
    """A map [OUT][IN-dual] held as a sum of terms, each a small core on a
    few slots times the identity on pairs of the remaining slots: the form
    of every entry of a coefficient table.

    A term is (core, axes, pairs): `core` an array (coefficients, *dims)
    whose axes are the map positions `axes`, and `pairs` the position pairs
    (p, q), p < q, that each hold the identity of one space (opposite
    variances).  Every position is a core axis or in one pair, so the pairs
    fix the axes.  When the map is made, a term whose pairs contain another
    term's pairs (equal pairs included) is added into that term's core
    along its extra pairs (`_folded`): no term's pairs contain another's,
    and a term without pairs, the dense map, holds every term.
    The covariant derivative, shift, action and Gram norm come in closed
    form and never form the map.  `data` forms it anew on every read (for
    tests and checks outside the recursion), read-only: a strided view for
    a map of one term without core axes (`_pair_view`), the dense map
    otherwise.
    """

    def __init__(self, chart, slots, dims, degree, terms):
        self.chart = chart
        self.slots = TensorShape(slots)
        self.degree = int(degree)
        self._dims = tuple(dims)
        rows = chart.ctx.size(self.degree)
        self.terms = _folded([self._checked(core[:rows], axes, pairs)
                              for core, axes, pairs in terms])

    def _checked(self, core, axes, pairs):
        """The term with its axes sorted and its pairs ordered, once its
        positions are checked to cover the map and its pairs to join dual
        slots of one space."""
        order = sorted(range(len(axes)), key=axes.__getitem__)
        core = core.transpose([0] + [k + 1 for k in order])
        axes = tuple(axes[k] for k in order)
        pairs = tuple(sorted(tuple(sorted(pq)) for pq in pairs))
        if sorted(axes + sum(pairs, ())) != list(range(self.order)):
            raise ValueError(f"term positions {axes} + {pairs} do not cover "
                             f"{self.order} slots")
        want = (self.chart.ctx.size(self.degree),) + tuple(
            self._dims[a] for a in axes)
        if core.shape != want:
            raise ValueError(f"core shape {core.shape} is not {want}")
        for p, q in pairs:
            a, b = self.slots[p], self.slots[q]
            if a.space != b.space or a.variance == b.variance:
                raise ValueError(f"an identity cannot join {a} and {b}")
        return core, axes, pairs

    @property
    def dims(self):
        return self._dims

    @classmethod
    def identity(cls, chart, out_slots, dims, degree):
        """The identity on the OUT slots `out_slots`: one term, the constant
        scalar core 1, pairing OUT slot i with IN-dual slot n + i."""
        out_slots = TensorShape(out_slots)
        n = len(out_slots)
        slots = tuple(out_slots) + tuple(
            (s.space, COV if s.up else CONTRA) for s in out_slots)
        core = np.zeros(chart.ctx.size(degree))
        core[0] = 1.0
        return cls(chart, slots, tuple(dims) * 2, degree,
                   [(core, (), [(i, n + i) for i in range(n)])])

    @property
    def data(self):
        if len(self.terms) == 1 and not self.terms[0][1]:
            core, _, pairs = self.terms[0]
            return self._pair_view(core, pairs)
        data = self.dense().data
        data.flags.writeable = False
        return data

    def dense(self):
        """The map formed as a new, writable dense FieldTensor: zeros with
        every term added."""
        out = FieldTensor.zeros(self.chart, self.slots, self._dims,
                                self.degree)
        self.add_to(out.data)
        return out

    def _pair_view(self, core, pairs):
        """The map of one term without core axes as a read-only strided
        view: per series coefficient it reads Π(2 d_i - 1) floats, with
        entry (a, b) of pair i = (p, q) at offset w_i (a - b) in the
        balanced radix w_i = Π_{j>i} (2 d_j - 1) from the float that holds
        the core's coefficient, every other float being zero."""
        dims = [self._dims[p] for p, _ in pairs]
        radix = [2 * d - 1 for d in dims]
        weights = [math.prod(radix[i + 1:]) for i in range(len(dims))]
        center = sum(w * (d - 1) for w, d in zip(weights, dims))
        buf = np.zeros((len(core), math.prod(radix)))
        buf[:, center] = core
        buf.flags.writeable = False
        step = buf.itemsize
        strides = [0] * self.order
        for (p, q), w in zip(pairs, weights):
            strides[p], strides[q] = w * step, -w * step
        return np.ndarray((len(core),) + self._dims, buffer=buf,
                          offset=center * step,
                          strides=(buf.strides[0],) + tuple(strides))

    def add_to(self, out):
        """out += the map, one term at a time (`_add_term`); `out` is an
        array of the map's shape, to a degree at most the map's."""
        for core, axes, pairs in self.terms:
            _add_term(out, range(self.order), core, axes, pairs)

    def truncated(self, degree):
        if degree >= self.degree:
            return self
        return PaddedMap(self.chart, self.slots, self._dims, degree,
                         self.terms)

    def permuted(self, perm):
        at = {old: new for new, old in enumerate(perm)}
        return PaddedMap(
            self.chart, [self.slots[p] for p in perm],
            [self._dims[p] for p in perm], self.degree,
            [(core, [at[a] for a in axes], [(at[p], at[q]) for p, q in pairs])
             for core, axes, pairs in self.terms])

    def __mul__(self, scalar):
        return PaddedMap(self.chart, self.slots, self._dims, self.degree,
                         [(core * float(scalar), axes, pairs)
                          for core, axes, pairs in self.terms])

    __rmul__ = __mul__

    def product(self, other):
        """self (x) other, `other` a FieldTensor: every core times other,
        whose slots are appended as core axes."""
        extra = tuple(range(self.order, self.order + other.order))
        terms = [(FieldTensor(self.chart, [self.slots[a] for a in axes], core,
                              self.degree).product(other).data,
                  axes + extra, pairs)
                 for core, axes, pairs in self.terms]
        return PaddedMap(self.chart, tuple(self.slots) + tuple(other.slots),
                         self._dims + tuple(other.dims),
                         min(self.degree, other.degree), terms)

    def with_pair(self, n_out, in_pos, dim):
        """self (x) id on the `dim`-dimensional tangent space, the id's down
        slot at OUT position `n_out` and its up slot at position `in_pos` of
        the IN-dual block (the layout of a shift or a coupling): one more
        pair on every term."""
        up = n_out + 1 + in_pos
        slots, dims = list(self.slots), list(self._dims)
        slots.insert(n_out, (TAN, COV))
        dims.insert(n_out, dim)
        slots.insert(up, (TAN, CONTRA))
        dims.insert(up, dim)
        at = [x + (x >= n_out) for x in range(self.order)]
        at = [x + (x >= up) for x in at]
        return PaddedMap(
            self.chart, slots, dims, self.degree,
            [(core, [at[a] for a in axes],
              [(at[p], at[q]) for p, q in pairs] + [(n_out, up)])
             for core, axes, pairs in self.terms])

    def norm(self, geo):
        """The Gram norm from the terms alone.  Every core is whitened at
        the base point by `tensor_core.whitened` (U on an up slot, U^-T on a
        down slot, U^T U the Gram), which leaves each identity an identity,
        so the inner product of two terms is the plain contraction of their
        whitened cores, the identities of both terms joining their slots
        into chains: a chain between core axes is a shared einsum label, and
        a closed loop of identities contributes its dimension."""
        n = self.order
        white = [whitened(geo.registry, [self.slots[a] for a in axes],
                          core[0])
                 for core, axes, _ in self.terms]
        dots = []
        for t, (_, axes, pairs) in enumerate(self.terms):
            for u in range(t, len(self.terms)):
                _, axes_u, pairs_u = self.terms[u]
                # each slot's chain, named by one slot of it
                root = list(range(n))
                for p, q in pairs + pairs_u:
                    root[_chain(root, p)] = _chain(root, q)
                lab_t = [_chain(root, a) for a in axes]
                lab_u = [_chain(root, a) for a in axes_u]
                loops = {_chain(root, x) for x in range(n)} - set(lab_t) \
                    - set(lab_u)
                dot = float(np.einsum(white[t], lab_t, white[u], lab_u, []))
                dot *= math.prod(self._dims[r] for r in loops)
                dots.append(dot if t == u else 2.0 * dot)
        # terms that cancel may leave a rounding error of either sign
        return math.sqrt(max(math.fsum(dots), 0.0))

    def apply_map(self, n_out, arg):
        """`FieldTensor.apply_map` term by term: each core contracts the
        argument's slots at its IN-dual axes, and each pair hands the
        argument's slot at its IN-dual end to its OUT end."""
        n_in = self.check_argument(n_out, arg)
        ctx = self.chart.ctx
        d = min(self.degree, arg.degree)
        a = ctx.truncate(arg.data, d)
        out = None
        for core, axes, pairs in self.terms:
            c_out = [pos for pos in axes if pos < n_out]
            c_in = [pos - n_out for pos in axes if pos >= n_out]
            if axes or np.any(core[1:]):
                r = ctx.contract(ctx.truncate(core, d), d, a, d,
                                 list(range(len(c_out), len(axes))), c_in, d)
            else:       # a constant scalar times identities
                r = a * core[0]
            # r: (C, *core OUT axes, *the argument's other axes in order)
            src = {pos: 1 + k for k, pos in enumerate(c_out)}
            free = [i for i in range(arg.order) if i not in c_in]
            partner = {}
            for p, q in pairs:
                if not p < n_out <= q:
                    raise ValueError(f"pair {(p, q)} does not join an OUT "
                                     f"slot to an IN-dual slot")
                partner[q - n_out] = p
            rest = []
            for k, i in enumerate(free):
                if i in partner:
                    src[partner[i]] = 1 + len(c_out) + k
                else:
                    rest.append(1 + len(c_out) + k)
            r = r.transpose([0] + [src[pos] for pos in range(n_out)] + rest)
            if out is None:
                out = r
            else:
                out += r
        if out is None:         # no terms: the zero map
            out = np.zeros((ctx.size(d),) + self._dims[:n_out]
                           + arg.dims[n_in:])
        return FieldTensor(self.chart, list(self.slots[:n_out])
                           + list(arg.slots[n_in:]), out, d)

    def cov(self, geo, corrections):
        """`geo.cov(self, corrections)` term by term: each term gives the
        covariant derivative of its core (with the corrections of its core
        slots) times its identities, and, for each corrected slot (sign, S)
        of a pair, its core times sign * S[up, down, direction] on that
        pair; the connection terms of a pair's two slots cancel.  The
        direction slot is appended last."""
        dout = geo.cov_degree(self, corrections)
        new = self.order
        terms = []
        for core, axes, pairs in self.terms:
            c = FieldTensor(self.chart, [self.slots[a] for a in axes], core,
                            self.degree)
            if axes or np.any(core[1:]):     # a constant scalar is parallel
                fix = {k: corrections[pos] for k, pos in enumerate(axes)
                       if pos in corrections}
                terms.append((geo.cov(c, fix).data, axes + (new,), pairs))
            c = c.truncated(dout)
            for p, q in pairs:
                up, down = (p, q) if self.slots[p].up else (q, p)
                rest = [pq for pq in pairs if pq != (p, q)]
                for pos in (p, q):
                    if pos in corrections:
                        sign, S = corrections[pos]
                        t = (S.truncated(dout) * sign).product(c)
                        terms.append((t.data, (up, down, new) + axes, rest))
        return PaddedMap(self.chart, tuple(self.slots) + ((TAN, COV),),
                         self._dims + (self.chart.n,), dout, terms)


def _add_term(out, out_axes, core, axes, pairs):
    """out += core times the identities of `pairs`, added broadcast along
    the diagonal of each pair through a writable einsum view of `out`, an
    array (coefficients, *dims) whose axes are the map positions
    `out_axes`, to a degree at most the core's."""
    rows = out.shape[0]
    # einsum labels: 0 the series, then the core axes, then a label per
    # pair shared by its two axes
    label = {pos: k + 1 for k, pos in enumerate(axes)}
    for k, (p, q) in enumerate(pairs):
        label[p] = label[q] = len(axes) + 1 + k
    view = np.einsum(out, [0] + [label[a] for a in out_axes],
                     list(range(len(axes) + len(pairs) + 1)))
    view += core[:rows].reshape(core[:rows].shape + (1,) * len(pairs))


def _folded(terms):
    """`terms`, fewest pairs first, each whose pairs contain the pairs of a
    term kept before it added into that term's core (a copy, as a core is
    only read) along its extra pairs."""
    kept = []       # [core, axes, pairs, set of pairs, core is a copy]
    for core, axes, pairs in sorted(terms, key=lambda term: len(term[2])):
        into = next((held for held in kept if held[3] <= set(pairs)), None)
        if into is None:
            kept.append([core, axes, pairs, set(pairs), False])
            continue
        if not into[4]:
            into[0], into[4] = np.array(into[0], order="C"), True
        _add_term(into[0], into[1], core, axes,
                  [pq for pq in pairs if pq not in into[3]])
    return tuple((core, axes, pairs) for core, axes, pairs, _, _ in kept)


def _chain(root, x):
    """The slot that names the chain of x in the forest `root`."""
    while root[x] != x:
        x = root[x]
    return x


def _slot_rules(structure, layout, first, inverse):
    """{map position: (sign, S)} for the slots of `layout`, which start at
    position `first` of the map, whose space has a structure tensor S: the
    sign of the tensor derivation D_S (+S on an up slot, -S on a down slot)
    forward, the opposite inverse."""
    sign = -1.0 if inverse else 1.0
    return {first + p: (sign if variance == CONTRA else -sign,
                        structure[space])
            for p, (space, variance) in enumerate(layout)
            if space in structure}


def _cov_term(spec, A, n_out, corrections):
    """The covariant derivative of A with the structure-tensor substitutions
    of `corrections` folded into the connection of their slots."""
    dA = A.cov(spec.geo, corrections)
    return dA.move_slot(dA.order - 1, n_out)    # the new OUT covariant slot


def _shift_term(spec, A, n_out):
    """The shift term of A: A (x) id with the id's down slot last in OUT and
    its up slot last in IN-dual, or A (x) dPhi, every core times dPhi, for
    the pull-back family, whose shift is a different tensor."""
    if spec.shift_tensor is None:
        return A.with_pair(n_out, A.order - n_out, spec.geo.dims[TAN])
    t = A.product(spec.shift_tensor)
    return t.move_slot(A.order, n_out)


def build_coefficients(spec, m_max, direction="forward", keep_degree=0):
    """Build the coefficient table by the family's recursion.

    `direction` is "forward" (total-space derivatives from lifted base
    derivatives) or "inverse".  Entries at level m are eagerly truncated to
    the degree still needed, and every term of level m + 1 but the covariant
    derivative (which drops a degree itself) is formed from entries cut to
    the degree level m + 1 keeps, which keeps high orders cheap.  Each entry
    of level m + 1 is made once, from its parts in one order (the covariant
    term, the shift, the evaluation coupling) that fixes the order in which
    its terms fold, and so its rounding.  An evaluating family couples
    component 0 into component 1 through the slot `eval_at` of the pure
    family: forward, A (x) id with the id's up slot there; inverse, minus
    the pure table's entry with that slot moved last in OUT.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(direction)
    inverse = direction == "inverse"
    pure_tables = None
    if inverse and spec.coupled_pure is not None:
        pure_tables = build_coefficients(spec.coupled_pure, m_max, "inverse",
                                         keep_degree=keep_degree + 1)
    aux = spec.aux[0]
    entries = {(0, 0, 0): PaddedMap.identity(
        spec.geo.chart, aux, [spec.geo.dims[space] for space, _ in aux],
        spec.geo.chart.cap)}
    n_aux_main = spec.n_aux_out()
    for m in range(m_max):
        level = sorted((c, s) for (mm, c, s) in entries if mm == m)
        parts = {}      # (c, s) of level m + 1 -> its parts, in fold order
        need = max(m_max - (m + 1), 0) + keep_degree

        n_out = n_aux_main + m
        for (c, s) in level:
            # the structure tensor corrects the output slots (inverse) or
            # the argument slots (forward) inside the covariant derivative
            if inverse:
                fix = _slot_rules(spec.structure, list(spec.aux[0])
                                  + [(spec.arg_space, COV)] * m, 0, inverse)
            else:
                fix = _slot_rules(spec.structure, list(spec.aux[c])
                                  + [(spec.arg_space, COV)] * s, n_out,
                                  inverse)
            parts.setdefault((c, s), []).append(
                _cov_term(spec, entries[(m, c, s)], n_out, fix))
        # the shift and coupling terms keep no more degrees than the new level
        # needs; a diagonal's key takes its own shift alone
        for (c, s) in level:
            parts.setdefault((c, s + 1), []).append(
                _shift_term(spec, entries[(m, c, s)].truncated(need), n_out))
        for s in range(m + 1 if spec.eval_at is not None else 0):
            if inverse:
                P = pure_tables.get(m, 0, s).truncated(need)
                last = len(spec.coupled_pure.aux[0]) + m - 1
                term = P.move_slot(spec.eval_at, last) * -1.0
            else:
                term = entries[(m, 0, s)].truncated(need).with_pair(
                    n_out, spec.eval_at, spec.geo.dims[TAN])
            parts.setdefault((1, s), []).append(term)
        for (c, s), key_parts in parts.items():
            first = key_parts[0]
            if any(part.slots != first.slots for part in key_parts):
                raise ValueError("slot mismatch")
            entries[(m + 1, c, s)] = PaddedMap(
                first.chart, first.slots, first.dims,
                min([need] + [part.degree for part in key_parts]),
                [term for part in key_parts for term in part.terms])
    return CoefficientTable(spec, m_max, entries, direction)


def _residual(lhs, rhs, geo):
    diff = lhs - rhs
    return geo.norm(diff) / max(geo.norm(lhs), 1e-12)


def _table_sum(spec, table, m, stream):
    """The sum over (c, s) of table[m, c, s] applied to stream(c, s)."""
    out = None
    for c in range(len(spec.aux)):
        for s in range(m + 1):
            A = table.get(m, c, s)
            if A is None:
                continue
            term = A.apply_map(spec.n_aux_out() + m, stream(c, s))
            out = term if out is None else out + term
    return out


def verify_expansion(spec, table, obj, m):
    """|| direct total-space derivative - coefficient sum || (relative)."""
    streams = table._streams_of(spec, obj)
    lhs = streams.total(0, m)
    return _residual(lhs, _table_sum(spec, table, m, streams.lifted),
                     spec.geo)


def verify_inverse_pair(spec, table_inv, obj, m):
    """Reconstruct the lifted base derivative from total-space data."""
    streams = table_inv._streams_of(spec, obj)
    target = streams.lifted(0, m)
    return _residual(target, _table_sum(spec, table_inv, m, streams.total),
                     spec.geo)


def growth_profile(table, geo, slack=2.0):
    """Entry norms plus a fitted factorial-weighted envelope.

    Fits log||A^m_s|| ~ log C - m log sigma - (m-s) log rho + log (m-s)! by
    least squares over the entries of norm above `ZERO_NORM` and reports
    the fraction of them covered by the slack-inflated bound.  A degenerate
    (all-zero off-diagonal) profile is reported as such.
    """
    rows = [(m, s, c, geo.norm(A)) for (m, c, s), A in sorted(table.items())]
    nonzero = [row for row in rows if row[3] > ZERO_NORM]
    if all(m == s for m, s, _, _ in nonzero):
        return {"rows": rows, "degenerate": True, "coverage": 1.0,
                "C": 0.0, "sigma": 1.0, "rho": 1.0, "slack": slack}
    X = np.asarray([[1.0, float(m), float(m - s)] for m, s, _, _ in nonzero])
    y = np.asarray([math.log(val) - math.lgamma(m - s + 1)
                    for m, s, _, val in nonzero])
    # the template is an upper envelope over the sampled range;
    # a = log 1/sigma, b = log 1/rho
    (logC, a, b), resid = upper_envelope_fit(X, y)
    spread = float(np.exp(resid.max() - resid.min()))
    covered = sum(val <= math.exp(logC + a * m + b * (m - s)
                                  + math.lgamma(m - s + 1)) * slack
                  for m, s, _, val in nonzero)
    return {"rows": rows, "degenerate": False,
            "coverage": covered / len(nonzero),
            "C": math.exp(logC), "sigma": math.exp(-a), "rho": math.exp(-b),
            "central_spread": spread, "slack": slack}


# --------------------------------------------------------------------------
# concrete families
# --------------------------------------------------------------------------

def bundle_family(kind, ts):
    """A lift family over a total-space geometry, derived from the slots of
    its test object (`FAMILY_SLOTS`)."""
    if kind not in FAMILY_SLOTS:
        raise ValueError(f"unknown bundle family {kind}")
    slots = FAMILY_SLOTS[kind]
    evaluate = kind in EVALUATING_FAMILIES
    # every base slot lifts to a tangent slot of E with the same variance
    lifted = [(TAN, variance) for _space, variance in slots]
    # component 0 is the family's own lift, component 1 the pure one
    spec = FamilySpec(
        name=kind, geo=ts, aux=[lifted], structure={TAN: ts.b_tensor()},
        base=ts.bundle,
        lift=lambda comp, ds: ts.lift(ds, evaluate and comp == 0))
    if evaluate:
        # component 0 loses the evaluated slot; component 1 is the pure
        # family of the same slots, coupled in at that slot's position
        at = slots.index((FIB, COV))
        spec.aux = [lifted[:at] + lifted[at + 1:], lifted]
        spec.eval_at = at
        pure = next(k for k, s in FAMILY_SLOTS.items()
                    if s == slots and k not in EVALUATING_FAMILIES)
        spec.coupled_pure = bundle_family(pure, ts)
    return spec


def conn_family(bun, bun_bar):
    """Connection-change family on the base: compares two (affine, linear)
    connection pairs on the same bundle; a changed connection corrects each
    slot by the difference of its space's connections, as the lift families
    do by B."""
    from .fields import connection_difference
    structure = {space: connection_difference(bun_bar.conns[space],
                                              bun.conns[space])
                 for space in (TAN, FIB)}
    return FamilySpec(
        name="CONN", geo=bun_bar, aux=[[(FIB, CONTRA)]], structure=structure,
        base=bun, lift=lambda comp, ds: ds)


def pullback_family(pbgeo):
    # the test object is a scalar FieldTensor on the target chart
    return FamilySpec(
        name="PB", geo=pbgeo, aux=[[]], structure={},
        base=pbgeo.mapdata.target,
        lift=lambda comp, ds: pbgeo.mapdata.pullback_field(ds),
        shift_tensor=pbgeo.conversion(), arg_space=PTN)


def pullback_inverse_residual(pbgeo, table_fwd, obj, m):
    """Triangular reconstruction of the pulled-back derivative list.

    Solves the forward expansion for the pulled-back data using a metric
    right-inverse of the tangent map; exact only when the map is a
    submersion (otherwise the system genuinely loses information).
    """
    md = pbgeo.mapdata
    dphi = md.dphi             # [PTN up, TAN down]
    from .fields import matrix_inverse_field
    g_inv = matrix_inverse_field(md.domain.g)
    a = dphi.contract_pair(1, g_inv, 0)       # a^{al} = dPhi^a_j g^{jl}
    gram = a.contract_pair(1, dphi, 1)        # [PTN up, PTN up]
    # invert the series matrix; the inversion is slot-blind, so retag
    gram_cov = FieldTensor(gram.chart, [(PTN, COV), (PTN, COV)],
                           gram.data, gram.degree)
    inv_up = matrix_inverse_field(gram_cov)
    inv = FieldTensor(gram.chart, [(PTN, COV), (PTN, COV)],
                      inv_up.data, inv_up.degree)
    w = a.contract_pair(0, inv, 0)            # [TAN up, PTN down]
    spec = table_fwd.spec
    streams = table_fwd._streams_of(spec, obj)
    q_hat = []
    num = den = 0.0
    for mm in range(m + 1):
        lhs = streams.total(0, mm)
        for s in range(mm):
            A = table_fwd.get(mm, 0, s)
            lhs = lhs - A.apply_map(mm, q_hat[s])
        q = lhs
        for pos in range(mm):
            q = q.contract_pair(pos, w, 0).move_slot(q.order - 1, pos)
        q_hat.append(q)
        truth = streams.lifted(0, mm)
        num += pbgeo.norm(truth - q) ** 2
        den += pbgeo.norm(truth) ** 2
    return math.sqrt(num) / max(math.sqrt(den), 1e-12)
