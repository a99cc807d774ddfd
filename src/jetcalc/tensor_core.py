"""Dense multilinear algebra on finite-dimensional inner-product spaces.

Tensors are stored as row-major numpy arrays with one axis per slot; a slot
is a (space, variance) pair resolved against a registry of spaces, each of
which carries a symmetric positive-definite Gram matrix.  Norms and inner
products weight every slot by its Gram (inverse Gram on dual slots), applied
through its Cholesky factor, so non-orthonormal metrics are supported
throughout.

Conventions:
  * slots of an evaluation-style tensor are [contravariant block][covariant
    block]; new covariant slots created by insertions are appended last;
  * sigma(A)(v_1..v_k) = A(v_{sigma(1)}..v_{sigma(k)});
  * shuffle sets are enumerated by sorted-split construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "VectorSpaceSpec",
    "SpaceRegistry",
    "Slot",
    "TensorShape",
    "DenseTensor",
    "tensor_product",
    "symmetrize",
    "sym_product",
    "insert",
    "substitute",
    "push",
    "derivation_DS",
    "contract_eval",
    "apply_map",
    "delta_split",
    "inner_product",
    "frobenius_norm",
    "random_tensor",
    "identity_tensor",
    "shuffles",
    "sym_rank",
]

COV = "covariant"
CONTRA = "contravariant"


class VectorSpaceSpec:
    """A finite-dimensional real inner-product space."""

    def __init__(self, dim, gram=None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)
        g = np.eye(dim) if gram is None else np.asarray(gram, dtype=float)
        if g.shape != (dim, dim):
            raise ValueError("Gram matrix has the wrong shape")
        if not np.allclose(g, g.T, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        eig = np.linalg.eigvalsh(g)
        if eig.min() <= 0:
            raise ValueError("Gram matrix must be positive-definite")
        self.gram = g
        self.gram_inv = np.linalg.inv(g)

    @cached_property
    def whiteners(self):
        """Upper factors U with U^T U = gram and = gram_inv respectively."""
        return (np.linalg.cholesky(self.gram).T,
                np.linalg.cholesky(self.gram_inv).T)


class SpaceRegistry(dict):
    """Maps space ids to VectorSpaceSpec; shared by the tensors built on it."""

    def add(self, name, dim, gram=None):
        self[name] = VectorSpaceSpec(dim, gram)
        return self[name]


@dataclass(frozen=True)
class Slot:
    space: str
    variance: str  # COV or CONTRA

    @property
    def up(self):
        return self.variance == CONTRA


class TensorShape(tuple):
    """An ordered list of slots."""

    def __new__(cls, slots):
        norm = []
        for x in slots:
            if isinstance(x, Slot):
                norm.append(x)
            else:
                space, variance = x
                norm.append(Slot(space, variance))
        return super().__new__(cls, norm)

    def dims(self, registry):
        return tuple(registry[s.space].dim for s in self)


class DenseTensor:
    """A dense tensor over registered spaces."""

    def __init__(self, registry, slots, data):
        self.registry = registry
        self.slots = TensorShape(slots)
        dims = self.slots.dims(registry)
        data = np.asarray(data, dtype=float)
        if data.shape != dims:
            data = data.reshape(dims)
        self.data = data

    @property
    def order(self):
        return len(self.slots)

    def copy(self):
        return DenseTensor(self.registry, self.slots, self.data.copy())

    def __add__(self, other):
        if self.slots != other.slots:
            raise ValueError("slot mismatch in addition")
        return DenseTensor(self.registry, self.slots, self.data + other.data)

    def __sub__(self, other):
        if self.slots != other.slots:
            raise ValueError("slot mismatch in subtraction")
        return DenseTensor(self.registry, self.slots, self.data - other.data)

    def __mul__(self, scalar):
        return DenseTensor(self.registry, self.slots, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def permuted(self, perm):
        """sigma(A): entry axes rearranged so slot i holds old slot perm[i]."""
        slots = [self.slots[p] for p in perm]
        return DenseTensor(self.registry, slots, np.transpose(self.data, perm))

    def norm(self):
        return frobenius_norm(self)


#: Entries whitened per matrix product when computing Gram norms (512 KB),
#: and the size of the blocks a norm whitens one after another.
WHITEN_CHUNK = 1 << 16


def _whiten_trailing(x, uppers):
    """Multiply every axis of x but the first, in place, by its whitener
    from `uppers`; x is C-contiguous.  WHITEN_CHUNK entries per product."""
    for ax in range(1, x.ndim):
        upper = uppers[ax]
        d = x.shape[ax]
        view = x.reshape(math.prod(x.shape[:ax]), d, -1)
        rows, cols = view.shape[0], view.shape[2]
        if cols == 1:       # last axis: chunks of rows times U^T
            step = max(1, WHITEN_CHUNK // d)
            for p in range(0, rows, step):
                block = view[p:p + step, :, 0]
                block[...] = block @ upper.T
            continue
        sb = max(1, min(cols, WHITEN_CHUNK // d))
        sa = max(1, WHITEN_CHUNK // (d * sb))
        for p in range(0, rows, sa):
            for q in range(0, cols, sb):
                block = view[p:p + sa, :, q:q + sb]
                block[...] = upper @ block


def _memory_order(x):
    """Axis order of x from the largest stride to the smallest: x transposed
    to it is C-contiguous whenever x is a transposed contiguous array."""
    if x.flags.c_contiguous:
        return list(range(x.ndim))
    return sorted(range(x.ndim), key=lambda ax: -abs(x.strides[ax]))


def _whitened_blocks(a, order):
    """a.data with every axis multiplied by its slot's whitener, so that
    Gram inner products become plain dot products, as consecutive flat
    blocks of the whitened array transposed to the axis `order`.

    The first axis of `order` is whitened one block of output rows at a
    time (U[rows] @ data), and the other axes in place on that block, so a
    norm never holds a whitened copy of all of a.  A block is about
    WHITEN_CHUNK entries but at least one slice of the first axis, a.size /
    d0 entries: a quarter to a half of a on axes of dimension 2 to 4.
    """
    x = np.asarray(a.data, dtype=float).transpose(order)
    if x.ndim == 0:
        yield x.reshape(1)
        return
    uppers = [a.registry[a.slots[ax].space].whiteners[a.slots[ax].variance
                                                      == COV]
              for ax in order]
    d0 = x.shape[0]
    step = max(1, WHITEN_CHUNK // (x.size // d0))
    flat = x.reshape(d0, -1) if x.flags.c_contiguous else None
    buf = np.empty((min(step, d0),) + x.shape[1:])
    for p in range(0, d0, step):
        # U is upper triangular: rows p.. read only x[p:]
        u = uppers[0][p:p + step, p:]
        block = buf[:len(u)]
        if flat is None:    # a strided view: no contiguous copy of it
            np.einsum("ij,j...->i...", u, x[p:], out=block)
        else:
            np.matmul(u, flat[p:], out=block.reshape(len(u), -1))
        _whiten_trailing(block, uppers)
        yield block.reshape(-1)


def _chunk_dots(x, y):
    """x . y in dots of WHITEN_CHUNK entries, to be added exactly: one plain
    dot over millions of entries drifts by about sqrt(N) ulps."""
    return (np.dot(x[i:i + WHITEN_CHUNK], y[i:i + WHITEN_CHUNK])
            for i in range(0, x.size, WHITEN_CHUNK))


def inner_product(a, b):
    """Gram-induced inner product; reduces to the entry dot product when all
    Grams are identities."""
    if a.slots != b.slots:
        raise ValueError("slot mismatch in inner product")
    order = _memory_order(a.data)
    return math.fsum(dot for xa, xb in zip(_whitened_blocks(a, order),
                                           _whitened_blocks(b, order))
                     for dot in _chunk_dots(xa, xb))


def frobenius_norm(a):
    return math.sqrt(math.fsum(
        dot for x in _whitened_blocks(a, _memory_order(a.data))
        for dot in _chunk_dots(x, x)))


def tensor_product(a, b):
    if a.registry is not b.registry:
        raise ValueError("tensors live over different registries")
    data = np.multiply.outer(a.data, b.data)
    return DenseTensor(a.registry, tuple(a.slots) + tuple(b.slots), data)


def _check_same_cov(a):
    if not a.slots:
        return
    first = a.slots[0]
    for s in a.slots:
        if s != first or s.variance != COV:
            raise ValueError("symmetrize expects covariant slots on one space")


def sym_axes_data(data, axes):
    """Symmetrize an ndarray over the given (equal-length) axes.

    Averages over all rearrangements by pooling entries whose index tuples
    along `axes` agree up to order; costs O(size log size) instead of k!.
    """
    axes = list(axes)
    k = len(axes)
    if k <= 1:
        return data.copy()
    dim = data.shape[axes[0]]
    if any(data.shape[ax] != dim for ax in axes):
        raise ValueError("symmetrization axes must have equal dimensions")
    moved = np.moveaxis(data, axes, range(data.ndim - k, data.ndim))
    lead = moved.shape[: data.ndim - k]
    flat = moved.reshape(lead + (dim ** k,))
    idx = np.indices((dim,) * k).reshape(k, -1).T
    keys = np.sort(idx, axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    lead_flat = flat.reshape(-1, dim ** k)
    sums = np.zeros((lead_flat.shape[0], len(counts)))
    np.add.at(sums, (slice(None), inverse), lead_flat)
    out_flat = (sums / counts)[:, inverse]
    out = out_flat.reshape(lead + (dim,) * k)
    return np.moveaxis(out, range(data.ndim - k, data.ndim), axes)


def symmetrize(a, axes=None):
    """Average over all permutations of the given axes (default: all).

    With default axes the input must be covariant of one space; with explicit
    axes the named slots must agree pairwise, other slots ride along.
    """
    if axes is None:
        _check_same_cov(a)
        axes = list(range(a.order))
    axes = list(axes)
    if len(axes) <= 1:
        return a.copy()
    return DenseTensor(a.registry, a.slots, sym_axes_data(a.data, axes))


def is_symmetric(a, axes=None, tol=1e-10):
    s = symmetrize(a, axes)
    scale = max(float(np.abs(a.data).max()), 1e-30)
    return float(np.abs(s.data - a.data).max()) <= tol * scale


def _inverse_perm(perm):
    inv = [0] * len(perm)
    for t, s in enumerate(perm):
        inv[s] = t
    return inv


def shuffles(k, l):
    """S_{k,l}: permutations increasing on 1..k and on k+1..k+l.

    Each entry is the 0-based value list [sigma(1)-1, ..., sigma(k+l)-1],
    enumerated by sorted-split construction.
    """
    out = []
    for front in itertools.combinations(range(k + l), k):
        back = [i for i in range(k + l) if i not in front]
        out.append(list(front) + back)
    return out


def apply_perm(data, sigma):
    """sigma(A) with sigma(A)(v_1..v_k) = A(v_{sigma(1)}..v_{sigma(k)}).

    numpy's transpose takes the axis origin list, which is the inverse
    permutation of the argument rearrangement.
    """
    return np.transpose(data, _inverse_perm(sigma))


def sym_product(a, b, tol=1e-10):
    """Shuffle product of symmetric tensors: sum over S_{k,l} of permuted a@b."""
    if not (is_symmetric(a, tol=tol) and is_symmetric(b, tol=tol)):
        raise ValueError("sym_product expects symmetric inputs")
    k, l = a.order, b.order
    t = tensor_product(a, b)
    acc = np.zeros_like(t.data)
    for sigma in shuffles(k, l):
        acc += apply_perm(t.data, sigma)
    return DenseTensor(a.registry, t.slots, acc)


def push(a, j1, j2):
    """Drop argument j1 into the j2 slot, shifting the rest to make room.

    Indices are 1-based as in evaluation notation; j1 == j2 is the identity
    (the two case formulas agree there).
    """
    k = a.order
    if not (1 <= j1 <= k and 1 <= j2 <= k):
        raise ValueError("push index out of range")
    if j1 == j2:
        return a.copy()
    # result(v_1..v_k) = a(arguments rearranged); axis i of the result reads
    # the source axis that held the argument now in position i
    if j1 < j2:
        # a(v_1,..,v_{j1-1}, v_{j1+1},..,v_{j2}, v_{j1}, v_{j2+1},..)
        order = (list(range(j1 - 1)) + list(range(j1, j2)) + [j1 - 1]
                 + list(range(j2, k)))
    else:
        # a(v_1,..,v_{j2-1}, v_{j1}, v_{j2},..,v_{j1-1}, v_{j1+1},..)
        order = (list(range(j2 - 1)) + [j1 - 1] + list(range(j2 - 1, j1 - 1))
                 + list(range(j1, k)))
    inv = _inverse_perm(order)
    return DenseTensor(a.registry, [a.slots[i] for i in order],
                       np.transpose(a.data, inv))


def substitute(a, pos, s):
    """Replace slot `pos` (0-based) of `a` using the structure tensor `s`.

    `s` has slots [value][arg1][arg2..argl].  For a covariant slot of `a`,
    the slot is contracted with the value of `s` and arg1 takes its place
    (ordinary insertion); for a contravariant slot, the slot is contracted
    with arg1 and the value takes its place (the dual action used by tensor
    derivations).  Remaining args of `s` are appended as trailing slots.

    A one-slot `s` (a plain vector or covector) pins the slot: it is
    contracted away and nothing replaces it.
    """
    slot = a.slots[pos]
    if s.order == 1:
        if s.slots[0].space != slot.space or \
                s.slots[0].variance == slot.variance:
            raise ValueError("pinned value does not match the target slot")
        data = np.tensordot(a.data, s.data, axes=([pos], [0]))
        slots = [sl for i, sl in enumerate(a.slots) if i != pos]
        return DenseTensor(a.registry, slots, data)
    val, arg1 = s.slots[0], s.slots[1]
    if slot.variance == COV:
        if val.space != slot.space or val.variance != CONTRA:
            raise ValueError("value slot of s does not match the target slot")
        contract_axis_s = 0
        new_slot = arg1
    else:
        if arg1.space != slot.space or arg1.variance != COV:
            raise ValueError("arg1 of s does not match the contravariant slot")
        contract_axis_s = 1
        new_slot = val
    data = np.tensordot(a.data, s.data, axes=([pos], [contract_axis_s]))
    # tensordot puts the remaining s axes last; the replaced slot must go
    # back to `pos`, extra args stay appended
    n_rest = a.order - 1
    moved = np.moveaxis(data, n_rest, pos)
    slots = list(a.slots)
    slots[pos] = new_slot
    slots += list(s.slots[2:])
    return DenseTensor(a.registry, slots, moved)


def insert(a, s, j):
    """Ins_j(a, s): substitution into the j-th covariant slot (1-based over
    the covariant block)."""
    cov_positions = [i for i, sl in enumerate(a.slots) if sl.variance == COV]
    if not (1 <= j <= len(cov_positions)):
        raise ValueError("insertion index out of range")
    return substitute(a, cov_positions[j - 1], s)


def derivation_DS(s, t):
    """The tensor derivation attached to a (1,k)-structure tensor.

    Acts as +substitution on every contravariant slot and -substitution on
    every covariant slot of `t`; vanishes on scalars.
    """
    out = None
    for pos, slot in enumerate(t.slots):
        term = substitute(t, pos, s)
        if slot.variance == COV:
            term = -term
        out = term if out is None else out + term
    if out is None:
        # scalar input: the derivation vanishes (zero with the extra slots
        # the nonscalar case would have carried)
        extra = list(s.slots[2:])
        shape = tuple(t.registry[sl.space].dim for sl in extra)
        return DenseTensor(t.registry, extra, np.zeros(shape))
    return out


def contract_eval(a, b):
    """A(B): feed the output of `b` into the final covariant slot of `a`."""
    cov_positions = [i for i, sl in enumerate(a.slots) if sl.variance == COV]
    if not cov_positions:
        raise ValueError("a has no covariant slot to evaluate on")
    return substitute(a, cov_positions[-1], b)


def apply_map(a_map, n_out, arg):
    """Apply a map tensor [OUT block][IN-dual block] to an argument.

    The trailing len(a_map)-n_out slots of `a_map` are contracted pairwise
    against the leading slots of `arg` (natural pairing, opposite variance
    required); extra trailing slots of `arg` pass through and are appended
    after the OUT block.
    """
    n_in = a_map.order - n_out
    if arg.order < n_in:
        raise ValueError("argument has too few slots")
    for i in range(n_in):
        ms, ts = a_map.slots[n_out + i], arg.slots[i]
        if ms.space != ts.space or ms.variance == ts.variance:
            raise ValueError("map/argument slot mismatch")
    axes_a = list(range(n_out, a_map.order))
    axes_b = list(range(n_in))
    data = np.tensordot(a_map.data, arg.data, axes=(axes_a, axes_b))
    slots = list(a_map.slots[:n_out]) + list(arg.slots[n_in:])
    return DenseTensor(a_map.registry, slots, data)


def delta_split(a, r, s, tol=1e-10):
    """Split a symmetric (r+s)-tensor into Sym^r (x) Sym^s.

    Because the input is symmetric the result equals the input array,
    re-read as an element of the product; the shuffle-sum form with the
    r!s!/(r+s)! coefficient is evaluated so the normalization is testable.
    """
    if a.order != r + s:
        raise ValueError("order mismatch")
    if not is_symmetric(a, tol=tol):
        raise ValueError("delta_split expects a symmetric input")
    if r == 0 or s == 0:
        return a.copy()
    acc = np.zeros_like(a.data)
    for sigma in shuffles(r, s):
        acc += apply_perm(a.data, sigma)
    coeff = math.factorial(r) * math.factorial(s) / math.factorial(r + s)
    return DenseTensor(a.registry, a.slots, coeff * acc)


def identity_tensor(registry, space):
    """The (1,1) identity on a space, slots [contra][cov]."""
    dim = registry[space].dim
    return DenseTensor(registry, [(space, CONTRA), (space, COV)], np.eye(dim))


def random_tensor(registry, slots, seed, scale=1.0):
    """Deterministic uniform entries in [-scale, scale]."""
    shape = TensorShape(slots)
    dims = shape.dims(registry)
    rng = np.random.Generator(np.random.PCG64(seed))
    data = scale * rng.uniform(-1.0, 1.0, size=dims)
    return DenseTensor(registry, shape, data)


def sym_rank(registry, space, k):
    """Numerical rank of the symmetrization projector on k covariant slots."""
    dim = registry[space].dim
    n = dim ** k
    cols = []
    for idx in range(n):
        e = np.zeros(n)
        e[idx] = 1.0
        t = DenseTensor(registry, [(space, COV)] * k, e.reshape((dim,) * k))
        cols.append(symmetrize(t).data.reshape(n))
    mat = np.stack(cols, axis=1)
    return int(np.linalg.matrix_rank(mat, tol=1e-9))
