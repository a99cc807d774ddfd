"""Slots, spaces, Gram norms and the combinatorics of tensor arguments.

A slot is a (space, variance) pair resolved against a registry of spaces,
each of which carries a symmetric positive-definite Gram matrix.  Norms and
inner products weight every slot by its Gram (inverse Gram on dual slots),
applied through one whitener pair per space, its Cholesky factor U on up
slots and U^-T on down slots, so non-orthonormal metrics are supported
throughout.  Every operation that builds a tensor from tensors
lives on `fields.FieldTensor`; the pointwise algebra of a fibre is the
degree-0 case of it.  This module keeps what acts on arrays and slots, and
the shuffle algebra (`sym_product`, `delta_split`, `push`), which acts on
FieldTensors through their `product` and `permuted`.

Conventions:
  * slots of an evaluation-style tensor are [contravariant block][covariant
    block]; new covariant slots created by insertions are appended last;
  * sigma(A)(v_1..v_k) = A(v_{sigma(1)}..v_{sigma(k)});
  * shuffle sets are enumerated by sorted-split construction.
"""

from __future__ import annotations

import functools
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
    "whitened",
    "symmetrized_data",
    "sym_axes_data",
    "sym_product",
    "push",
    "push_order",
    "delta_split",
    "inner_product",
    "frobenius_norm",
    "shuffles",
    "apply_perm",
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
        if not np.isfinite(g).all():
            raise ValueError("Gram matrix must be finite")
        # np.allclose(g, g.T, atol=1e-12), without isclose's overhead
        if not (np.abs(g - g.T) <= 1e-12 + 1e-5 * np.abs(g)).all():
            raise ValueError("Gram matrix must be symmetric")
        try:
            lower = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError("Gram matrix must be positive-definite") from None
        self.gram = g
        self._upper = lower.T

    @cached_property
    def whiteners(self):
        """U and U^-T, U upper triangular with U^T U = gram, for an up and a
        down slot: (U^-T)^T U^-T is the inverse Gram, and the identity
        joining an up slot to a down slot stays the identity (U U^-1)."""
        return self._upper, np.linalg.inv(self._upper).T


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


class DenseTensor:
    """The base-point value of a field over Gram-carrying spaces: what
    `Geometry.value` returns, for norms and jet components."""

    def __init__(self, registry, slots, data):
        self.registry = registry
        self.slots = TensorShape(slots)
        self.data = np.asarray(data, dtype=float)

    @property
    def order(self):
        return len(self.slots)

    def __sub__(self, other):
        if self.slots != other.slots:
            raise ValueError("slot mismatch in subtraction")
        return DenseTensor(self.registry, self.slots, self.data - other.data)

    def __mul__(self, scalar):
        return DenseTensor(self.registry, self.slots, self.data * float(scalar))

    __rmul__ = __mul__

    def symmetrized(self, axes):
        return DenseTensor(self.registry, self.slots,
                           symmetrized_data(self.slots, self.data, axes))

    def norm(self):
        return frobenius_norm(self)


#: Entries whitened per matrix product, and entries per dot product when a
#: Gram norm adds its squares (512 KB).
WHITEN_CHUNK = 1 << 16


def _whiteners(registry, slots):
    """The whitener of each slot: U on an up slot, U^-T on a down slot."""
    return [registry[slot.space].whiteners[not slot.up] for slot in slots]


def whitened(registry, slots, x):
    """A copy of the array x with every axis multiplied by the whitener of
    its slot in `slots`, so that Gram inner products of such copies are
    plain contractions.  The one whitening routine of every Gram norm: a
    dense value's (in its memory order) and each core of a padded map.
    The copy is C-contiguous and whitened in place, WHITEN_CHUNK entries
    per product, so a norm holds one copy of its input and a block."""
    out = np.array(x, dtype=float, order="C")[np.newaxis]
    _whiten_trailing(out, [None] + _whiteners(registry, slots))
    return out[0]


def _whiten_trailing(x, factors):
    """Multiply every axis of x but the first, in place, by its whitener
    from `factors`; x is C-contiguous.  WHITEN_CHUNK entries per product."""
    for ax in range(1, x.ndim):
        factor = factors[ax]
        d = x.shape[ax]
        view = x.reshape(math.prod(x.shape[:ax]), d, -1)
        rows, cols = view.shape[0], view.shape[2]
        if cols == 1:       # last axis: chunks of rows times factor^T
            step = max(1, WHITEN_CHUNK // d)
            for p in range(0, rows, step):
                block = view[p:p + step, :, 0]
                block[...] = block @ factor.T
            continue
        sb = max(1, min(cols, WHITEN_CHUNK // d))
        sa = max(1, WHITEN_CHUNK // (d * sb))
        for p in range(0, rows, sa):
            for q in range(0, cols, sb):
                block = view[p:p + sa, :, q:q + sb]
                block[...] = factor @ block


def _memory_order(x):
    """Axis order of x from the largest stride to the smallest: x transposed
    to it is C-contiguous whenever x is a transposed contiguous array."""
    if x.flags.c_contiguous:
        return list(range(x.ndim))
    return sorted(range(x.ndim), key=lambda ax: -abs(x.strides[ax]))


def _whitened_flat(a, order):
    """a.data transposed to the axis `order`, whitened by `whitened`, flat."""
    return whitened(a.registry, [a.slots[ax] for ax in order],
                    a.data.transpose(order)).reshape(-1)


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
    xa, xb = _whitened_flat(a, order), _whitened_flat(b, order)
    return math.fsum(_chunk_dots(xa, xb))


def frobenius_norm(a):
    x = _whitened_flat(a, _memory_order(a.data))
    return math.sqrt(math.fsum(_chunk_dots(x, x)))


@functools.lru_cache(maxsize=None)
def _sym_orbits(dim, k):
    """The orbit of every flat index of (dim,)*k under permutations of its
    k positions, and each orbit's size, as read-only arrays: index tuples
    that agree up to order share an orbit."""
    idx = np.indices((dim,) * k).reshape(k, -1).T
    keys = np.sort(idx, axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    inverse.setflags(write=False)
    counts.setflags(write=False)
    return inverse, counts


def sym_axes_data(data, axes):
    """Symmetrize an ndarray over the given (equal-length) axes.

    Averages over all rearrangements by pooling entries whose index tuples
    along `axes` agree up to order; costs O(size) per call, the orbit tables
    being built once per (dim, k) in O(dim^k log dim^k) instead of k!.
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
    inverse, counts = _sym_orbits(dim, k)
    lead_flat = flat.reshape(-1, dim ** k)
    sums = np.zeros((lead_flat.shape[0], len(counts)))
    np.add.at(sums, (slice(None), inverse), lead_flat)
    out_flat = (sums / counts)[:, inverse]
    out = out_flat.reshape(lead + (dim,) * k)
    return np.moveaxis(out, range(data.ndim - k, data.ndim), axes)


def symmetrized_data(slots, data, axes, lead=0):
    """`data` averaged over all permutations of the slots `axes`, which must
    agree in space and variance; `lead` leading axes of `data` (series
    coefficients) carry no slot."""
    axes = list(axes)
    for ax in axes[1:]:
        if slots[ax] != slots[axes[0]]:
            raise ValueError(f"cannot symmetrize slot {slots[ax]} with "
                             f"{slots[axes[0]]}")
    if len(axes) <= 1:
        return data.copy()
    return sym_axes_data(data, [lead + ax for ax in axes])


#: Relative tolerance of `is_symmetric`, which guards `sym_product` and
#: `delta_split`.
SYMMETRY_TOL = 1e-10


def is_symmetric(a):
    """Whether a FieldTensor is symmetric in all of its slots."""
    s = a.symmetrized(range(a.order))
    scale = max(float(np.abs(a.data).max()), 1e-30)
    return float(np.abs(s.data - a.data).max()) <= SYMMETRY_TOL * scale


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


def _shuffle_sum(t, k, l):
    """The sum over S_{k,l} of sigma(t)."""
    acc = None
    for sigma in shuffles(k, l):
        term = t.permuted(_inverse_perm(sigma))
        acc = term if acc is None else acc + term
    return acc


def sym_product(a, b):
    """Shuffle product of symmetric tensors: sum over S_{k,l} of permuted a@b."""
    if not (is_symmetric(a) and is_symmetric(b)):
        raise ValueError("sym_product expects symmetric inputs")
    return _shuffle_sum(a.product(b), a.order, b.order)


def push_order(k, j1, j2):
    """The argument order of push(a, j1, j2) on k slots:
    push(a, j1, j2)(v_1..v_k) = a(v_{order[0]+1}, .., v_{order[k-1]+1})."""
    if not (1 <= j1 <= k and 1 <= j2 <= k):
        raise ValueError("push index out of range")
    if j1 <= j2:
        # a(v_1,..,v_{j1-1}, v_{j1+1},..,v_{j2}, v_{j1}, v_{j2+1},..)
        return (list(range(j1 - 1)) + list(range(j1, j2)) + [j1 - 1]
                + list(range(j2, k)))
    # a(v_1,..,v_{j2-1}, v_{j1}, v_{j2},..,v_{j1-1}, v_{j1+1},..)
    return (list(range(j2 - 1)) + [j1 - 1] + list(range(j2 - 1, j1 - 1))
            + list(range(j1, k)))


def push(a, j1, j2):
    """Drop argument j1 into the j2 slot, shifting the rest to make room.

    Indices are 1-based as in evaluation notation; j1 == j2 is the identity
    (the two case formulas agree there).
    """
    return a.permuted(_inverse_perm(push_order(a.order, j1, j2)))


def delta_split(a, r, s):
    """Split a symmetric (r+s)-tensor into Sym^r (x) Sym^s.

    Because the input is symmetric the result equals the input array,
    re-read as an element of the product; the shuffle-sum form with the
    r!s!/(r+s)! coefficient is evaluated so the normalization is testable.
    """
    if a.order != r + s:
        raise ValueError("order mismatch")
    if not is_symmetric(a):
        raise ValueError("delta_split expects a symmetric input")
    if r == 0 or s == 0:
        return a.copy()
    coeff = math.factorial(r) * math.factorial(s) / math.factorial(r + s)
    return _shuffle_sum(a, r, s) * coeff


def sym_rank(dim, k):
    """Rank of the symmetrization projector on k slots of a dim-dimensional
    space: the trace of its matrix, once that matrix is checked to be an
    orthogonal projector (symmetric, and fixed by a second symmetrization);
    -1 if it is not one."""
    n = dim ** k
    axes = range(1, k + 1)
    images = sym_axes_data(np.eye(n).reshape((n,) + (dim,) * k), axes)
    # the gaps are taken in place: two n x n arrays at most are held
    gap = sym_axes_data(images, axes).reshape(n, n)
    images = images.reshape(n, n)
    gap -= images
    idempotent = max(gap.max(), -gap.min()) <= 1e-12
    np.subtract(images, images.T, out=gap)
    symmetric = max(gap.max(), -gap.min()) <= 1e-12
    if not (idempotent and symmetric):
        return -1
    return int(round(float(np.trace(images))))
