"""Connection-induced jet decompositions and factorial-weighted fibre norms.

A jet is a pointwise object: the order-j component of an m-jet is the
symmetrized j-th iterated covariant derivative, evaluated at the chart's
base point and stored pre-scaled by 1/j!.  Field-level statements are
checked by re-expanding at many base points.
"""

from __future__ import annotations

import math

__all__ = ["JetVector", "decompose_jet", "jet_norm", "jet_project",
           "prolong_decompose", "nested_jet_norm", "delta_hat"]


class JetVector:
    """Components (A_0 .. A_m); A_j symmetric in its j argument slots and
    stored with the 1/j! weight already applied."""

    def __init__(self, components):
        self.components = list(components)
        self.order = len(self.components) - 1


def _check_orders(**orders):
    for name, n in orders.items():
        if n < 0:
            raise ValueError(
                f"jet order {name} must be non-negative, got {n}")


def decompose_jet(T, geo, m):
    """Decompose the m-jet of a section-like field into jet components.

    One pass: each covariant derivative is taken once, from the previous
    one, so an m-jet costs m `cov` calls.  Only base-point values are read
    and the degree-0 part of nabla^j T depends on nabla^j T only to degree
    m - j, so T is truncated to degree m first and each derivative comes
    out one degree lower.  The symmetrization acts on the base-point value,
    so the components are symmetric by construction.
    """
    _check_orders(m=m)
    comps = []
    base = T.order
    D = T.truncated(m)
    for j in range(m + 1):
        comps.append(geo.value(D).symmetrized(range(base, base + j))
                     * (1.0 / math.factorial(j)))
        if j < m:
            D = geo.cov(D)
    return JetVector(comps)


def _root_sum_of_squares(norms):
    """sqrt(n_1^2 + n_2^2 + ...), the squares added in the order given."""
    total = 0.0
    for n in norms:
        total += n ** 2
    return math.sqrt(total)


def jet_norm(jet):
    """Square root of the sum of squared component norms.

    The 1/j! weights and the Gram data are already inside the stored
    components.
    """
    return _root_sum_of_squares(a.norm() for a in jet.components)


def jet_project(jet, l):
    if not 0 <= l <= jet.order:
        raise ValueError(f"projection order l must lie in 0..{jet.order}, "
                         f"got {l}")
    return JetVector(jet.components[: l + 1])


def prolong_decompose(T, geo, k, m):
    """Nested decomposition: entry (j, l) is the order-j component of the
    k-jet of the order-l derivative field, scaled by 1/(j! l!).

    Computed directly: column l is `decompose_jet` of the symmetrized
    order-l derivative, scaled by 1/l!; comparing against `delta_hat` of
    the flat (k+m)-jet is the commuting-square check.  One `cov` per order:
    nabla^l T is formed once per l from the previous one, from T truncated
    to degree k + m, and its symmetrization is carried only to degree k,
    all that its k-jet reads; at most (m+1)(k+1) calls.
    """
    _check_orders(k=k, m=m)
    base = T.order
    D = T.truncated(k + m)
    cols = []
    for l in range(m + 1):
        E = D.truncated(k).symmetrized(range(base, base + l))
        cols.append([a * (1.0 / math.factorial(l))
                     for a in decompose_jet(E, geo, k).components])
        if l < m:
            D = geo.cov(D)
    return [list(row) for row in zip(*cols)]


def delta_hat(jet, k, m):
    """Re-slice a (k+m)-jet into the nested table of shifted components.

    Entry (j, l) reuses component A_{j+l}; because the components are
    symmetric, the symmetric split onto Sym^j (x) Sym^l is the identity on
    the stored array, so only the factorial rescaling appears (stored
    components carry 1/(j+l)!, the nested table carries 1/(j! l!)).
    """
    _check_orders(k=k, m=m)
    if jet.order != k + m:
        raise ValueError("jet order must be k+m")
    rows = []
    for j in range(k + 1):
        row = []
        for l in range(m + 1):
            a = jet.components[j + l]
            scale = math.factorial(j + l) / (math.factorial(j) * math.factorial(l))
            row.append(a * scale)
        rows.append(row)
    return rows


def nested_table_gap(rows_a, rows_b):
    """||table a - table b|| / ||table b||, entry by entry in row order."""
    pairs = [(a, b) for ra, rb in zip(rows_a, rows_b) for a, b in zip(ra, rb)]
    num = _root_sum_of_squares((a - b).norm() for a, b in pairs)
    den = _root_sum_of_squares(b.norm() for _, b in pairs)
    return num / max(den, 1e-12)


def _symmetrized_table(rows):
    """Each entry (j, l) symmetrized jointly over its last j + l slots."""
    return [[a.symmetrized(range(a.order - j - l, a.order)) if j + l > 1
             else a for l, a in enumerate(row)] for j, row in enumerate(rows)]


def nested_sym_gap(rows_a, rows_b):
    """Table gap after jointly symmetrizing each entry's base slots.

    The raw re-slicing of a flat jet into the nested table matches the
    directly computed nested jet only up to curvature contributions in the
    mixed entries; full symmetrization removes exactly those, so this gap
    is the curvature-free content of the re-slicing identity.
    """
    return nested_table_gap(_symmetrized_table(rows_a),
                            _symmetrized_table(rows_b))


def nested_jet_norm(rows):
    """Jet norm of a nested jet table (components already scaled)."""
    return _root_sum_of_squares(a.norm() for row in rows for a in row)
