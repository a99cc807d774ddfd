"""Connection-induced jet decompositions and factorial-weighted fibre norms.

A jet is a pointwise object: the order-j component of an m-jet is the
symmetrized j-th iterated covariant derivative, evaluated at the chart's
base point and stored pre-scaled by 1/j!.  Field-level statements are
checked by re-expanding at many base points.
"""

from __future__ import annotations

import math

import numpy as np


__all__ = ["JetVector", "decompose_jet", "jet_norm", "jet_project",
           "prolong_decompose", "nested_jet_norm", "delta_hat"]


class JetVector:
    """Components (A_0 .. A_m); A_j symmetric in its j argument slots and
    stored with the 1/j! weight already applied."""

    def __init__(self, components, enforce=True, tol=1e-8):
        self.components = list(components)
        self.order = len(self.components) - 1
        if enforce:
            for j, a in enumerate(self.components):
                base = a.order - j
                sym = a.symmetrized(range(base, base + j)) if j > 1 else a
                scale = max(float(np.abs(a.data).max()), 1e-30)
                gap = float(np.abs(sym.data - a.data).max())
                if gap > tol * scale:
                    raise ValueError(
                        f"jet component {j} asymmetric beyond tolerance "
                        f"({gap / scale:.2e}); ordering or torsion bug upstream")
                self.components[j] = sym


def decompose_jet(T, geo, m):
    """Decompose the m-jet of a section-like field into jet components.

    One pass: each covariant derivative is taken once, from the previous
    one, so an m-jet costs m `cov` calls.  Only base-point values are read
    and the degree-0 part of nabla^j T depends on nabla^j T only to degree
    m - j, so T is truncated to degree m first and each derivative comes
    out one degree lower.  The symmetrization acts on the base-point value,
    so the components are symmetric by construction and the JetVector
    guard is not run on them again.
    """
    comps = []
    base = T.order
    D = T.truncated(m)
    for j in range(m + 1):
        comps.append(geo.value(D).symmetrized(range(base, base + j))
                     * (1.0 / math.factorial(j)))
        if j < m:
            D = geo.cov(D)
    return JetVector(comps, enforce=False)


def jet_norm(jet):
    """Square root of the sum of squared component norms.

    The 1/j! weights and the Gram data are already inside the stored
    components.
    """
    total = 0.0
    for a in jet.components:
        total += a.norm() ** 2
    return math.sqrt(total)


def jet_project(jet, l):
    if l > jet.order:
        raise ValueError("cannot project a jet upward")
    return JetVector(jet.components[: l + 1], enforce=False)


def prolong_decompose(T, geo, k, m):
    """Nested decomposition: entry (j, l) is the order-j component of the
    k-jet of the order-l derivative field, scaled by 1/(j! l!).

    Computed directly (differentiate the symmetrized order-l derivative j
    more times, then symmetrize the new slots); comparing against
    `delta_hat` of the flat (k+m)-jet is the commuting-square check.  One
    `cov` per order: nabla^l T is formed once per l from the previous one,
    from T truncated to degree k + m, and its symmetrization is carried
    only to degree k, all that its k-jet reads; at most (m+1)(k+1) calls.
    """
    base = T.order
    D = T.truncated(k + m)
    rows = [[None] * (m + 1) for _ in range(k + 1)]
    for l in range(m + 1):
        top = base + l
        E = D.truncated(k).symmetrized(range(base, top))
        for j in range(k + 1):
            rows[j][l] = (geo.value(E).symmetrized(range(top, top + j))
                          * (1.0 / (math.factorial(j) * math.factorial(l))))
            if j < k:
                E = geo.cov(E)
        if l < m:
            D = geo.cov(D)
    return rows


def delta_hat(jet, k, m):
    """Re-slice a (k+m)-jet into the nested table of shifted components.

    Entry (j, l) reuses component A_{j+l}; because the components are
    symmetric, the symmetric split onto Sym^j (x) Sym^l is the identity on
    the stored array, so only the factorial rescaling appears (stored
    components carry 1/(j+l)!, the nested table carries 1/(j! l!)).
    """
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
    num = 0.0
    den = 0.0
    for ra, rb in zip(rows_a, rows_b):
        for a, b in zip(ra, rb):
            num += (a - b).norm() ** 2
            den += b.norm() ** 2
    return math.sqrt(num) / max(math.sqrt(den), 1e-12)


def nested_sym_gap(rows_a, rows_b):
    """Table gap after jointly symmetrizing each entry's base slots.

    The raw re-slicing of a flat jet into the nested table matches the
    directly computed nested jet only up to curvature contributions in the
    mixed entries; full symmetrization removes exactly those, so this gap
    is the curvature-free content of the re-slicing identity.
    """
    num = 0.0
    den = 0.0
    for j, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for l, (a, b) in enumerate(zip(ra, rb)):
            base = a.order - j - l
            if j + l > 1:
                a = a.symmetrized(range(base, a.order))
                b = b.symmetrized(range(base, b.order))
            num += (a - b).norm() ** 2
            den += b.norm() ** 2
    return math.sqrt(num) / max(math.sqrt(den), 1e-12)


def nested_jet_norm(rows):
    """Jet norm of a nested jet table (components already scaled)."""
    total = 0.0
    for row in rows:
        for a in row:
            total += a.norm() ** 2
    return math.sqrt(total)
