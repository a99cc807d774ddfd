"""Checks of jetcalc outputs that do not go through jetcalc's own arithmetic.

Everything here works on point values with numpy: expressions are evaluated
with `jetcalc.taylor.eval_expr` (a plain float evaluator of the expression
tree, no series), derivatives come from Richardson-extrapolated central
differences, and Gram norms are computed by Cholesky whitening rather than
by the package's per-axis contraction.
"""

from __future__ import annotations

import math

import numpy as np

from jetcalc.taylor import eval_expr

FD_STEP = 1e-3


def matrix_at(exprs, x):
    """Evaluate a nested list of expressions (strings, trees or numbers)
    at a point; lists become arrays, anything else is one entry."""
    if isinstance(exprs, list):
        return np.array([matrix_at(e, x) for e in exprs])
    if isinstance(exprs, (int, float)):
        return float(exprs)
    return eval_expr(exprs, x)


def richardson_gradient(fn, x, step=FD_STEP):
    """d fn / d x_i for every i, by central differences at h and h/2 with
    one Richardson step (error O(h^4)); `fn` maps a point to an array."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 1.0

        def central(h):
            return (np.asarray(fn(x + h * e)) - np.asarray(fn(x - h * e))) \
                / (2.0 * h)

        cols.append((4.0 * central(step / 2.0) - central(step)) / 3.0)
    return np.stack(cols, axis=-1)


def gram_norm(data, grams, chunk=1 << 20):
    """Gram-weighted Frobenius norm; `grams[i]` is the SPD matrix for axis i.

    With G = L L^T per axis, |T|^2 is the plain squared norm of T with every
    axis whitened by L^T.  The whitening runs in place on one copy of the
    data, `chunk` entries at a time, so checking a 134 MB coefficient map
    adds one copy of it to the process's peak memory and not several.
    """
    x = np.array(data, dtype=float, order="C")   # reshapes below are views
    shape = x.shape
    for k, g in enumerate(grams):
        upper = np.linalg.cholesky(np.asarray(g, dtype=float)).T
        view = x.reshape(math.prod(shape[:k]), shape[k],
                         math.prod(shape[k + 1:]))
        sb = max(1, min(view.shape[2], chunk // shape[k]))
        sa = max(1, chunk // (shape[k] * sb))
        for a in range(0, view.shape[0], sa):
            for b in range(0, view.shape[2], sb):
                block = view[a:a + sa, :, b:b + sb]
                block[...] = upper @ block
    flat = x.reshape(-1)
    return float(np.sqrt(np.dot(flat, flat)))


def section_jet01(scn, section, x):
    """Norms of the order-0 and order-1 jet components of a section.

    A_0 = xi(x), weighted by the fibre metric h; A_1 = nabla xi with
    (nabla xi)^a_i = d_i xi^a + omega[a][i][b] xi^b, weighted by h on the
    fibre slot and by g^{-1} on the tangent slot.
    """
    x = np.asarray(x, dtype=float)
    g = matrix_at(scn.metric, x)
    h = matrix_at(scn.fibre_metric, x)
    xi = matrix_at(list(section), x)
    dxi = richardson_gradient(lambda p: matrix_at(list(section), p), x)
    nabla = dxi.copy()
    if scn.connection is not None:
        omega = matrix_at(scn.connection, x)       # [a][i][b]
        nabla = nabla + np.einsum("aib,b->ai", omega, xi)
    n0 = gram_norm(xi, [h])
    n1 = gram_norm(nabla, [h, np.linalg.inv(g)])
    return n0, n1


def total_space_metric(scn, x, u):
    """The submersion metric of E at (x, u): pi^* g + h_ab theta^a theta^b,
    with theta^a = omega^a_(j b) u^b dx^j + du^a."""
    n, k = scn.n, scn.k
    g = matrix_at(scn.metric, x)
    h = matrix_at(scn.fibre_metric, x)
    theta = np.zeros((k, n + k))
    if scn.connection is not None:
        omega = matrix_at(scn.connection, x)
        theta[:, :n] = np.einsum("aib,b->ai", omega, np.asarray(u, float))
    theta[:, n:] = np.eye(k)
    out = theta.T @ h @ theta
    out[:n, :n] += g
    return out


def lift_order0(scn, kind, exprs, x, u):
    """Closed-form order-0 jet norms (down on the bundle, up on E) of a
    lift family's test object at (x, u).

    The lifts are isometries at order 0 for P, V, H, Vstar and L; the
    evaluation families D and C contract the fibre-dual slot with u.
    """
    g = matrix_at(scn.metric, x)
    h = matrix_at(scn.fibre_metric, x)
    h_inv = np.linalg.inv(h)
    u = np.asarray(u, dtype=float)
    val = matrix_at(exprs, x)
    if kind == "P":
        return abs(val), abs(val)
    if kind == "V":
        n = gram_norm(val, [h])
        return n, n
    if kind == "H":
        n = gram_norm(val, [g])
        return n, n
    if kind in ("Vstar", "D"):
        down = gram_norm(val, [h_inv])
        return down, (down if kind == "Vstar" else abs(float(val @ u)))
    if kind in ("L", "C"):
        down = gram_norm(val, [h, h_inv])
        return down, (down if kind == "L" else gram_norm(val @ u, [h]))
    raise ValueError(kind)


def rel_gap(got, want, floor=1e-12):
    return abs(got - want) / max(abs(want), floor)


# --------------------------------------------------------------------------
# recursion tables, checked at the base point with plain tensordot
# --------------------------------------------------------------------------

def slot_grams(slots, gram):
    """Per-axis Gram matrices for a slot tuple of tangent slots of one
    chart: contravariant slots take the metric, covariant ones its
    inverse."""
    if any(slot.space != "tan" for slot in slots):
        raise ValueError("only tangent slots are expected on the total space")
    inverse = np.linalg.inv(gram)
    return [gram if slot.variance == "contravariant" else inverse
            for slot in slots]


def apply_value(map_value, arg_value, n_out):
    """Apply a map [OUT][IN-dual] to an argument at the base point."""
    n_in = map_value.ndim - n_out
    return np.tensordot(map_value, arg_value,
                        axes=(list(range(n_out, map_value.ndim)),
                              list(range(n_in))))


def expansion_residual(direct, table_terms, grams):
    """|| direct - sum_s A^m_s(arg_s) || / || direct || at the base point.

    `direct` is the value of the iterated total-space derivative of the
    lift; `table_terms` is a list of (map value, argument value, n_out).
    """
    total = np.zeros_like(direct)
    for map_value, arg_value, n_out in table_terms:
        total = total + apply_value(map_value, arg_value, n_out)
    return gram_norm(direct - total, grams) / max(gram_norm(direct, grams),
                                                  1e-300)


def diagonal_norm_closed_form(dim, m, n_aux):
    """The diagonal map of order m is the identity on (aux + m) tangent
    slots, whose Gram norm is sqrt(dim^(m + aux))."""
    return math.sqrt(dim ** (m + n_aux))


def growth_bound(C, sigma, rho, slack, m, s):
    """The fitted envelope C sigma^-m rho^-(m-s) (m-s)!, times the slack."""
    return (C * sigma ** (-m) * rho ** (-(m - s)) * math.factorial(m - s)
            * slack)
