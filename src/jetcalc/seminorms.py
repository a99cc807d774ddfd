"""Finite-sample seminorms, growth-envelope fits, and comparison bounds.

Compacta are finite samples: every sup below is a max over the sampled
points, and the acceptance statements downstream are phrased at the sample
level.  Envelope fits are log-space least squares followed by a
multiplicative slack that converts the fit into a covering bound over the
sampled range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import decompose_jet

__all__ = ["CompactSample", "WeightSequence", "jet_norm_profile",
           "p_infinity", "p_omega", "local_seminorm", "growth_fit",
           "norm_compare", "topology_equivalence_check", "fit_envelope",
           "upper_envelope_fit"]

#: the factor that inflates a fitted envelope constant into a covering bound
ENVELOPE_SLACK = 1.5


@dataclass
class CompactSample:
    """A finite stand-in for a compact subset of the chart."""

    points: list
    label: str = "K"

    def __post_init__(self):
        if not self.points:
            raise ValueError("a compact sample needs at least one point")


@dataclass
class WeightSequence:
    """Strictly positive weights a_0..a_{m_max}."""

    values: list
    tag: str = "custom"

    def __post_init__(self):
        if not self.values:
            raise ValueError("a weight sequence needs at least one weight")
        if any(a <= 0 for a in self.values):
            raise ValueError("weights must be strictly positive")

    @classmethod
    def geometric(cls, rho, m_max):
        return cls([rho ** j for j in range(m_max + 1)], tag=f"geom({rho})")

    @classmethod
    def harmonic(cls, m_max):
        return cls([1.0 / (j + 1) for j in range(m_max + 1)], tag="harmonic")

    def prefix_products(self):
        out = []
        acc = 1.0
        for a in self.values:
            acc *= a
            out.append(acc)
        return out


def jet_norm_profile(provider, K, m_max):
    """Per-point, per-order jet norms: rows[i][m] = ||j_m xi(x_i)||."""
    rows = []
    for x in K.points:
        geo, T = provider(x)
        jet = decompose_jet(T, geo, m_max)
        sq = np.cumsum([a.norm() ** 2 for a in jet.components])
        rows.append(np.sqrt(sq))
    return np.asarray(rows)


def p_infinity(provider, K, m):
    """sup over the sample of the order-m jet norm."""
    return float(jet_norm_profile(provider, K, m)[:, m].max())


def _weighted_sup(prof, weights):
    """max over points i and orders m of prof[i, m] a_0 .. a_m."""
    if len(weights.values) < prof.shape[1]:
        raise ValueError(f"a weight sequence of length "
                         f"{len(weights.values)} for orders 0.."
                         f"{prof.shape[1] - 1} needs length {prof.shape[1]}")
    w = weights.prefix_products()[: prof.shape[1]]
    return float((prof * np.asarray(w)).max())


def p_omega(provider, K, weights, m_max):
    """sup over the sample and all orders <= m_max of the weighted jet norm."""
    return _weighted_sup(jet_norm_profile(provider, K, m_max), weights)


def local_component_profile(provider, K, m_max):
    """rows[i][j] = max over |I| = j of the normalized component derivatives
    |d^I xi^a| / I! at x_i (the chart-level datum behind local seminorms)."""
    rows = []
    for x in K.points:
        geo, T = provider(x)
        if T.degree < m_max:
            raise ValueError("degree budget exhausted")
        vals = np.zeros(m_max + 1)
        for i, I in enumerate(geo.chart.ctx.indices):
            if I.order > m_max:
                break
            vals[I.order] = max(vals[I.order], float(np.abs(T.data[i]).max()))
        rows.append(vals)
    return np.asarray(rows)


def local_seminorm(provider, K, weights, m_max):
    """The multi-index seminorm with a_0..a_m / I! weights, |I| <= m."""
    prof = local_component_profile(provider, K, m_max)
    run = np.maximum.accumulate(prof, axis=1)   # sup over |I| <= m
    return _weighted_sup(run, weights)


@dataclass
class GrowthFit:
    C: float
    r: float
    max_violation: float
    trivial: bool = False


def upper_envelope_fit(X, y):
    """Least-squares coefficients of y ~ X, the intercept (column 0 of X is
    ones) lifted by the largest residual so that the fit bounds every
    sample from above; returns them and the residuals of the central fit.

    Low outliers are harmless for an upper envelope and must not drag the
    bound down, so the lift is never negative.
    """
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    coef[0] += max(float(resid.max()), 0.0)
    return coef, resid


def growth_fit(provider, K, m_max):
    """Analyticity certificate: constants with p_inf(m) <= C r^{-m}.

    Least-squares in log space over the sampled orders, then the constant is
    inflated by `ENVELOPE_SLACK`; the reported violation is measured against
    the inflated bound (so <= 0 certifies the sampled range).
    """
    prof = jet_norm_profile(provider, K, m_max)
    p_inf = prof.max(axis=0)
    mask = p_inf > 1e-14
    ms = np.arange(m_max + 1)[mask]
    if len(ms) < 2:
        return GrowthFit(C=float(p_inf.max(initial=0.0)), r=1.0,
                         max_violation=0.0, trivial=True)
    y = np.log(p_inf[mask])
    A = np.stack([np.ones_like(ms, dtype=float), -ms.astype(float)], axis=1)
    (logC, logr), _ = upper_envelope_fit(A, y)
    C = math.exp(logC) * ENVELOPE_SLACK
    r = math.exp(logr)
    viol = float(np.max(np.log(p_inf[mask]) - (math.log(C) - ms * logr)))
    # a polynomial section has finitely many nonzero orders and its profile
    # flattens; certify it trivially when the tail is constant
    tail = p_inf[max(m_max - 3, 0):]
    trivial = bool(np.allclose(tail, p_inf[-1], rtol=1e-12))
    return GrowthFit(C=C, r=r, max_violation=viol, trivial=trivial)


def fit_envelope(ms, ratios):
    """Fit log(ratio) <= log C + m log(1/sigma) and certify it.

    The line is `upper_envelope_fit` in log space, a covering bound over
    the sampled range.  The reported coverage is checked against the bound
    inflated by `ENVELOPE_SLACK`.
    """
    ms = np.asarray(ms, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    mask = ratios > 1e-300
    if not mask.any():
        return 1.0, 1.0, 1.0
    y = np.log(ratios[mask])
    A = np.stack([np.ones(mask.sum()), ms[mask]], axis=1)
    (logC, a), _ = upper_envelope_fit(A, y)
    C = math.exp(logC)
    sigma = math.exp(-a)
    bound = np.log(C * ENVELOPE_SLACK) + a * ms[mask]
    coverage = float(np.mean(y <= bound + 1e-12))
    return C, sigma, coverage


def _two_sided_fit(prof_a, prof_b):
    """`fit_envelope` of prof_a / prof_b and of prof_b / prof_a over every
    (point, order) where either profile is nonzero: two dicts of C, sigma
    and coverage."""
    ms, fwd, bwd = [], [], []
    for i in range(prof_a.shape[0]):
        for m in range(prof_a.shape[1]):
            na, nb = prof_a[i, m], prof_b[i, m]
            if na < 1e-14 and nb < 1e-14:
                continue
            ms.append(m)
            fwd.append(na / max(nb, 1e-300))
            bwd.append(nb / max(na, 1e-300))
    return tuple(dict(zip(("C", "sigma", "coverage"),
                          fit_envelope(ms, ratios)))
                 for ratios in (fwd, bwd))


def norm_compare(provider_a, provider_b, K, m_max):
    """Two-sided C sigma^{-m} comparison of jet-norm families.

    `provider_a`/`provider_b` map a point to (geometry, field) built from the
    two (metric, connection) pairs; the same underlying section must be fed
    to both.
    """
    forward, backward = _two_sided_fit(jet_norm_profile(provider_a, K, m_max),
                                       jet_norm_profile(provider_b, K, m_max))
    return {"forward": forward, "backward": backward}


def topology_equivalence_check(provider, K, weight_family, m_max):
    """Local vs intrinsic seminorms generate the same topology, in the
    finite-order quantitative form: for each weight sequence, a rescaled
    sequence (b_0 = C a_0, b_j = a_j / sigma) dominates the other side.
    """
    prof_local = local_component_profile(provider, K, m_max)
    run_local = np.maximum.accumulate(prof_local, axis=1)
    prof_jet = jet_norm_profile(provider, K, m_max)
    local_le, intrinsic_le = _two_sided_fit(run_local, prof_jet)
    report = {"local_le_intrinsic": local_le,
              "intrinsic_le_local": intrinsic_le, "weights": []}
    for a in weight_family:
        p_loc = _weighted_sup(run_local, a)
        p_int = _weighted_sup(prof_jet, a)
        # witness sequences per the rescaling construction
        b1, b2 = (WeightSequence([a.values[0] * fit["C"]]
                                 + [v / fit["sigma"] for v in a.values[1:]])
                  for fit in (local_le, intrinsic_le))
        report["weights"].append({
            "tag": a.tag,
            "local": p_loc, "intrinsic": p_int,
            "local_le": p_loc <= _weighted_sup(prof_jet, b1) * (1 + 1e-9),
            "intrinsic_le": p_int <= _weighted_sup(run_local, b2)
            * (1 + 1e-9),
        })
    return report
