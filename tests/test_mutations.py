"""A registry of named mutations, each a monkeypatch that breaks the
program in one place, with the seed-7 rows it must fail.

Every entry names the suites it runs and, per tag, how many of their rows
fail under it.  A mutation whose failures shrink shows a check that can
no longer fail; one whose failures grow shows a check that moved.
"""

from collections import Counter

import numpy as np
import pytest

from jetcalc import recursions, taylor
from jetcalc import tensor_core as tc
from jetcalc.cli import SUITES, SuiteConfig
from jetcalc.recursions import BUNDLE_FAMILY_KINDS
from jetcalc.tensor_core import CONTRA


def _down_slots_whitened_by_u(monkeypatch):
    """U in place of U^-T on down slots: every Gram norm and inner product,
    dense or padded, weights a down slot by the Gram, not its inverse."""
    monkeypatch.setattr(tc.VectorSpaceSpec, "whiteners", property(
        lambda spec: (np.linalg.cholesky(spec.gram).T,) * 2))


def _padded_down_slots_whitened_by_chol_of_inverse(monkeypatch):
    """chol(G^-1)^T in place of U^-T on the down slots of padded cores: a
    core's down axis no longer meets an identity pair as its dual, so the
    padded Gram norm misses the dense one."""
    def whitened(registry, slots, x):
        out = np.array(x, dtype=float)
        for ax, slot in enumerate(slots):
            spec = registry[slot.space]
            w = spec.whiteners[0] if slot.up else \
                np.linalg.cholesky(np.linalg.inv(spec.gram)).T
            out = np.moveaxis(np.tensordot(w, out, axes=([1], [ax])), 0, ax)
        return out
    monkeypatch.setattr(recursions, "whitened", whitened)


def _last_axis_left_unwhitened(monkeypatch):
    """`_whiten_trailing` one axis short: the last axis of every whitened
    copy, dense value or padded core, keeps its raw values (an identity
    factor multiplies it exactly)."""
    whiten = tc._whiten_trailing
    monkeypatch.setattr(tc, "_whiten_trailing", lambda x, factors: whiten(
        x, factors[:-1] + [np.eye(x.shape[-1])]))


def _per_pair_products_scaled(monkeypatch):
    """Every tensor contraction whose blocks are too large to chunk, so
    that the series kernel multiplies its pairs one at a time, comes out
    scaled by 1 + 1e-6."""
    contract = taylor._series_contract

    def scaled(a, b, axes_a, axes_b, key):
        out = contract(a, b, axes_a, axes_b, key)
        if a.ndim == b.ndim == 1:
            return out
        plan = taylor._contract_plan(key, taylor.CHUNK_FLOATS, a.shape[1:],
                                     b.shape[1:], tuple(axes_a),
                                     tuple(axes_b))
        return out if plan.chunks else out * (1 + 1e-6)
    monkeypatch.setattr(taylor, "_series_contract", scaled)


def _down_slots_corrected_with_up_sign(monkeypatch):
    """Every slot a recursion step corrects takes the sign of an up slot
    (+S forward, -S inverse), whatever its variance."""
    rules = recursions._slot_rules
    monkeypatch.setattr(
        recursions, "_slot_rules",
        lambda structure, layout, first, inverse: rules(
            structure, [(space, CONTRA) for space, _ in layout], first,
            inverse))


def _inverse_corrected_with_forward_signs(monkeypatch):
    """The inverse tables correct their slots with the signs of D_S, as the
    forward tables do, not the opposite ones."""
    rules = recursions._slot_rules
    monkeypatch.setattr(
        recursions, "_slot_rules",
        lambda structure, layout, first, inverse: rules(
            structure, layout, first, False))


def _expansion_memo_keyed_without_base_point(monkeypatch):
    """The memo of `taylor.expand` keyed by the tree, variable count,
    degree and cap alone: the first point an expression is expanded at
    answers for every later point."""
    expansion = taylor._expansion
    memo = {}

    def keyed(key, base, nvars, degree, cap):
        if (key, nvars, degree, cap) not in memo:
            memo[key, nvars, degree, cap] = expansion(key, base, nvars,
                                                      degree, cap)
        return memo[key, nvars, degree, cap]
    monkeypatch.setattr(taylor, "_expansion", keyed)


#: name -> (patch, suites run, {tag: failing rows at seed 7})
MUTATIONS = {
    "down-slots-whitened-by-U": (
        _down_slots_whitened_by_u,
        ("tensor-laws", "submersion", "connection-compare"),
        {"tensor/id-norm": 50, "tensor/apply-bound": 3,
         "tensor/opnorm-upper": 1,
         "submersion/norm-pullback": 9, "submersion/norm-vertical": 9,
         "submersion/norm-horizontal": 9, "submersion/norm-dual": 9,
         "submersion/norm-evaluated": 9,
         "compare/gram-scaling": 1}),
    "last-axis-left-unwhitened": (
        _last_axis_left_unwhitened,
        ("tensor-laws", "submersion", "connection-compare", "recursions"),
        {"tensor/id-norm": 50, "tensor/otimes-norm": 100,
         "tensor/sym-contraction": 2, "tensor/sym-projection": 60,
         "submersion/norm-vertical": 9, "submersion/norm-horizontal": 9,
         "submersion/norm-dual": 9,
         "compare/gram-scaling": 1,
         **{f"recursions/{kind}-padded-norm": 1
            for kind in BUNDLE_FAMILY_KINDS}}),
    "per-pair-product-scaled": (
        _per_pair_products_scaled,
        ("recursions",),
        {f"recursions/{kind}-diagonal": 1
         for kind in ("V", "H", "Vstar", "L", "C")}),
    "down-slots-corrected-with-up-sign": (
        _down_slots_corrected_with_up_sign,
        ("recursions",),
        {**{f"recursions/{kind}-expansion": 10
            for kind in ("P", "V", "H", "D", "C")},
         **{f"recursions/{kind}-inverse": 2
            for kind in ("P", "V", "H", "D", "C")},
         "recursions/Vstar-expansion": 19, "recursions/L-expansion": 19,
         "recursions/Vstar-inverse": 3, "recursions/L-inverse": 3,
         "recursions/CONN-expansion": 2, "recursions/CONN-roundtrip": 2}),
    "inverse-corrected-with-forward-signs": (
        _inverse_corrected_with_forward_signs,
        ("recursions",),
        {**{f"recursions/{kind}-inverse": 3
            for kind in ("V", "H", "Vstar", "L", "C")},
         "recursions/P-inverse": 2, "recursions/D-inverse": 2,
         "recursions/CONN-roundtrip": 3}),
    "expansion-memo-keyed-without-base-point": (
        _expansion_memo_keyed_without_base_point,
        ("geometry",),
        {"geometry/sphere-coefficients": 2}),
    "padded-down-slots-whitened-by-chol-of-inverse": (
        _padded_down_slots_whitened_by_chol_of_inverse,
        ("recursions",),
        {f"recursions/{kind}-padded-norm": 1
         for kind in BUNDLE_FAMILY_KINDS}),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_tags(monkeypatch, name):
    patch, suites, want = MUTATIONS[name]
    patch(monkeypatch)
    failed = Counter(row.tag for suite in suites
                     for row in SUITES[suite](SuiteConfig(seed=7))
                     if not row.passed)
    assert dict(failed) == want
