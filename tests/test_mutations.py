"""A registry of named mutations, each a monkeypatch that breaks the
program in one place, with the seed-7 rows it must fail.

Every entry names the suites it runs and, per tag, how many of their rows
fail under it.  A mutation whose failures shrink shows a check that can
no longer fail; one whose failures grow shows a check that moved.
"""

from collections import Counter

import numpy as np
import pytest

from jetcalc import tensor_core as tc
from jetcalc.cli import SUITES, SuiteConfig


def _down_slots_whitened_by_u(monkeypatch):
    """U in place of U^-T on down slots: every Gram norm and inner product,
    dense or padded, weights a down slot by the Gram, not its inverse."""
    monkeypatch.setattr(tc.VectorSpaceSpec, "whiteners", property(
        lambda spec: (np.linalg.cholesky(spec.gram).T,) * 2))


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
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_tags(monkeypatch, name):
    patch, suites, want = MUTATIONS[name]
    patch(monkeypatch)
    failed = Counter(row.tag for suite in suites
                     for row in SUITES[suite](SuiteConfig(seed=7))
                     if not row.passed)
    assert dict(failed) == want
