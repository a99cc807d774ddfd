"""The submersion suite's degree budgets are sufficient and minimal.

Its rows read base-point values only, so its geometries are built to
`SUBMERSION_CAP` and `PULLBACK_CAP`, the deepest derivative a row takes.
A larger budget must give the same rows, and a smaller one must fail
loudly instead of giving rows from a truncated series.
"""

import pytest

from jetcalc import suites
from jetcalc.cli import SuiteConfig

CFG = SuiteConfig(seed=7)
BUDGETS = ("SUBMERSION_CAP", "PULLBACK_CAP")


def test_a_larger_budget_gives_the_same_rows(monkeypatch):
    rows = suites.suite_submersion(CFG)
    for name in BUDGETS:
        monkeypatch.setattr(suites, name, getattr(suites, name) + 2)
    deeper = suites.suite_submersion(CFG)
    assert ([(r.check_id, r.inputs, r.passed) for r in rows]
            == [(r.check_id, r.inputs, r.passed) for r in deeper])
    for a, b in zip(rows, deeper):
        assert abs(a.value - b.value) <= 1e-15 * max(1.0, abs(b.value)), \
            a.check_id


@pytest.mark.parametrize("name", BUDGETS)
def test_a_smaller_budget_is_exhausted(name, monkeypatch):
    monkeypatch.setattr(suites, name, getattr(suites, name) - 1)
    with pytest.raises(ValueError, match="degree budget exhausted"):
        suites.suite_submersion(CFG)
