"""Every built-in suite builds each geometry to the least degree its rows read.

The rows read base-point values, so each `ChartGeometry` a suite builds is
built only to the deepest derivative its rows take.  Each call is keyed by
its site, the innermost frame in `suites.py` (a line such as the
`SUBMERSION_CAP` total spaces or a seminorm provider).  Two more degrees at
every site must give the same rows, and one fewer at any single site must
fail loudly instead of giving rows from a truncated series.  The
submersion suite's two named budgets, `SUBMERSION_CAP` and `PULLBACK_CAP`,
are also checked directly: two more degrees give the same rows, and one
fewer in either raises.
"""

import sys

import pytest

from jetcalc import fields, suites
from jetcalc.cli import SuiteConfig
from jetcalc.scenarios import builtin_scenario

CASES = {
    "geometry": (suites.suite_geometry, SuiteConfig(seed=7)),
    "jets": (suites.suite_jets, SuiteConfig(seed=7)),
    "submersion": (suites.suite_submersion, SuiteConfig(seed=7)),
    "recursions": (suites.suite_recursions, SuiteConfig(seed=7)),
    "recursions-scenario": (suites.suite_recursions, SuiteConfig(
        seed=7, max_order=3, scenarios=[builtin_scenario("twisted-bundle")])),
    "connection-compare": (suites.suite_connection_compare,
                           SuiteConfig(seed=7)),
    "seminorms": (suites.suite_seminorms, SuiteConfig(seed=7)),
    "continuity": (suites.suite_continuity, SuiteConfig(seed=7)),
}
BUILD = fields.ChartGeometry.__init__
SUBMERSION_CFG = SuiteConfig(seed=7)
BUDGETS = ("SUBMERSION_CAP", "PULLBACK_CAP")


def _site():
    frame = sys._getframe(2)
    while frame.f_code.co_filename != suites.__file__:
        frame = frame.f_back
    return f"{frame.f_code.co_name}:{frame.f_lineno}"


def _rows(monkeypatch, name, shift):
    """The rows of case `name` with every geometry's degree moved by
    `shift(site)`, and the sites that built one."""
    sites = set()

    def build(self, point, cap, *args, **kwargs):
        site = _site()
        sites.add(site)
        BUILD(self, point, cap + shift(site), *args, **kwargs)

    monkeypatch.setattr(fields.ChartGeometry, "__init__", build)
    suite, config = CASES[name]
    return suite(config), sites


@pytest.mark.parametrize("name", list(CASES))
def test_budgets_are_sufficient_and_minimal(name, monkeypatch):
    rows, sites = _rows(monkeypatch, name, lambda site: 0)
    assert rows and sites
    deeper, _ = _rows(monkeypatch, name, lambda site: 2)
    assert ([(r.check_id, r.inputs, r.passed) for r in rows]
            == [(r.check_id, r.inputs, r.passed) for r in deeper])
    for a, b in zip(rows, deeper):
        assert abs(a.value - b.value) <= 1e-15 * max(1.0, abs(b.value)), \
            a.check_id
    for lowered in sorted(sites):
        try:
            _rows(monkeypatch, name,
                  lambda site: -1 if site == lowered else 0)
        except ValueError as exc:
            assert "degree budget exhausted" in str(exc), lowered
        else:
            pytest.fail(f"{lowered} gives rows one degree short")


def test_a_larger_budget_gives_the_same_rows(monkeypatch):
    rows = suites.suite_submersion(SUBMERSION_CFG)
    for name in BUDGETS:
        monkeypatch.setattr(suites, name, getattr(suites, name) + 2)
    deeper = suites.suite_submersion(SUBMERSION_CFG)
    assert ([(r.check_id, r.inputs, r.passed) for r in rows]
            == [(r.check_id, r.inputs, r.passed) for r in deeper])
    for a, b in zip(rows, deeper):
        assert abs(a.value - b.value) <= 1e-15 * max(1.0, abs(b.value)), \
            a.check_id


@pytest.mark.parametrize("name", BUDGETS)
def test_a_smaller_budget_is_exhausted(name, monkeypatch):
    monkeypatch.setattr(suites, name, getattr(suites, name) - 1)
    with pytest.raises(ValueError, match="degree budget exhausted"):
        suites.suite_submersion(SUBMERSION_CFG)
