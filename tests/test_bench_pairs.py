"""The claim rule of `scripts/bench_pairs.py`, `compare` on hand-made runs,
and the samples it keeps of each run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ratio", "unit": "ratio", "better": "higher",
          "bound": 0.25}

#: ten parent runs with median 1.045 and interquartile spread 0.045
PARENT = [1.0 + 0.01 * i for i in range(10)]


def test_parent_spread_of_the_fixture():
    q = bench_pairs.quartiles(PARENT)
    assert q["median"] == pytest.approx(1.045)
    assert q["q3"] - q["q1"] == pytest.approx(0.045)


def test_ties_count_for_neither_side():
    change = PARENT[:3] + [p - 0.1 for p in PARENT[3:]]
    got = bench_pairs.compare(LOWER, PARENT, change)
    assert (got["wins"], got["ties"], got["pairs"]) == (7, 3, 10)
    # the same runs read as higher-better: the ties are still no wins
    got = bench_pairs.compare(HIGHER, PARENT, change)
    assert (got["wins"], got["ties"]) == (0, 3)


@pytest.mark.parametrize("metric, step", [(LOWER, -0.1), (HIGHER, 0.1)])
def test_the_better_direction_wins(metric, step):
    better = [p + step for p in PARENT]
    worse = [p - step for p in PARENT]
    got = bench_pairs.compare(metric, PARENT, better)
    assert got["wins"] == 10 and got["claimable"]
    assert got["shift"] == pytest.approx(step / 1.045)
    got = bench_pairs.compare(metric, PARENT, worse)
    assert got["wins"] == 0 and not got["claimable"]


@pytest.mark.parametrize("losses, claimable", [(1, True), (2, False)])
def test_a_claim_needs_nine_wins_in_ten(losses, claimable):
    change = [p + 0.01 for p in PARENT[:losses]] \
        + [p - 0.2 for p in PARENT[losses:]]
    got = bench_pairs.compare(LOWER, PARENT, change)
    assert got["wins"] == 10 - losses
    # the medians differ by far more than the parent's spread either way
    assert got["parent"]["median"] - got["change"]["median"] > 0.045
    assert got["claimable"] is claimable


@pytest.mark.parametrize("step, claimable", [(0.04, False), (0.05, True)])
def test_a_claim_needs_a_gain_beyond_the_parent_spread(step, claimable):
    got = bench_pairs.compare(LOWER, PARENT, [p - step for p in PARENT])
    assert got["wins"] == 10
    assert got["claimable"] is claimable


@pytest.mark.parametrize("metric, factor, within", [
    (LOWER, 1.2, True), (LOWER, 1.3, False), (LOWER, 0.5, True),
    (HIGHER, 0.8, True), (HIGHER, 0.7, False), (HIGHER, 1.5, True)])
def test_within_bound_limits_the_worse_shift_only(metric, factor, within):
    got = bench_pairs.compare(metric, PARENT, [p * factor for p in PARENT])
    assert got["shift"] == pytest.approx(factor - 1.0)
    assert got["within_bound"] is within


@pytest.mark.parametrize("bound, step, unresolved", [
    (0.25, 0.0, False),     # the parent's spread, 4.3 % of its median, fits
    (0.01, 0.0, True),      # a bound below that spread cannot tell
    (0.01, -0.05, True),    # a gain, but the runs overlap
    (0.01, -0.1, False),    # every change run beats every parent run
    (0.01, 0.1, True)])     # a loss is unresolved too
def test_a_metric_is_unresolved_when_the_parent_spread_exceeds_the_bound(
        bound, step, unresolved):
    got = bench_pairs.compare(dict(LOWER, bound=bound), PARENT,
                              [p + step for p in PARENT])
    assert got["unresolved"] is unresolved
    # the same rule in the higher-is-better direction
    got = bench_pairs.compare(dict(HIGHER, bound=bound), PARENT,
                              [p - step for p in PARENT])
    assert got["unresolved"] is unresolved


def _runs(parent, change, failed, attempted):
    """Hand-made pairs of `wall_s` values with the given failed and
    attempted operations per run and side."""
    return [{side: {"metrics": {"wall_s": {"value": value}},
                    "failed": failed[side], "attempted": attempted[side],
                    "correct": True}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("failed, attempted, claimable", [
    ({"parent": 0, "change": 0}, {"parent": 100, "change": 100}, True),
    ({"parent": 0, "change": 1}, {"parent": 100, "change": 100}, False),
    # the same share of a larger number of operations still claims
    ({"parent": 1, "change": 2}, {"parent": 100, "change": 200}, True),
    ({"parent": 1, "change": 3}, {"parent": 100, "change": 200}, False)])
def test_a_claim_is_refused_when_the_change_fails_a_larger_share(
        failed, attempted, claimable):
    change = [p - 0.2 for p in PARENT]
    got = bench_pairs.summarize([LOWER], _runs(PARENT, change, failed,
                                               attempted))
    assert got["wall_s"]["wins"] == 10
    assert got["wall_s"]["claimable"] is claimable
    assert got["failed"] == {side: [10 * failed[side], 10 * attempted[side]]
                             for side in ("parent", "change")}
    assert got["correct"]


def test_each_run_keeps_its_setup_and_round_samples():
    info = {"walls": [0.5, 0.4, 0.6], "cpus": [0.5, 0.4, 0.6],
            "setups": [0.25, 0.18, 0.26], "workload": "check-matrix"}
    result = {"correct": True, "attempted": 30, "failed": 0,
              "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}
    stdout = "info " + json.dumps(info) + "\n" + json.dumps(result) + "\n"
    got = bench_pairs.parse_run(stdout)
    assert got == dict(result, setups=info["setups"], walls=info["walls"])
