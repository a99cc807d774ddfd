import math

import numpy as np
import pytest

from jetcalc.scenarios import builtin_scenario, function_field, section_field
from jetcalc.seminorms import (CompactSample, WeightSequence, fit_envelope,
                               growth_fit, jet_norm_profile, local_seminorm,
                               norm_compare, p_infinity, p_omega,
                               topology_equivalence_check)


def line_provider(expr, cap=12):
    line = builtin_scenario("flat-line")

    def inner(x):
        bun = line.bundle_at(x, cap=cap)
        return bun, function_field(bun, expr)

    return inner


K0 = CompactSample([[0.0]], "origin")


def test_compact_sample_guard():
    with pytest.raises(ValueError):
        CompactSample([])


def test_weight_sequences():
    with pytest.raises(ValueError):
        WeightSequence([1.0, 0.0])
    g = WeightSequence.geometric(0.5, 3)
    assert g.values == [1.0, 0.5, 0.25, 0.125]
    assert g.prefix_products() == [1.0, 0.5, 0.125, 0.015625]
    h = WeightSequence.harmonic(2)
    assert h.values == [1.0, 0.5, 1.0 / 3.0]


def test_p_infinity_hand_values():
    assert p_infinity(line_provider("(exp x1)", cap=5), K0, 3) == \
        pytest.approx(math.sqrt(1 + 1 + 0.25 + 1 / 36), abs=1e-13)
    assert p_infinity(line_provider("0", cap=5), K0, 3) == 0.0


def test_p_omega_order_zero_and_monotone():
    prov = line_provider("(exp x1)", cap=6)
    a0 = WeightSequence([0.7])
    assert p_omega(prov, K0, a0, 0) == pytest.approx(0.7)
    a = WeightSequence.geometric(0.5, 6)
    vals = [p_omega(prov, K0, WeightSequence(a.values[: m + 1]), m)
            for m in range(5)]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_local_seminorm_monomial():
    prov = line_provider("(* 0.5 (* x1 (* x1 x1)))", cap=6)
    a = WeightSequence.geometric(0.5, 6)
    want = 0.5 * np.prod(a.values[:4])
    assert local_seminorm(prov, K0, a, 6) == pytest.approx(want, abs=1e-14)


def test_local_seminorm_reads_no_deeper_than_the_field():
    prov = line_provider("(* 0.5 (* x1 (* x1 x1)))", cap=5)
    a = WeightSequence.geometric(0.5, 6)
    with pytest.raises(ValueError, match="degree budget exhausted"):
        local_seminorm(prov, K0, a, 6)


def test_growth_fit_radii():
    f1 = growth_fit(line_provider("(/ 1 (+ 1 (* x1 x1)))"), K0, 10)
    assert 0.8 <= f1.r <= 1.2
    assert f1.max_violation <= 1e-9
    f2 = growth_fit(line_provider("(/ 1 (+ 1 (* 4 (* x1 x1))))"), K0, 10)
    assert 0.4 <= f2.r <= 0.6
    f3 = growth_fit(line_provider("(+ x1 (* x1 (* x1 x1)))"), K0, 10)
    assert f3.trivial or f3.r >= 1.0


def test_fit_envelope_trivial_case():
    C, sigma, cov = fit_envelope([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], 1.5)
    assert C == pytest.approx(1.0)
    assert sigma == pytest.approx(1.0)
    assert cov == 1.0


def test_norm_compare_identical_geometries():
    tw = builtin_scenario("twisted-bundle")
    exprs = tw.random_section(1)
    K = CompactSample(tw.base_points)

    def prov(x):
        bun = tw.bundle_at(x, cap=5)
        return bun, section_field(bun, exprs)

    rep = norm_compare(prov, prov, K, 3)
    for side in ("forward", "backward"):
        assert rep[side]["C"] == pytest.approx(1.0)
        assert rep[side]["sigma"] == pytest.approx(1.0)
        assert rep[side]["coverage"] == 1.0


def test_norm_compare_two_geometries_cover():
    tw = builtin_scenario("twisted-bundle")
    exprs = tw.random_section(2)
    K = CompactSample(tw.base_points)

    def prov_a(x):
        bun = tw.bundle_at(x, cap=6)
        return bun, section_field(bun, exprs)

    def prov_b(x):
        bun = tw.alt_bundle_at(x, cap=6)
        return bun, section_field(bun, exprs)

    rep = norm_compare(prov_a, prov_b, K, 4)
    assert rep["forward"]["coverage"] == 1.0
    assert rep["backward"]["coverage"] == 1.0


def test_topology_equivalence_witnesses():
    tw = builtin_scenario("twisted-bundle")
    exprs = tw.random_section(3)
    K = CompactSample(tw.base_points)

    def prov(x):
        bun = tw.bundle_at(x, cap=6)
        return bun, section_field(bun, exprs)

    weights = [WeightSequence.geometric(0.5, 4), WeightSequence.harmonic(4)]
    rep = topology_equivalence_check(prov, K, weights, 4)
    for w in rep["weights"]:
        assert w["local_le"] and w["intrinsic_le"]


def test_jet_norm_profile_shape():
    tw = builtin_scenario("twisted-bundle")
    exprs = tw.random_section(4)
    K = CompactSample(tw.base_points)

    def prov(x):
        bun = tw.bundle_at(x, cap=5)
        return bun, section_field(bun, exprs)

    prof = jet_norm_profile(prov, K, 3)
    assert prof.shape == (3, 4)
    assert np.all(np.diff(prof, axis=1) >= -1e-15)
