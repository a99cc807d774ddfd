import math

import numpy as np
import pytest

from jetcalc.fields import FIB, TAN, FieldTensor, random_field
from jetcalc.jets import (decompose_jet, delta_hat, jet_norm, jet_project,
                          nested_sym_gap, nested_table_gap, prolong_decompose)
from jetcalc.scenarios import builtin_scenario, function_field
from jetcalc.tensor_core import CONTRA, COV


def test_flat_function_jet():
    fl = builtin_scenario("flat")
    bun = fl.bundle_at([0.0, 0.0], cap=7)
    f = function_field(bun, "(* x1 x1)")
    jet = decompose_jet(f, bun, 2)
    assert abs(float(jet.components[0].data)) < 1e-15
    assert np.abs(jet.components[1].data).max() < 1e-15
    want = np.zeros((2, 2))
    want[0, 0] = 1.0
    assert np.allclose(jet.components[2].data, want)


def test_constant_section_flat_vs_twisted():
    fl = builtin_scenario("flat")
    bun = fl.bundle_at(cap=7)
    const = FieldTensor.zeros(bun.chart, [(FIB, CONTRA)], (2,), bun.chart.cap)
    const.data[0] = [1.0, 2.0]
    jet = decompose_jet(const, bun, 2)
    assert np.abs(jet.components[1].data).max() == 0.0
    assert np.abs(jet.components[2].data).max() == 0.0
    tw = builtin_scenario("twisted-bundle")
    bt = tw.bundle_at(cap=6)
    const_t = FieldTensor.zeros(bt.chart, [(FIB, CONTRA)], (2,), bt.chart.cap)
    const_t.data[0] = [1.0, 2.0]
    jt = decompose_jet(const_t, bt, 1)
    hand = np.einsum("aib,b->ai", bt.omega.data[0], const_t.data[0])
    assert np.allclose(jt.components[1].data, hand, atol=1e-12)


def test_exponential_factorial_weights():
    line = builtin_scenario("flat-line")
    bun = line.bundle_at([0.0], cap=12)
    jet = decompose_jet(function_field(bun, "(exp x1)"), bun, 3)
    assert jet_norm(jet) == pytest.approx(
        math.sqrt(1 + 1 + 0.25 + 1 / 36), abs=1e-13)


def test_projection():
    tw = builtin_scenario("twisted-bundle")
    bun = tw.bundle_at(cap=5)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 3)
    jet = decompose_jet(sec, bun, 3)
    assert jet_norm(jet_project(jet, 3)) == jet_norm(jet)
    assert len(jet_project(jet, 0).components) == 1
    norms = [jet_norm(jet_project(jet, l)) for l in range(4)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
    with pytest.raises(ValueError):
        jet_project(jet, 5)
    for l in (-1, -2, -4):
        with pytest.raises(ValueError, match="projection order l"):
            jet_project(jet, l)
    with pytest.raises(ValueError, match="jet order m"):
        decompose_jet(sec, bun, -1)


def test_jet_wellposed_under_high_order_change():
    tw = builtin_scenario("twisted-bundle")
    bun = tw.bundle_at(cap=5)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 4)
    other = sec.copy()
    for i, I in enumerate(bun.chart.ctx.indices):
        if I.order == 3:
            other.data[i] += 0.5
    ja = decompose_jet(sec, bun, 2)
    jb = decompose_jet(other, bun, 2)
    for a, b in zip(ja.components, jb.components):
        assert np.allclose(a.data, b.data, atol=1e-13)


def test_prolong_flat_cubic_by_hand():
    fl = builtin_scenario("flat")
    bun = fl.bundle_at([0.0, 0.0], cap=4)
    f = function_field(bun, "(* x1 (* x1 x1))")
    nested = prolong_decompose(f, bun, 1, 1)
    flat_jet = decompose_jet(f, bun, 2)
    assert nested_table_gap(nested, delta_hat(flat_jet, 1, 1)) < 1e-13
    # the (1,1) entry is half the second derivative array: d2(x^3)=6x -> 0
    assert np.abs(nested[1][1].data).max() == 0.0


def test_prolong_square_exact_on_flat_sections():
    fl = builtin_scenario("flat")
    bun = fl.bundle_at(cap=5)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 6)
    nested = prolong_decompose(sec, bun, 1, 2)
    dh = delta_hat(decompose_jet(sec, bun, 3), 1, 2)
    assert nested_table_gap(nested, dh) < 1e-12


def test_prolong_square_symmetrized_nonflat():
    tw = builtin_scenario("twisted-bundle")
    bun = tw.bundle_at(cap=5)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 7)
    nested = prolong_decompose(sec, bun, 1, 2)
    dh = delta_hat(decompose_jet(sec, bun, 3), 1, 2)
    assert nested_sym_gap(nested, dh) < 1e-9
    # the raw mixed entries genuinely differ by curvature here
    assert nested_table_gap(nested, dh) > 1e-6


def test_prolong_zero_outer_is_plain_jet():
    tw = builtin_scenario("twisted-bundle")
    bun = tw.bundle_at(cap=5)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 8)
    nested = prolong_decompose(sec, bun, 0, 2)
    jet = decompose_jet(sec, bun, 2)
    for l in range(3):
        assert np.allclose(nested[0][l].data, jet.components[l].data,
                           atol=1e-13)



# --- the one-pass jets against the definition --------------------------------

def _defining_jet(T, geo, m):
    """The m-jet as defined: Sym nabla^j T from T at full degree, per j."""
    return [geo.value(geo.sym_derivative(T, j)) * (1.0 / math.factorial(j))
            for j in range(m + 1)]


def _defining_prolong(T, geo, k, m):
    """The nested table as defined: entry (j, l) differentiates
    Sym nabla^l T j more times at full degree and symmetrizes the new slots."""
    rows = []
    for j in range(k + 1):
        row = []
        for l in range(m + 1):
            dl = geo.sym_derivative(T, l)
            djl = geo.iterated(dl, j).symmetrized(
                range(dl.order, dl.order + j))
            row.append(geo.value(djl)
                       * (1.0 / (math.factorial(j) * math.factorial(l))))
        rows.append(row)
    return rows


def _assert_same_component(a, b):
    assert a.slots == b.slots
    scale = float(np.abs(b.data).max()) if b.data.size else 0.0
    assert float(np.abs(a.data - b.data).max(initial=0.0)) <= 1e-15 * scale


def _jet_fields(bun, seed):
    return [random_field(bun.chart, [(FIB, CONTRA)], (2,), seed),
            random_field(bun.chart, [], (), seed + 1),
            random_field(bun.chart, [(FIB, CONTRA), (TAN, COV)], (2, 2),
                         seed + 2)]


@pytest.mark.parametrize("name", ["conformal-base", "sphere-chart",
                                  "twisted-bundle"])
def test_one_pass_jets_match_the_definition(name):
    bun = builtin_scenario(name).bundle_at(cap=7)
    for i, T in enumerate(_jet_fields(bun, 40)):
        for m in range(7):
            jet = decompose_jet(T, bun, m)
            want = _defining_jet(T, bun, m)
            assert len(jet.components) == m + 1
            for a, b in zip(jet.components, want):
                _assert_same_component(a, b)
        for k in range(3):
            for m in range(3):
                got = prolong_decompose(T, bun, k, m)
                want = _defining_prolong(T, bun, k, m)
                for ra, rb in zip(got, want, strict=True):
                    for a, b in zip(ra, rb, strict=True):
                        _assert_same_component(a, b)


def _count_cov(monkeypatch, geo):
    calls = []
    cov = geo.cov

    def counted(T, corrections=None):
        calls.append(T.degree)
        return cov(T, corrections)

    monkeypatch.setattr(geo, "cov", counted)
    return calls


def test_one_pass_jets_cov_counts_and_degrees(monkeypatch):
    bun = builtin_scenario("twisted-bundle").bundle_at(cap=7)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 9)
    calls = _count_cov(monkeypatch, bun)
    for m in range(7):
        calls.clear()
        decompose_jet(sec, bun, m)
        assert len(calls) == m
        # nabla^j T is carried only to degree m - j
        assert calls == list(range(m, 0, -1))
    for k in range(3):
        for m in range(3):
            calls.clear()
            prolong_decompose(sec, bun, k, m)
            assert len(calls) <= (m + 1) * (k + 1)
            assert max(calls, default=0) <= k + m


def test_one_pass_jets_exhaust_the_degree_budget():
    bun = builtin_scenario("twisted-bundle").bundle_at(cap=7)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 10, degree=3)
    decompose_jet(sec, bun, 3)
    prolong_decompose(sec, bun, 1, 2)
    with pytest.raises(ValueError, match="degree budget exhausted"):
        decompose_jet(sec, bun, 4)
    for k, m in ((2, 2), (0, 4), (4, 0)):
        with pytest.raises(ValueError, match="degree budget exhausted"):
            prolong_decompose(sec, bun, k, m)




def test_nested_tables_reject_negative_orders():
    bun = builtin_scenario("twisted-bundle").bundle_at(cap=5)
    sec = random_field(bun.chart, [(FIB, CONTRA)], (2,), 3)
    for k, m, name in ((-1, 2, "k"), (2, -1, "m"), (-1, -1, "k")):
        with pytest.raises(ValueError, match=f"jet order {name} must be"):
            prolong_decompose(sec, bun, k, m)
    # k + m is the jet's order, so only the sign can fail
    jet = decompose_jet(sec, bun, 3)
    for k, m, name in ((4, -1, "m"), (-1, 4, "k")):
        with pytest.raises(ValueError, match=f"jet order {name} must be"):
            delta_hat(jet, k, m)
