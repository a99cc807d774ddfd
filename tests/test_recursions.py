import math

import numpy as np
import pytest

from jetcalc import recursions
from jetcalc.fields import FIB, TAN, FieldTensor, identity_field, random_field
from jetcalc.recursions import (BUNDLE_FAMILY_KINDS, IdentityMap,
                                build_coefficients,
                                bundle_family, conn_family, growth_profile,
                                pullback_family, pullback_inverse_residual,
                                verify_expansion, verify_inverse_pair)
from jetcalc.scenarios import builtin_scenario, function_field, section_field
from jetcalc.suites import _family_objects, _object_field
from jetcalc.tensor_core import CONTRA, COV


def test_flat_collapse_and_exactness():
    scn = builtin_scenario("flat-line")
    ts = scn.total_at(cap=5)
    fam = bundle_family("P", ts)
    tab = build_coefficients(fam, 3, "forward")
    for (m, c, s), A in tab.items():
        if c == 0 and s < m:
            assert np.abs(A.data).max() < 1e-14
    f = function_field(ts.bundle, scn.random_function(1))
    for m in range(4):
        assert verify_expansion(fam, tab, f, m) < 1e-11


def test_base_case_first_order():
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=4)
    fam = bundle_family("P", ts)
    tab = build_coefficients(fam, 2, "forward")
    # the first off-diagonal entry is the derivative of the identity: zero
    a10 = tab.get(1, 0, 0)
    assert np.abs(a10.data).max() < 1e-14
    # diagonal entries act as the identity
    f = function_field(ts.bundle, scn.random_function(2))
    arg = fam.stream_lifted(0, f, 2)
    back = tab.get(2, 0, 2).apply_map(2, arg)
    assert ts.norm(back - arg) < 1e-12


@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS)
def test_bundle_family_expansion_and_inverse(kind):
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=4)
    fam = bundle_family(kind, ts)
    fwd = build_coefficients(fam, 2, "forward")
    inv = build_coefficients(fam, 2, "inverse")
    obj = _object_field(ts.bundle, kind, _family_objects(scn, kind, 47))
    for m in range(3):
        assert verify_expansion(fam, fwd, obj, m) < 1e-8
        assert verify_inverse_pair(fam, inv, obj, m) < 1e-8


def _uncached_residual(spec, table, obj, m):
    """`verify_expansion` read from the uncached stream definitions."""
    lhs = spec.stream_total(0, obj, m)
    rhs = None
    for (mm, c, s), A in sorted(table.items()):
        if mm == m:
            term = A.apply_map(spec.n_aux_out() + m,
                               spec.stream_lifted(c, obj, s))
            rhs = term if rhs is None else rhs + term
    return spec.geo.norm(lhs - rhs) / max(spec.geo.norm(lhs), 1e-12)


@pytest.mark.parametrize("kind", ["P", "C"])
def test_expansion_checks_form_each_stream_once_per_table(monkeypatch, kind):
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=5)
    fam = bundle_family(kind, ts)
    obj = _object_field(ts.bundle, kind, _family_objects(scn, kind, 47))
    M = 3
    tables = [build_coefficients(fam, M, "forward") for _ in range(2)]
    want = [_uncached_residual(fam, tables[0], obj, m) for m in range(M + 1)]
    covs, lifts = [], []
    cov, lift = ts.cov, fam.lift

    def counted_cov(T, corrections=None):
        covs.append(T)
        return cov(T, corrections)

    def counted_lift(comp, o, s):
        lifts.append((comp, s))
        return lift(comp, o, s)

    monkeypatch.setattr(ts, "cov", counted_cov)
    monkeypatch.setattr(fam, "lift", counted_lift)
    for tab in tables:
        covs.clear()
        lifts.clear()
        got = [verify_expansion(fam, tab, obj, m) for m in range(M + 1)]
        assert got == want
        # the left-hand stream of order m is cov of the one of order m - 1
        assert len(covs) == M
        # one lift per (component, order) the table reads, M + 1 for the
        # family's own component
        assert sorted(lifts) == sorted({(c, s) for (_, c, s), _ in
                                        tab.items()})
        assert sum(c == 0 for c, _ in lifts) == M + 1


#: per family: argument auxiliary slots and the lift kinds of the test
#: object, per component, then the couplings, inverse couplings and the
#: coupled pure family
_TABLES = {
    "P": ([()], [["base"]], [], [], None),
    "V": ([((TAN, CONTRA),)], [["vert", "base"]], [], [], None),
    "H": ([((TAN, CONTRA),)], [["hor", "base"]], [], [], None),
    "Vstar": ([((TAN, COV),)], [["theta", "base"]], [], [], None),
    "L": ([((TAN, CONTRA), (TAN, COV))], [["vert", "theta", "base"]],
          [], [], None),
    "D": ([(), ((TAN, COV),)], [["eval", "base"], ["theta", "base"]],
          [(0, 1, 0)], [(0, 1, [0])], "Vstar"),
    "C": ([((TAN, CONTRA),), ((TAN, CONTRA), (TAN, COV))],
          [["vert", "eval", "base"], ["vert", "theta", "base"]],
          [(0, 1, 1)], [(0, 1, [1])], "L"),
}


@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS)
def test_family_tables_follow_from_the_object_slots(kind):
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=4)
    fam = bundle_family(kind, ts)
    aux, kinds, couplings, inv_couplings, pure = _TABLES[kind]
    assert [tuple(a) for a in fam.aux] == aux
    assert fam.couplings == couplings
    assert fam.inv_couplings == inv_couplings
    assert (fam.coupled_pure and fam.coupled_pure.name) == pure
    obj = _object_field(ts.bundle, kind, _family_objects(scn, kind, 47))
    for comp, comp_kinds in enumerate(kinds):
        got = fam.lift(comp, obj, 1)
        want = ts.lift_mixed(ts.bundle.iterated(obj, 1), comp_kinds)
        assert got.slots == want.slots
        assert np.array_equal(got.data, want.data)


def test_conn_family_and_trivial_change():
    scn = builtin_scenario("twisted-bundle")
    bun = scn.bundle_at(cap=4)
    alt = scn.alt_bundle_at(cap=4)
    bar = bun.with_connections(gamma=alt.conns[TAN], omega=alt.conns[FIB])
    fam = conn_family(bun, bar)
    fwd = build_coefficients(fam, 2, "forward")
    inv = build_coefficients(fam, 2, "inverse")
    xi = section_field(bun, scn.random_section(48))
    for m in range(3):
        assert verify_expansion(fam, fwd, xi, m) < 1e-9
        assert verify_inverse_pair(fam, inv, xi, m) < 1e-9
    fam0 = conn_family(bun, bun)
    tab0 = build_coefficients(fam0, 2, "forward")
    for (m, c, s), A in tab0.items():
        if s < m:
            assert np.abs(A.data).max() < 1e-13


def test_pullback_family_forward_and_submersive_inverse():
    scn = builtin_scenario("pullback-map")
    md, pb = scn.map_at(cap=scn.degree)
    fam = pullback_family(pb)
    fwd = build_coefficients(fam, 3, "forward")
    f = function_field(md.target, scn.random_function(49, nvars=2))
    for m in range(4):
        assert verify_expansion(fam, fwd, f, m) < 1e-9
    scn2 = builtin_scenario("pullback-split")
    md2, pb2 = scn2.map_at(cap=scn2.degree)
    fam2 = pullback_family(pb2)
    fwd2 = build_coefficients(fam2, 3, "forward")
    f2 = function_field(md2.target, scn2.random_function(50, nvars=1))
    for m in range(4):
        assert verify_expansion(fam2, fwd2, f2, m) < 1e-9
    assert pullback_inverse_residual(pb2, fwd2, f2, 3) < 1e-9


def test_growth_profile_shapes():
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=5)
    fam = bundle_family("V", ts)
    tab = build_coefficients(fam, 3, "forward")
    prof = growth_profile(tab, ts, slack=2.0)
    assert not prof["degenerate"]
    assert prof["coverage"] == 1.0
    diag = tab.get(3, 0, 3)
    dim = ts.dims[TAN]
    assert ts.norm(diag) == pytest.approx(math.sqrt(dim ** 4), rel=1e-12)
    # flat tables are reported as degenerate
    tsf = builtin_scenario("flat-line").total_at(cap=5)
    famf = bundle_family("V", tsf)
    tabf = build_coefficients(famf, 3, "forward")
    assert growth_profile(tabf, tsf)["degenerate"]


def test_unknown_family_rejected():
    scn = builtin_scenario("flat-line")
    ts = scn.total_at(cap=3)
    with pytest.raises(ValueError):
        bundle_family("Q", ts)


@pytest.mark.parametrize("kind", ["P", "L", "C"])
def test_kept_degree_does_not_change_lower_degrees(kind):
    # an extra kept degree is pure surplus: dropping it gives the plain table
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=6)
    fam = bundle_family(kind, ts)
    plain = build_coefficients(fam, 3, "forward")
    extra = build_coefficients(fam, 3, "forward", keep_degree=1)
    assert sorted(k for k, _ in plain.items()) == \
        sorted(k for k, _ in extra.items())
    for key, A in plain.items():
        B = extra.get(*key)
        if key[0] > 0:      # level 0 is the identity map at the chart's cap
            assert B.degree == A.degree + 1
        B = B.truncated(A.degree)
        assert B.degree == A.degree and B.slots == A.slots
        scale = max(float(np.abs(A.data).max()), 1e-300)
        assert float(np.abs(B.data - A.data).max()) <= 1e-13 * scale


def _out_of_place(new, key, term):
    """Reference accumulation: every sum is a new array."""
    new[key] = new[key] + term if key in new else term


def _dense_identity_term(new, key, A, n_out, in_pos, dim):
    """Reference shift and coupling term: A (x) id formed as a product, its
    id down slot moved to OUT position `n_out` and its up slot to position
    `in_pos` of the IN-dual block, then summed out of place."""
    eye = identity_field(A.chart, TAN, dim, A.degree, up_first=False)
    t = A.product(eye).move_slot(A.order, n_out)
    _out_of_place(new, key, t.move_slot(t.order - 1, n_out + 1 + in_pos))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("kind", ["P", "L", "C", "D"])
def test_in_place_sums_match_out_of_place_reference(monkeypatch, kind,
                                                     direction):
    ts = builtin_scenario("twisted-bundle").total_at(cap=5)
    fam = bundle_family(kind, ts)
    inputs = [ts.b_tensor()] + list(ts.grams.values()) + \
        [G for G in ts.conns.values() if G is not None]
    before = [T.data.copy() for T in inputs]
    # the pure tables that C and D embed in their inverse are inputs too
    pure, build = [], recursions.build_coefficients

    def recording_build(*args, **kwargs):
        tab = build(*args, **kwargs)
        pure.append((tab, {key: A.data.copy() for key, A in tab.items()}))
        return tab

    monkeypatch.setattr(recursions, "build_coefficients", recording_build)
    got = build_coefficients(fam, 3, direction)
    assert len(pure) == int(kind in ("C", "D") and direction == "inverse")
    for T, data in zip(inputs, before):
        assert np.array_equal(T.data, data)
    for tab, entries in pure:
        for key, A in tab.items():
            assert np.array_equal(A.data, entries[key])
    monkeypatch.setattr(recursions, "_accumulate", _out_of_place)
    monkeypatch.setattr(recursions, "_add_identity", _dense_identity_term)
    want = build_coefficients(fam, 3, direction)
    assert sorted(k for k, _ in got.items()) == \
        sorted(k for k, _ in want.items())
    for key, A in want.items():
        B = got.get(*key)
        assert B.degree == A.degree and B.slots == A.slots
        scale = max(float(np.abs(A.data).max()), 1.0)
        assert float(np.abs(B.data - A.data).max()) <= 1e-14 * scale


def _cov_plus_substitutions(spec, A, n_out, rules):
    """The recursion's covariant term written out: cov(A) plus sign times
    the substitution of S at p for every p: (sign, S) in `rules`, each with
    its new covariant slot moved to OUT position `n_out`."""
    dA = spec.geo.cov(A)
    out = dA.move_slot(dA.order - 1, n_out)
    for p, (sign, S) in sorted(rules.items()):
        t = A.substitute(p, S)
        out = out + t.move_slot(t.order - 1, n_out) * sign
    return out


def _rules_of(spec, A, m, c, s, direction):
    """The slots the recursion corrects: the OUT block (inverse) or the
    argument block (forward), with their rules, spelled out slot by slot."""
    n_out = spec.n_aux_out() + m
    if direction == "inverse":
        layout, rules, first = list(spec.aux[0]) + [(TAN, COV)] * m, \
            spec.out_rule, 0
    else:
        layout, rules, first = list(spec.aux[c]) + [(TAN, COV)] * s, \
            spec.in_rule, n_out
    assert len(layout) == (n_out if direction == "inverse"
                           else A.order - n_out)
    return {first + p: rules[key] for p, key in enumerate(layout)
            if key in rules}


def _conn_spec():
    scn = builtin_scenario("twisted-bundle")
    bun = scn.bundle_at(cap=5)
    alt = scn.alt_bundle_at(cap=5)
    return conn_family(bun, bun.with_connections(gamma=alt.conns[TAN],
                                                  omega=alt.conns[FIB]))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("kind", ["P", "L", "C", "D", "CONN"])
def test_folded_cov_is_cov_plus_signed_substitutions(kind, direction):
    # every map the order-3 recursion differentiates, with the structure
    # tensor folded into the connection of the corrected slots
    if kind == "CONN":
        spec = _conn_spec()
    else:
        spec = bundle_family(kind, builtin_scenario(
            "twisted-bundle").total_at(cap=5))
    table = build_coefficients(spec, 3, direction)
    checked = 0
    for (m, c, s), A in table.items():
        if m == 3:
            continue
        rules = _rules_of(spec, A, m, c, s, direction)
        checked += bool(rules)
        n_out = spec.n_aux_out() + m
        got = recursions._cov_term(spec, A, n_out, rules)
        want = _cov_plus_substitutions(spec, A, n_out, rules)
        assert got.slots == want.slots and got.degree == want.degree
        scale = max(float(np.abs(want.data).max()), 1e-300)
        assert float(np.abs(got.data - want.data).max()) <= 1e-14 * scale
    assert checked > 0


def test_cov_rejects_a_correction_off_its_slot():
    ts = builtin_scenario("twisted-bundle").total_at(cap=4)
    B = ts.b_tensor()
    section = FieldTensor.zeros(ts.chart, [(FIB, CONTRA)], (2,), 3)
    with pytest.raises(ValueError):
        ts.cov(section, {0: (1.0, B)})


def _dense_identity(A):
    """The identity map with A's slots and degree, written out."""
    dense = np.zeros(A.data.shape)
    for out in np.ndindex(*A.dims[:A.n_pairs]):
        dense[(0,) + out + out] = 1.0
    return dense


def _spec(kind):
    if kind == "CONN":
        return _conn_spec()
    return bundle_family(kind, builtin_scenario(
        "twisted-bundle").total_at(cap=5))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS + ("CONN",))
def test_every_diagonal_is_a_read_only_identity(kind, direction):
    table = build_coefficients(_spec(kind), 3, direction)
    diagonals = 0
    for (m, c, s), A in table.items():
        marked = isinstance(A, IdentityMap)
        assert marked == (c == 0 and s == m)
        if not marked:
            continue
        diagonals += 1
        assert np.array_equal(A.data, _dense_identity(A))
        with pytest.raises(ValueError):
            A.data[(0,) * A.data.ndim] = 2.0
    assert diagonals == 4


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("kind", ["P", "L", "C", "CONN"])
def test_identity_closed_forms_match_the_generic_path(kind, direction):
    # cov with the recursion's corrections (argument slots forward, output
    # slots inverse), action and Gram norm, against the dense copy
    spec = _spec(kind)
    table = build_coefficients(spec, 3, direction)
    geo = spec.geo
    for m in (1, 2):
        A = table.get(m, 0, m)
        dense = A.copy()
        rules = _rules_of(spec, A, m, 0, m, direction)
        assert rules
        got, want = A.cov(geo, rules), geo.cov(dense, rules)
        assert got.slots == want.slots and got.degree == want.degree
        assert float(np.abs(got.data - want.data).max()) <= 1e-15 * max(
            float(np.abs(want.data).max()), 1.0)
        n = A.n_pairs
        arg = random_field(geo.chart, tuple(A.slots[:n]) + ((TAN, COV),),
                           A.dims[:n] + (geo.dims[TAN],), seed=m)
        got, want = A.apply_map(n, arg), FieldTensor.apply_map(dense, n, arg)
        assert got.slots == want.slots and got.degree == want.degree
        assert np.array_equal(got.data, want.data)
        assert A.norm() == pytest.approx(geo.norm(dense), rel=1e-13)


def test_pullback_diagonals_stay_dense():
    scn = builtin_scenario("pullback-map")
    _, pb = scn.map_at(cap=scn.degree)
    table = build_coefficients(pullback_family(pb), 2, "forward")
    assert not any(isinstance(A, IdentityMap) for _, A in table.items())


def test_identity_diagonals_keep_the_order_4_table_small():
    # every array an entry of the L table owns, each counted once: the
    # diagonals own a few hundred KB where their dense form held 186 MB
    ts = builtin_scenario("twisted-bundle").total_at(cap=6)
    table = build_coefficients(bundle_family("L", ts), 4, "forward")
    owners = {}
    for _, A in table.items():
        base = A.data
        while base.base is not None:
            base = base.base
        owners[id(base)] = base.nbytes
    assert sum(owners.values()) <= 65e6


def test_identity_rejects_an_argument_off_its_slots():
    A = build_coefficients(_spec("L"), 2, "forward").get(2, 0, 2)
    arg = random_field(A.chart, tuple(A.slots[:4]), A.dims[:4], seed=5)
    with pytest.raises(ValueError):
        A.apply_map(3, arg)
    swapped = random_field(A.chart, (A.slots[1], A.slots[0]) + tuple(
        A.slots[2:4]), (A.dims[1], A.dims[0]) + A.dims[2:4], seed=5)
    with pytest.raises(ValueError):
        A.apply_map(4, swapped)
