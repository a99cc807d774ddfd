import math

import numpy as np
import pytest

from jetcalc import recursions
from jetcalc.fields import (FIB, TAN, Chart, FieldTensor, Geometry,
                            identity_field, random_field)
from jetcalc.recursions import (BUNDLE_FAMILY_KINDS, build_coefficients,
                                bundle_family, conn_family, growth_profile,
                                pullback_family, pullback_inverse_residual,
                                verify_expansion, verify_inverse_pair)
from jetcalc.scenarios import builtin_scenario, function_field, section_field
from jetcalc.suites import _family_objects, _object_field
from jetcalc.tensor_core import CONTRA, COV, frobenius_norm


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
    covs, base_covs, lifts = [], [], []
    cov, base_cov, lift = ts.cov, ts.bundle.cov, fam.lift

    def counted_cov(T, corrections=None):
        covs.append(T)
        return cov(T, corrections)

    def counted_base_cov(T, corrections=None):
        base_covs.append(T)
        return base_cov(T, corrections)

    def counted_lift(comp, ds):
        lifts.append((comp, ds.order - obj.order))
        return lift(comp, ds)

    monkeypatch.setattr(ts, "cov", counted_cov)
    monkeypatch.setattr(ts.bundle, "cov", counted_base_cov)
    monkeypatch.setattr(fam, "lift", counted_lift)
    for tab in tables:
        covs.clear()
        base_covs.clear()
        lifts.clear()
        got = [verify_expansion(fam, tab, obj, m) for m in range(M + 1)]
        assert got == want
        # the left-hand stream of order m is cov of the one of order m - 1
        assert len(covs) == M
        # so is the base stream the lifts read: one base cov per order
        assert len(base_covs) == M
        # one lift per (component, order) the table reads, M + 1 for the
        # family's own component
        assert sorted(lifts) == sorted({(c, s) for (_, c, s), _ in
                                        tab.items()})
        assert sum(c == 0 for c, _ in lifts) == M + 1


#: per family: argument auxiliary slots and the lift kinds of the test
#: object, per component, then the evaluated slot and the coupled pure
#: family
_TABLES = {
    "P": ([()], [["base"]], None, None),
    "V": ([((TAN, CONTRA),)], [["vert", "base"]], None, None),
    "H": ([((TAN, CONTRA),)], [["hor", "base"]], None, None),
    "Vstar": ([((TAN, COV),)], [["theta", "base"]], None, None),
    "L": ([((TAN, CONTRA), (TAN, COV))], [["vert", "theta", "base"]],
          None, None),
    "D": ([(), ((TAN, COV),)], [["eval", "base"], ["theta", "base"]],
          0, "Vstar"),
    "C": ([((TAN, CONTRA),), ((TAN, CONTRA), (TAN, COV))],
          [["vert", "eval", "base"], ["vert", "theta", "base"]],
          1, "L"),
}


@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS)
def test_family_tables_follow_from_the_object_slots(kind):
    scn = builtin_scenario("twisted-bundle")
    ts = scn.total_at(cap=4)
    fam = bundle_family(kind, ts)
    aux, kinds, eval_at, pure = _TABLES[kind]
    assert [tuple(a) for a in fam.aux] == aux
    assert fam.eval_at == eval_at
    assert (fam.coupled_pure and fam.coupled_pure.name) == pure
    obj = _object_field(ts.bundle, kind, _family_objects(scn, kind, 47))
    for comp, comp_kinds in enumerate(kinds):
        got = fam.stream_lifted(comp, obj, 1)
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
    md, pb = scn.map_at(cap=6)
    fam = pullback_family(pb)
    fwd = build_coefficients(fam, 3, "forward")
    f = function_field(md.target, scn.random_function(49, nvars=2))
    for m in range(4):
        assert verify_expansion(fam, fwd, f, m) < 1e-9
    scn2 = builtin_scenario("pullback-split")
    md2, pb2 = scn2.map_at(cap=6)
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
    eye = identity_field(A.chart, TAN, dim, A.degree).permuted([1, 0])
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
    want = _dense_reference(fam, 3, direction)
    assert sorted(k for k, _ in got.items()) == sorted(want)
    for key, A in want.items():
        B = got.get(*key)
        assert B.degree == A.degree and B.slots == A.slots
        scale = max(float(np.abs(A.data).max()), 1.0)
        assert float(np.abs(B.data - A.data).max()) <= 1e-14 * scale


def _dense_map(A):
    """A as the padded map of one term without pairs, whose core is A."""
    return recursions.PaddedMap(A.chart, A.slots, A.dims, A.degree,
                                [(A.data, tuple(range(A.order)), ())])


@pytest.mark.parametrize("in_pos", [0, 2])
@pytest.mark.parametrize("strided", [False, True])
def test_dense_identity_add_is_the_formed_product_added(strided, in_pos):
    # a map of one term without pairs, its core C-contiguous or a transposed
    # view, with the id's up slot first or last in IN-dual, added to an
    # entry that is one such term: the sum folds into that entry's core
    chart = Chart([0.1, -0.2], 2)
    rng = np.random.default_rng(11)
    dims = (3, 2, 3)        # OUT: one FIB up slot; IN-dual: TAN up, FIB down
    data = rng.uniform(-1, 1, (chart.ctx.size(2),) + dims)
    if strided:
        data = np.ascontiguousarray(data.transpose(0, 3, 2, 1)) \
            .transpose(0, 3, 2, 1)
    A = FieldTensor(chart, [(FIB, CONTRA), (TAN, CONTRA), (FIB, COV)], data,
                    2)
    assert A.data.flags.c_contiguous != strided
    before = A.data.copy()
    key = (2, 0, 1)
    ref = {}
    _dense_identity_term(ref, key, A, 1, in_pos, chart.n)
    product = ref[key]
    held = FieldTensor(chart, product.slots,
                       rng.uniform(-1, 1, product.data.shape), 2)
    want = held.data + product.data
    held_before = held.data.copy()
    term = _dense_map(A).with_pair(1, in_pos, chart.n)
    got = recursions.PaddedMap(chart, held.slots, held.dims, 2,
                               _dense_map(held).terms + term.terms)
    assert len(got.terms) == 1 and got.terms[0][2] == ()
    assert got.slots == product.slots
    assert np.array_equal(got.data, want)
    assert np.array_equal(A.data, before)
    assert np.array_equal(held.data, held_before)


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
        layout, sign, first = list(spec.aux[0]) + [(TAN, COV)] * m, -1.0, 0
    else:
        layout, sign, first = list(spec.aux[c]) + [(TAN, COV)] * s, 1.0, \
            n_out
    assert len(layout) == (n_out if direction == "inverse"
                           else A.order - n_out)
    return {first + p: (sign if var == CONTRA else -sign, spec.structure[sp])
            for p, (sp, var) in enumerate(layout) if sp in spec.structure}


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
    for out in np.ndindex(*A.dims[:A.order // 2]):
        dense[(0,) + out + out] = 1.0
    return dense


def _added(A):
    """A padded map added into zeros: its dense form, by another path."""
    dense = np.zeros(A.data.shape)
    A.add_to(dense)
    return dense


def _is_view(A):
    """Whether A's `data` is the strided view of one axis-free term."""
    return (isinstance(A, recursions.PaddedMap) and len(A.terms) == 1
            and not A.terms[0][1])


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


def _spec(kind):
    if kind == "CONN":
        return _conn_spec()
    return bundle_family(kind, builtin_scenario(
        "twisted-bundle").total_at(cap=5))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS + ("CONN",))
def test_every_diagonal_is_a_read_only_identity(kind, direction):
    # the diagonals, and the coupling entry (1, 1, 0) of the evaluating
    # families (the identity with a crossed pairing, negated in the
    # inverse), are the entries of one term without core axes, whose
    # data is a read-only strided view; (m + 1, 1, m) above it sums m + 1
    # such terms, one per pairing, and is dense when read
    table = build_coefficients(_spec(kind), 3, direction)
    views = 0
    for (m, c, s), A in table.items():
        coupled = kind in recursions.EVALUATING_FAMILIES \
            and (m, c, s) == (1, 1, 0)
        assert _is_view(A) == (c == 0 and s == m or coupled), (m, c, s)
        if not _is_view(A):
            continue
        views += 1
        assert A.data.base is not None
        if not coupled:
            assert np.array_equal(A.data, _dense_identity(A))
        assert np.array_equal(A.data, _added(A))
        with pytest.raises(ValueError):
            A.data[(0,) * A.data.ndim] = 2.0
    assert views == 4 + (kind in recursions.EVALUATING_FAMILIES)


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
        n = A.order // 2
        arg = random_field(geo.chart, tuple(A.slots[:n]) + ((TAN, COV),),
                           A.dims[:n] + (geo.dims[TAN],), seed=m)
        got, want = A.apply_map(n, arg), FieldTensor.apply_map(dense, n, arg)
        assert got.slots == want.slots and got.degree == want.degree
        assert np.array_equal(got.data, want.data)
        assert A.norm(geo) == math.sqrt(math.prod(A.dims[:n]))
        assert A.norm(geo) == pytest.approx(geo.norm(dense), rel=1e-13)


def test_pullback_diagonals_are_padded():
    # the shift dPhi holds no identity, so each entry is one term without
    # pairs, the dense map held as its core, but (m, 0, 0), m > 0: the
    # derivatives of the constant identity, with no term; the diagonal
    # (m, 0, m) is dPhi (x) ... (x) dPhi
    _, pb = builtin_scenario("pullback-map").map_at(cap=4)
    table = build_coefficients(pullback_family(pb), 2, "forward")
    for (m, c, s), A in table.items():
        assert isinstance(A, recursions.PaddedMap), (m, c, s)
        assert [pairs for _, _, pairs in A.terms] == \
            ([] if s == 0 < m else [()]), (m, c, s)
    dphi = pb.conversion()
    want = dphi.product(dphi).move_slot(2, 1).truncated(
        table.get(2, 0, 2).degree)
    assert np.allclose(table.get(2, 0, 2).data, want.data, rtol=0,
                       atol=1e-14)


def test_identity_diagonals_keep_the_order_4_table_small():
    # every array that the L table's entries read as, each held and
    # counted once: the diagonals read as a few hundred KB where their
    # dense form held 186 MB
    ts = builtin_scenario("twisted-bundle").total_at(cap=6)
    table = build_coefficients(bundle_family("L", ts), 4, "forward")
    owners = {}
    for _, A in table.items():
        base = _owner(A.data)
        owners[id(base)] = base
    assert sum(base.nbytes for base in owners.values()) <= 65e6
    top = table.get(4, 0, 4).data
    assert not top.flags.writeable and _owner(top).nbytes <= 1e6


def test_identity_rejects_an_argument_off_its_slots():
    A = build_coefficients(_spec("L"), 2, "forward").get(2, 0, 2)
    arg = random_field(A.chart, tuple(A.slots[:4]), A.dims[:4], seed=5)
    with pytest.raises(ValueError):
        A.apply_map(3, arg)
    swapped = random_field(A.chart, (A.slots[1], A.slots[0]) + tuple(
        A.slots[2:4]), (A.dims[1], A.dims[0]) + A.dims[2:4], seed=5)
    with pytest.raises(ValueError):
        A.apply_map(4, swapped)


# --------------------------------------------------------------------------
# padded maps: the sub-diagonal entries as identity-padded terms
# --------------------------------------------------------------------------

def _hand_geometry():
    """A chart with a 2-dimensional TAN and a 3-dimensional FIB space, each
    with a random non-diagonal Gram field and a random connection."""
    chart = Chart([0.1, 0.2], 4)
    dims = {TAN: 2, FIB: 3}
    grams, conns = {}, {}
    for k, (space, d) in enumerate(dims.items()):
        g = random_field(chart, [(space, COV)] * 2, (d, d), 20 + k)
        g.data[0] += 3.0 * np.eye(d)
        g.data[:] += np.swapaxes(g.data, 1, 2)
        grams[space] = g
        conns[space] = random_field(chart, [(space, CONTRA), (TAN, COV),
                                            (space, COV)], (d, 2, d), 30 + k)
    return Geometry(chart, dims, grams, conns)


#: OUT slots a (TAN up), b, c (TAN down), g (FIB up); IN-dual slots d (TAN
#: down), e, f (TAN up), h (FIB down): positions 0..3 and 4..7
_HAND_SLOTS = [(TAN, CONTRA), (TAN, COV), (TAN, COV), (FIB, CONTRA),
               (TAN, COV), (TAN, CONTRA), (TAN, CONTRA), (FIB, COV)]


def _hand_map(bun, degree=3):
    """A padded map with crossed pairings ((b, f) and (c, e)), cores on
    both blocks, a scalar series core and a FIB pair."""
    dims = [bun.dims[space] for space, _ in _HAND_SLOTS]

    def core(axes, seed):
        return random_field(bun.chart, [_HAND_SLOTS[a] for a in axes],
                            [dims[a] for a in axes], seed, degree).data

    terms = [(core((0, 4), 1), (0, 4), [(1, 6), (2, 5), (3, 7)]),
             (core((5, 1), 2), (5, 1), [(0, 4), (2, 6), (3, 7)]),
             (core((), 3), (), [(0, 4), (1, 5), (2, 6), (3, 7)]),
             (core((0, 1, 4, 6), 4), (0, 1, 4, 6), [(2, 5), (7, 3)]),
             (core((3, 7, 2, 5), 5), (3, 7, 2, 5), [(0, 4), (1, 6)])]
    return recursions.PaddedMap(bun.chart, _HAND_SLOTS, dims, degree, terms)


def _hand_rules(bun):
    """A structure tensor per slot space and a sign per variance."""
    n = bun.dims[TAN]
    S = {space: random_field(bun.chart, [(space, CONTRA), (space, COV),
                                         (TAN, COV)],
                             (bun.dims[space],) * 2 + (n,), seed)
         for space, seed in ((TAN, 7), (FIB, 8))}
    return {(space, v): (sign, S[space]) for space in (TAN, FIB)
            for v, sign in ((CONTRA, 1.0), (COV, -1.0))}


def _close(got, want, tol):
    assert got.slots == want.slots and got.degree == want.degree
    scale = max(float(np.abs(want.data).max()), 1e-300)
    assert float(np.abs(got.data - want.data).max()) <= tol * scale


def test_hand_built_padded_map_matches_its_dense_form():
    bun = _hand_geometry()
    A = _hand_map(bun)
    dense = A.copy()
    assert type(dense) is FieldTensor
    assert A.data.flags.writeable is False
    assert np.array_equal(A.data, dense.data)
    assert A.norm(bun) == pytest.approx(frobenius_norm(bun.value(dense)),
                                        rel=1e-13)
    # the action, on an argument with one trailing slot
    flip = {CONTRA: COV, COV: CONTRA}
    arg_slots = [(space, flip[v]) for space, v in _HAND_SLOTS[4:]]
    arg = random_field(bun.chart, arg_slots + [(TAN, COV)],
                       A.dims[4:] + (bun.dims[TAN],), seed=6)
    _close(A.apply_map(4, arg), FieldTensor.apply_map(dense, 4, arg), 1e-14)
    # the covariant derivative with forward (IN-dual), inverse (OUT) and
    # both-ended corrections, each slot by its own sign and tensor
    rules = _hand_rules(bun)
    for block in (range(4, 8), range(4), range(8)):
        fix = {p: rules[_HAND_SLOTS[p]] for p in block}
        got = A.cov(bun, fix)
        assert isinstance(got, recursions.PaddedMap)
        _close(got, bun.cov(dense, fix), 1e-14)


def test_one_axis_free_term_reads_as_a_strided_view():
    # a non-constant scalar core on crossed pairs (a, e), (b, f), (c, g)
    # and (d, h): per coefficient, Π(2 d_i - 1) floats hold the map
    bun = _hand_geometry()
    dims = [bun.dims[space] for space, _ in _HAND_SLOTS]
    core = random_field(bun.chart, [], [], 9, 3).data
    assert np.any(core[1:])
    pairs = [(0, 4), (1, 6), (2, 5), (3, 7)]
    A = recursions.PaddedMap(bun.chart, _HAND_SLOTS, dims, 3,
                             [(core, (), pairs)])
    assert np.array_equal(A.data, _added(A))
    assert A.data.flags.writeable is False
    assert np.array_equal(A.data, A.data)
    with pytest.raises(ValueError):
        A.data[(0,) * A.data.ndim] = 2.0
    assert _owner(A.data).size == bun.chart.ctx.size(3) * math.prod(
        2 * dims[p] - 1 for p, _ in pairs)
    # a second term, on other pairs, makes the map dense
    B = recursions.PaddedMap(bun.chart, _HAND_SLOTS, dims, 3,
                             [(core, (), pairs),
                              (core, (), [(0, 4), (1, 5), (2, 6), (3, 7)])])
    assert B.data.base is None and B.data.flags.writeable is False
    assert np.array_equal(B.data, _added(B))


def test_padded_map_rejects_a_pair_of_unlike_slots_and_a_gap():
    bun = _hand_geometry()
    A = _hand_map(bun)
    core, axes, pairs = A.terms[2]
    with pytest.raises(ValueError):     # (a, e): two up slots
        recursions.PaddedMap(bun.chart, _HAND_SLOTS, A.dims, A.degree,
                             [(core, (), [(0, 5), (1, 4), (2, 6), (3, 7)])])
    with pytest.raises(ValueError):     # slot 7 in no pair
        recursions.PaddedMap(bun.chart, _HAND_SLOTS, A.dims, A.degree,
                             [(core, (), pairs[:3])])
    with pytest.raises(ValueError):     # an argument off the IN-dual slots
        A.apply_map(4, random_field(bun.chart, _HAND_SLOTS[4:], A.dims[4:],
                                    seed=6))


def test_padded_terms_that_cancel_read_zero():
    bun = _hand_geometry()
    A = _hand_map(bun)
    # each term negated and given with its axes and pairs in another order
    flipped = [(core.transpose([0] + list(range(core.ndim - 1, 0, -1))),
                axes[::-1], [(q, p) for p, q in pairs[::-1]])
               for core, axes, pairs in (A * -1.0).terms]
    Z = recursions.PaddedMap(bun.chart, A.slots, A.dims, A.degree,
                             list(A.terms) + flipped)
    assert Z.norm(bun) == 0.0
    assert not np.any(Z.data)
    # the identity on a pair against the same identity written as a core:
    # the Grams round the cross terms, and the norm stays a number near 0
    core = np.zeros((bun.chart.ctx.size(A.degree),) + A.dims[:1] * 2)
    core[0] = -np.eye(A.dims[0])
    one = np.zeros(bun.chart.ctx.size(A.degree))
    one[0] = 1.0
    pairs = [(1, 5), (2, 6), (3, 7)]
    Z = recursions.PaddedMap(bun.chart, A.slots, A.dims, A.degree,
                             [(one, (), [(0, 4)] + pairs),
                              (core, (0, 4), pairs)])
    assert not np.any(Z.data)
    assert 0.0 <= Z.norm(bun) <= 1e-6


def _dense_reference(spec, m_max, direction, keep_degree=0):
    """The recursion with every map dense and every term formed: covariant
    derivatives as `Geometry.cov` plus written-out substitutions, shifts
    and couplings as products with the identity, sums out of place."""
    inverse = direction == "inverse"
    pure = None
    if inverse and spec.coupled_pure is not None:
        pure = _dense_reference(spec.coupled_pure, m_max, "inverse",
                                keep_degree + 1)
    aux = spec.aux[0]
    entries = {(0, 0, 0): recursions.PaddedMap.identity(
        spec.geo.chart, aux, [spec.geo.dims[space] for space, _ in aux],
        spec.geo.chart.cap).copy()}
    dim = spec.geo.dims[TAN]
    for m in range(m_max):
        need = max(m_max - (m + 1), 0) + keep_degree
        n_out = spec.n_aux_out() + m
        new = {}
        for (mm, c, s), A in sorted(entries.items()):
            if mm != m:
                continue
            rules = _rules_of(spec, A, m, c, s, direction)
            _out_of_place(new, (m + 1, c, s),
                          _cov_plus_substitutions(spec, A, n_out, rules))
            _dense_identity_term(new, (m + 1, c, s + 1), A.truncated(need),
                                 n_out, A.order - n_out, dim)
        for s in range(m + 1 if spec.eval_at is not None else 0):
            if inverse:
                # the evaluated slot of the pure entry moves last in OUT
                emb = pure[(m, 0, s)].truncated(need).move_slot(
                    spec.eval_at, len(spec.coupled_pure.aux[0]) + m - 1)
                _out_of_place(new, (m + 1, 1, s), emb * -1.0)
            else:
                _dense_identity_term(new, (m + 1, 1, s),
                                     entries[(m, 0, s)].truncated(need),
                                     n_out, spec.eval_at, dim)
        for key, val in new.items():
            entries[key] = val.truncated(need)
    return entries


@pytest.mark.parametrize("scenario, kind", [
    (scenario, kind) for scenario in ("twisted-bundle", "sphere-chart",
                                      "flat-line")
    for kind in BUNDLE_FAMILY_KINDS] + [("twisted-bundle", "CONN")])
def test_every_entry_matches_a_dense_reference(scenario, kind):
    # order 4, but 3 for the two families with two auxiliary slots, whose
    # order-4 dense references take several seconds each; only
    # twisted-bundle has a second connection to compare
    M = 3 if kind in ("L", "C") else 4
    scn = builtin_scenario(scenario)
    if kind == "CONN":
        bun = scn.bundle_at(cap=M)
        alt = scn.alt_bundle_at(cap=M)
        spec = conn_family(bun, bun.with_connections(gamma=alt.conns[TAN],
                                                      omega=alt.conns[FIB]))
    else:
        spec = bundle_family(kind, scn.total_at(cap=M))
    for direction in ("forward", "inverse"):
        got = build_coefficients(spec, M, direction)
        want = _dense_reference(spec, M, direction)
        assert sorted(k for k, _ in got.items()) == sorted(want)
        for key, A in want.items():
            B = got.get(*key)
            assert B.slots == A.slots and B.degree == A.degree
            scale = max(float(np.abs(A.data).max()), 1.0)
            assert float(np.abs(B.data - A.data).max()) <= 1e-14 * scale


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS + (
    "CONN", "PB-pullback-map", "PB-pullback-split"))
def test_every_sub_diagonal_is_padded(kind, direction):
    # every entry, below the diagonal or on it, is a padded map, and no
    # term's pairs contain another term's pairs (such a term is folded)
    if kind.startswith("PB-"):
        _, pb = builtin_scenario(kind[3:]).map_at(cap=3)
        spec = pullback_family(pb)
    else:
        spec = _spec(kind)
    table = build_coefficients(spec, 3, direction)
    assert len(table.entries) >= 10
    for key, A in table.items():
        assert isinstance(A, recursions.PaddedMap), key
        pair_sets = [set(pairs) for _, _, pairs in A.terms]
        for i, one in enumerate(pair_sets):
            for j, other in enumerate(pair_sets):
                assert i == j or not one <= other, (key, i, j)


@pytest.mark.parametrize("kind", ["L", "C", "CONN"])
def test_build_check_and_profile_never_form_a_padded_map(monkeypatch, kind):
    # forward and inverse (whose C embeds the padded entries of the pure L
    # table), every expansion and inverse check, and the growth profile
    def formed(self):
        raise AssertionError("a padded map was formed")

    monkeypatch.setattr(recursions.PaddedMap, "data", property(formed))
    scn = builtin_scenario("twisted-bundle")
    spec = _spec(kind)
    base = spec.base
    obj = section_field(base, scn.random_section(48)) if kind == "CONN" \
        else _object_field(base, kind, _family_objects(scn, kind, 47))
    fwd = build_coefficients(spec, 3, "forward")
    inv = build_coefficients(spec, 3, "inverse")
    for m in range(4):
        assert verify_expansion(spec, fwd, obj, m) < 1e-8
        assert verify_inverse_pair(spec, inv, obj, m) < 1e-8
    prof = growth_profile(fwd, spec.geo)
    assert any(isinstance(fwd.get(m, c, s), recursions.PaddedMap)
               for m, s, c, _ in prof["rows"])


def test_padded_entries_keep_the_order_4_table_under_20_mb():
    # every array the L table owns, each counted once, without forming a
    # padded entry: its cores stand for it (63.9 MB when they were dense)
    ts = builtin_scenario("twisted-bundle").total_at(cap=6)
    table = build_coefficients(bundle_family("L", ts), 4, "forward")
    owners = {}

    def own(a):
        a = _owner(a)
        owners[id(a)] = a.nbytes

    for _, A in table.items():
        for core, _, _ in A.terms:
            own(core)
    assert sum(owners.values()) <= 20e6


def test_geometry_norm_never_forms_a_padded_map(monkeypatch):
    # Geometry.norm hands a padded map to its own norm: every entry of the
    # L order-4 table is normed from its terms, never formed
    ts = builtin_scenario("twisted-bundle").total_at(cap=4)
    table = build_coefficients(bundle_family("L", ts), 4, "forward")

    def formed(*args):
        raise AssertionError("a padded map was formed for its norm")
    monkeypatch.setattr(recursions.PaddedMap, "dense", formed)
    monkeypatch.setattr(recursions.PaddedMap, "_pair_view", formed)
    for _, A in table.items():
        assert ts.norm(A) == A.norm(ts)


@pytest.mark.parametrize("kind", BUNDLE_FAMILY_KINDS)
def test_padded_norm_is_the_gram_norm_of_the_formed_map(kind):
    # every entry of the order-4 forward table, its cores whitened one by
    # one, against the dense Gram norm of the formed map
    ts = builtin_scenario("twisted-bundle").total_at(cap=4)
    table = build_coefficients(bundle_family(kind, ts), 4, "forward")
    worst = 0.0
    for _, A in table.items():
        want = ts.norm(A.dense())
        worst = max(worst, abs(A.norm(ts) - want) / max(want, 1e-300))
    assert worst <= 1e-13
