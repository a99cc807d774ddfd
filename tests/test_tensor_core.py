import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import tensor_core as tc
from jetcalc.fields import (FieldTensor, identity_field, point_geometry,
                            random_field)
from jetcalc.tensor_core import CONTRA, COV


def make_geometry(dims, seed=0, orthonormal=False):
    """One-point geometry: the tensors are degree-0 FieldTensors."""
    rng = np.random.default_rng(seed)
    grams = {}
    for name, dim in dims.items():
        if orthonormal:
            grams[name] = np.eye(dim)
        else:
            a = rng.uniform(-0.3, 0.3, size=(dim, dim))
            grams[name] = np.eye(dim) + 0.5 * (a + a.T)
    return point_geometry(grams)


def rand(geo, slots, seed, scale=1.0):
    return random_field(geo.chart, slots, [geo.dims[s] for s, _ in slots],
                        seed, degree=0, scale=scale)


def const(geo, slots, data):
    return FieldTensor(geo.chart, slots,
                       np.asarray(data, dtype=float)[None], 0)


def test_space_validation():
    with pytest.raises(ValueError):
        tc.VectorSpaceSpec(2, [[1.0, 0.5], [0.4, 1.0]])     # not symmetric
    with pytest.raises(ValueError):
        tc.VectorSpaceSpec(2, [[1.0, 2.0], [2.0, 1.0]])     # not positive
    with pytest.raises(ValueError, match="positive-definite"):
        tc.VectorSpaceSpec(2, [[1.0, 2.0], [2.0, 4.0]])     # singular
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            tc.VectorSpaceSpec(2, [[bad, 0.0], [0.0, 1.0]])
    # the symmetry test is np.allclose(g, g.T, atol=1e-12)
    tc.VectorSpaceSpec(2, [[1.0, 1e-13], [0.0, 1.0]])


def test_space_whiteners_factor_gram_and_inverse():
    g = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    spec = tc.VectorSpaceSpec(3, g)
    up, down = spec.whiteners
    assert np.abs(up.T @ up - g).max() < 1e-14
    assert np.abs(down.T @ down - np.linalg.inv(g)).max() < 1e-14
    assert np.array_equal(up, np.triu(up))
    # U^-T: an identity joining an up slot to a down slot stays one
    assert np.abs(up @ down.T - np.eye(3)).max() < 1e-14


def test_basis_product():
    geo = make_geometry({"V": 2}, orthonormal=True)
    e1 = const(geo, [("V", COV)], [1.0, 0.0])
    e2 = const(geo, [("V", COV)], [0.0, 1.0])
    p = e1.product(e2)
    want = np.zeros((2, 2))
    want[0, 1] = 1.0
    assert np.array_equal(p.data[0], want)


def test_product_norm_multiplicative():
    geo = make_geometry({"V": 3, "W": 2}, seed=5)
    a = rand(geo, [("V", COV)] * 3, 11)
    b = rand(geo, [("W", COV), ("V", CONTRA)], 12)
    assert geo.norm(a.product(b)) == pytest.approx(
        geo.norm(a) * geo.norm(b), rel=1e-12)


def test_product_with_zero():
    geo = make_geometry({"V": 2})
    a = rand(geo, [("V", COV)], 1)
    z = rand(geo, [("V", COV)], 2, scale=0.0)
    assert geo.norm(a.product(z)) == 0.0


def test_symmetrize_pair():
    geo = make_geometry({"V": 2}, orthonormal=True)
    e12 = const(geo, [("V", COV)] * 2, [[0, 1], [0, 0]])
    s = e12.symmetrized(range(2))
    assert np.allclose(s.data[0], [[0, 0.5], [0.5, 0]])


def test_symmetrize_projection_fixed_point():
    geo = make_geometry({"V": 3}, seed=9)
    a = rand(geo, [("V", COV)] * 3, 21).symmetrized(range(3))
    again = a.symmetrized(range(3))
    assert np.allclose(a.data, again.data, atol=1e-14)


def test_symmetrize_contracts_norm():
    geo = make_geometry({"V": 3}, seed=2)
    a = rand(geo, [("V", COV)] * 3, 3)
    assert geo.norm(a.symmetrized(range(3))) <= geo.norm(a) + 1e-12


def test_symmetrize_rejects_mixed():
    geo = make_geometry({"V": 2})
    a = rand(geo, [("V", COV), ("V", CONTRA)], 4)
    with pytest.raises(ValueError):
        a.symmetrized(range(2))


@pytest.mark.parametrize("slots", [
    [("V", COV), ("V", CONTRA)],        # one space, opposite variance
    [("V", COV), ("W", COV)],           # equal dimension, other space
])
def test_symmetrized_checks_slots_not_dimensions(slots):
    # V and W have one dimension, so only the slot check can refuse them;
    # the base-point value of a field refuses them as the field does
    geo = make_geometry({"V": 2, "W": 2}, seed=3)
    a = rand(geo, slots + [("V", COV)], 5)
    for t in (a, geo.value(a)):
        with pytest.raises(ValueError):
            t.symmetrized([0, 1])
        t.symmetrized([0, 2])           # two V covariant slots agree


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_symmetrize_is_orthogonal_projection(seed):
    geo = make_geometry({"V": 3}, seed=seed % 17)
    a = rand(geo, [("V", COV)] * 3, seed)
    s = rand(geo, [("V", COV)] * 3, seed + 1).symmetrized(range(3))
    assert tc.inner_product(geo.value(a.symmetrized(range(3))),
                            geo.value(s)) == pytest.approx(
        tc.inner_product(geo.value(a), geo.value(s)), abs=1e-10)


def test_sym_product_pair():
    geo = make_geometry({"V": 3}, seed=8)
    al = rand(geo, [("V", COV)], 31)
    be = rand(geo, [("V", COV)], 32)
    p = tc.sym_product(al, be)
    want = np.multiply.outer(al.data[0], be.data[0]) \
        + np.multiply.outer(be.data[0], al.data[0])
    assert np.allclose(p.data[0], want)


def test_shuffle_cardinality():
    assert len(tc.shuffles(2, 1)) == 3
    assert len(tc.shuffles(3, 2)) == math.comb(5, 3)


def test_sym_product_associative_brute():
    geo = make_geometry({"V": 3}, seed=4)
    al, be, ga = (rand(geo, [("V", COV)], 40 + i) for i in range(3))
    lhs = tc.sym_product(tc.sym_product(al, be), ga)
    # brute force: sum over all 3! argument orderings of the triple product
    outer = np.multiply.outer(np.multiply.outer(al.data[0], be.data[0]),
                              ga.data[0])
    import itertools
    acc = np.zeros_like(outer)
    for p in itertools.permutations(range(3)):
        acc += tc.apply_perm(outer, list(p))
    assert np.allclose(lhs.data[0], acc, atol=1e-12)


def test_sym_product_alt_formula():
    geo = make_geometry({"V": 2}, seed=6)
    a = rand(geo, [("V", COV)] * 2, 50).symmetrized(range(2))
    b = rand(geo, [("V", COV)], 51)
    lhs = tc.sym_product(a, b)
    rhs = a.product(b).symmetrized(range(3)) * (math.factorial(3) /
                                                (math.factorial(2)))
    assert np.allclose(lhs.data, rhs.data, atol=1e-10)


def test_insert_vector_case():
    # a plain vector pins a slot: the natural pairing, nothing replaces it
    geo = make_geometry({"V": 3}, seed=3)
    a = rand(geo, [("V", COV)] * 2, 60)
    v = rand(geo, [("V", CONTRA)], 61)
    got = a.contract_pair(0, v, 0)
    want = np.tensordot(v.data[0], a.data[0], axes=([0], [0]))
    assert got.slots == tc.TensorShape([("V", COV)])
    assert np.allclose(got.data[0], want)


def test_insert_identity_is_noop():
    geo = make_geometry({"V": 3}, seed=3)
    a = rand(geo, [("V", COV)] * 3, 62)
    ident = identity_field(geo.chart, "V", 3, 0)
    got = a.insert(ident, 2)
    assert np.allclose(got.data, a.data)
    with pytest.raises(ValueError):
        a.insert(ident, 4)


def test_insert_matches_nested_evaluation():
    geo = make_geometry({"V": 2}, seed=7, orthonormal=True)
    rng = np.random.default_rng(123)
    a = rand(geo, [("V", COV)] * 2, 63)
    s = rand(geo, [("V", CONTRA), ("V", COV), ("V", COV)], 64)
    ins = a.insert(s, 1)
    for _ in range(20):
        v = rng.uniform(-1, 1, size=(3, 2))
        lhs = ins.data[0]
        for vec in v:
            lhs = np.tensordot(lhs, vec, axes=([0], [0]))
        sval = np.einsum("abc,b,c->a", s.data[0], v[0], v[2])
        rhs = np.einsum("ab,a,b->", a.data[0], sval, v[1])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_push_identity_and_swap():
    geo = make_geometry({"V": 2}, seed=1)
    al = rand(geo, [("V", COV)], 71)
    be = rand(geo, [("V", COV)], 72)
    t = al.product(be)
    assert np.allclose(tc.push(t, 1, 1).data, t.data)
    swapped = tc.push(t, 1, 2)
    assert np.allclose(swapped.data[0],
                       np.multiply.outer(be.data[0], al.data[0]))
    # the slots move with their axes
    mixed = make_geometry({"V": 2, "W": 3}, seed=1)
    vw = rand(mixed, [("V", COV), ("W", CONTRA)], 74)
    wv = tc.push(vw, 1, 2)
    assert wv.slots == tc.TensorShape([("W", CONTRA), ("V", COV)])
    assert np.array_equal(wv.data[0], vw.data[0].T)


def test_push_norm_preserving():
    geo = make_geometry({"V": 3}, seed=13)
    a = rand(geo, [("V", COV)] * 3, 73)
    assert geo.norm(tc.push(a, 1, 3)) == pytest.approx(geo.norm(a),
                                                       rel=1e-12)
    assert geo.norm(tc.push(a, 3, 1)) == pytest.approx(geo.norm(a),
                                                       rel=1e-12)


def test_derivation_on_scalar_vanishes():
    geo = make_geometry({"V": 2}, seed=0)
    s = rand(geo, [("V", CONTRA), ("V", COV), ("V", COV)], 81)
    scalar = const(geo, (), 3.5)
    ds = scalar.derivation(s)
    assert ds.slots == tc.TensorShape([("V", COV)])
    assert geo.norm(ds) == 0.0


def test_derivation_on_vector_evaluates():
    geo = make_geometry({"V": 3}, seed=0)
    amap = rand(geo, [("V", CONTRA), ("V", COV)], 82)
    v = rand(geo, [("V", CONTRA)], 83)
    got = v.derivation(amap)
    want = np.tensordot(amap.data[0], v.data[0], axes=([1], [0]))
    assert np.allclose(got.data[0], want)


def test_contract_eval_is_final_insertion():
    # A(B): the output of B fed into the final covariant slot of A
    geo = make_geometry({"V": 2}, seed=0)
    a = rand(geo, [("V", CONTRA), ("V", COV), ("V", COV)], 84)
    b = rand(geo, [("V", CONTRA), ("V", COV)], 85)
    got = a.insert(b, 2)
    want = np.tensordot(a.data[0], b.data[0], axes=([2], [0]))
    assert np.allclose(got.data[0], want)
    ident = identity_field(geo.chart, "V", 2, 0)
    assert np.allclose(a.insert(ident, 2).data, a.data)


def test_delta_split_examples():
    geo = make_geometry({"V": 3}, seed=5)
    al = rand(geo, [("V", COV)], 91)
    be = rand(geo, [("V", COV)], 92)
    ab = tc.sym_product(al, be)
    split11 = tc.delta_split(ab, 1, 1)
    # the weighted shuffle sum acts as the identity on a symmetric input: on
    # the two-form al (.) be it returns the full symmetric product, i.e. two
    # copies of the half-sum Sym(al (x) be)
    want = (np.multiply.outer(al.data[0], be.data[0])
            + np.multiply.outer(be.data[0], al.data[0]))
    assert np.allclose(split11.data[0], want)
    # r = 0 keeps the tensor
    a3 = rand(geo, [("V", COV)] * 3, 93).symmetrized(range(3))
    assert np.allclose(tc.delta_split(a3, 0, 3).data, a3.data)
    # roundtrip: fully symmetrizing the split recovers the input exactly
    split = tc.delta_split(a3, 2, 1)
    assert np.allclose(split.symmetrized(range(3)).data, a3.data,
                       atol=1e-12)


def test_delta_split_rejects_asymmetric():
    geo = make_geometry({"V": 2})
    a = rand(geo, [("V", COV)] * 2, 94)
    with pytest.raises(ValueError):
        tc.delta_split(a, 1, 1)


def test_identity_norm():
    for dim in (2, 3, 5):
        geo = make_geometry({"V": dim}, seed=dim)
        assert geo.norm(identity_field(geo.chart, "V", dim, 0)) == \
            pytest.approx(math.sqrt(dim), rel=1e-12)


def test_evaluation_bound_and_opnorm():
    geo = make_geometry({"U": 3, "V": 4}, seed=14)
    L = rand(geo, [("V", CONTRA), ("U", COV)], 95)
    u = rand(geo, [("U", CONTRA)], 96)
    lu = L.apply_map(1, u)
    assert np.allclose(lu.data[0], L.data[0] @ u.data[0])
    assert geo.norm(lu) <= geo.norm(L) * geo.norm(u) + 1e-12
    ru = np.linalg.cholesky(geo.registry["U"].gram).T
    rv = np.linalg.cholesky(geo.registry["V"].gram).T
    op = np.linalg.svd(rv @ L.data[0] @ np.linalg.inv(ru),
                       compute_uv=False)[0]
    assert geo.norm(L) <= math.sqrt(3) * op + 1e-10


def test_frobenius_euclidean_reduction():
    geo = make_geometry({"V": 3}, orthonormal=True)
    a = rand(geo, [("V", COV)] * 2, 97)
    assert geo.norm(a) == pytest.approx(float(np.linalg.norm(a.data)),
                                        rel=1e-13)


def test_random_tensor_determinism():
    geo = make_geometry({"V": 3})
    a = rand(geo, [("V", COV)] * 2, 7)
    b = rand(geo, [("V", COV)] * 2, 7)
    c = rand(geo, [("V", COV)] * 2, 8)
    assert a.data.shape == (1, 3, 3)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    z = rand(geo, [("V", COV)] * 2, 7, scale=0.0)
    assert geo.norm(z) == 0.0


def test_sym_rank_binomial():
    for dim in (2, 3, 4):
        for k in (1, 2, 3, 4):
            assert tc.sym_rank(dim, k) == math.comb(dim + k - 1, k)


def _explicit_inner(a, b):
    """sum over all indices of a * b weighted by one Gram per slot."""
    x = b.data
    for ax, slot in enumerate(a.slots):
        spec = a.registry[slot.space]
        g = spec.gram if slot.variance == CONTRA else np.linalg.inv(spec.gram)
        x = np.moveaxis(np.tensordot(g, x, axes=([1], [ax])), 0, ax)
    return float(np.sum(a.data * x))


@pytest.mark.parametrize("orthonormal", [True, False])
@pytest.mark.parametrize("slots", [
    [("U", CONTRA)],
    [("U", COV), ("V", COV)],
    [("V", CONTRA), ("U", COV), ("V", CONTRA)],
    [("U", COV), ("V", CONTRA), ("U", CONTRA), ("V", COV)],
])
def test_whitened_norm_matches_gram_sum(orthonormal, slots):
    geo = make_geometry({"U": 2, "V": 3}, seed=21, orthonormal=orthonormal)
    a = geo.value(rand(geo, slots, 101))
    b = geo.value(rand(geo, slots, 102))
    assert tc.inner_product(a, b) == pytest.approx(_explicit_inner(a, b),
                                                   rel=1e-12)
    assert a.norm() == pytest.approx(math.sqrt(_explicit_inner(a, a)),
                                     rel=1e-12)
    if orthonormal:
        assert a.norm() == pytest.approx(float(np.linalg.norm(a.data)),
                                         rel=1e-13)


def test_whitened_norm_chunks_and_views(monkeypatch):
    # a tiny chunk whitens every axis in many blocks; a transposed view
    # must read its slots in slot order, not in memory order
    monkeypatch.setattr(tc, "WHITEN_CHUNK", 4)
    geo = make_geometry({"U": 2, "V": 3}, seed=22)
    t = rand(geo, [("V", COV), ("U", CONTRA), ("V", CONTRA)], 103)
    a, p = geo.value(t), geo.value(t.permuted([2, 0, 1]))
    assert not p.data.flags.c_contiguous
    assert p.norm() == pytest.approx(math.sqrt(_explicit_inner(p, p)),
                                     rel=1e-12)
    assert p.norm() == pytest.approx(a.norm(), rel=1e-12)


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
def test_gram_norm_holds_one_whitened_copy(layout):
    # a 2 M-entry (16 MB) tensor: its norm whitens one copy of it in place,
    # WHITEN_CHUNK entries per product, and allocates little beyond it
    geo = make_geometry({"U": 8}, seed=23)
    slots = [("U", CONTRA), ("U", COV)] * 3 + [("U", COV)]
    rng = np.random.default_rng(24)
    if layout == "strided":     # a slice: no axis order makes it contiguous
        data = rng.uniform(-1, 1, (8,) * 6 + (9,))[..., 1:]
    else:
        data = rng.uniform(-1, 1, (8,) * 7)
    t = FieldTensor(geo.chart, slots, data[None], 0)
    if layout == "transposed":
        t = t.permuted([6, 2, 0, 4, 1, 5, 3])
    a = geo.value(t)
    assert a.data.flags.c_contiguous == (layout == "contiguous")
    tracemalloc.start()
    try:
        got = a.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * a.data.nbytes
    assert got == pytest.approx(math.sqrt(_explicit_inner(a, a)), rel=1e-12)


def _brute_symmetrized(data, axes):
    """The average of `data` over every rearrangement of `axes`."""
    axes = list(axes)
    total = np.zeros_like(data)
    perms = list(itertools.permutations(range(len(axes))))
    for p in perms:
        order = list(range(data.ndim))
        for i, pi in enumerate(p):
            order[axes[i]] = axes[pi]
        total += np.transpose(data, order)
    return total / len(perms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sym_axes_data_is_the_permutation_average(dim, k):
    rng = np.random.default_rng(10 * dim + k)
    # trailing axes, after two series-like leading axes
    data = rng.standard_normal((3, 2) + (dim,) * k)
    axes = range(2, 2 + k)
    assert np.allclose(tc.sym_axes_data(data, axes),
                       _brute_symmetrized(data, axes), rtol=0, atol=1e-14)
    # non-adjacent axes, interleaved with axes of another dimension
    shape, axes = [dim + 1], []
    for _ in range(k):
        axes.append(len(shape))
        shape += [dim, 2]
    data = rng.standard_normal(shape)
    assert np.allclose(tc.sym_axes_data(data, axes),
                       _brute_symmetrized(data, axes), rtol=0, atol=1e-14)


def test_sym_orbit_tables_are_cached_and_read_only():
    inverse, counts = tc._sym_orbits(3, 3)
    assert tc._sym_orbits(3, 3)[0] is inverse
    assert counts.sum() == 27 and len(counts) == math.comb(5, 3)
    with pytest.raises(ValueError):
        inverse[0] = 1
    with pytest.raises(ValueError):
        counts[0] = 7


def test_sym_rank_misses_on_a_non_idempotent_symmetrizer(monkeypatch):
    real = tc.sym_axes_data
    # symmetric but not a projector: (1 + Sym) / 2
    monkeypatch.setattr(tc, "sym_axes_data",
                        lambda data, axes: 0.5 * (data + real(data, axes)))
    for dim, k in ((2, 2), (3, 3), (4, 4)):
        assert tc.sym_rank(dim, k) == -1
