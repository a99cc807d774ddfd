import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import tensor_core as tc
from jetcalc.tensor_core import CONTRA, COV, DenseTensor, SpaceRegistry


def make_registry(dims, seed=0, orthonormal=False):
    reg = SpaceRegistry()
    rng = np.random.default_rng(seed)
    for name, dim in dims.items():
        if orthonormal:
            reg.add(name, dim)
        else:
            a = rng.uniform(-0.3, 0.3, size=(dim, dim))
            reg.add(name, dim, np.eye(dim) + 0.5 * (a + a.T))
    return reg


def test_space_validation():
    with pytest.raises(ValueError):
        tc.VectorSpaceSpec(2, [[1.0, 0.5], [0.4, 1.0]])     # not symmetric
    with pytest.raises(ValueError):
        tc.VectorSpaceSpec(2, [[1.0, 2.0], [2.0, 1.0]])     # not positive


def test_basis_product():
    reg = make_registry({"V": 2}, orthonormal=True)
    e1 = DenseTensor(reg, [("V", COV)], [1.0, 0.0])
    e2 = DenseTensor(reg, [("V", COV)], [0.0, 1.0])
    p = tc.tensor_product(e1, e2)
    want = np.zeros((2, 2))
    want[0, 1] = 1.0
    assert np.array_equal(p.data, want)


def test_product_norm_multiplicative():
    reg = make_registry({"V": 3, "W": 2}, seed=5)
    a = tc.random_tensor(reg, [("V", COV)] * 3, 11)
    b = tc.random_tensor(reg, [("W", COV), ("V", CONTRA)], 12)
    assert tc.tensor_product(a, b).norm() == pytest.approx(
        a.norm() * b.norm(), rel=1e-12)


def test_product_with_zero():
    reg = make_registry({"V": 2})
    a = tc.random_tensor(reg, [("V", COV)], 1)
    z = tc.random_tensor(reg, [("V", COV)], 2, scale=0.0)
    assert tc.tensor_product(a, z).norm() == 0.0


def test_symmetrize_pair():
    reg = make_registry({"V": 2}, orthonormal=True)
    e12 = DenseTensor(reg, [("V", COV)] * 2, [[0, 1], [0, 0]])
    s = tc.symmetrize(e12)
    assert np.allclose(s.data, [[0, 0.5], [0.5, 0]])


def test_symmetrize_projection_fixed_point():
    reg = make_registry({"V": 3}, seed=9)
    a = tc.symmetrize(tc.random_tensor(reg, [("V", COV)] * 3, 21))
    again = tc.symmetrize(a)
    assert np.allclose(a.data, again.data, atol=1e-14)


def test_symmetrize_contracts_norm():
    reg = make_registry({"V": 3}, seed=2)
    a = tc.random_tensor(reg, [("V", COV)] * 3, 3)
    assert tc.symmetrize(a).norm() <= a.norm() + 1e-12


def test_symmetrize_rejects_mixed():
    reg = make_registry({"V": 2})
    a = tc.random_tensor(reg, [("V", COV), ("V", CONTRA)], 4)
    with pytest.raises(ValueError):
        tc.symmetrize(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_symmetrize_is_orthogonal_projection(seed):
    reg = make_registry({"V": 3}, seed=seed % 17)
    a = tc.random_tensor(reg, [("V", COV)] * 3, seed)
    s = tc.symmetrize(tc.random_tensor(reg, [("V", COV)] * 3, seed + 1))
    assert tc.inner_product(tc.symmetrize(a), s) == pytest.approx(
        tc.inner_product(a, s), abs=1e-10)


def test_sym_product_pair():
    reg = make_registry({"V": 3}, seed=8)
    al = tc.random_tensor(reg, [("V", COV)], 31)
    be = tc.random_tensor(reg, [("V", COV)], 32)
    p = tc.sym_product(al, be)
    want = np.multiply.outer(al.data, be.data) \
        + np.multiply.outer(be.data, al.data)
    assert np.allclose(p.data, want)


def test_shuffle_cardinality():
    assert len(tc.shuffles(2, 1)) == 3
    assert len(tc.shuffles(3, 2)) == math.comb(5, 3)


def test_sym_product_associative_brute():
    reg = make_registry({"V": 3}, seed=4)
    al, be, ga = (tc.random_tensor(reg, [("V", COV)], 40 + i)
                  for i in range(3))
    lhs = tc.sym_product(tc.sym_product(al, be), ga)
    # brute force: sum over all 3! argument orderings of the triple product
    outer = np.multiply.outer(np.multiply.outer(al.data, be.data), ga.data)
    import itertools
    acc = np.zeros_like(outer)
    for p in itertools.permutations(range(3)):
        acc += tc.apply_perm(outer, list(p))
    assert np.allclose(lhs.data, acc, atol=1e-12)


def test_sym_product_alt_formula():
    reg = make_registry({"V": 2}, seed=6)
    a = tc.symmetrize(tc.random_tensor(reg, [("V", COV)] * 2, 50))
    b = tc.random_tensor(reg, [("V", COV)], 51)
    lhs = tc.sym_product(a, b)
    rhs = tc.symmetrize(tc.tensor_product(a, b)) * (math.factorial(3) /
                                                    (math.factorial(2)))
    assert np.allclose(lhs.data, rhs.data, atol=1e-10)


def test_insert_vector_case():
    reg = make_registry({"V": 3}, seed=3)
    a = tc.random_tensor(reg, [("V", COV)] * 2, 60)
    v = tc.random_tensor(reg, [("V", CONTRA)], 61)
    got = tc.substitute(a, 0, _vector_as_structure(v, reg))
    want = np.tensordot(v.data, a.data, axes=([0], [0]))
    assert np.allclose(got.data, want)


def _vector_as_structure(v, reg):
    # a (1,0)-tensor as the degenerate structure [value]; substitution with
    # no argument slots just pins the slot
    return v


def test_insert_identity_is_noop():
    reg = make_registry({"V": 3}, seed=3)
    a = tc.random_tensor(reg, [("V", COV)] * 3, 62)
    ident = tc.identity_tensor(reg, "V")
    got = tc.insert(a, ident, 2)
    assert np.allclose(got.data, a.data)


def test_insert_matches_nested_evaluation():
    reg = make_registry({"V": 2}, seed=7, orthonormal=True)
    rng = np.random.default_rng(123)
    a = tc.random_tensor(reg, [("V", COV)] * 2, 63)
    s = tc.random_tensor(reg, [("V", CONTRA), ("V", COV), ("V", COV)], 64)
    ins = tc.insert(a, s, 1)
    for _ in range(20):
        v = rng.uniform(-1, 1, size=(3, 2))
        lhs = ins.data
        for vec in v:
            lhs = np.tensordot(lhs, vec, axes=([0], [0]))
        sval = np.einsum("abc,b,c->a", s.data, v[0], v[2])
        rhs = np.einsum("ab,a,b->", a.data, sval, v[1])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_push_identity_and_swap():
    reg = make_registry({"V": 2}, seed=1)
    al = tc.random_tensor(reg, [("V", COV)], 71)
    be = tc.random_tensor(reg, [("V", COV)], 72)
    t = tc.tensor_product(al, be)
    assert np.allclose(tc.push(t, 1, 1).data, t.data)
    swapped = tc.push(t, 1, 2)
    assert np.allclose(swapped.data, np.multiply.outer(be.data, al.data))


def test_push_norm_preserving():
    reg = make_registry({"V": 3}, seed=13)
    a = tc.random_tensor(reg, [("V", COV)] * 3, 73)
    assert tc.push(a, 1, 3).norm() == pytest.approx(a.norm(), rel=1e-12)
    assert tc.push(a, 3, 1).norm() == pytest.approx(a.norm(), rel=1e-12)


def test_derivation_on_scalar_vanishes():
    reg = make_registry({"V": 2}, seed=0)
    s = tc.random_tensor(reg, [("V", CONTRA), ("V", COV), ("V", COV)], 81)
    scalar = DenseTensor(reg, (), np.array(3.5))
    assert tc.derivation_DS(s, scalar).norm() == 0.0


def test_derivation_on_vector_evaluates():
    reg = make_registry({"V": 3}, seed=0)
    amap = tc.random_tensor(reg, [("V", CONTRA), ("V", COV)], 82)
    v = tc.random_tensor(reg, [("V", CONTRA)], 83)
    got = tc.derivation_DS(amap, v)
    want = np.tensordot(amap.data, v.data, axes=([1], [0]))
    assert np.allclose(got.data, want)


def test_contract_eval_is_final_insertion():
    reg = make_registry({"V": 2}, seed=0)
    a = tc.random_tensor(reg, [("V", CONTRA), ("V", COV), ("V", COV)], 84)
    b = tc.random_tensor(reg, [("V", CONTRA), ("V", COV)], 85)
    got = tc.contract_eval(a, b)
    want = tc.substitute(a, 2, b)
    assert np.allclose(got.data, want.data)
    ident = tc.identity_tensor(reg, "V")
    assert np.allclose(tc.contract_eval(a, ident).data, a.data)


def test_delta_split_examples():
    reg = make_registry({"V": 3}, seed=5)
    al = tc.random_tensor(reg, [("V", COV)], 91)
    be = tc.random_tensor(reg, [("V", COV)], 92)
    ab = tc.sym_product(al, be)
    split11 = tc.delta_split(ab, 1, 1)
    # the weighted shuffle sum acts as the identity on a symmetric input: on
    # the two-form al (.) be it returns the full symmetric product, i.e. two
    # copies of the half-sum Sym(al (x) be)
    want = (np.multiply.outer(al.data, be.data)
            + np.multiply.outer(be.data, al.data))
    assert np.allclose(split11.data, want)
    # r = 0 keeps the tensor
    a3 = tc.symmetrize(tc.random_tensor(reg, [("V", COV)] * 3, 93))
    assert np.allclose(tc.delta_split(a3, 0, 3).data, a3.data)
    # roundtrip: fully symmetrizing the split recovers the input exactly
    split = tc.delta_split(a3, 2, 1)
    assert np.allclose(tc.symmetrize(split).data, a3.data, atol=1e-12)


def test_delta_split_rejects_asymmetric():
    reg = make_registry({"V": 2})
    a = tc.random_tensor(reg, [("V", COV)] * 2, 94)
    with pytest.raises(ValueError):
        tc.delta_split(a, 1, 1)


def test_identity_norm():
    for dim in (2, 3, 5):
        reg = make_registry({"V": dim}, seed=dim)
        assert tc.identity_tensor(reg, "V").norm() == pytest.approx(
            math.sqrt(dim), rel=1e-12)


def test_evaluation_bound_and_opnorm():
    reg = make_registry({"U": 3, "V": 4}, seed=14)
    L = tc.random_tensor(reg, [("V", CONTRA), ("U", COV)], 95)
    u = tc.random_tensor(reg, [("U", CONTRA)], 96)
    lu = tc.apply_map(L, 1, u)
    assert lu.norm() <= L.norm() * u.norm() + 1e-12
    ru = np.linalg.cholesky(reg["U"].gram).T
    rv = np.linalg.cholesky(reg["V"].gram).T
    op = np.linalg.svd(rv @ L.data @ np.linalg.inv(ru),
                       compute_uv=False)[0]
    assert L.norm() <= math.sqrt(3) * op + 1e-10


def test_frobenius_euclidean_reduction():
    reg = make_registry({"V": 3}, orthonormal=True)
    a = tc.random_tensor(reg, [("V", COV)] * 2, 97)
    assert a.norm() == pytest.approx(float(np.linalg.norm(a.data)), rel=1e-13)


def test_random_tensor_determinism():
    reg = make_registry({"V": 3})
    a = tc.random_tensor(reg, [("V", COV)] * 2, 7)
    b = tc.random_tensor(reg, [("V", COV)] * 2, 7)
    c = tc.random_tensor(reg, [("V", COV)] * 2, 8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    z = tc.random_tensor(reg, [("V", COV)] * 2, 7, scale=0.0)
    assert z.norm() == 0.0


def test_sym_rank_binomial():
    for dim in (2, 3, 4):
        for k in (1, 2, 3, 4):
            reg = make_registry({"V": dim}, orthonormal=True)
            assert tc.sym_rank(reg, "V", k) == math.comb(dim + k - 1, k)


def _explicit_inner(a, b):
    """sum over all indices of a * b weighted by one Gram per slot."""
    x = b.data
    for ax, slot in enumerate(a.slots):
        spec = a.registry[slot.space]
        g = spec.gram if slot.variance == CONTRA else spec.gram_inv
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
    reg = make_registry({"U": 2, "V": 3}, seed=21, orthonormal=orthonormal)
    a = tc.random_tensor(reg, slots, 101)
    b = tc.random_tensor(reg, slots, 102)
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
    reg = make_registry({"U": 2, "V": 3}, seed=22)
    a = tc.random_tensor(reg, [("V", COV), ("U", CONTRA), ("V", CONTRA)], 103)
    p = a.permuted([2, 0, 1])
    assert not p.data.flags.c_contiguous
    assert p.norm() == pytest.approx(math.sqrt(_explicit_inner(p, p)),
                                     rel=1e-12)
    assert p.norm() == pytest.approx(a.norm(), rel=1e-12)


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
def test_gram_norm_holds_no_second_copy(layout):
    # a 2 M-entry (16 MB) tensor: its norm whitens it block by block and
    # may not allocate anything near a second copy of it
    reg = make_registry({"U": 8}, seed=23)
    slots = [("U", CONTRA), ("U", COV)] * 3 + [("U", COV)]
    rng = np.random.default_rng(24)
    if layout == "strided":     # a slice: no axis order makes it contiguous
        data = rng.uniform(-1, 1, (8,) * 6 + (9,))[..., 1:]
    else:
        data = rng.uniform(-1, 1, (8,) * 7)
    a = DenseTensor(reg, slots, data)
    if layout == "transposed":
        a = a.permuted([6, 2, 0, 4, 1, 5, 3])
    assert a.data.flags.c_contiguous == (layout == "contiguous")
    tracemalloc.start()
    try:
        got = a.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.data.nbytes / 2
    assert got == pytest.approx(math.sqrt(_explicit_inner(a, a)), rel=1e-12)
