import marshal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import taylor
from jetcalc.fields import TAN, Chart, FieldTensor, identity_field, random_field
from jetcalc.tensor_core import CONTRA, COV
from jetcalc.taylor import (TaylorContext, TaylorScalar, derive, expand,
                            eval_expr, finite_difference_check, parse_expr,
                            partial)


def test_constant_expansion():
    t = expand("7", [0.3, 0.4], 3)
    assert t.coeffs[0] == 7.0
    assert np.all(t.coeffs[1:] == 0.0)


def test_geometric_series():
    t = expand("(/ 1 (+ 1 (* x1 x1)))", [0.0], 4)
    assert np.allclose(t.coeffs, [1, 0, -1, 0, 1], atol=1e-14)


def test_exp_series():
    t = expand("(exp x1)", [0.0], 3)
    assert np.allclose(t.coeffs, [1, 1, 0.5, 1 / 6], atol=1e-15)


def test_derive_power():
    t = expand("(* x1 x1)", [0.0], 3)
    d = derive(t, 0)
    assert np.allclose(d.coeffs, [0, 2, 0], atol=1e-15)


def test_derive_sin_matches_cos():
    s = derive(expand("(sin x1)", [0.0], 5), 0)
    c = expand("(cos x1)", [0.0], 4)
    assert np.allclose(s.coeffs, c.coeffs, atol=1e-14)


def test_mixed_partials_commute():
    t = expand("(* x1 x2)", [0.1, -0.2], 3)
    assert partial(t, (1, 1)) == pytest.approx(1.0)
    a = derive(derive(t, 0), 1)
    b = derive(derive(t, 1), 0)
    assert np.allclose(a.coeffs, b.coeffs)


def _derive_add_at(ctx, a, da, var):
    """Reference derivative: scatter-add along the index map I -> I - e_var."""
    dd = da - 1
    out = np.zeros((ctx.size(dd),) + a.shape[1:])
    src, dst, fac = ctx._dmaps[var]
    keep = ctx.orders[dst] <= dd
    src, dst, fac = src[keep], dst[keep], fac[keep]
    np.add.at(out, dst, fac.reshape((-1,) + (1,) * (a.ndim - 1)) * a[src])
    return out


@pytest.mark.parametrize("nvars", [1, 2, 4])
def test_derive_matches_scatter_add_reference(nvars):
    ctx = TaylorContext(nvars, 5)
    rng = np.random.Generator(np.random.PCG64(nvars))
    for da in range(1, 6):
        for tail in ((), (3,), (2, 3)):
            a = rng.uniform(-1, 1, (ctx.size(da),) + tail)
            for var in range(nvars):
                assert np.array_equal(ctx.derive(a, da, var),
                                      _derive_add_at(ctx, a, da, var))


def test_partial_geometric():
    t = expand("(/ 1 (+ 1 (* x1 x1)))", [0.0], 4)
    assert partial(t, (2,)) == pytest.approx(-2.0)
    assert partial(expand("5", [0.0], 3), (2,)) == 0.0


def test_partial_monomial_normalisation():
    # x^3 / 3! has unit third partial
    t = expand("(* 0.16666666666666666 (* x1 (* x1 x1)))", [0.0], 4)
    assert partial(t, (3,)) == pytest.approx(1.0, abs=1e-12)


def test_partial_degree_guard():
    t = expand("(exp x1)", [0.0], 2)
    with pytest.raises(ValueError):
        partial(t, (3,))


def test_fd_smooth_polynomial():
    assert finite_difference_check(
        "(+ (* x1 (* x1 x2)) (* x2 x2))", [0.3, -0.2], (1, 1), 1e-4) < 1e-6


def test_fd_linear_exact():
    assert finite_difference_check("(+ (* 2 x1) x2)", [0.1, 0.2], (1, 0),
                                   1e-3) < 1e-10


def test_fd_third_order():
    assert finite_difference_check("(sin x1)", [0.0], (3,), 1e-3) < 1e-6


def test_fd_check_parses_its_expression_once(monkeypatch):
    parsed = []
    parse = taylor.parse_expr
    monkeypatch.setattr(taylor, "parse_expr",
                        lambda text: parsed.append(text) or parse(text))
    e = "(* (sin x1) (exp x2))"
    assert finite_difference_check(e, [0.2, -0.1], (1, 1), 1e-3) < 1e-6
    assert parsed == [e]


def test_reciprocal_requires_nonzero():
    with pytest.raises(ZeroDivisionError):
        expand("(/ 1 x1)", [0.0], 3)


def test_expand_rejects_a_variable_outside_the_base_point():
    with pytest.raises(ValueError, match="x3 outside a 2-point"):
        expand("(+ 1 x3)", [0.1, 0.2], 2)


def test_parser_rejects_garbage():
    for bad in ("(+ 1", "())", "(frob x1)", "(+ 1 2))"):
        with pytest.raises(ValueError):
            parse_expr(bad)


def test_eval_expr_matches_expansion_value():
    e = "(* (exp (* 0.3 x1)) (cos x2))"
    pt = [0.4, -0.7]
    assert eval_expr(e, pt) == pytest.approx(expand(e, pt, 2).value)


def test_eval_expr_rejects_a_negative_power_as_expand_does():
    # x1^-2 has a value at x1 = 0.5, but no series that `expand` forms
    for f in (lambda e: eval_expr(e, [0.5]), lambda e: expand(e, [0.5], 2)):
        with pytest.raises(ValueError, match="only nonnegative integer "
                                             "powers are supported"):
            f("(^ x1 -2)")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_ring_distributive(sa, sb, sc):
    ctx = TaylorContext(2, 4)
    rng = np.random.default_rng([sa, sb, sc])

    def rand():
        return TaylorScalar(ctx, 4, rng.uniform(-1, 1, ctx.size(4)))

    a, b, c = rand(), rand(), rand()
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_leibniz_exact_on_truncations(seed):
    ctx = TaylorContext(2, 5)
    rng = np.random.default_rng(seed)
    a = TaylorScalar(ctx, 5, rng.uniform(-1, 1, ctx.size(5)))
    b = TaylorScalar(ctx, 5, rng.uniform(-1, 1, ctx.size(5)))
    lhs = derive(a * b, 1)
    rhs = derive(a, 1) * b + a * derive(b, 1)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_chain_rule_composition():
    inner = expand("(sin x1)", [0.3], 6)
    outer = expand("(exp x1)", [inner.value], 6)
    direct = expand("(exp (sin x1))", [0.3], 6)
    assert np.allclose(outer.compose_args([inner]).coeffs, direct.coeffs,
                       atol=1e-12)


def test_same_seed_reproducible_context():
    c1 = TaylorContext(3, 4)
    c2 = TaylorContext(3, 4)
    assert c1.indices == c2.indices


def _pairwise_contract(ctx, a, da, b, db, axes_a, axes_b, dout):
    """Reference: one tensordot per (i, j, k) coefficient triple."""
    dout = min(dout, da, db)
    pi, pj, pk = ctx.pair_arrays(da, db, dout)
    blocks = [np.tensordot(a[i], b[j], axes=(axes_a, axes_b))
              for i, j in zip(pi, pj)]
    out = np.zeros((ctx.size(dout),) + blocks[0].shape)
    for k, block in zip(pk, blocks):
        out[k] += block
    return out


# (shape of a's blocks, shape of b's blocks, axes_a, axes_b)
_CONTRACT_CASES = [
    ((), (), [], []),
    ((3,), (2, 2), [], []),
    ((3, 4), (4, 2), [1], [0]),
    ((2, 3, 4), (4, 5, 3), [2, 1], [0, 2]),
    # 4 x 16 output blocks: at the default budget the runs of equal k of
    # more than one variable are padded and cut into several chunks
    ((4, 8), (8, 16), [1], [0]),
]


#: the default budget; one that holds a few runs per chunk, or sends blocks
#: of more than 5 floats down the one-pair-at-a-time path; and 0, which
#: sends every pair down that path
_BUDGETS = [taylor.CHUNK_FLOATS, 5, 0]


def _strided(x):
    """The same values as x, as a view whose block axes are not in memory
    order (x itself when a block has fewer than two axes)."""
    if x.ndim < 3:
        return x
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 1, -1)), 1, -1)


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("nvars", [1, 2, 4])
@pytest.mark.parametrize("case", _CONTRACT_CASES)
def test_contract_matches_pairwise_reference(monkeypatch, budget, nvars,
                                             case):
    monkeypatch.setattr(taylor, "CHUNK_FLOATS", budget)
    dims_a, dims_b, axes_a, axes_b = case
    ctx = TaylorContext(nvars, 4)
    rng = np.random.default_rng(nvars)
    # operands in memory order, and as strided views
    for layout in (np.asarray, _strided):
        for da, db, dout in [(4, 4, 4), (4, 3, 3), (3, 4, 1), (4, 4, 0)]:
            a = layout(rng.uniform(-1, 1, (ctx.size(da),) + dims_a))
            b = layout(rng.uniform(-1, 1, (ctx.size(db),) + dims_b))
            got = ctx.contract(a, da, b, db, axes_a, axes_b, dout)
            want = _pairwise_contract(ctx, a, da, b, db, axes_a, axes_b,
                                      dout)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_pair_table_grouped_by_output():
    ctx = TaylorContext(3, 4)
    for da, db, dout in [(4, 4, 4), (4, 2, 3), (1, 4, 2)]:
        pk = ctx.pair_arrays(da, db, dout)[2]
        assert np.all(np.diff(pk) >= 0)


def test_contexts_of_one_shape_share_pair_tables():
    c1, c2 = TaylorContext(3, 4), TaylorContext(3, 4)
    for x, y in zip(c1.pair_arrays(4, 3, 3), c2.pair_arrays(4, 3, 3)):
        assert x is y and not x.flags.writeable
    # degrees above the cap read the same table as the cap itself
    assert c1.pair_arrays(9, 3, 3) is c2.pair_arrays(4, 3, 3)


def test_cold_and_warm_contractions_agree_bitwise():
    ctx = TaylorContext(2, 4)
    rng = np.random.default_rng(5)
    # (dims_a, dims_b, axes_a, axes_b, b's entries that are -0.0): products
    # of -0.0 must sum to 0.0, as into a zeroed output
    cases = [((3, 4), (4, 2), [1], [0], (..., 0)),
             ((3,), (2,), [], [], (..., 0)),
             # padded runs in several chunks, every product -0.0
             ((4, 8), (8, 16), [1], [0], ...)]
    for dims_a, dims_b, axes_a, axes_b, zeros in cases:
        a = rng.uniform(0.5, 1, (ctx.size(4),) + dims_a)
        b = rng.uniform(-1, 1, (ctx.size(3),) + dims_b)
        b[zeros] = -0.0
        for cache in (taylor._contract_plan, taylor._grouped_chunks,
                      taylor._padded_runs, taylor._pair_tables):
            cache.cache_clear()
        cold = ctx.contract(a, 4, b, 3, axes_a, axes_b)
        warm = ctx.contract(a, 4, b, 3, axes_a, axes_b)
        assert cold.tobytes() == warm.tobytes()
        assert not np.signbit(cold[zeros]).any()
        want = _pairwise_contract(ctx, a, 4, b, 3, axes_a, axes_b, 3)
        assert np.allclose(cold, want, rtol=0, atol=1e-13)


def _runs(chunk):
    return sum(g for _, g, _, _ in chunk[2])


def test_plan_follows_the_chunk_budget(monkeypatch):
    # a plan made under the default budget must not serve a smaller one
    ctx = TaylorContext(3, 4)
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (ctx.size(4), 2))
    b = rng.uniform(-1, 1, (ctx.size(4), 2))
    plans = []
    plan_of = taylor._contract_plan

    def spy(*args):
        plans.append(plan_of(*args))
        return plans[-1]

    monkeypatch.setattr(taylor, "_contract_plan", spy)
    ctx.contract(a, 4, b, 4, [0], [0])
    monkeypatch.setattr(taylor, "CHUNK_FLOATS", 5)
    got = ctx.contract(a, 4, b, 4, [0], [0])
    default, small = plans
    assert len(default.chunks) == 1
    assert len(small.chunks) > len(default.chunks)
    # 2-float blocks of a and b: at most 2 padded pairs in a chunk, unless
    # one longer run fills it alone
    assert all(len(c[0]) <= 2 or _runs(c) == 1 for c in small.chunks)
    want = _pairwise_contract(ctx, a, 4, b, 4, [0], [0], 4)
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_grouped_chunks_cover_every_pair_once():
    # every run of equal k lands in one chunk, padded to a power of two
    # (at least 2) by pairs that read the zero block after a's blocks
    ctx = TaylorContext(4, 4)
    key = ctx._pair_key(4, 4, 4)
    pi, pj, pk = taylor._pair_tables(*key)
    ti, tj, width, targets = taylor._padded_runs(key)
    assert not any(x.flags.writeable for x in (ti, tj, width, targets))
    zero = ctx.size(4)
    assert (ti == zero).any()
    chunks = taylor._grouped_chunks(key, 128, 256)
    assert len(chunks) > 1
    seen, end = [], 0
    for chunk in chunks:
        cti, ctj, groups = chunk
        assert len(cti) <= 128 or _runs(chunk) == 1
        # consecutive views of the shared tables
        assert np.shares_memory(cti, ti) and np.array_equal(
            cti, ti[end:end + len(cti)])
        end += len(cti)
        for sub, g, m, dest in groups:
            assert m >= 2 and m & (m - 1) == 0
            rows = np.arange(len(cti))[sub].reshape(g, m)
            for row, k in zip(rows, np.arange(ctx.size(4))[dest]):
                lo, hi = np.searchsorted(pk, [k, k + 1])
                assert m // 2 < max(hi - lo, 2) <= m
                assert np.array_equal(cti[row[:hi - lo]], pi[lo:hi])
                assert np.array_equal(ctj[row[:hi - lo]], pj[lo:hi])
                assert (cti[row[hi - lo:]] == zero).all()
                seen.append(int(k))
    assert end == len(ti)
    assert sorted(seen) == list(range(ctx.size(4)))


def test_leading_coefficients_do_not_depend_on_the_table():
    # a run is padded by its own length only, so the coefficients through
    # degree 2 read the same bits whatever degree the table runs to
    rng = np.random.default_rng(8)
    for nvars in (1, 2, 3):
        small, big = TaylorContext(nvars, 2), TaylorContext(nvars, 6)
        for dims_a, dims_b, axes_a, axes_b in _CONTRACT_CASES[1:]:
            a = rng.uniform(-1, 1, (big.size(6),) + dims_a)
            b = rng.uniform(-1, 1, (big.size(6),) + dims_b)
            got = big.contract(a, 6, b, 6, axes_a, axes_b)
            want = small.contract(a[:small.size(2)], 2, b[:small.size(2)], 2,
                                  axes_a, axes_b)
            assert got[:small.size(2)].tobytes() == want.tobytes()


def test_plans_of_one_pair_table_share_their_index_tables():
    # block shapes with the same budgets share the chunks, and every budget
    # cuts the one padded table of the pair table
    ctx = TaylorContext(2, 4)
    key = ctx._pair_key(4, 4, 4)
    p1 = taylor._contract_plan(key, taylor.CHUNK_FLOATS, (3, 4), (4, 2),
                               (1,), (0,))
    p2 = taylor._contract_plan(key, taylor.CHUNK_FLOATS, (4, 3), (4, 2),
                               (0,), (0,))
    p3 = taylor._contract_plan(key, 40, (3, 4), (4, 2), (1,), (0,))
    assert p1 is not p2 and p1.chunks is p2.chunks
    assert len(p3.chunks) > len(p1.chunks)
    ti = taylor._padded_runs(key)[0]
    for plan in (p1, p3):
        assert sum(len(c[0]) for c in plan.chunks) == len(ti)
        assert all(np.shares_memory(c[0], ti) for c in plan.chunks)


def test_mul_clips_the_output_degree():
    ctx = TaylorContext(2, 4)
    rng = np.random.default_rng(4)
    a = rng.uniform(-1, 1, ctx.size(4))
    b = rng.uniform(-1, 1, ctx.size(2))
    got = ctx.mul(a, 4, b, 2, 4)
    assert got.shape == (ctx.size(2),)
    assert np.array_equal(got, ctx.mul(a, 4, b, 2))
    assert np.array_equal(got, ctx.contract(a, 4, b, 2, [], [], 4))


@pytest.mark.parametrize("budget", _BUDGETS)
def test_mul_and_scale_series_match_reference(monkeypatch, budget):
    monkeypatch.setattr(taylor, "CHUNK_FLOATS", budget)
    chart = Chart([0.2, -0.1], 4)
    ctx = chart.ctx
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, ctx.size(4))
    b = rng.uniform(-1, 1, ctx.size(3))
    want = _pairwise_contract(ctx, a, 4, b, 3, [], [], 3)
    assert np.allclose(ctx.mul(a, 4, b, 3), want, rtol=0, atol=1e-13)
    s = TaylorScalar(ctx, 3, b)
    T = FieldTensor(chart, [(TAN, COV), (TAN, COV)],
                    rng.uniform(-1, 1, (ctx.size(4), 2, 2)), 4)
    got = T.scale_series(s)
    assert got.degree == 3 and got.slots == T.slots
    want = _pairwise_contract(ctx, b, 3, T.data, 4, [], [], 3)
    assert np.allclose(got.data, want, rtol=0, atol=1e-13)


#: strided operands under chunk budgets of one float (every tensor pair one
#: at a time), a few floats (small blocks batched, larger ones one at a
#: time), and a few whole blocks per chunk
@pytest.mark.parametrize("block", [1, 7, 24])
@pytest.mark.parametrize("case", _CONTRACT_CASES)
def test_pair_blocks_match_pairwise_reference(monkeypatch, block, case):
    monkeypatch.setattr(taylor, "CHUNK_FLOATS", block)
    dims_a, dims_b, axes_a, axes_b = case
    ctx = TaylorContext(2, 3)
    rng = np.random.default_rng(block)
    for da, db, dout in [(3, 3, 3), (3, 2, 1)]:
        a = _strided(rng.uniform(-1, 1, (ctx.size(da),) + dims_a))
        b = _strided(rng.uniform(-1, 1, (ctx.size(db),) + dims_b))
        got = ctx.contract(a, da, b, db, axes_a, axes_b, dout)
        want = _pairwise_contract(ctx, a, da, b, db, axes_a, axes_b, dout)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("big", ["a", "b"])
def test_one_pair_contraction_memory_is_bounded(big):
    # one coefficient pair whose strided 4 M-float map (32 MB) is contracted
    # against a small operand: the kernel may allocate its output, one
    # contiguous copy of the map and one product, nothing more
    ctx = TaylorContext(2, 2)
    rng = np.random.default_rng(3)
    m = np.swapaxes(rng.uniform(-1, 1, (1, 16, 64, 64, 64)), 1, -1)
    v = rng.uniform(-1, 1, (1, 64, 16, 2))
    tracemalloc.start()
    try:
        if big == "a":      # apply a map: (64, 64) free, (64, 16) contracted
            got = ctx.contract(m, 0, v, 0, [2, 3], [0, 1], 0)
        else:               # the big side is b: its leading axis contracted
            got = ctx.contract(v, 0, m, 0, [0], [0], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * got.nbytes + m.nbytes + 2**20
    if big == "a":
        want = np.tensordot(m[0], v[0], axes=([2, 3], [0, 1]))
    else:
        want = np.tensordot(v[0], m[0], axes=([0], [0]))
    assert np.allclose(got[0], want, rtol=0, atol=1e-11)


@pytest.mark.parametrize("constant_first", [False, True])
@pytest.mark.parametrize("identity", [False, True])
def test_constant_factor_product_equals_contract(constant_first, identity):
    """A constant second factor takes the outer-product path, a constant
    first factor the kernel; both equal `contract` exactly."""
    chart = Chart([0.2, -0.1, 0.3], 4)
    ctx = chart.ctx
    T = random_field(chart, [(TAN, COV), (TAN, CONTRA)], (3, 3), 5)
    if identity:
        K = identity_field(chart, TAN, 3, 3)
    else:
        K = random_field(chart, [(TAN, CONTRA)], (3,), 6, degree=3)
        K.data[1:] = 0.0
    x, y = (K, T) if constant_first else (T, K)
    got = x.product(y)
    d = min(x.degree, y.degree)
    want = ctx.contract(ctx.truncate(x.data, d), d, ctx.truncate(y.data, d),
                        d, [], [], d)
    assert got.degree == d and got.slots == x.slots + y.slots
    assert got.data.shape == want.shape
    assert np.array_equal(got.data, want)


def test_parser_rejects_operators_without_arguments_and_x0():
    for bad in ("(+)", "(-)", "(*)", "(/)", "x0", "(+ 1 x0)"):
        with pytest.raises(ValueError):
            parse_expr(bad)


def _unmemoised(expr, base, degree, ctx=None):
    """The coefficient bytes of `expand` computed without its memo."""
    base = np.asarray(base, dtype=float)
    nvars, cap = (len(base), degree) if ctx is None else (ctx.nvars, ctx.cap)
    return taylor._expansion.__wrapped__(
        marshal.dumps(parse_expr(expr), 2), base.tobytes(), nvars, degree,
        cap).tobytes()


_EXPANSIONS = [
    ("(* (exp (* 0.3 x1)) (cos x2))", [0.4, -0.7], 5, None),
    ("(/ 1 (+ 1 (* x1 x1)))", [0.0], 6, None),
    ("(- (^ (sin x1) 3) (* -0.5 x2 x3))", [0.1, 0.2, -0.3], 4,
     TaylorContext(3, 6)),
    ("(+ x1 0)", [-0.0], 3, TaylorContext(1, 2)),
]


@pytest.mark.parametrize("expr,base,degree,ctx", _EXPANSIONS)
def test_memoised_expansion_equals_an_unmemoised_one(expr, base, degree,
                                                     ctx):
    cold = expand(expr, base, degree, ctx)
    warm = expand(expr, base, degree, ctx)
    assert warm.coeffs is cold.coeffs
    assert warm.degree == cold.degree == degree
    assert cold.coeffs.tobytes() == _unmemoised(expr, base, degree, ctx)


def test_memoised_expansion_refuses_writes():
    t = expand("(sin (+ x1 x2))", [0.3, 0.1], 4)
    for write in (lambda c: c.__setitem__(0, 1.0),
                  lambda c: c.__iadd__(1.0)):
        with pytest.raises(ValueError, match="read-only"):
            write(t.coeffs)
    assert t.coeffs.tobytes() == _unmemoised("(sin (+ x1 x2))", [0.3, 0.1], 4)


# pairs of calls that differ in one part of the key: point (signed zero
# included), degree, cap, variable count, and a signed-zero constant
_KEY_PARTS = {
    "point": (("(exp x1)", [0.1], 3, None), ("(exp x1)", [0.2], 3, None)),
    "point-signed-zero": (("x1", [0.0], 2, None), ("x1", [-0.0], 2, None)),
    "degree": (("(sin x1)", [0.5], 3, TaylorContext(1, 5)),
               ("(sin x1)", [0.5], 4, TaylorContext(1, 5))),
    "cap": (("(cos x1)", [0.5], 5, TaylorContext(1, 3)),
            ("(cos x1)", [0.5], 5, TaylorContext(1, 5))),
    "variable-count": (("(exp x1)", [0.5], 3, TaylorContext(1, 3)),
                       ("(exp x1)", [0.5], 3, TaylorContext(2, 3))),
    "constant-signed-zero": (("(+ 0 0)", [1.0], 2, None),
                             ("(+ -0 -0)", [1.0], 2, None)),
}


@pytest.mark.parametrize("part", sorted(_KEY_PARTS))
@pytest.mark.parametrize("second_first", [False, True])
def test_memo_keeps_every_part_of_its_key_apart(part, second_first):
    calls = _KEY_PARTS[part][::-1] if second_first else _KEY_PARTS[part]
    taylor._expansion.cache_clear()
    got = [expand(*call).coeffs.tobytes() for call in calls]
    assert got == [_unmemoised(*call) for call in calls]
    assert got[0] != got[1]


def test_memoised_expansion_carries_the_callers_ctx():
    ctxs = [TaylorContext(2, 4), TaylorContext(2, 4)]
    got = [expand("(* x1 (exp x2))", [0.2, 0.3], 4, ctx) for ctx in ctxs]
    assert [t.ctx for t in got] == ctxs and got[0] is not got[1]
    assert got[0].coeffs is got[1].coeffs
    chart = Chart([0.2, 0.3], 4)
    assert chart.expand("(* x1 (exp x2))").ctx is chart.ctx


def test_expansion_memo_stays_within_its_bound():
    assert taylor._expansion.cache_info().maxsize == taylor.EXPAND_MEMO
    for i in range(taylor.EXPAND_MEMO + 10):
        expand(float(i), [0.0], 0)
    assert taylor._expansion.cache_info().currsize == taylor.EXPAND_MEMO
