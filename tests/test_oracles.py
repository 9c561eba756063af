"""Independent models checking the engine end to end.

The expansion oracle evaluates a raw term straight into a path -> coeff
dictionary by structural recursion, never touching tries, normalisation
or the product evaluator; wildcard components become explicit path slots.
Agreement of `enumerate_nf(normalize(t))` with the oracle checks the whole
simplification pipeline at once.
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyalg import (
    GF2,
    INT,
    REAL,
    STAR,
    STRING,
    Z,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    Prod,
    Scalar,
    Sum,
    Tensor,
    enumerate_nf,
    fmap,
    multiply,
    naive_multiply,
    nf_equal,
    nf_lookup_path,
    normalize,
    readback,
    tensor_chain,
    weight,
)
from polyalg.normal import InfiniteSupport, PairNF, ScalarNF, has_baseline
from polyalg.terms import (
    AddTerm,
    GenTerm,
    InjGen,
    MapsToGen,
    MulGen,
    OneGen,
    PairGen,
    ScaleTerm,
    TensorGen,
    WildMapsToGen,
    WildOneGen,
    ZeroTerm,
)

from conftest import rand_term, sample_spaces


def expand(t, ring):
    """Path -> coefficient dictionary of a term, by blunt recursion."""
    if isinstance(t, ZeroTerm):
        return {}
    if isinstance(t, AddTerm):
        out = dict(expand(t.lhs, ring))
        for k, v in expand(t.rhs, ring).items():
            out[k] = ring.add(out.get(k, ring.zero), v)
        return out
    if isinstance(t, ScaleTerm):
        return {k: ring.mul(t.coeff, v) for k, v in expand(t.body, ring).items()}
    g = t.gen
    if isinstance(g, OneGen):
        return {(): ring.one}
    if isinstance(g, InjGen):
        return {(g.value,): ring.one}
    if isinstance(g, WildOneGen):
        return {(STAR,): ring.one}
    if isinstance(g, MapsToGen):
        return {(g.key,) + p: v for p, v in expand(g.body, ring).items()}
    if isinstance(g, WildMapsToGen):
        return {(STAR,) + p: v for p, v in expand(g.body, ring).items()}
    if isinstance(g, PairGen):
        out = {(1,) + p: v for p, v in expand(g.lhs, ring).items()}
        for p, v in expand(g.rhs, ring).items():
            out[(2,) + p] = v
        return out
    if isinstance(g, TensorGen):
        out = {}
        right = expand(g.rhs, ring)
        for pl, cl in expand(g.lhs, ring).items():
            for pr, cr in right.items():
                k = pl + pr
                out[k] = ring.add(out.get(k, ring.zero), ring.mul(cl, cr))
        return out
    if isinstance(g, MulGen):
        out = None
        for f in g.factors:
            d = expand(f, ring)
            out = d if out is None else _pointwise_product(out, d, ring)
        return out
    raise AssertionError(g)


def _pointwise_product(da, db, ring):
    """Product of expansions: entries match componentwise, STAR matches
    anything and the surviving key keeps the more specific component."""
    out = {}
    for pa, ca in da.items():
        for pb, cb in db.items():
            key = []
            for xa, xb in zip(pa, pb):
                if xa is STAR:
                    key.append(xb)
                elif xb is STAR or xa == xb:
                    key.append(xa)
                else:
                    key = None
                    break
            if key is None:
                continue
            k = tuple(key)
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(ca, cb))
    return {k: v for k, v in out.items() if not ring.is_zero(v)}


def clean(d, ring):
    return {k: v for k, v in d.items() if not ring.is_zero(v)}


def reference_rows(nf):
    """The rows of a form by recursion over its nodes: at a keyed node the
    baseline, as `STAR`, then the keys in the set's order; a pair's left
    half, tagged 1, before its right, tagged 2; vanishing scalars dropped."""
    space = nf.space
    ring = space.ring
    if isinstance(nf, ScalarNF):
        return [] if ring.is_zero(nf.value) else [((), nf.value)]
    if isinstance(nf, PairNF):
        return ([((1,) + p, c) for p, c in reference_rows(nf.lhs)]
                + [((2,) + p, c) for p, c in reference_rows(nf.rhs)])
    entries = sorted((nf.trie or {}).items(), key=lambda kv: space.prim.sort_key(kv[0]))
    if nf.base is not None:
        entries.insert(0, (STAR, nf.base))
    if space.shape == "free":
        return [((k,), c) for k, c in entries]
    return [((k,) + p, c) for k, v in entries for p, c in reference_rows(v)]


def _same_rows(xs, ys, ring):
    return len(xs) == len(ys) and all(
        p == q and ring.eq(a, b) for (p, a), (q, b) in zip(xs, ys))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([space for ring in (Z, GF2, REAL) for space in sample_spaces(ring)]),
    st.randoms(use_true_random=False),
)
def test_enumeration_order_matches_reference(space, rng):
    # the full row lists, order included: baselines before keys, pair
    # halves in tag order, scalar leaves where they fall
    ring = space.ring
    x, y = (normalize(rand_term(rng, space, size=4)) for _ in range(2))
    want = reference_rows(x)
    assert enumerate_nf(x, allow_baseline=True) == want
    starred = any(STAR in path for path, _ in want)
    if starred:
        with pytest.raises(InfiniteSupport):
            enumerate_nf(x)
    else:
        assert enumerate_nf(x) == want
    assert has_baseline(x) == starred
    again = normalize(readback(x) + readback(y) - readback(y))
    for a, b in ((x, x), (x, y), (y, x), (x, again)):
        assert nf_equal(a, b) == _same_rows(reference_rows(a), reference_rows(b), ring)


def test_normalize_matches_expansion_oracle():
    rng = random.Random(0xBEEF)
    for ring in (Z, GF2):
        for space in sample_spaces(ring):
            for _ in range(8):
                t = rand_term(rng, space, size=4, allow_mul=False)
                want = clean(expand(t, ring), ring)
                got = dict(enumerate_nf(normalize(t), allow_baseline=True))
                assert got == want, (space, t)


def test_normalize_matches_oracle_with_products():
    rng = random.Random(0xF00D)
    spaces = [
        CompactFree(Z, INT),
        CompactFree(GF2, STRING),
        tensor_chain(Z, [INT, STRING], compact=True),
        CompactMap(Z, STRING, CompactFree(Z, INT)),
        tensor_chain(Z, [Sum(STRING, INT), INT], compact=True),
        Tensor(Free(Z, Prod(STRING, INT)), Free(Z, INT)),
    ]
    for space in spaces:
        ring = space.ring
        for _ in range(40):
            t = rand_term(rng, space, size=3, allow_mul=True)
            want = clean(expand(t, ring), ring)
            got = dict(enumerate_nf(normalize(t), allow_baseline=True))
            assert got == want, (space, t)


def test_three_factor_products_match_oracle():
    rng = random.Random(0x7E57)
    spaces = [
        tensor_chain(Z, [INT, INT, INT], compact=True),
        tensor_chain(GF2, [STRING, INT], compact=True),
    ]
    for space in spaces:
        ring = space.ring
        for _ in range(40):
            fs = [rand_term(rng, space, size=3) for _ in range(3)]
            want = expand(fs[0], ring)
            for f in fs[1:]:
                want = _pointwise_product(want, expand(f, ring), ring)
            got = dict(enumerate_nf(multiply(fs), allow_baseline=True))
            assert got == clean(want, ring), fs


def test_real_products_match_oracle_within_tolerance():
    rng = random.Random(0x0DDB)
    space = tensor_chain(REAL, [INT, INT], compact=True)
    for _ in range(30):
        x = rand_term(rng, space, size=3)
        y = rand_term(rng, space, size=3)
        want = _pointwise_product(expand(x, REAL), expand(y, REAL), REAL)
        got = dict(enumerate_nf(multiply([x, y]), allow_baseline=True))
        for k in set(want) | set(got):
            assert REAL.eq(want.get(k, 0.0), got.get(k, 0.0)), k
        # each factor's own form: a chain's tensor generators, built by
        # nf_tensor, against their expansion
        want, got = expand(x, REAL), dict(enumerate_nf(normalize(x), allow_baseline=True))
        for k in set(want) | set(got):
            assert REAL.eq(want.get(k, 0.0), got.get(k, 0.0)), k


def test_lookup_path_matches_covering_sum():
    # the value at a concrete tuple is the sum of every enumerated entry
    # whose path covers it, wildcards matching anything
    rng = random.Random(0xCAFE)
    space = tensor_chain(Z, [INT, STRING], compact=True)
    for _ in range(40):
        t = rand_term(rng, space, size=4)
        nf = normalize(t)
        rows = enumerate_nf(nf, allow_baseline=True)
        for _ in range(6):
            probe = (rng.randint(-6, 6), rng.choice(["", "a", "ab", "q", "zz"]))
            want = 0
            for path, c in rows:
                if all(p is STAR or p == x for p, x in zip(path, probe)):
                    want += c
            assert nf_lookup_path(nf, probe) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([
        Free(Z, INT), Free(GF2, STRING), CompactFree(Z, INT), CompactFree(Z, STRING),
        CompactFree(GF2, INT),
    ]),
    st.randoms(use_true_random=False),
)
def test_products_inside_terms_match_oracle(space, rng):
    # a symbolic product met as a generator inside a term, not normalised
    # at the top: weight, fmap and the naive product each force it
    ring = space.ring
    x, y, z = (rand_term(rng, space, size=3) for _ in range(3))
    xy = x * y
    want = _pointwise_product(expand(x, ring), expand(y, ring), ring)
    assert weight(xy) == reduce(ring.add, want.values(), ring.zero)

    relabel = (lambda a: a % 3) if space.prim is INT else (lambda s: s[:1])
    moved = {}
    for (k,), c in want.items():
        key = (k if k is STAR else relabel(k),)
        moved[key] = ring.add(moved.get(key, ring.zero), c)
    got = enumerate_nf(normalize(fmap(xy, relabel)), allow_baseline=True)
    assert dict(got) == clean(moved, ring)

    xyz = multiply([x, y, z])
    assert dict(enumerate_nf(xyz, allow_baseline=True)) == _pointwise_product(
        want, expand(z, ring), ring)
    assert nf_equal(naive_multiply(xy, z), xyz)
    assert nf_equal(naive_multiply(z, xy), xyz)
