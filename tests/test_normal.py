"""Normalisation: canonical forms, lookup, enumeration, equality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyalg import (
    GF2,
    Biproduct,
    INT,
    REAL,
    STAR,
    STRING,
    Z,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    INF,
    INT_WITH_INF,
    INT_WITH_NEG_INF,
    InfiniteSupport,
    Prod,
    Scalar,
    SpaceError,
    Sum,
    Tensor,
    enumerate_nf,
    equal,
    inject,
    left,
    maps_to,
    metrics,
    mul,
    nf_equal,
    nf_lookup,
    nf_lookup_path,
    normalize,
    one,
    pair,
    readback,
    right,
    scalar,
    scale,
    sum_terms,
    tensor,
    tensor_chain,
    wild_maps_to,
    wild_one,
    zero,
)
from polyalg import tries
from polyalg.normal import MapNF, has_baseline, nf_lookup, nf_scale, nf_weight, strip_compact

from conftest import rand_term, sample_spaces

FS = Free(Z, STRING)
FI = Free(Z, INT)
CS = CompactFree(Z, STRING)


def test_repeated_generators_merge():
    a, b, c = (inject(x, FS) for x in "abc")
    nf = normalize((a + b) + (b + c))
    assert enumerate_nf(nf) == [(("a",), 1), (("b",), 2), (("c",), 1)]


def test_nontrivial_zero():
    a = inject("a", FS)
    assert normalize(a - 2 * a + a).is_zero()
    z4 = sum_terms(FS, [zero(FS)] * 4)
    assert normalize(z4).is_zero()


def test_nested_key_structure():
    # entries over a pair-of-sum key space settle into one flat level keyed
    # by the pairs, enumerated in the pair order
    sp = FinMap(Z, Prod(STRING, Sum(STRING, INT)), Scalar(Z))
    e = lambda k: maps_to(k, one(Z), sp)
    t = e(("a", left("p"))) + e(("b", right(4))) + e(("a", right(3))) + e(("a", left("p")))
    nf = normalize(t)
    assert enumerate_nf(nf) == [
        ((("a", ("L", "p")), ), 2),
        ((("a", ("R", 3)), ), 1),
        ((("b", ("R", 4)), ), 1),
    ]
    # one entry per distinct pair
    assert len(nf.trie) == 3
    by_key = dict(enumerate_nf(nf))
    assert by_key[(("a", ("L", "p")),)] == 2


def test_normalize_idempotent(rng):
    for ring in (Z, GF2):
        for space in sample_spaces(ring):
            for _ in range(5):
                t = rand_term(rng, space, size=4)
                nf = normalize(t)
                again = normalize(readback(nf))
                assert nf_equal(nf, again)


def test_compact_lookup_baseline_plus_deviation():
    x = 2 * wild_one(CS) + 3 * inject("a", CS) + (-2) * inject("b", CS)
    nf = normalize(x)
    assert nf_lookup(nf, STAR) == 2
    assert nf_lookup(nf, "a") == 5
    assert nf_lookup(nf, "b") == 0
    assert nf_lookup(nf, "c") == 2


def test_compact_map_lookup():
    cm = CompactMap(Z, STRING, Free(Z, INT))
    v = lambda n: inject(n, Free(Z, INT))
    from polyalg import wild_maps_to

    x = wild_maps_to(v(7), cm) + maps_to("a", v(7), cm)
    nf = normalize(x)
    at_a = nf_lookup(nf, "a")
    assert enumerate_nf(at_a) == [((7,), 2)]
    at_star = nf_lookup(nf, STAR)
    assert enumerate_nf(at_star) == [((7,), 1)]
    # plain maps have a zero baseline
    fm = FinMap(Z, STRING, Free(Z, INT))
    y = normalize(maps_to("a", v(1), fm))
    assert nf_lookup(y, STAR).is_zero()


def test_strip_compact_restricts_pairs_and_maps_to_plain_spaces():
    ci = CompactFree(Z, INT)
    pair_space = Biproduct(CS, FinMap(Z, STRING, ci))
    x = pair(inject("a", CS), maps_to("k", inject(1, ci) + inject(2, ci), pair_space.rhs))
    cm = CompactMap(Z, INT, CS)
    y = maps_to(1, inject("a", CS), cm) + maps_to(2, 3 * inject("b", CS), cm)
    for t, target in (
        (x, Biproduct(FS, FinMap(Z, STRING, FI))),
        (y, FinMap(Z, INT, FS)),
    ):
        nf = normalize(t)
        stripped = strip_compact(nf)
        assert stripped.space == target
        assert enumerate_nf(stripped) == enumerate_nf(nf)
    for t in (wild_maps_to(inject("a", CS), cm), pair(zero(CS), maps_to("k", wild_one(ci), pair_space.rhs))):
        with pytest.raises(InfiniteSupport):
            strip_compact(normalize(t))


def test_lookup_agrees_with_defining_sum(rng):
    # value at a key is the sum of that key's entries plus every wildcard
    # entry; checked against a brute-force fold of the raw entry list
    for _ in range(40):
        entries = []
        for _ in range(rng.randint(0, 8)):
            key = rng.choice(["a", "b", "ab", "q", "zz"])
            entries.append((key, rng.randint(-3, 3)))
        baseline = rng.randint(-2, 2)
        t = sum_terms(
            CS,
            [scale(c, inject(k, CS)) for k, c in entries if c]
            + ([scale(baseline, wild_one(CS))] if baseline else []),
        )
        nf = normalize(t)
        probe_keys = [k for k, _ in entries] + ["fresh", "other"]
        for k in probe_keys:
            want = baseline + sum(c for key, c in entries if key == k)
            assert nf_lookup(nf, k) == want
        assert nf_lookup(nf, STAR) == baseline


def test_enumerate_orders_and_baseline_guard():
    t = inject("b", FS) + scale(2, inject("a", FS))
    assert enumerate_nf(normalize(t)) == [(("a",), 2), (("b",), 1)]
    cof = wild_one(CS) - inject("a", CS)
    with pytest.raises(InfiniteSupport):
        enumerate_nf(normalize(cof))
    rows = enumerate_nf(normalize(cof), allow_baseline=True)
    assert rows == [((STAR,), 1), (("a",), -1)]


def test_enumerate_never_yields_zero(rng):
    for space in sample_spaces(Z):
        for _ in range(5):
            t = rand_term(rng, space, size=5)
            for _, c in enumerate_nf(normalize(t), allow_baseline=True):
                assert c != 0


def test_tensor_enumeration_expands():
    t = tensor(inject("a", FS) + inject("b", FS), inject("c", FS))
    assert enumerate_nf(normalize(t)) == [(("a", "c"), 1), (("b", "c"), 1)]


def test_tensor_zero_factor_collapses():
    t = tensor(zero(FS), inject(1, FI))
    assert normalize(t).is_zero()


def test_tensor_bilinear_distribution_equality():
    u1, u2 = inject("a", FS), inject("b", FS)
    v1, v2 = inject(1, FI), inject(2, FI)
    lhs = tensor(u1 + u2, v1 + v2)
    rhs = tensor(u1, v1) + tensor(u1, v2) + tensor(u2, v1) + tensor(u2, v2)
    assert equal(lhs, rhs)


def test_tensor_overlapping_summands_compare_extensionally():
    a = inject("a", FS)
    x = tensor(a, inject(1, FI) + inject(2, FI))
    y = tensor(a, inject(1, FI)) + tensor(a, inject(2, FI))
    assert equal(x, y)
    # distinct-looking summand lists with equal expansions
    p = tensor(a + inject("b", FS), inject(1, FI))
    q = tensor(a, inject(1, FI)) + tensor(inject("b", FS), inject(1, FI))
    assert equal(p, q)


def test_commutativity_equality():
    a, b = inject("a", FS), inject("b", FS)
    assert equal(3 * a + 5 * b, 5 * b + 3 * a)
    assert not equal(a, zero(FS))


def test_equality_requires_matching_spaces():
    from polyalg import GF2, SpaceError

    with pytest.raises(SpaceError):
        equal(inject("a", FS), inject(1, FI))
    with pytest.raises(SpaceError):
        inject("a", FS) + inject("a", Free(GF2, STRING))


def test_biproduct_pointwise_normal_form():
    u1, v1 = inject("a", FS), inject(1, FI)
    u2, v2 = inject("b", FS), inject(2, FI)
    s = pair(u1, v1) + pair(u2, v2)
    nf = normalize(s)
    assert nf_equal(nf, normalize(pair(u1 + u2, v1 + v2)))


def test_scalars_push_to_leaves():
    t = scale(3, inject("a", FS) + scale(2, inject("b", FS)))
    assert enumerate_nf(normalize(t)) == [(("a",), 3), (("b",), 6)]


def test_real_pruning():
    rs = Free(REAL, STRING)
    t = scale(0.5, inject("a", rs)) + scale(-0.5, inject("a", rs)) + scale(1e-12, inject("b", rs))
    nf = normalize(t)
    assert nf.is_zero()


def test_scale_by_nearly_one_scales_real_weights():
    # only exactly one skips the rebuild; within the real ring's tolerance
    # of one is still a scaling
    fr = Free(REAL, INT)
    x = scale(2.0, inject(1, fr)) + scale(-0.5, inject(2, fr))
    r = 1.0 + 1e-10
    got = enumerate_nf(nf_scale(r, normalize(x)))
    assert got == enumerate_nf(normalize(scale(r, x)))
    assert got != enumerate_nf(normalize(x))


def test_lookup_path_through_chain():
    t = tensor(inject("a", CS), tensor(inject(1, CompactFree(Z, INT)), wild_one(CS)))
    nf = normalize(t)
    assert nf_lookup_path(nf, ("a", 1, "anything")) == 1
    assert nf_lookup_path(nf, ("a", 1, STAR)) == 1
    assert nf_lookup_path(nf, ("b", 1, "x")) == 0


def test_lookup_path_past_an_absent_key_reads_side_tags():
    # an absent key's value space is a biproduct, so only the path's own
    # side tag says how many components the missing entry would take
    cs_k = Biproduct(CS, Scalar(Z))
    sp = FinMap(Z, INT, cs_k)
    nf = normalize(maps_to(1, pair(inject("a", CS), zero(Scalar(Z))), sp))
    assert nf_lookup_path(nf, (1, 1, "a")) == 1
    assert nf_lookup_path(nf, (2, 1, "a")) == 0
    assert nf_lookup_path(nf, (2, 2)) == 0
    with pytest.raises(SpaceError):
        nf_lookup_path(nf, (2, 2, "a"))
    with pytest.raises(SpaceError):
        nf_lookup_path(nf, (2, 1, "a", "b"))


def test_lookup_path_refuses_a_side_tag_other_than_1_or_2():
    # a biproduct's side is tag 1 or 2, as enumeration writes it; any other
    # tag is refused like a short path, not read as the right side
    fi = Free(Z, INT)
    nf = normalize(pair(zero(fi), inject(5, fi)))
    assert nf_lookup_path(nf, (2, 5)) == 1
    assert nf_lookup_path(nf, (1, 5)) == 0
    for bad in ((3, 5), ("x", 5), (0, 5), (True, 5), (STAR, 5)):
        with pytest.raises(SpaceError, match="side tag"):
            nf_lookup_path(nf, bad)


def test_lookup_path_checks_every_key():
    from polyalg import PrimValueError, relation_from_rows, schema

    r = relation_from_rows(schema(("A", INT), ("B", INT)), Z, [((1, 2), 1)])
    with metrics.fresh() as m:
        assert [r.lookup((1, 2)), r.lookup((1, 3)), r.lookup((STAR, 2))] == [1, 0, 0]
    assert (m.lookups, m.trie_edges) == (3, 4)
    # True hashes as 1, so an unchecked first key would read the row (1, 2)
    for bad in ((True, 2), ("x", 2), (1, True)):
        with pytest.raises(PrimValueError):
            r.lookup(bad)
    with pytest.raises(SpaceError, match="ends before a coefficient"):
        r.lookup((1,))


def test_linear_time_trie_work():
    # normalising s single entries touches O(s) trie edges
    def edges_for(s):
        t = sum_terms(FI, [inject(i, FI) for i in range(s)])
        with metrics.fresh() as m:
            normalize(t)
        return m.trie_edges

    e1, e2 = edges_for(200), edges_for(400)
    assert e2 <= 2.5 * e1
    assert e2 <= 400 * 70


def test_nested_prefix_keys_normalize_in_balanced_merges():
    # each key is a prefix of the next; the level is built once from all
    # the entries, not by adding one key at a time to a growing level
    keys = ["a" * i for i in range(1, 2001)]
    t = sum_terms(FS, [inject(k, FS) for k in keys])
    with metrics.fresh() as m:
        nf = normalize(t)
    assert m.trie_edges <= 50_000
    assert [k for (k,), _ in enumerate_nf(nf)] == keys


def test_nested_prefix_values_under_one_key_add_in_balanced_rounds():
    # every row shares its first key, so 2,000 value levels add under it;
    # one at a time, each addition would copy the growing level
    keys = ["a" * i for i in range(1, 2001)]
    t = sum_terms(Tensor(FI, FS), [tensor(inject(1, FI), inject(k, FS)) for k in keys])
    with metrics.fresh() as m:
        nf = normalize(t)
    assert m.trie_edges <= 50_000
    assert [k for (_, k), _ in enumerate_nf(nf)] == keys


def test_sums_of_many_forms_copy_n_log_n_entries(monkeypatch):
    # a pair term's pieces and a level's wildcard shares add in balanced
    # rounds; added one at a time, each addition would copy the growing
    # level, about n²/2 entries in all
    n = 2048
    merge = tries.merge
    copied = []

    def spy(a, b, vops):
        if a is not None and b is not None:
            copied.append(max(len(a), len(b)))
        return merge(a, b, vops)

    monkeypatch.setattr(tries, "merge", spy)
    pairs = sum_terms(Biproduct(FI, FI), [pair(inject(i, FI), inject(i, FI)) for i in range(n)])
    nf = normalize(pairs)
    assert sum(copied) <= n * 11
    assert enumerate_nf(nf) == [((side, i), 1) for side in (1, 2) for i in range(n)]

    copied.clear()
    cm = CompactMap(Z, INT, FI)
    wild = sum_terms(cm, [wild_maps_to(inject(i, FI), cm) for i in range(n)])
    nf = normalize(wild)
    assert sum(copied) <= n * 11
    assert nf.trie is None
    assert enumerate_nf(nf.base) == [((i,), 1) for i in range(n)]


def test_relation_chain_normalizes_to_nested_trie():
    from polyalg import relation_from_rows, schema
    from polyalg.normal import MapNF

    rows = [(("a", 1), 2), (("a", 2), 1), (("b", 1), -1), (("a", 1), 1)]
    r = relation_from_rows(schema(("A", STRING), ("B", INT)), Z, rows)
    nf = normalize(r.chain_term())
    assert isinstance(nf, MapNF)
    assert len(nf.trie) == 2  # one entry per A value
    at_a = nf_lookup(nf, "a")
    # a coefficient level: a keyed form of the free factor holding ring elements
    assert isinstance(at_a, MapNF) and at_a.space.shape == "free"
    assert enumerate_nf(at_a) == [((1,), 3), ((2,), 1)]
    assert enumerate_nf(nf) == [(("a", 1), 3), (("a", 2), 1), (("b", 1), -1)]
    assert nf_equal(nf, normalize(readback(nf)))


def test_deep_sums_do_not_overflow_stack():
    t = zero(FI)
    for i in range(30000):
        t = t + inject(i % 7, FI)
    nf = normalize(t)
    assert sorted(dict(enumerate_nf(nf)).values()) != []
    assert sum(c for _, c in enumerate_nf(nf)) == 30000


def test_deep_chain_walks_do_not_overflow_stack():
    # a 3,000-level chain, nested by hand rather than by tensor_chain: the
    # row walks go a level at a time, so their depth ignores the length
    space = FI
    nf = MapNF(space, {0: 1}, None)
    for i in range(1, 3000):
        space = Tensor(FI, space)
        nf = MapNF(space, {i: nf}, None)
    rows = enumerate_nf(nf)
    assert len(rows) == 1
    path, c = rows[0]
    assert path == tuple(range(2999, -1, -1)) and c == 1
    assert nf_weight(nf) == 1
    assert nf_equal(nf, nf)
    assert not has_baseline(nf)


def test_scalar_space_normal_form():
    t = scalar(Z, 4) + scalar(Z, -4)
    assert normalize(t).is_zero()
    assert enumerate_nf(normalize(scalar(Z, 3))) == [((), 3)]


def test_repr_renders_terms_and_forms():
    # repr of a term, and of a form with baselines as leading `*` keys
    ci = CompactFree(Z, INT)
    cm = CompactMap(Z, STRING, ci)
    t = 2 * wild_maps_to(inject(1, ci), cm) + mul(
        maps_to("a", inject(3, ci) - wild_one(ci), cm), maps_to("b", 3 * inject(3, ci), cm))
    assert repr(t) == "(2*(* ↦ <1>) + ((a ↦ (<3> + -1*1)) · (b ↦ 3*<3>)))"

    chain = tensor_chain(Z, [STRING, INT], compact=True)
    a, b = chain.lhs, chain.rhs
    x = (2 * tensor(wild_one(a), inject(1, b))
         + tensor(inject("a", a), 3 * wild_one(b) - inject(2, b))
         + tensor(inject("b", a), inject(-4, b)))
    assert repr(normalize(x)) == "{*: {1: 2}, a: {*: 3, 2: -1}, b: {-4: 1}}"


def _walk_by_items(nf, space, allow):
    """The row walk written out depth-first, each level sorted by
    `prim.sort_key`: the rows, order and trie-edge charges, one per trie
    entry, that `enumerate_nf` must keep."""
    shape = space.shape
    if shape == "scalar":
        return [] if space.ring.is_zero(nf.value) else [((), nf.value)]
    if shape == "pair":
        lhs, rhs = space.halves
        return ([((1,) + p, c) for p, c in _walk_by_items(nf.lhs, lhs, allow)]
                + [((2,) + p, c) for p, c in _walk_by_items(nf.rhs, rhs, allow)])
    t = nf.trie or {}
    metrics.current.trie_edges += len(t)
    entries = sorted(t.items(), key=lambda kv: space.prim.sort_key(kv[0]))
    if nf.base is not None:
        if not allow:
            raise InfiniteSupport("baseline")
        entries = [(STAR, nf.base)] + entries
    if shape == "free":
        return [((k,), v) for k, v in entries]
    return [((k,) + p, c) for k, v in entries for p, c in _walk_by_items(v, space.value, allow)]


def _walk_spaces(ring):
    return sample_spaces(ring) + [
        tensor_chain(ring, [INT, STRING, INT]),
        tensor_chain(ring, [STRING, INT, INT], compact=True),
        FinMap(ring, STRING, Biproduct(Free(ring, INT), Scalar(ring))),
        Free(ring, INT_WITH_INF),
        FinMap(ring, INT_WITH_NEG_INF, Free(ring, Sum(INT, STRING))),
        CompactMap(ring, Prod(INT, STRING), CompactFree(ring, INT_WITH_INF)),
    ]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Z, GF2, REAL]), st.integers(0, 10**6), st.integers(0, 8),
       st.data())
def test_row_walk_is_pinned_to_a_walk_by_items(ring, seed, size, data):
    import random

    space = data.draw(st.sampled_from(_walk_spaces(ring)))
    nf = normalize(rand_term(random.Random(seed), space, size))
    for allow in (True, False):
        with metrics.fresh() as want:
            try:
                expect = _walk_by_items(nf, space, allow)
            except InfiniteSupport:
                expect = InfiniteSupport
        with metrics.fresh() as got:
            try:
                rows = enumerate_nf(nf, allow_baseline=allow)
            except InfiniteSupport:
                rows = InfiniteSupport
        assert rows == expect
        if rows is not InfiniteSupport:
            assert got.trie_edges == want.trie_edges


def test_row_walk_orders_one_entry_and_many_entry_levels():
    from polyalg import relation_from_rows, schema

    key = Sum(INT, STRING)
    sch = schema(("A", key), ("B", INT_WITH_INF), ("C", STRING))
    rows = [((right("x"), 3, "q"), 2), ((left(5), INF, "b"), 1), ((left(5), INF, "a"), -1),
            ((left(-1), 7, "z"), 4), ((left(5), -2, "c"), 3)]
    nf = relation_from_rows(sch, Z, rows).nf()
    with metrics.fresh() as m:
        got = enumerate_nf(nf)
    assert [p for p, _ in got] == [(left(-1), 7, "z"), (left(5), -2, "c"), (left(5), INF, "a"),
                                   (left(5), INF, "b"), (right("x"), 3, "q")]
    with metrics.fresh() as want:
        assert _walk_by_items(nf, nf.space, False) == got
    assert m.trie_edges == want.trie_edges == 3 + 4 + 5
