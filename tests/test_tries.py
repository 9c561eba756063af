"""Trie behaviour against a dict model, per key family."""

import random
import sys

from hypothesis import example, given
from hypothesis import strategies as st

from polyalg import (
    BOOL,
    INF,
    INT,
    INT_WITH_INF,
    INT_WITH_NEG_INF,
    NEG_INF,
    STRING,
    UNIT,
    Prod,
    Sum,
    metrics,
)
from polyalg.normal import NF_VOPS, MapNF, read_level
from polyalg.prims import INT64_MAX, INT64_MIN, left, right
from polyalg.rings import Z
from polyalg.spaces import Free
from polyalg.tries import (
    ValueOps,
    from_items,
    keep,
    lookup,
    map_values,
    merge,
    walk,
)

VOPS = ValueOps(add=lambda a, b: a + b, is_zero=lambda v: v == 0)


def build(mapping):
    return from_items(mapping.items(), VOPS)


def items(prim, t):
    """A level's (key, payload) entries as the engine reads them, in key
    order by `normal.read_level`, charging its trie edges."""
    if t is None:
        return []
    (keys,), payloads, edges = read_level([MapNF(None, t, None)], prim)
    metrics.current.trie_edges += edges
    return list(zip(keys, payloads))


def model_merge(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def check_same(prim, trie, mapping, probes):
    assert len(trie or ()) == len(mapping)
    got = list(items(prim, trie))
    want = sorted(mapping.items(), key=lambda kv: prim.sort_key(kv[0]))
    assert got == want
    for k in probes:
        assert lookup(trie, k) == mapping.get(k)


COEFFS = st.integers(-5, 5).filter(bool)

# CPython hashes an int by its residue modulo this prime, and -1 as -2
P61 = 2**61 - 1

INT_KEYS = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, -2, 0, 1, INT64_MAX - 1, INT64_MAX]),
    # keys with one hash: k beside k + n * P61, and negatives beside -1
    st.builds(lambda k, n: k + n * P61 if k >= 0 else k - n * P61,
              st.sampled_from([0, 1, 7, -1, -2, -7]), st.integers(0, 3)),
)

STR_KEYS = st.one_of(
    st.text(max_size=6),
    # a two-letter alphabet makes keys that are prefixes of each other, "" too
    st.text(alphabet="ab", max_size=8),
    st.text(alphabet=st.characters(min_codepoint=0x10000), max_size=4),
    st.builds(lambda n: "a" * n, st.integers(0, 60)),
    # about 2,000 characters, often sharing a long stem
    st.builds(lambda s, n: (s * n)[:n], st.text(min_size=1, max_size=2), st.integers(1900, 2100)),
)


@given(st.dictionaries(INT_KEYS, COEFFS), st.dictionaries(INT_KEYS, COEFFS))
@example({-1: 1, -2: 2, 7: 3, 7 + P61: 4, -1 - P61: 5}, {-2: -2, 7 + 2 * P61: 1, -1 - P61: 1})
def test_int_trie_merge_matches_dict(da, db):
    t = merge(build(da), build(db), VOPS)
    m = model_merge(da, db)
    probes = list(da) + list(db) + [0, -1, INT64_MIN, INT64_MAX]
    check_same(INT, t, m, probes)


@given(st.dictionaries(STR_KEYS, COEFFS), st.dictionaries(STR_KEYS, COEFFS))
def test_str_trie_merge_matches_dict(da, db):
    t = merge(build(da), build(db), VOPS)
    m = model_merge(da, db)
    probes = list(da) + list(db) + ["", "zz", "a", "aa", "\U0001f600"]
    probes += [k[:-1] for k in probes if k] + [k + "a" for k in probes]
    check_same(STRING, t, m, probes)


def test_negative_ints_enumerate_first():
    mapping = {5: 1, -3: 1, 0: 2, -(2**62): 4, 2**62: 7}
    t = build(mapping)
    keys = [k for k, _ in items(INT, t)]
    assert keys == sorted(mapping)


def test_unit_and_bool_and_sum_and_prod():
    u = build({(): 3})
    assert lookup(u, ()) == 3 and len(u) == 1
    assert list(items(UNIT, u)) == [((), 3)]

    # an adjoined infinity sorts after every int, a negative one before;
    # built in reverse so that insertion order is not key order
    for prim, keys in ((INT_WITH_INF, [-4, 7, INF]), (INT_WITH_NEG_INF, [NEG_INF, -4, 7])):
        t = build({k: i + 1 for i, k in enumerate(reversed(keys))})
        assert [k for k, _ in items(prim, t)] == keys, prim

    b = build({True: 2, False: -1})
    assert [k for k, _ in items(BOOL, b)] == [False, True]

    sp = Sum(STRING, INT)
    s = build({("L", "p"): 2, ("R", 3): 1, ("R", -1): 4})
    assert [k for k, _ in items(sp, s)] == [("L", "p"), ("R", -1), ("R", 3)]
    assert lookup(s, ("R", 3)) == 1
    assert lookup(s, ("L", "q")) is None

    pp = Prod(STRING, INT)
    p = build({("a", 2): 1, ("a", 1): 2, ("b", 0): 3})
    assert [k for k, _ in items(pp, p)] == [("a", 1), ("a", 2), ("b", 0)]
    assert len(p) == 3
    assert lookup(p, ("a", 2)) == 1
    assert lookup(p, ("c", 2)) is None


def test_cancellation_prunes_structure():
    a = build({"ab": 2, "abc": 1})
    b = build({"ab": -2})
    t = merge(a, b, VOPS)
    assert len(t) == 1
    assert list(items(STRING, t)) == [("abc", 1)]
    both = merge(a, build({"ab": -2, "abc": -1}), VOPS)
    assert both is None


MAP_FAMILIES = [
    (INT, [1, 2, 3]),
    (STRING, ["a", "ab", "b"]),
    (BOOL, [False, True]),
    (Sum(STRING, INT), [("L", "p"), ("R", -1), ("R", 3)]),
    (Prod(STRING, INT), [("a", 1), ("a", 2), ("b", 0)]),
]


def test_map_values_drops_zero_images():
    # one test over the families, not parametrised, so its id stays the same
    for prim, keys in MAP_FAMILIES:
        t = build({k: 3 if i == 1 else 2 for i, k in enumerate(keys)})
        halved = map_values(t, lambda v: v - 2, VOPS)
        assert list(items(prim, halved)) == [(keys[1], 1)], prim
        assert len(halved) == 1, prim
        assert map_values(t, lambda v: 0, VOPS) is None, prim
        assert map_values(t, lambda v: None, VOPS) is None, prim


def test_nested_prefix_keys_deeper_than_the_recursion_limit():
    # each key is a prefix of the next, and no operation's stack depth may
    # grow with the chain
    n = 3000
    assert n > sys.getrecursionlimit()
    keys = ["a" * i for i in range(1, n + 1)]
    evens = from_items([(k, 1) for k in keys[1::2]], VOPS)
    odds = from_items([(k, 1) for k in keys[0::2]], VOPS)
    t = merge(evens, odds, VOPS)
    assert len(t) == n
    assert list(items(STRING, t)) == [(k, 1) for k in keys]
    assert lookup(t, keys[-1]) == 1
    assert lookup(t, keys[-1] + "a") is None
    doubled = map_values(t, lambda v: 2 * v, VOPS)
    assert list(items(STRING, doubled)) == [(k, 2) for k in keys]
    assert merge(t, map_values(t, lambda v: -v, VOPS), VOPS) is None


def test_merge_shares_subtrees():
    rng = random.Random(5)
    base = {rng.randint(-100, 100): 1 for _ in range(40)}
    t = build(base)
    t2 = merge(t, build({999: 5}), VOPS)
    assert len(t2) == len(t) + 1
    # the original is untouched
    assert lookup(t, 999) is None


def test_lookup_cost_independent_of_population():
    small = build({i: 1 for i in range(8)})
    big = build({i: 1 for i in range(4096)})
    with metrics.fresh() as m:
        lookup(small, 5)
    small_edges = m.trie_edges
    with metrics.fresh() as m:
        lookup(big, 5)
    big_edges = m.trie_edges
    # one probe at any population
    assert big_edges == small_edges == 1


def test_builds_and_maps_charge_one_edge_per_node():
    # a build charges each entry it keeps once, an enumeration or a map each
    # entry it visits, however many repeated entries the build added up
    rng = random.Random(11)
    ints = rng.sample(range(-(2**40), 2**40), 3000)
    words = sorted({"".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
                    for _ in range(3000)})
    for prim, keys in ((INT, ints), (STRING, words)):
        # repeated entries add up before the build
        pairs = [(k, 1) for k in keys] + [(k, 2) for k in keys[:10]]
        with metrics.fresh() as m:
            t = from_items(pairs, VOPS)
        built = m.trie_edges
        check_same(prim, t, {k: 3 if i < 10 else 1 for i, k in enumerate(keys)}, keys[:20])
        with metrics.fresh() as m:
            assert len(list(items(prim, t))) == len(keys)
        nodes = m.trie_edges
        assert built == nodes <= 2 * len(keys) + 1, prim
        with metrics.fresh() as m:
            doubled = map_values(t, lambda v: 2 * v, VOPS)
        assert m.trie_edges == nodes, prim
        assert list(items(prim, doubled)) == [(k, 2 * v) for k, v in items(prim, t)]


FAMILY_KEYS = [
    (INT, INT_KEYS),
    (STRING, STR_KEYS),
    (BOOL, st.booleans()),
    (UNIT, st.just(())),
    (Sum(STRING, INT), st.one_of(st.builds(left, STR_KEYS), st.builds(right, INT_KEYS))),
    (Prod(STRING, INT), st.tuples(STR_KEYS, INT_KEYS)),
    (INT_WITH_INF, st.one_of(INT_KEYS, st.just(INF))),
    (INT_WITH_NEG_INF, st.one_of(INT_KEYS, st.just(NEG_INF))),
]


@st.composite
def walk_levels(draw):
    """A key family and 1 to 3 levels over one small pool of its keys, so
    that the levels meet. A level is never empty: the empty level is None,
    and a factor that restricts the support never vanishes."""
    prim, keys = draw(st.sampled_from(FAMILY_KEYS))
    pool = draw(st.lists(keys, min_size=1, max_size=8, unique=True))
    levels = st.dictionaries(st.sampled_from(pool), COEFFS, min_size=1)
    return prim, pool, draw(st.lists(levels, min_size=1, max_size=3))


@given(walk_levels())
def test_walk_matches_dict_intersection(case):
    prim, pool, dicts = case
    ts = [build(d) for d in dicts]
    # two nodes in one walk, the second holding the levels in reverse order;
    # both iterate their level at the smallest level's place in the first
    nodes = [ts, ts[::-1]]
    first = min(range(len(ts)), key=lambda i: len(ts[i]))
    levels = [list(col) for col in zip(*nodes)]
    keys, owner, cols = walk(levels, first)
    assert len(cols) == len(ts)
    assert owner == sorted(owner)
    common = set(dicts[0]).intersection(*dicts[1:])
    products = {}
    for i, node in enumerate(nodes):
        mine = [k for k, o in zip(keys, owner) if o == i]
        assert mine == [k for k in node[first] if k in common]
        for col, t in zip(cols, node):
            assert [v for v, o in zip(col, owner) if o == i] == [t[k] for k in mine]
    for k, o, *vals in zip(keys, owner, *cols):
        p = 1
        for v in vals:
            p *= v
        if p % 3:
            products[k, o] = p
    want = {}
    for k in common:
        p = 1
        for d in dicts:
            p *= d[k]
        if p % 3:
            want[k] = p
    kept_keys = list(products)
    got = keep(levels, [o for _, o in kept_keys], [k for k, _ in kept_keys],
               list(products.values()))
    for i, (level, c) in enumerate(got):
        check_same(prim, level, want, pool)
        assert c == first_equal_level(levels, i, want)
        assert c is None or level is levels[c][i]
    # an intersection that keeps all of the first node's first level's
    # entries, with its payloads, returns that level itself
    kept, c = keep(levels, owner, keys, cols[0])[0]
    if common == set(dicts[0]):
        assert kept is ts[0]
        assert c == 0
    else:
        mine = {k: dicts[0][k] for k in common}
        check_same(prim, kept, mine, pool)
        assert c == first_equal_level(levels, 0, mine)
        assert c is None or kept is levels[c][0]


def first_equal_level(levels, i, mapping):
    """The column of node `i`'s first level whose entries are `mapping`,
    payloads compared by `==`, or None."""
    return next((c for c, col in enumerate(levels) if col[i] == mapping), None)


def test_keep_returns_a_level_whose_payloads_are_equal_but_not_identical():
    # ints past the small-int cache, built by arithmetic, are distinct
    # objects; `keep` compares payloads by `==`, so the level is shared
    big = 10**6
    t = from_items([(k, big + k) for k in range(3)], VOPS)
    outs = [big + k for k in range(3)]
    assert all(o == t[k] and o is not t[k] for k, o in enumerate(outs))
    with metrics.fresh() as m:
        [(level, c)] = keep([[t]], [0, 0, 0], [0, 1, 2], outs)
    assert level is t
    assert c == 0
    assert m.trie_edges == 0


def test_keep_builds_a_level_for_a_fresh_form_like_an_input_payload():
    # forms define no `__eq__`: a new form with an input payload's trie and
    # baseline is not `==` to it, so the level is built anew
    space = Free(Z, INT)
    x = MapNF(space, {1: 2}, None)
    t = from_items([("a", x)], NF_VOPS)
    fresh = MapNF(space, x.trie, x.base)
    with metrics.fresh() as m:
        [(level, c)] = keep([[t]], [0], ["a"], [fresh])
    assert c is None
    assert level is not t
    assert level == {"a": fresh} and level["a"] is fresh
    assert m.trie_edges == 1
