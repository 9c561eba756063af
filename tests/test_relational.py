"""Relational operations over ring-weighted relations."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyalg import (
    GF2,
    INF,
    INT,
    INT_WITH_INF,
    REAL,
    STAR,
    STRING,
    Z,
    Compare,
    Sum,
    BoolPred,
    RelationError,
    aggregate,
    apply_update,
    cartesian,
    clamp_nonneg,
    diff,
    intersect,
    map_col,
    natural_join,
    outer_join,
    project,
    relabel,
    relation_from_rows,
    rename,
    schema,
    select,
    tensor_chain,
    union,
    weight,
)
from polyalg.prims import INT64_MAX, INT64_MIN, PrimValueError


def rel(cols, rows, ring=Z):
    return relation_from_rows(schema(*cols), ring, [(r, ring.one) for r in rows])


def weighted(cols, rows, ring=Z):
    return relation_from_rows(schema(*cols), ring, rows)


def rowdict(r):
    return dict(r.rows())


AB = [("A", STRING), ("B", INT)]
X3 = [("a", 1), ("b", 2), ("c", 3)]
Y3 = [(2, "p"), (3, "q"), (4, "r")]


def test_select_by_length_style_predicate():
    from polyalg import ColumnWhere

    r = rel([("A", STRING)], [("foo",), ("ab",)])
    out = select(r, ColumnWhere("A", lambda s: len(s) == 3))
    assert rowdict(out) == {("foo",): 1}
    byeq = select(r, Compare("=", "A", "foo"))
    assert rowdict(byeq) == {("foo",): 1}
    none = select(r, Compare("=", "A", "zzz"))
    assert rowdict(none) == {}


def test_select_preserves_multiplicity_and_linearity(rng):
    r = weighted([("A", INT)], [((1,), 2), ((2,), -3), ((5,), 1)])
    out = select(r, Compare("<", "A", 3))
    assert rowdict(out) == {(1,): 2, (2,): -3}
    # always-true keeps everything
    allr = select(r, Compare("<", "A", 100))
    assert allr.equals(r)


def test_select_multi_column_and_bool_preds():
    r = rel(AB + [("C", INT)], [("a", 1, 1), ("a", 1, 2), ("b", 2, 2)])
    out = select(r, Compare("=", "B", other_column="C"))
    assert rowdict(out) == {("a", 1, 1): 1, ("b", 2, 2): 1}
    both = select(
        r, BoolPred("and", (Compare("=", "A", "a"), Compare(">", "C", 1)))
    )
    assert rowdict(both) == {("a", 1, 2): 1}
    inv = select(r, BoolPred("not", (Compare("=", "A", "a"),)))
    assert rowdict(inv) == {("b", 2, 2): 1}


def test_select_type_mismatch_is_an_error():
    r = rel(AB, X3)
    with pytest.raises(RelationError):
        select(r, Compare("=", "A", 3))


def test_project_preserves_multiplicities():
    r = rel(AB, [("foo", 1), ("foo", 2), ("bar", 3)])
    out = project(r, ["A"])
    assert rowdict(out) == {("foo",): 2, ("bar",): 1}
    # over gf2 the discarded column's weights add mod 2, so a value backed
    # by an even number of rows cancels; projection is linear, not the
    # classical idempotent set collapse
    r2 = rel(AB, [("foo", 1), ("foo", 2), ("bar", 3)], ring=GF2)
    out2 = project(r2, ["A"])
    assert rowdict(out2) == {("bar",): True}
    r3 = rel(AB, [("foo", 1), ("bar", 3)], ring=GF2)
    assert rowdict(project(r3, ["A"])) == {("bar",): True, ("foo",): True}


def test_select_drops_unselected_rows_from_the_term():
    from polyalg.terms import linear_combination

    r = rel([("K", INT), ("S", STRING), ("V", INT)],
            [(k, f"s{k % 7}", 3 * k) for k in range(2000)])
    out = select(r, Compare("<", "K", 10))
    assert len(list(linear_combination(out.chain_term()))) == 10
    assert len(out.rows()) == 10


def test_project_of_a_product_weighs_discarded_columns():
    # each discarded key weighs one: B's rows count the three A keys
    r = rel([("A", STRING)], [("a1",), ("a2",), ("a3",)])
    s = rel([("B", INT)], [(1,), (2,)])
    t = cartesian(r, s)
    out = project(t, ["B"])
    assert rowdict(out) == {(1,): 3, (2,): 3}


def test_project_reorders_and_validates():
    r = rel(AB + [("C", STRING)], [("a", 1, "p"), ("b", 2, "q")])
    out = project(r, ["C", "A"])
    assert out.schema.names == ["C", "A"]
    assert rowdict(out) == {("p", "a"): 1, ("q", "b"): 1}
    assert project(r, ["A", "B", "C"]).equals(r)
    with pytest.raises(RelationError):
        project(r, [])
    with pytest.raises(RelationError):
        project(r, ["A", "A"])


def test_rename_permutes_and_inverts(rng):
    r = rel(AB + [("C", STRING)], [("a", 1, "p"), ("b", 2, "q"), ("b", 5, "p")])
    out = rename(r, [2, 0, 1])
    assert out.schema.names == ["C", "A", "B"]
    assert rowdict(out) == {("p", "a", 1): 1, ("q", "b", 2): 1, ("p", "b", 5): 1}
    back = rename(out, [1, 2, 0])
    assert back.equals(r)
    assert out.weight() == r.weight() == weight(r.chain_term()) == 3
    with pytest.raises(RelationError):
        rename(r, [0, 0, 1])


def test_union_diff_intersect_goldens():
    r = rel([("A", STRING)], [("a",), ("b",)])
    s = rel([("A", STRING)], [("b",), ("c",)])
    assert rowdict(union(r, s)) == {("a",): 1, ("b",): 2, ("c",): 1}
    assert rowdict(diff(r, r)) == {}
    t = weighted([("A", STRING)], [(("a",), 2), (("b",), 3)])
    u = weighted([("A", STRING)], [(("b",), 5), (("c",), 7)])
    assert rowdict(intersect(t, u)) == {("b",): 15}
    with pytest.raises(RelationError):
        union(r, rel([("B", STRING)], [("a",)]))


def test_cartesian_shares_the_right_form_and_weights_multiply():
    r = rel([("A", STRING)], [("a1",), ("a2",), ("a3",)])
    s = rel([("B", INT)], [(1,), (2,)])
    t = cartesian(r, s)
    # every unit coefficient of r carries s's own form, not a copy
    values = list(t.nf().trie.values())
    assert len(values) == 3 and all(v is s.nf() for v in values)
    assert t.weight() == 6
    assert len(t.rows()) == 6
    w = cartesian(weighted([("A", STRING)], [(("a",), 2)]), s)
    assert rowdict(w) == {("a", 1): 2, ("a", 2): 2}
    empty = cartesian(rel([("A", STRING)], []), s)
    assert rowdict(empty) == {}
    with pytest.raises(RelationError):
        cartesian(r, rel([("A", INT)], [(1,)]))


def test_natural_join_worked_example():
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], Y3)
    out = natural_join([x, y])
    assert out.schema.names == ["A", "B", "C"]
    assert rowdict(out) == {("b", 2, "p"): 1, ("c", 3, "q"): 1}
    assert not out.has_baseline()


def test_natural_join_of_one_input_is_its_own_form():
    # a one-factor joint product in the factor's own chain is the factor
    from polyalg import metrics

    padded = outer_join("left", rel(AB, X3), rel([("B", INT), ("C", STRING)], Y3))
    for x in (weighted(AB, [(("a", 1), 2), (("b", 2), -1)]), padded):
        with metrics.fresh() as m:
            out = natural_join([x])
        assert out.nf() is x.nf()
        assert out.schema == x.schema
        assert m.trie_edges == 0


def test_intersection_with_a_superset_is_the_first_input_form():
    # every product equals r's coefficient, so each level `tries.keep`
    # keeps is r's, and the output is r's own form, level by level
    from polyalg import metrics

    rows = [(i, f"s{i}") for i in range(10)]
    r, s = rel([("A", INT), ("B", STRING)], rows[:5]), rel([("A", INT), ("B", STRING)], rows)
    with metrics.fresh() as m:
        out = intersect(r, s)
    assert out.nf() is r.nf()
    # the top walk iterates r's 5 keys and probes s at each, and each B
    # level's walk does the same for one key; nothing is built
    assert m.trie_edges == 20
    assert m.ring_mults == 5


def test_join_matches_set_oracle_over_gf2(rng):
    for _ in range(30):
        xs = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 6))}
        ys = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 6))}
        x = rel([("A", INT), ("B", INT)], sorted(xs), ring=GF2)
        y = rel([("B", INT), ("C", INT)], sorted(ys), ring=GF2)
        out = rowdict(natural_join([x, y]))
        want = {
            (a, b, c)
            for a, b in xs
            for b2, c in ys
            if b == b2
        }
        assert set(out) == want
        assert all(v is True for v in out.values())


def test_self_join_idempotent_over_gf2(rng):
    rows = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)}
    r = rel([("A", INT), ("B", INT)], sorted(rows), ring=GF2)
    assert natural_join([r, r]).equals(r)


def test_join_rename_applied_automatically():
    # y's columns arrive in (C, B) order; join still matches on B by name
    x = rel(AB, X3)
    y = rel([("C", STRING), ("B", INT)], [(c, b) for b, c in Y3])
    out = natural_join([x, y])
    assert out.schema.names == ["A", "B", "C"]
    assert rowdict(out) == {("b", 2, "p"): 1, ("c", 3, "q"): 1}


def test_join_type_conflict():
    x = rel(AB, X3)
    y = rel([("B", STRING), ("C", STRING)], [("2", "p")])
    with pytest.raises(RelationError):
        natural_join([x, y])


def test_outer_joins_with_wildcards():
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], Y3)
    full = outer_join("full", x, y)
    assert full.has_baseline()
    rows = rowdict(full)
    # matched rows, each side's leftovers against the wildcard, and the unit
    assert rows[("b", 2, "p")] == 1 and rows[("c", 3, "q")] == 1
    assert rows[("a", 1, STAR)] == 1
    assert rows[(STAR, 4, "r")] == 1
    assert rows[(STAR, STAR, STAR)] == 1
    assert len(rows) == 9
    # cumulative value semantics: a matched tuple is covered by the match,
    # both wildcard leftovers and the unit
    assert full.lookup(("b", 2, "p")) == 4
    left = outer_join("left", x, y)
    lrows = rowdict(left)
    assert lrows[("a", 1, STAR)] == 1
    assert (STAR, 4, "r") not in lrows
    right = outer_join("right", x, y)
    rrows = rowdict(right)
    assert rrows[(STAR, 4, "r")] == 1
    assert ("a", 1, STAR) not in rrows


def test_lookups_under_wildcards_sum_the_covering_rows():
    # outer joins carry baselines at several levels; at every path of keys,
    # wildcards and keys missing at any level, a lookup is the sum of the
    # rows whose path covers it (a row's `STAR` covers any component, a
    # probe's `STAR` only a `STAR`), and it counts one lookup per call
    import itertools

    from polyalg import metrics

    x = weighted([("A", STRING), ("B", INT)], [(("a", 1), 2), (("b", 2), -1), (("c", 3), 1)])
    y = weighted([("B", INT), ("C", STRING)], [((2, "p"), 3), ((3, "q"), 1), ((4, "r"), 1)])
    for kind in ("left", "right", "full"):
        out = outer_join(kind, x, y)
        rows = out.rows()
        assert sum(STAR in path for path, _ in rows) >= 3, kind
        columns = [{path[i] for path, _ in rows} | {miss, STAR} for i, miss in enumerate(("z", 9, "z"))]
        for probe in itertools.product(*columns):
            want = sum(c for path, c in rows
                       if all(p is STAR or p == k for p, k in zip(path, probe)))
            with metrics.fresh() as m:
                assert out.lookup(probe) == want, (kind, probe)
            assert m.lookups == 1


def embedded(r, target):
    """`r`'s form embedded into the compact chain of the schema `target`,
    reordered first into the target's order: the reference that joins are
    checked against."""
    from polyalg.product import embed

    order = [n for n in target.names if n in r.schema.names]
    r = rename(r, [r.schema.position(n) for n in order])
    return embed(r.nf(), r.schema.columns, target.columns)


def test_outer_join_distributivity_identities(rng):
    from polyalg import multiply, nf_equal, normalize, readback, unit_one

    for _ in range(15):
        xs = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
        ys = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
        x = rel([("A", INT), ("B", INT)], sorted(set(xs)))
        y = rel([("B", INT), ("C", INT)], sorted(set(ys)))
        target = schema(("A", INT), ("B", INT), ("C", INT))
        xe, ye = (readback(embedded(r, target)) for r in (x, y))
        u = unit_one(xe.space)
        lhs = multiply([xe, ye + u])
        rhs = normalize(readback(multiply([xe, ye])) + xe)
        assert nf_equal(lhs, rhs)
        lhs2 = multiply([xe + u, ye + u])
        rhs2 = normalize(readback(multiply([xe, ye])) + xe + ye + u)
        assert nf_equal(lhs2, rhs2)


def test_full_outer_join_visits_each_input_once():
    # (r + 1)(s + 1) of two 2-row relations with k columns each: every
    # level is all-baseline, each summand walks one input's 2k edges, and
    # the unit baselines are left out of every product
    from polyalg import metrics

    for k in (10, 20, 40):
        r = rel([(f"a{i}", INT) for i in range(k)], [(0,) * k, (1,) * k])
        s = rel([(f"b{i}", INT) for i in range(k)], [(0,) * k, (1,) * k])
        with metrics.fresh() as m:
            full = outer_join("full", r, s)
        assert (m.trie_edges, m.ring_mults) == (4 * k, 0)
        sides = [(STAR,) * k, (0,) * k, (1,) * k]
        assert rowdict(full) == {a + b: 1 for a in sides for b in sides}


def test_outer_join_with_empty_side():
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], [])
    # (x' + 1) * (0 + 1) = x' + 1: x at concrete keys plus baseline 1
    full = outer_join("full", x, y)
    rows = rowdict(full)
    assert rows == {
        ("a", 1, STAR): 1,
        ("b", 2, STAR): 1,
        ("c", 3, STAR): 1,
        (STAR, STAR, STAR): 1,
    }
    assert full.lookup(("a", 1, "fresh")) == 2
    assert full.lookup((STAR, 9, "zz")) == 1


def test_aggregate_goldens():
    r = rel([("A", STRING), ("B", INT)], [("p", 2), ("p", 3), ("q", 4)])
    s = aggregate(r, ["A"], "B", "sum")
    assert rowdict(s) == {("p",): 5, ("q",): 4}
    mn = aggregate(r, ["A"], "B", "min")
    assert [k for k, _ in mn.rows()] == [("p", 2), ("q", 4)]
    mx = aggregate(r, ["A"], "B", "max")
    assert [k for k, _ in mx.rows()] == [("p", 3), ("q", 4)]
    ct = aggregate(r, ["A"], "B", "count")
    assert rowdict(ct) == {("p",): 2, ("q",): 1}


def test_aggregate_guards():
    r = rel([("A", STRING), ("B", INT)], [("p", 2)], ring=GF2)
    with pytest.raises(RelationError):
        aggregate(r, ["A"], "B", "sum")
    z = rel([("A", STRING), ("B", INT)], [("p", 2)])
    with pytest.raises(RelationError):
        aggregate(z, [], "B", "sum")
    with pytest.raises(RelationError):
        aggregate(z, ["A"], "A", "min")
    s = rel([("A", STRING), ("B", STRING)], [("p", "x")])
    with pytest.raises(RelationError):
        aggregate(s, ["A"], "B", "min")


def test_aggregate_min_handles_cancelled_values():
    r = weighted(
        [("A", STRING), ("B", INT)],
        [(("p", 2), 1), (("p", 2), -1), (("p", 3), 1)],
    )
    mn = aggregate(r, ["A"], "B", "min")
    assert [k for k, _ in mn.rows()] == [("p", 3)]


def test_aggregate_group_order_and_real_sums():
    # the group key follows the order of the `group` argument, not the
    # chain's, and over the reals the level-at-a-time fold adds in row
    # order, so its sums equal a row-by-row reference exactly
    import random

    rng = random.Random(9)
    rows = [((rng.choice("pqr"), rng.randrange(-50, 50), rng.choice("xy")), rng.uniform(-3, 3))
            for _ in range(300)]
    r = weighted([("S", STRING), ("V", INT), ("K", STRING)], rows, ring=REAL)
    for group in (["K", "S"], ["S", "K"], ["K"]):
        want = {}
        for row, c in r.rows():  # key order
            key = tuple(row[["S", "V", "K"].index(n)] for n in group)
            want[key] = REAL.add(want.get(key, REAL.zero), REAL.mul(c, REAL.coerce(row[1])))
        got = aggregate(r, group, "V", "sum")
        assert got.schema.names == group
        assert rowdict(got) == {k: v for k, v in want.items() if not REAL.is_zero(v)}
    mx = aggregate(r, ["K", "S"], "V", "max")
    assert mx.schema.names == ["K", "S", "V"]
    assert rowdict(mx) == {(k, s, max(row[1] for row, _ in r.rows() if row[0] == s and row[2] == k)): 1.0
                           for s in "pqr" for k in "xy"}


_BIG_TARGETS = st.sampled_from([0, 1, -7, 2**53 + 1, 2**53 + 3, -(2**60) - 5, 2**63 - 1, -(2**63)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("pqr"), _BIG_TARGETS,
                          st.sampled_from([1.0, -1.0, 0.5, -0.25, 0.1, -3.7, 1e-3, 2.0**-40])),
                min_size=1, max_size=12, unique_by=lambda t: (t[0], t[1])))
def test_aggregate_real_sum_is_a_row_order_fold_bit_for_bit(rows):
    # each row adds c * float(v) in row order, with v past 2**53 rounded as
    # float(v) rounds it
    import struct

    r = weighted([("S", STRING), ("V", INT)], [((s, v), c) for s, v, c in rows], ring=REAL)
    want = {}
    for (s, v), c in r.rows():
        want[(s,)] = want[(s,)] + c * float(v) if (s,) in want else c * float(v)
    got = rowdict(aggregate(r, ["S"], "V", "sum"))
    assert got.keys() == {g for g, t in want.items() if not REAL.is_zero(t)}
    for g, t in got.items():
        assert struct.pack("<d", t) == struct.pack("<d", want[g])


# few keys a column, so that groups hold several rows
_AGG_KEYS = {
    INT: st.sampled_from([7, 2**53 + 1, INT64_MIN, INT64_MAX]),
    STRING: st.sampled_from(["", "a\x00", "é", "日本\U0001f600"]),
}


@st.composite
def _aggregate_cases(draw):
    """A relation of 2 to 4 columns over Z or REAL, its target column at any
    position, and a group of other columns in any order."""
    n = draw(st.integers(2, 4))
    tpos = draw(st.integers(0, n - 1))
    prims = [INT if i == tpos else draw(st.sampled_from([INT, STRING])) for i in range(n)]
    group = draw(st.permutations([i for i in range(n) if i != tpos]))
    group = group[:draw(st.integers(1, len(group)))]
    ring = draw(st.sampled_from([Z, REAL]))
    # over REAL, weights whose sums round differently in another order
    coeff = (st.integers(-(2**80), 2**80) if ring is Z
             else st.sampled_from([1.0, -1.0, 0.1, 0.2, -0.3, 1e-3, 3.7, 2.0**-40, 1e16]))
    rows = draw(st.lists(st.tuples(st.tuples(*(_AGG_KEYS[p] for p in prims)), coeff),
                         min_size=4, max_size=24))
    # deletions that cancel some of the rows outright
    rows += [(row, -c) for row, c in rows if draw(st.booleans())]
    names = [f"C{i}" for i in range(n)]
    return weighted(list(zip(names, prims)), rows, ring=ring), [names[p] for p in group], names[tpos]


@settings(max_examples=150, deadline=None)
@given(_aggregate_cases())
def test_aggregate_equals_a_row_by_row_fold(case):
    for fold in ("sum", "min", "max"):
        _check_aggregate_against_rows(*case, fold)


def _check_aggregate_against_rows(r, group, target, fold):
    import struct

    ring, names = r.ring, r.schema.names
    gpos, tpos = [names.index(g) for g in group], names.index(target)
    merge = {"sum": lambda a, b: a + b, "min": min, "max": max}[fold]
    want = {}
    for row, c in r.rows():  # row order
        g, v = tuple(row[p] for p in gpos), row[tpos]
        w = (c * float(v) if ring is REAL else c * v) if fold == "sum" else v
        want[g] = merge(want[g], w) if g in want else w
    out = aggregate(r, group, target, fold)
    got = rowdict(out)
    if fold != "sum":
        assert out.schema.names == group + [target]
        assert got == {g + (v,): ring.one for g, v in want.items()}
        return
    assert out.schema.names == group
    assert got.keys() == {g for g, t in want.items() if not ring.is_zero(t)}
    for g, t in got.items():
        assert type(t) is type(want[g])
        assert struct.pack("<d", t) == struct.pack("<d", want[g]) if ring is REAL else t == want[g]


def test_aggregate_integer_sums_are_exact_and_gf2_sums_refused():
    big = [2**62, 2**62 - 1, -(2**63), 2**53 + 1]
    r = weighted([("S", STRING), ("V", INT)],
                 [(("p", v), c) for v, c in zip(big, (3, -5, 7, 11))] + [(("q", 0), 4)])
    got = rowdict(aggregate(r, ["S"], "V", "sum"))
    assert got == {("p",): 3 * 2**62 - 5 * (2**62 - 1) - 7 * 2**63 + 11 * (2**53 + 1)}
    assert all(type(c) is int for c in got.values())
    g = rel([("S", STRING), ("V", INT)], [("p", 2**60)], ring=GF2)
    with pytest.raises(RelationError, match="gf2"):
        aggregate(g, ["S"], "V", "sum")


def test_aggregate_folds_without_listing_rows(monkeypatch):
    # each aggregate, count and projection folds its input's levels in
    # place, and each selection and clamp filters them: none lists rows with
    # `enumerate_nf` or goes through a term. A fold charges the trie edges
    # that listing the input's rows would, and builds its output from
    # totals; a filter charges the entries it iterates and the levels it
    # builds. `rename` and `map_col` read every level as listing the rows
    # would, and build their output from the key columns they read
    from polyalg import metrics, normal, product, relation, relational, terms

    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    r = weighted([("K", INT), ("S", STRING), ("V", INT)],
                 [((1, "a", 5), 2), ((2, "b", 7), -1), ((3, "a", 4), 1)])
    left = outer_join("left", r, rel([("S", STRING), ("L", INT)], [("a", 9)]))
    with metrics.fresh() as listed:
        normal.enumerate_nf(r.nf())
    for mod in (normal, product, relation, relational, terms):
        for name in ("normalize", "readback", "enumerate_nf"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    for fold in ("sum", "min", "max", "count"):  # `_built` charges the output's own edges
        with metrics.fresh() as m:
            relational._group_totals(r, [1], None if fold == "count" else 2, fold)
        assert m.trie_edges == listed.trie_edges
    # K < V keeps every row: the input's form is shared and nothing is built
    with metrics.fresh() as m:
        every = select(r, Compare("<", "K", other_column="V"))
    assert every.nf() is r.nf() and m.trie_edges == listed.trie_edges
    with metrics.fresh() as m:  # the root's 3 entries iterated, the 2 kept built
        picked = select(r, Compare("!=", "K", 2))
    assert m.trie_edges == 3 + 2
    with metrics.fresh() as m:  # K = 2 loses its only row, so only the root is built
        clamped = clamp_nonneg(r)
    assert m.trie_edges == listed.trie_edges + 2
    assert calls == []
    out = {fold: aggregate(r, ["S"], "V", fold) for fold in ("sum", "min", "max", "count")}
    kept = {"VS": project(r, ["V", "S"]), "LK": project(left, ["L", "K"]),
            "SL": select(left, Compare("<", "S", "b")), "KV": select(r, BoolPred(
                "or", (Compare("<", "K", other_column="V"), Compare("=", "S", "b"))))}
    assert calls == []
    with metrics.fresh() as m:  # the input's levels read, the output's 3 + 3 + 3 entries built
        kept["VKS"] = rename(r, [2, 0, 1])
    assert m.trie_edges == listed.trie_edges + 9
    with metrics.fresh() as m:
        kept["inc"] = map_col(r, "V", "inc")
    assert m.trie_edges == listed.trie_edges + 9
    assert calls == []
    assert rowdict(out["sum"]) == {("a",): 14, ("b",): -7}
    assert rowdict(out["min"]) == {("a", 4): 1, ("b", 7): 1}
    assert rowdict(out["max"]) == {("a", 5): 1, ("b", 7): 1}
    assert rowdict(out["count"]) == {("a",): 3, ("b",): -1}
    assert rowdict(picked) == {(1, "a", 5): 2, (3, "a", 4): 1}
    assert rowdict(clamped) == {(1, "a", 5): 2, (3, "a", 4): 1}
    assert rowdict(kept["VS"]) == {(4, "a"): 1, (5, "a"): 2, (7, "b"): -1}
    assert rowdict(kept["LK"]) == {(9, 1): 2, (9, 3): 1, (STAR, 1): 2, (STAR, 2): -1, (STAR, 3): 1}
    assert rowdict(kept["SL"]) == {(1, "a", 5, STAR): 2, (1, "a", 5, 9): 2,
                                   (3, "a", 4, STAR): 1, (3, "a", 4, 9): 1}
    assert rowdict(kept["KV"]) == rowdict(r)
    assert rowdict(kept["VKS"]) == {(5, 1, "a"): 2, (7, 2, "b"): -1, (4, 3, "a"): 1}
    assert rowdict(kept["inc"]) == {(1, "a", 6): 2, (2, "b", 8): -1, (3, "a", 5): 1}


def test_aggregate_of_wildcards_and_of_nothing():
    # wildcards in the last column (C), in the target column (D), and in a
    # middle column (X), each summed out or folded
    last = outer_join("left", rel(AB, X3), rel([("B", INT), ("C", STRING)], Y3))
    target = outer_join("left", rel(AB, X3), rel([("B", INT), ("D", INT)], [(2, 5), (9, 6)]))
    middle = outer_join("right", rel([("A", STRING), ("X", INT), ("B", INT)], [("a", 0, 1)]),
                        rel([("A", STRING), ("B", INT), ("D", INT)], [("a", 1, 4), ("b", 2, 5)]))
    assert middle.schema.names == ["A", "X", "B", "D"]
    assert rowdict(middle) == {("a", 0, 1, 4): 1, ("a", STAR, 1, 4): 1, ("b", STAR, 2, 5): 1}
    for fold in ("sum", "min", "max"):
        for r, grouped, folded in ((last, "A", "B"), (target, "A", "D"), (middle, "B", "D")):
            with pytest.raises(RelationError,
                               match="cannot aggregate a relation with wildcard rows"):
                aggregate(r, [grouped], folded, fold)
    r = rel([("A", STRING), ("B", INT), ("C", INT)], [("a", 1, 2)])
    empty = diff(r, r)
    for fold in ("sum", "min", "max", "count"):
        out = aggregate(empty, ["C", "A"], "B", fold)
        assert out.rows() == []
        assert out.schema.names[:2] == ["C", "A"]


def test_a_refused_read_charges_the_levels_above_it():
    # a filter, a fold or the row walk refused at a level charges every
    # level above it and nothing of the refusing level, whatever the order
    # of its nodes: here the K, S and V levels' 2 + 2 + 2 entries, and not
    # the L entry of group "a", read before group "b"'s wildcard
    from polyalg import metrics
    from polyalg.normal import InfiniteSupport, enumerate_nf
    from polyalg.relation import _built

    sch = schema(("K", INT), ("S", STRING), ("V", INT), ("L", INT))
    r = _built(sch, Z, [((1, "a", 5, 9), 1), ((2, "b", 7, STAR), 1)])
    for refused, error, message in (
            (lambda: select(r, Compare("=", "L", 9)), RelationError,
             "cannot select on wildcard-bearing column 'L'"),
            (lambda: clamp_nonneg(r), RelationError, "cannot clamp a relation with wildcard rows"),
            (lambda: aggregate(r, ["S"], "V", "sum"), RelationError,
             "cannot aggregate a relation with wildcard rows"),
            (lambda: enumerate_nf(r.nf()), InfiniteSupport, "infinite support")):
        with metrics.fresh() as m, pytest.raises(error, match=message):
            refused()
        assert m.trie_edges == 6, message


def test_map_col_goldens():
    r = rel([("A", STRING)], [("foo",), ("bar",)])
    up = map_col(r, "A", "upper")
    assert rowdict(up) == {("FOO",): 1, ("BAR",): 1}
    const = map_col(r, "A", lambda s: "c")
    assert rowdict(const) == {("c",): 2}
    ident = map_col(r, "A", lambda s: s)
    assert ident.equals(r)
    length = map_col(r, "A", "length")
    assert rowdict(length) == {(3,): 2}
    assert length.schema.columns[0][1] == INT
    with pytest.raises(RelationError):
        map_col(r, "A", "abs")
    with pytest.raises(RelationError):
        map_col(r, "A", "no_such_fn")


def test_updates_are_additions():
    db = rel([("A", STRING)], [("a",), ("b",)])
    delta = weighted([("A", STRING)], [(("c",), 1), (("b",), -1)])
    out = apply_update(db, delta)
    assert rowdict(out) == {("a",): 1, ("c",): 1}
    # applying to a database missing b leaves a negative occurrence
    small = rel([("A", STRING)], [("a",)])
    neg = apply_update(small, delta)
    assert rowdict(neg) == {("a",): 1, ("b",): -1, ("c",): 1}
    fixed = apply_update(neg, rel([("A", STRING)], [("b",)]))
    assert rowdict(fixed) == {("a",): 1, ("c",): 1}


def _kvs_relation(n, seed):
    """A cached (K:int, S:str, V:int) relation of n random rows, and a
    100-row delta of 50 fresh rows and 50 deletions."""
    import random

    r = random.Random(seed)
    words = ["".join(r.choice("abcdefghij") for _ in range(r.randint(3, 8))) for _ in range(30)]
    keys = r.sample(range(-2**40, 2**40), n + 50)
    cols = [("K", INT), ("S", STRING), ("V", INT)]
    rows = [(k, r.choice(words), r.randrange(1000)) for k in keys[:n]]
    db = rel(cols, rows)
    db.nf()
    delta = [((k, r.choice(words), r.randrange(1000)), 1) for k in keys[n:]]
    delta += [(row, -1) for row in r.sample(rows, 50)]
    model = dict.fromkeys(rows, 1)
    for row, c in delta:
        model[row] = model.get(row, 0) + c
    return db, weighted(cols, delta), {k: v for k, v in model.items() if v}


def test_update_cost_follows_the_delta():
    from polyalg import metrics

    edges = []
    for n in (2000, 8000):
        db, delta, want = _kvs_relation(n, seed=n)
        held = delta._nf
        counts = []
        for _ in range(2):
            with metrics.fresh() as m:
                apply_update(db, delta).nf()
            counts.append(m.trie_edges)
        # operators never replace an input's form, so a repeat costs the same
        assert delta._nf is held
        assert counts[0] == counts[1]
        assert rowdict(apply_update(db, delta)) == want
        edges.append(counts[0])
    # renormalising the whole relation costs 14,000 and 56,000 edges here
    assert edges[0] <= 3000, edges
    assert edges[1] <= 1.5 * edges[0], edges


def test_update_order_irrelevant(rng):
    base = weighted([("A", INT)], [((i,), rng.randint(-2, 2) or 1) for i in range(4)])
    deltas = [
        weighted([("A", INT)], [((rng.randint(0, 5),), rng.choice([-1, 1]))])
        for _ in range(4)
    ]
    acc1 = base
    for d in deltas:
        acc1 = apply_update(acc1, d)
    acc2 = base
    for d in reversed(deltas):
        acc2 = apply_update(acc2, d)
    assert acc1.equals(acc2)


def test_clamp():
    r = weighted([("A", STRING)], [(("a",), 1), (("b",), -1), (("c",), 3)])
    assert rowdict(clamp_nonneg(r)) == {("a",): 1, ("c",): 3}
    allpos = weighted([("A", STRING)], [(("a",), 2)])
    assert clamp_nonneg(allpos).equals(allpos)
    cancelled = diff(r, r)
    assert rowdict(clamp_nonneg(cancelled)) == {}
    g = rel([("A", STRING)], [("a",)], ring=GF2)
    with pytest.raises(RelationError):
        clamp_nonneg(g)


def test_select_over_wildcard_rows_reads_only_its_columns():
    # a selection filters the form's levels down to the last column it
    # reads: a wildcard in a column it does not read is kept, one in a
    # column it reads has no finite selection, whatever the predicate's
    # shape. Clamp reads every column
    middle = outer_join("right", rel([("A", STRING), ("X", INT), ("B", INT)], [("a", 0, 1)]),
                        rel([("A", STRING), ("B", INT), ("D", INT)], [("a", 1, 4), ("b", 2, 5)]))
    assert middle.schema.names == ["A", "X", "B", "D"]
    assert select(middle, Compare("<", "B", other_column="D")).nf() is middle.nf()
    both = BoolPred("and", (Compare("=", "A", "a"), Compare("<", "B", other_column="D")))
    assert rowdict(select(middle, both)) == {("a", 0, 1, 4): 1, ("a", STAR, 1, 4): 1}
    either = BoolPred("or", (Compare("=", "A", "b"), Compare("=", "X", 0)))
    for pred in (Compare("=", "X", other_column="B"), either, Compare("=", "X", 0)):
        with pytest.raises(RelationError) as e:
            select(middle, pred)
        assert str(e.value) == "cannot select on wildcard-bearing column 'X'"
    left = outer_join("left", rel(AB, X3), rel([("B", INT), ("C", STRING)], Y3))
    below = BoolPred("and", (Compare("=", "A", "b"), Compare(">", "B", 1)))
    assert rowdict(select(left, below)) == {("b", 2, STAR): 1, ("b", 2, "p"): 1}
    with pytest.raises(RelationError) as e:
        select(left, Compare("<", "A", other_column="C"))
    assert str(e.value) == "cannot select on wildcard-bearing column 'C'"
    for r in (middle, left):
        with pytest.raises(RelationError) as e:
            clamp_nonneg(r)
        assert str(e.value) == "cannot clamp a relation with wildcard rows"


def test_clamp_rejects_baselines():
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], Y3)
    full = outer_join("full", x, y)
    with pytest.raises(RelationError):
        clamp_nonneg(full)


def test_ops_are_linear_in_each_argument(rng):
    def randrel():
        rows = [((rng.randint(0, 3), rng.choice("xyz")), rng.randint(-2, 2) or 1)
                for _ in range(rng.randint(0, 5))]
        return weighted([("A", INT), ("B", STRING)], rows)

    for _ in range(10):
        r, r2, s = randrel(), randrel(), randrel()
        lhs = union(union(r, r2), s)
        rhs = union(union(r, s), r2)
        assert lhs.equals(rhs)
        # selection is additive
        pred = Compare("<", "A", 2)
        assert select(union(r, r2), pred).equals(union(select(r, pred), select(r2, pred)))
        # projection is additive
        assert project(union(r, r2), ["B"]).equals(
            union(project(r, ["B"]), project(r2, ["B"]))
        )
        # the join is linear in each input (shared attribute A)
        s2 = relabel(s, ["A", "C"])
        assert natural_join([union(r, r2), s2]).equals(
            union(natural_join([r, s2]), natural_join([r2, s2]))
        )


def test_relabel():
    r = rel(AB, X3)
    out = relabel(r, ["X", "Y"])
    assert out.schema.names == ["X", "Y"]
    assert rowdict(out) == rowdict(r)
    with pytest.raises(RelationError):
        relabel(r, ["X"])


def test_union_of_product_and_loaded_relation():
    # differently parenthesised spaces reassociate transparently
    r = rel([("A", STRING)], [("a",)])
    s = rel([("B", INT)], [(1,)])
    prod = cartesian(r, s)
    flat = rel(AB, [("a", 1)])
    out = union(prod, flat)
    assert rowdict(out) == {("a", 1): 2}


def _mixed_chain_inputs():
    # (outer left R S) x T has wildcard rows; (join R S) x T is finite
    r = rel([("K", INT), ("S", STRING)], [(1, "a"), (2, "b"), (3, "c")])
    s = rel([("K", INT), ("X", STRING)], [(1, "x"), (2, "y")])
    t = rel([("Z", INT)], [(7,), (8,)])
    return cartesian(outer_join("left", r, s), t), cartesian(natural_join([r, s]), t)


def test_set_ops_widen_mixed_and_plain_chains():
    mixed, plain = _mixed_chain_inputs()
    zs = (7, 8)
    matched = {(1, "a", "x", z): 1 for z in zs} | {(2, "b", "y", z): 1 for z in zs}
    leftover = {(k, s, STAR, z): 1 for k, s in [(1, "a"), (2, "b"), (3, "c")] for z in zs}
    for a, b in [(mixed, plain), (plain, mixed)]:
        assert rowdict(union(a, b)) == {key: 2 for key in matched} | leftover
        assert rowdict(intersect(a, b)) == {key: 2 for key in matched}
        assert rowdict(apply_update(a, b)) == rowdict(union(a, b))
    assert rowdict(diff(mixed, plain)) == leftover
    assert rowdict(diff(plain, mixed)) == {key: -1 for key in leftover}


def test_equals_across_compact_and_plain_forms():
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], Y3)
    left, inner = outer_join("left", x, y), natural_join([x, y])
    assert left.has_baseline() and not inner.has_baseline()
    assert left.equals(inner) is False
    assert inner.equals(left) is False
    # a finite relation and one with wildcard rows share one chain, so a
    # union with a cancelled outer join changes neither the space nor the rows
    widened = union(inner, diff(left, left))
    assert widened.nf().space == inner.nf().space == left.nf().space
    assert widened.equals(inner) is True
    assert inner.equals(widened) is True


def test_empty_relations_keep_their_chain_through_every_rewrite():
    # every relation over a schema lives in the schema's compact chain, so a
    # rewrite's output space follows from its schema alone: with rows or
    # without, and whatever chain its input's data came in
    from polyalg import CompactFree, Free, Relation, Tensor, normalize, strip_compact

    cols = [("K", INT), ("S", STRING), ("X", STRING), ("Z", INT)]
    sch = schema(*cols)
    plain = tensor_chain(Z, sch.prims)
    mixed = Tensor(CompactFree(Z, INT),
                   Tensor(Free(Z, STRING), Tensor(CompactFree(Z, STRING), Free(Z, INT))))
    w = rel([("W", INT)], [(1,)])
    v = rel([("K", INT), ("V", INT)], [(1, 5), (3, 6)])

    def rewrites(e):
        return [
            e,
            rename(e, [3, 0, 1, 2]),
            project(e, ["Z", "K"]),
            select(e, Compare("=", "K", 1)),
            select(e, Compare("<", "S", other_column="X")),
            map_col(e, "K", "inc"),
            cartesian(e, w),
            union(e, e),
            intersect(e, e),
            natural_join([e, v]),
            outer_join("left", e, v),
            aggregate(e, ["S"], "Z", "sum"),
            aggregate(e, ["S"], "Z", "min"),
            clamp_nonneg(e),
        ]

    for data in ([], [((1, "a", "x", 7), 1), ((2, "b", "y", 7), 2), ((2, "c", "a", 8), -1)]):
        born = weighted(cols, data)
        want = [out.rows() for out in rewrites(born)]
        assert want[0] == sorted(data)
        inputs = [
            born,
            Relation(sch, Z, nf=strip_compact(born.nf())),
            Relation(sch, Z, row_sum(plain, data)),
            Relation(sch, Z, row_sum(mixed, data)),
            Relation(sch, Z, nf=normalize(row_sum(mixed, data))),
        ]
        for e in inputs:
            outs = rewrites(e)
            for out in outs:
                chain = tensor_chain(Z, out.schema.prims, compact=True)
                assert out.nf().space == chain, out.schema.render()
            assert [out.rows() for out in outs] == want


def test_relation_data_must_fit_its_schema_and_ring():
    from polyalg import Relation

    x = rel(AB, X3)
    with pytest.raises(RelationError):
        Relation(schema(("Q", INT)), GF2, x.chain_term())
    with pytest.raises(RelationError):
        Relation(schema(("Q", INT), ("P", STRING)), Z, nf=x.nf())
    with pytest.raises(RelationError):
        Relation(schema(*AB), REAL, nf=x.nf())


def test_relation_from_a_term_needs_a_chain_of_free_factors():
    from polyalg import Biproduct, Free, Relation, Tensor, zero

    a, b, c = (Free(Z, p) for p in (STRING, INT, INT))
    sch = schema(("A", STRING), ("B", INT), ("C", INT))
    assert Relation(sch, Z, zero(Tensor(a, Tensor(b, c)))).rows() == []
    for space in (Tensor(Tensor(a, b), c), Biproduct(a, b)):
        with pytest.raises(RelationError):
            Relation(sch, Z, zero(space))
    with pytest.raises(RelationError):
        Relation(sch, Z)


def test_row_operators_on_relations_built_from_terms():
    from polyalg import Relation

    def held_as_term(rel):
        return Relation(rel.schema, rel.ring, rel.chain_term())

    r = held_as_term(weighted(
        [("A", STRING), ("B", INT), ("C", INT)],
        [(("a", 1, 5), 2), (("a", 2, 7), -1), (("b", 3, 4), 1)],
    ))
    other = held_as_term(weighted([("A", STRING), ("B", INT), ("C", INT)], [(("a", 1, 5), 2)]))
    agg = aggregate(r, ["A"], "C", "sum")
    kept = clamp_nonneg(r)
    either = BoolPred("or", (Compare("=", "A", "b"), Compare("<", "B", other_column="C")))
    picked = select(r, either)
    same = r.equals(other)
    assert rowdict(agg) == {("a",): 3, ("b",): 4}
    assert rowdict(kept) == {("a", 1, 5): 2, ("b", 3, 4): 1}
    assert rowdict(picked) == {("a", 1, 5): 2, ("a", 2, 7): -1, ("b", 3, 4): 1}
    assert not same


# rows against the row-sum term ---------------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
ADVERSARIAL_KEYS = {
    INT: st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]), st.integers(-3, 3)),
    # "" and nested prefixes, multi-byte and astral characters
    STRING: st.one_of(st.sampled_from(["", "a", "aa", "aaa", "ab", "é", "éa", "中", "\U0001f600"]),
                      st.text(max_size=3)),
}
# halves keep every real sum exact, whatever order the additions run in
COEFFS = {Z: st.integers(-2, 2), GF2: st.booleans(), REAL: st.sampled_from([-1.5, -0.5, 0.0, 0.5, 2.0])}
SCHEMAS = [
    [("K", INT), ("S", STRING), ("V", INT)],
    [("S", STRING), ("K", INT)],
    [("S", STRING)],
]


def row_sum(space, rows):
    """The rows as one term in the chain `space`: a sum of scaled tensors of
    generators."""
    from polyalg import Tensor, inject, scale, sum_terms, tensor

    def gen(row, space):
        if isinstance(space, Tensor):
            return tensor(inject(row[0], space.lhs), gen(row[1:], space.rhs))
        return inject(row[0], space)

    ring = space.ring
    return sum_terms(space, [scale(ring.coerce(c), gen(row, space)) for row, c in rows])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rows_build_the_normal_form_of_their_sum(data):
    from polyalg import enumerate_nf, nf_equal, normalize

    ring = data.draw(st.sampled_from([Z, GF2, REAL]))
    sch = schema(*data.draw(st.sampled_from(SCHEMAS)))
    row = st.tuples(*(ADVERSARIAL_KEYS[p] for p in sch.prims))
    rows = data.draw(st.lists(st.tuples(row, COEFFS[ring]), max_size=12))
    if rows:
        # repeat some rows, some negated so that they cancel
        again = data.draw(st.lists(st.sampled_from(rows), max_size=6))
        rows += [(r, c if data.draw(st.booleans()) else ring.neg(c)) for r, c in again]
    got = relation_from_rows(sch, ring, rows).nf()
    want = normalize(row_sum(tensor_chain(ring, sch.prims, compact=True), rows))
    assert nf_equal(got, want)
    # exact keys, order and coefficients: a canonical form is determined by
    # its row listing, so this holds over the real ring too
    assert enumerate_nf(got, allow_baseline=True) == enumerate_nf(want, allow_baseline=True)


# the one-pass builder against the recursive one it replaced ------------------

def _rows_nf(space, rows, i):
    """Reference builder: the chain form of checked (row, coefficient) pairs
    from column `i` on, the rows grouped by that column and each group's
    form built recursively below its key, one `entries_nf` per node."""
    from polyalg import Tensor
    from polyalg.terms import entries_nf

    if not isinstance(space, Tensor):
        return entries_nf(space, [(row[i], c) for row, c in rows])
    groups = {}
    for rc in rows:
        groups.setdefault(rc[0][i], []).append(rc)
    return entries_nf(space, [(k, _rows_nf(space.rhs, g, i + 1)) for k, g in groups.items()])


def layout(nf):
    """A form's tries as (key, payload) lists in their stored key order,
    each with its baseline; a real coefficient as its exact bits."""
    from polyalg.normal import MapNF

    if not isinstance(nf, MapNF):
        return nf.hex() if isinstance(nf, float) else nf
    trie = None if nf.trie is None else [(k, layout(v)) for k, v in nf.trie.items()]
    return trie, layout(nf.base)


_SUM = Sum(INT, STRING)
BUILD_KEYS = {
    INT: st.sampled_from([0, 1, 2, INT64_MIN]),
    STRING: st.sampled_from(["", "a", "é"]),
    _SUM: st.sampled_from([("L", 0), ("L", 1), ("R", "a")]),
    INT_WITH_INF: st.sampled_from([0, 1, INF]),
}
BUILD_SCHEMAS = [
    [("K", INT)],
    [("X", _SUM)],
    [("K", INT), ("S", STRING), ("M", INT_WITH_INF)],
    [("X", _SUM), ("M", INT_WITH_INF), ("K", INT)],
]
# inexact reals, so that a sum in another order differs in its last bits,
# and one below the real ring's zero tolerance
BUILD_COEFFS = {Z: st.integers(-2, 2), GF2: st.booleans(),
                REAL: st.sampled_from([0.0, 0.1, 0.2, -0.3, 1 / 3, 1e-10])}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rows_build_the_form_the_recursive_builder_builds(data):
    from polyalg import metrics
    from polyalg.relation import _built

    ring = data.draw(st.sampled_from([Z, GF2, REAL]))
    sch = schema(*data.draw(st.sampled_from(BUILD_SCHEMAS)))
    stars = data.draw(st.booleans())  # wildcard rows reach the builder through `_built` only
    keys = [st.one_of(BUILD_KEYS[p], st.just(STAR)) if stars else BUILD_KEYS[p]
            for p in sch.prims]
    rows = data.draw(st.lists(st.tuples(st.tuples(*keys), BUILD_COEFFS[ring]), max_size=16))
    if rows:
        # repeat some rows, some negated so that they cancel
        again = data.draw(st.lists(st.sampled_from(rows), max_size=8))
        rows += [(r, c if data.draw(st.booleans()) else ring.neg(c)) for r, c in again]
    with metrics.fresh() as m:
        want = _rows_nf(sch.chain(ring), rows, 0)
    with metrics.fresh() as n:
        got = (_built if stars else relation_from_rows)(sch, ring, rows).nf()
    # the same keys in the same stored order, the same coefficients to the
    # bit and so the same rows, for the same trie edges
    assert layout(got) == layout(want)
    assert n.trie_edges == m.trie_edges


def test_built_levels_live_in_the_tails_of_the_schema_chain():
    # `_built` walks the schema's chain down by `.rhs`, and `tensor_chain`
    # holds one chain per prim list, so every node of level d is in the very
    # chain of the columns from d on, as the joint product's `is` tests need
    from polyalg.relation import _built

    prims = [INT, STRING] * 50
    sch = schema(*((f"C{i}", p) for i, p in enumerate(prims)))
    rows = [(tuple(i if p is INT else str(i) for p in prims), 1) for i in range(2)]
    nodes = [_built(sch, Z, rows).nf()]
    for d in range(len(prims)):
        assert all(x.space is tensor_chain(Z, prims[d:], compact=True) for x in nodes)
        nodes = [y for x in nodes for y in x.trie.values()]
    assert nodes == [1, 1]


@pytest.mark.parametrize("rows, error, message", [
    ([((1, "a"), 1), ((1,), 1)], RelationError, "row (1,) does not fit schema K:int,S:str"),
    ([((True, "a"), 1)], PrimValueError, "True is not a value of Int64"),
    ([((2**63, "a"), 1)], PrimValueError, "9223372036854775808 is not a value of Int64"),
    ([((-2**63 - 1, "a"), 1)], PrimValueError, "-9223372036854775809 is not a value of Int64"),
    ([((1, 2), 1)], PrimValueError, "2 is not a value of Str"),
    ([((1, "a"), "x")], TypeError, "'x' is not an integer multiplicity"),
    ([((1, "a"), True)], TypeError, "booleans are not integer multiplicities"),
    # two bad rows: the first is reported, whatever the second's fault
    ([((1, "a"), 1), ((2, 3), 1), ((1, "a", 5), 1)], PrimValueError, "3 is not a value of Str"),
    ([((1, "a"), 1.5), ((1,), 1)], TypeError, "1.5 is not an integer multiplicity"),
    ([((1,), 1), 5], RelationError, "row (1,) does not fit schema K:int,S:str"),
])
def test_rows_that_do_not_fit_fail_at_the_first_bad_row(rows, error, message):
    with pytest.raises(error) as e:
        relation_from_rows(schema(("K", INT), ("S", STRING)), Z, rows)
    assert type(e.value) is error and str(e.value) == message


@pytest.mark.parametrize("ring, given, stored", [
    (Z, [2**70, -3, 5], [2**70, -3, 5]),
    (REAL, [1.5, -0.25, 0.1], [1.5, -0.25, 0.1]),
    (REAL, [1.5, 2, -(2**60)], [1.5, 2.0, -(2.0**60)]),
    (GF2, [True, True], [True, True]),
    (GF2, [True, 1, 0], [True, True]),
])
def test_building_from_rows_keeps_ring_elements_and_coerces_the_rest(ring, given, stored):
    # coefficients of the ring's element type are used as they are; a list
    # with any other type is coerced a coefficient at a time
    r = relation_from_rows(schema(("K", INT)), ring, [((i,), c) for i, c in enumerate(given)])
    got = [c for _, c in r.rows()]
    assert got == stored
    assert [type(c) for c in got] == [type(c) for c in stored]


def test_building_from_rows_needs_the_same_frames_at_any_width():
    from test_product import _frames_needed

    needed = []
    for n in (10, 100):
        sch = schema(*[(f"C{i}", INT) for i in range(n)])
        # two rows, and a row and its negation, whose path of nodes below
        # the first column is left empty and deleted
        gone = (1, 3) + (1,) * (n - 2)
        rows = [((1,) * n, 1), ((2,) * n, 1), (gone, 1), (gone, -1)]
        assert len(relation_from_rows(sch, Z, rows).rows()) == 2
        needed.append(_frames_needed(lambda: relation_from_rows(sch, Z, rows)))
    assert needed[0] == needed[1], needed


def test_nested_prefix_column_deeper_than_the_recursion_limit():
    from polyalg.normal import enumerate_nf, nf_scale

    n = 3000
    assert n > sys.getrecursionlimit()
    keys = ["a" * i for i in range(1, n + 1)]
    r = weighted([("S", STRING), ("K", INT)], [((k, i), 1) for i, k in enumerate(keys)])
    doubled = nf_scale(2, r.nf())  # maps the string level's payloads
    assert enumerate_nf(doubled) == [((k, i), 2) for i, k in enumerate(keys)]
    # the join embeds and strips r's form, mapping the string level twice
    ends = natural_join([r, rel([("K", INT)], [(0,), (n - 1,)])])
    assert rowdict(ends) == {(keys[0], 0): 1, (keys[-1], n - 1): 1}


def test_form_held_inputs_join_and_select_without_terms(monkeypatch):
    from polyalg import normal, product, relation, relational, terms

    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    for mod in (normal, product, relation, relational, terms):
        for name in ("normalize", "readback", "strip_compact"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], Y3)
    z = rel([("A", STRING), ("C", STRING)], [("b", "p"), ("c", "z")])
    w = rel([("W", INT)], [(1,), (2,)])
    calls.clear()
    joined = natural_join([x, y, z])
    left = outer_join("left", x, y)
    picked = select(x, Compare("<", "B", 3))
    crossed = cartesian(x, w)
    kept = project(crossed, ["W", "A"])
    swapped = rename(crossed, [2, 0, 1])
    left_b = select(left, Compare("=", "A", "b"))
    # a wildcard in the filtered column has no finite selection
    with pytest.raises(RelationError):
        select(left, Compare("=", "C", "p"))
    assert calls == []
    # y's attributes (B, C) end the join's (A, B, C): below each surviving
    # (A, B) key the join holds y's own C-level form, not a copy
    below = [(b, c) for ab in joined.nf().trie.values() for b, c in ab.trie.items()]
    assert below and all(c is y.nf().trie[b] for b, c in below)
    assert rowdict(left_b) == {("b", 2, STAR): 1, ("b", 2, "p"): 1}
    assert rowdict(joined) == {("b", 2, "p"): 1}
    assert rowdict(left) == {(a, b, STAR): 1 for a, b in X3} | {("b", 2, "p"): 1, ("c", 3, "q"): 1}
    assert rowdict(picked) == {("a", 1): 1, ("b", 2): 1}
    assert rowdict(crossed) == {(a, b, c): 1 for a, b in X3 for c in (1, 2)}
    assert rowdict(kept) == {(c, a): 1 for a, _ in X3 for c in (1, 2)}
    assert rowdict(swapped) == {(c, a, b): 1 for a, b in X3 for c in (1, 2)}
    assert calls == []


def test_natural_join_embeds_nothing(monkeypatch):
    # form-held inputs, one out of first-appearance order, join as
    # positioned factors: no input is rebuilt into the output's chain
    from polyalg import normal, product, relational, tries

    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    for mod, name in ((product, "embed"), (tries, "map_values"), (normal, "nf_tensor"),
                      (product, "nf_tensor"), (relational, "nf_tensor")):
        monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    x = rel(AB, X3)
    y = rel([("B", INT), ("C", STRING)], Y3)
    z = rel([("C", STRING), ("A", STRING)], [("p", "b"), ("z", "c")])
    w = weighted([("D", INT), ("B", INT)], [((7, 2), 3), ((8, 3), -1), ((9, 4), 2)])
    calls.clear()
    joined = natural_join([x, y, z])
    crossed = natural_join([x, w])
    assert calls == []
    assert joined.schema.names == ["A", "B", "C"]
    assert rowdict(joined) == {("b", 2, "p"): 1}
    assert crossed.schema.names == ["A", "B", "D"]
    assert rowdict(crossed) == {("b", 2, 7): 3, ("c", 3, 8): -1}
    # outer joins pad each input in its own chain, and an intersection is
    # the same joint product with identical positions
    for kind in ("left", "right", "full"):
        outer_join(kind, x, z)
        outer_join(kind, z, w)
    intersect(x, rel(AB, X3[1:]))
    intersect(outer_join("full", x, y), outer_join("left", x, y))
    assert calls == []


def test_natural_join_multiplies_real_weights_in_factor_order():
    # x lacks B, so at the B level it is its coefficient, multiplied in its
    # own place after y's and z's: (y * z) * x, not folded in first
    y = weighted([("A", INT), ("B", INT)], [((0, 0), 0.1)], REAL)
    z = weighted([("B", INT)], [((0,), 0.1)], REAL)
    x = weighted([("A", INT)], [((0,), 0.7)], REAL)
    assert (0.1 * 0.1) * 0.7 != (0.7 * 0.1) * 0.1
    assert natural_join([y, z, x]).rows() == [((0, 0), (0.1 * 0.1) * 0.7)]


JOIN_TYPES = {"A": INT, "B": STRING, "C": INT, "D": INT}
JOIN_KEYS = {INT: st.integers(0, 2), STRING: st.sampled_from(["", "a", "ab"])}
# weights whose real products depend on the order they are multiplied in
JOIN_COEFFS = {Z: st.integers(-3, 3), GF2: st.booleans(),
               REAL: st.sampled_from([-1.1, -0.3, 0.1, 0.7, 1.0, 1.3, 2.9])}


@st.composite
def join_input(draw, ring, cols=None):
    if cols is None:
        names = draw(st.permutations(list(JOIN_TYPES)))[:draw(st.integers(1, 3))]
        cols = [(n, JOIN_TYPES[n]) for n in names]
    row = st.tuples(*(JOIN_KEYS[p] for _, p in cols))
    rows = draw(st.lists(st.tuples(row, JOIN_COEFFS[ring]), max_size=6))
    # repeat some rows, some negated so that they cancel
    again = draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    rows += [(r, c if draw(st.booleans()) else ring.neg(c)) for r, c in again]
    return weighted(cols, rows, ring)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_natural_join_equals_the_product_of_embedded_inputs(data):
    from polyalg import enumerate_nf, nf_equal, nf_product
    from polyalg.relational import _join_target

    ring = data.draw(st.sampled_from([Z, GF2, REAL]))
    rs = data.draw(st.lists(join_input(ring), min_size=2, max_size=4))
    for i, r in enumerate(rs):
        # an outer join's result carries wildcard baselines into the join
        if data.draw(st.integers(0, 3)) == 0:
            kind = data.draw(st.sampled_from(["left", "right", "full"]))
            rs[i] = outer_join(kind, r, data.draw(join_input(ring)))
    got = natural_join(rs)
    target = _join_target(rs)
    want = nf_product([embedded(r, target) for r in rs])
    assert got.schema == target
    assert nf_equal(got.nf(), want)
    # the same rows and coefficients, exactly: the factors multiply in the
    # same order, so real weights agree bit for bit
    assert enumerate_nf(got.nf(), allow_baseline=True) == enumerate_nf(want, allow_baseline=True)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_outer_join_and_intersect_equal_the_product_of_embedded_inputs(data):
    from polyalg import enumerate_nf, nf_add, nf_equal, nf_product
    from polyalg.normal import unit_nf

    ring = data.draw(st.sampled_from([Z, GF2, REAL]))
    kinds = st.sampled_from(["left", "right", "full"])
    rs = [data.draw(join_input(ring)) for _ in range(2)]
    for i, r in enumerate(rs):
        # inputs that are outer joins already carry wildcard baselines
        if data.draw(st.integers(0, 3)) == 0:
            rs[i] = outer_join(data.draw(kinds), r, data.draw(join_input(ring)))
    r, s = rs
    kind = data.draw(kinds)
    got = outer_join(kind, r, s)
    x, y = (embedded(q, got.schema) for q in rs)
    u = unit_nf(x.space)
    if kind != "left":
        x = nf_add(x, u)
    if kind != "right":
        y = nf_add(y, u)
    # a relation over r's schema, some of it r's own rows
    other = data.draw(join_input(ring, r.schema.columns))
    if data.draw(st.booleans()):
        other = union(other, r)
    cases = [(got, nf_product([x, y])), (intersect(r, other), nf_product([r.nf(), other.nf()]))]
    for got, want in cases:
        assert nf_equal(got.nf(), want)
        # real weights multiply in the same order, so they agree bit for bit
        assert enumerate_nf(got.nf(), allow_baseline=True) == \
            enumerate_nf(want, allow_baseline=True)
