"""The join evaluator: goldens, algebra laws, scheduling, differential checks."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyalg import (
    BOOL,
    GF2,
    INT,
    REAL,
    STAR,
    STRING,
    Z,
    CompactFree,
    Biproduct,
    CompactMap,
    FinMap,
    Free,
    Scalar,
    SpaceError,
    Tensor,
    embed,
    enumerate_nf,
    inject,
    maps_to,
    metrics,
    mul,
    multiply,
    naive_multiply,
    nf_equal,
    nf_lookup_path,
    normalize,
    readback,
    scale,
    sum_terms,
    tensor,
    tensor_chain,
    triangle,
    unit_one,
    weight,
    wild_one,
    zero,
)
import polyalg
from polyalg.normal import MapNF
from polyalg.bench import bipartite_relation, run_triangle
from polyalg.product import nf_join, nf_product

from conftest import rand_term
from test_oracles import _pointwise_product, expand

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

FS = Free(Z, STRING)
FI = Free(Z, INT)
CS = CompactFree(Z, STRING)
CI = CompactFree(Z, INT)


def strs(xs, space=FS):
    return sum_terms(space, [inject(x, space) for x in xs])


def pairs_rel(pairs, s1, s2):
    return sum_terms(
        Tensor(s1, s2), [tensor(inject(u, s1), inject(v, s2)) for u, v in pairs]
    )


def test_intersection_goldens():
    a, b, c, d = (inject(x, FS) for x in "abcd")
    out = multiply([3 * a + 2 * b + 5 * c, 7 * b + 4 * c + 2 * d])
    assert enumerate_nf(out) == [(("b",), 14), (("c",), 20)]
    out2 = multiply([2 * a + 3 * b, 5 * b + 7 * c])
    assert enumerate_nf(out2) == [(("b",), 15)]


def test_single_factor_is_normalisation():
    t = tensor(inject("a", CS), inject(1, CI)) + tensor(inject("a", CS), inject(1, CI))
    assert nf_equal(multiply([t]), normalize(t))


def test_keyed_entries_delta_rule():
    cm = FinMap(Z, STRING, FS)
    x = maps_to("a", inject("u", FS), cm)
    y = maps_to("b", inject("u", FS), cm)
    assert multiply([x, y]).is_zero()
    same = multiply([x, maps_to("a", 3 * inject("u", FS), cm)])
    assert enumerate_nf(same) == [(("a", "u"), 3)]


def test_unit_law_in_compact_spaces(rng):
    for space in (CS, Tensor(CS, CI), CompactMap(Z, STRING, CI)):
        for _ in range(20):
            x = rand_term(rng, space, size=4)
            assert nf_equal(multiply([unit_one(space), x]), normalize(x))


def test_algebra_laws_after_normalisation(rng):
    for ring in (Z, GF2):
        space = Tensor(CompactFree(ring, STRING), CompactFree(ring, INT))
        for _ in range(25):
            x = rand_term(rng, space, size=3)
            y = rand_term(rng, space, size=3)
            z = rand_term(rng, space, size=3)
            assert nf_equal(multiply([x, y]), multiply([y, x]))
            assert nf_equal(
                multiply([readback(multiply([x, y])), z]),
                multiply([x, readback(multiply([y, z]))]),
            )
            lhs = multiply([x + y, z])
            rhs = normalize(readback(multiply([x, z])) + readback(multiply([y, z])))
            assert nf_equal(lhs, rhs)
            assert multiply([x, zero(space)]).is_zero()
            sx = scale(ring.coerce(2) if ring is Z else True, x)
            assert nf_equal(multiply([sx, y]), normalize(scale(
                2 if ring is Z else True, readback(multiply([x, y])))))


def test_worked_join_example():
    x = pairs_rel([("a", 1), ("b", 2), ("c", 3)], FS, FI)
    y = pairs_rel([(2, "p"), (3, "q"), (4, "r")], FI, FS)
    A, B, C = ("A", STRING), ("B", INT), ("C", STRING)
    x2 = embed(x, [A, B], [A, B, C])
    y2 = embed(y, [B, C], [A, B, C])
    assert enumerate_nf(multiply([x2, y2])) == [
        (("b", 2, "p"), 1),
        (("c", 3, "q"), 1),
    ]
    # the blunt expansion agrees, step by step
    assert enumerate_nf(naive_multiply(x2, y2)) == [
        (("b", 2, "p"), 1),
        (("c", 3, "q"), 1),
    ]


def test_embed_examples():
    x = pairs_rel([("a", 1), ("b", 2), ("c", 3)], FS, FI)
    A, B, C = ("A", STRING), ("B", INT), ("C", STRING)
    e = embed(x, [A, B], [A, B, C])
    rows = enumerate_nf(normalize(e), allow_baseline=True)
    assert rows == [
        (("a", 1, STAR), 1),
        (("b", 2, STAR), 1),
        (("c", 3, STAR), 1),
    ]
    # identity schema embeds by inclusion only
    same = embed(x, [A, B], [A, B])
    assert enumerate_nf(normalize(same)) == [
        (("a", 1), 1),
        (("b", 2), 1),
        (("c", 3), 1),
    ]
    with pytest.raises(SpaceError):
        embed(x, [A, B], [A, C])


def test_embed_preserves_weight(rng):
    A, B, C = ("A", STRING), ("B", INT), ("C", STRING)
    for _ in range(20):
        x = rand_term(rng, Tensor(FS, FI), size=4)
        assert weight(embed(x, [A, B], [A, B, C])) == weight(x)


def test_differential_small_cases(rng):
    for trial in range(150):
        ring = Z if trial % 2 else GF2
        m = rng.randint(1, 3)
        space = tensor_chain(ring, [INT] * m, compact=True) if m > 1 else CompactFree(ring, INT)
        x = rand_term(rng, space, size=5)
        y = rand_term(rng, space, size=5)
        assert nf_equal(multiply([x, y]), naive_multiply(x, y))


def test_three_way_differential(rng):
    space = tensor_chain(Z, [INT, INT], compact=True)
    for _ in range(60):
        x = rand_term(rng, space, size=3)
        y = rand_term(rng, space, size=3)
        z = rand_term(rng, space, size=3)
        joint = multiply([x, y, z])
        folded = naive_multiply(readback(naive_multiply(x, y)), z)
        assert nf_equal(joint, folded)


def test_wildcard_closure_by_lookup(rng):
    space = tensor_chain(Z, [INT, INT], compact=True)
    for _ in range(40):
        x = rand_term(rng, space, size=4)
        y = rand_term(rng, space, size=4)
        out = multiply([x, y])
        nx, ny = normalize(x), normalize(y)
        keys = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(4)]
        probes = [(a, b) for a, b in keys] + [(STAR, STAR)]
        for pa, pb in probes:
            got = nf_lookup_path(out, (pa, pb))
            want = nf_lookup_path(nx, (pa, pb)) * nf_lookup_path(ny, (pa, pb))
            assert got == want, (pa, pb)


def _traced_levels(factors):
    with metrics.fresh(trace=True) as m:
        multiply(factors)
    return m.trace


def test_enumerator_picks_fewest_components():
    # an intersecting level iterates the smallest restricting factor
    x = inject(1, CI) + inject(2, CI)
    assert _traced_levels([wild_one(CI), x]) == [((1, 2), 1)]
    a = inject(1, CI) + inject(2, CI) + inject(3, CI)
    assert _traced_levels([a, x]) == [((3, 2), 1)]
    # an all-baseline product is a sum of restricted products, one per
    # factor with deviations, each traced as its own intersecting level
    assert _traced_levels([wild_one(CI) + inject(1, CI), wild_one(CI)]) == [((1, 1), 0)]
    # string levels alike: iterate a restricting factor and probe the others
    x = strs(["a", "b"], CS)
    y = wild_one(CS)
    # the restricting factor, despite y's smaller count
    assert _traced_levels([y, x]) == [((1, 2), 1)]
    # among restricting factors, the smaller one wins; ties go left
    assert _traced_levels([strs(["a", "b", "c"], CS), x]) == [((3, 2), 1)]
    assert _traced_levels([x, strs(["b", "c"], CS)]) == [((2, 2), 0)]
    assert _traced_levels([wild_one(CS) + inject("a", CS), wild_one(CS)]) == [((1, 1), 0)]


def test_zero_prune_skips_deeper_levels():
    # the walk iterates y and probes x for key 3, which x lacks, so y's
    # 50-entry subtree under 3 is never visited, nor x's under 2; measure
    # the product alone on prebuilt forms
    cm = CompactMap(Z, INT, CI)
    inner_big = sum_terms(CI, [inject(j, CI) for j in range(50)])
    x = normalize(maps_to(1, inject(1, CI), cm) + maps_to(2, inner_big, cm))
    y = normalize(maps_to(1, inject(1, CI), cm) + maps_to(3, inner_big, cm))
    with metrics.fresh() as m:
        out = nf_product([y, x])
    rows = enumerate_nf(out)
    assert rows == [((1, 1), 1)]
    # both levels intersect inside the walk, whose probes are not lookups
    assert m.lookups == 0
    assert m.trie_edges < 40


def test_vanishing_factor_drops_its_key_before_later_probes():
    # x vanishes at 1 (baseline 1, deviation -1), so key 1 is dropped before
    # z is probed there or anything is multiplied: 3 lookups, not 4, and 2
    # multiplies, at key 2 only
    y = inject(1, CI) + inject(2, CI)
    x = wild_one(CI) - inject(1, CI)
    z = wild_one(CI) + inject(2, CI)
    ins = [normalize(t) for t in (y, x, z)]
    with metrics.fresh() as m:
        out = nf_product(ins)
    assert enumerate_nf(out) == [((2,), 2)]
    assert m.lookups == 3
    assert m.ring_mults == 2


def test_triangle_small_instances():
    grid = [(i, j) for i in (1, 2) for j in (1, 2)]
    x = pairs_rel(grid, FI, FI)
    y = pairs_rel(grid, FI, FI)
    z = pairs_rel(grid, FI, FI)
    out = triangle(x, y, z)
    rows = enumerate_nf(out)
    assert len(rows) == 8
    assert all(c == 1 for _, c in rows)
    # brute force oracle: all (a, b, c) with (a,b) in x, (a,c) in y, (b,c) in z
    want = sorted(
        (a, b, c)
        for a, b in grid
        for c in (1, 2)
        if (a, c) in grid and (b, c) in grid
    )
    assert [k for k, _ in rows] == want

    single = triangle(
        pairs_rel([(1, 1)], FI, FI),
        pairs_rel([(1, 2)], FI, FI),
        pairs_rel([(1, 2)], FI, FI),
    )
    assert enumerate_nf(single) == [((1, 1, 2), 1)]

    empty = triangle(pairs_rel([(1, 1)], FI, FI), zero(Tensor(FI, FI)), z)
    assert empty.is_zero()


def test_triangle_rejects_inputs_that_are_not_matching_two_column_chains():
    x = pairs_rel([(1, 1)], FI, FI)
    for bad in (
        maps_to(1, inject(1, FI), FinMap(Z, INT, FI)),
        tensor(inject(1, FI), tensor(inject(1, FI), inject(1, FI))),
    ):
        with pytest.raises(SpaceError, match="not a chain of two free factors"):
            triangle(x, x, bad)
    with pytest.raises(SpaceError, match="do not share attribute types"):
        triangle(x, pairs_rel([(1, "c")], FI, FS), x)


def _levels_fit(nf):
    """Whether every sub-form of a baseline-free chain form lives in its
    own level's space."""
    level = [nf]
    while isinstance(level[0].space, Tensor):
        value = level[0].space.rhs
        level = [v for x in level for v in x.trie.values()]
        if not all(v.space is value for v in level):
            return False
    return True


def test_joins_of_plain_chains_live_in_the_compact_chain():
    # the inputs' last levels are plain F[int] forms, the output's compact,
    # so no input form may stand as a sub-form of the output, only its trie
    grid = [(i, j) for i in (1, 2) for j in (1, 2)]
    out = triangle(*(pairs_rel(grid, FI, FI) for _ in range(3)))
    assert out.space is tensor_chain(Z, [INT] * 3, compact=True)
    assert _levels_fit(out)
    assert len(enumerate_nf(out)) == 8
    # a factor that ends before the last level leaves the other one alone
    # below it, still in its plain space
    x = normalize(sum_terms(FI, [inject(1, FI), inject(2, FI)]))
    out = nf_join([(x, (0,)), (normalize(pairs_rel(grid, FI, FI)), (0, 1))],
                  tensor_chain(Z, [INT] * 2, compact=True))
    assert _levels_fit(out)
    assert [k for k, _ in enumerate_nf(out)] == grid


def test_multiplicities_multiply_through_joins():
    x = scale(2, tensor(inject("a", FS), inject(1, FI)))
    y = scale(3, tensor(inject(1, FI), inject("p", FS)))
    A, B, C = ("A", STRING), ("B", INT), ("C", STRING)
    out = multiply([embed(x, [A, B], [A, B, C]), embed(y, [B, C], [A, B, C])])
    assert enumerate_nf(out) == [(("a", 1, "p"), 6)]


def test_scalar_and_biproduct_products():
    from polyalg import pair, scalar

    s = multiply([scalar(Z, 3), scalar(Z, 4)])
    assert s.value == 12
    p = multiply([pair(inject("a", FS), inject(1, FI)), pair(inject("a", FS), inject(2, FI))])
    rows = enumerate_nf(p)
    assert rows == [((1, "a"), 1)]


def test_products_over_tensors_of_every_left_factor(rng):
    # a tensor takes its left factor's form, so the map, pair and scalar
    # products multiply it: checked against full distributivity and the
    # pointwise product of the expansions
    for ring in (Z, GF2):
        fs, fi = Free(ring, STRING), Free(ring, INT)
        cs, ci = CompactFree(ring, STRING), CompactFree(ring, INT)
        k = Scalar(ring)
        spaces = [
            Tensor(FinMap(ring, STRING, fi), fs),
            Tensor(CompactMap(ring, INT, cs), ci),
            Tensor(Biproduct(fs, ci), fi),
            Tensor(k, cs),
            Tensor(k, Biproduct(cs, fs)),
            Tensor(Tensor(cs, fi), fs),
            Tensor(Tensor(Biproduct(fs, k), ci), k),
        ]
        for space in spaces:
            _check_products_against_expansion(rng, ring, space)
    # maps whose values are pairs, below the last keyed level of the plan;
    # drawn after the others, whose random terms stay as they were
    for ring in (Z, GF2):
        k = Scalar(ring)
        for space in (FinMap(ring, BOOL, Biproduct(k, Free(ring, INT))),
                      CompactMap(ring, INT, Biproduct(CompactFree(ring, STRING), k))):
            _check_products_against_expansion(rng, ring, space)


def _check_products_against_expansion(rng, ring, space):
    met = 0
    for _ in range(16):
        x = rand_term(rng, space, size=5)
        while ring is GF2 and normalize(x).is_zero():
            # half of the random GF2 coefficients vanish, and often x with them
            x = rand_term(rng, space, size=5)
        z = rand_term(rng, space, size=4)
        # so that the factors meet, y is x + z; over GF2, where x·(x + z)
        # vanishes wherever z covers x, y is x or z (x + z + x·z) and x·y = x
        y = x + z + mul(x, z) if ring is GF2 else x + z
        out = multiply([x, y])
        assert nf_equal(out, naive_multiply(x, y)), (space, x, y)
        want = _pointwise_product(expand(x, ring), expand(y, ring), ring)
        assert dict(enumerate_nf(out, allow_baseline=True)) == want, (space, x, y)
        met += not out.is_zero()
    assert met >= 3, space


def test_every_level_is_planned_and_keyed_products_are_joins(monkeypatch):
    # `nf_join` is the one way into `_frontier`: every call, the summands of
    # an all-baseline level riding in its rows, is (rows, space, here, live)
    # with a plan, one flag per factor of every row, and a same-space
    # product of keyed forms is an `nf_join` of factors with positions None
    from polyalg import intersect, outer_join, pair, product, relation_from_rows, scalar
    from polyalg import schema, wild_maps_to

    frontier, join = product._frontier, product.nf_join
    calls, joins = [], []

    def spy_frontier(*args, **kwargs):
        rows, _, here, live = args
        calls.append((len(args), kwargs, here, live, {len(row) for row in rows}))
        return frontier(*args, **kwargs)

    def spy_join(factors, space):
        factors = list(factors)
        joins.append([pos for _, pos in factors])
        return join(factors, space)

    monkeypatch.setattr(product, "_frontier", spy_frontier)
    monkeypatch.setattr(product, "nf_join", spy_join)
    inner = CompactMap(Z, INT, CI)
    chain = CompactMap(Z, STRING, inner)
    wild = wild_maps_to(wild_maps_to(wild_one(CI), inner), chain)
    x = wild + maps_to("a", maps_to(1, 2 * inject(1, CI) + wild_one(CI), inner), chain)
    y = wild + maps_to("a", wild_maps_to(inject(1, CI) + inject(2, CI), inner), chain)
    fm = FinMap(Z, BOOL, Biproduct(Scalar(Z), FI))
    u = (maps_to(True, pair(scalar(Z, 2), inject(1, FI)), fm)
         + maps_to(False, pair(scalar(Z, 3), inject(2, FI)), fm))
    v = maps_to(True, pair(scalar(Z, 5), inject(1, FI) + inject(2, FI)), fm)
    sab = schema(("A", INT), ("B", INT))
    r = relation_from_rows(sab, Z, [((1, 1), 1), ((2, 1), 2), ((3, 4), 1)])
    s = relation_from_rows(sab, Z, [((1, 1), 3), ((3, 5), 1)])
    t = relation_from_rows(schema(("B", INT), ("C", INT)), Z, [((1, 7), 1), ((6, 7), 1)])
    grid = [(i, j) for i in range(3) for j in range(3)]
    cases = {
        "multiply over a compact-map chain": lambda: multiply([x, y, x]),
        "multiply over a map of pairs": lambda: multiply([u, v]),
        "intersect": lambda: intersect(r, s).nf(),
        "full outer join": lambda: outer_join("full", r, t).nf(),
        "triangle": lambda: triangle(*(pairs_rel(grid, FI, FI) for _ in range(3))),
    }
    for name, run in cases.items():
        calls.clear()
        joins.clear()
        out = run()
        assert not out.is_zero(), name
        assert calls, name
        for n, kwargs, here, live, widths in calls:
            assert n == 4 and not kwargs, name
            assert type(here) is tuple and all(type(h) is bool for h in here), name
            assert widths <= {len(here)}, name
            assert live is None or 0 <= live < len(here), name
        if name.startswith("multiply"):
            # the keyed product is a join of factors holding every level
            assert joins and all(pos is None for ps in joins for pos in ps), name
            assert len(joins[0]) == (3 if name.endswith("chain") else 2), name


def test_random_two_way_join_edges_grow_near_linearly():
    # (A,B) ⋈ (B,C) on seeded random ints: chains are nested tries joined
    # level by level, so trie edges grow about linearly with the input
    import random

    from polyalg import INT, natural_join, relation_from_rows, schema
    from polyalg.bench import fit_slope

    def edges(n):
        rng = random.Random(n)
        ab = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        bc = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        r = relation_from_rows(schema(("A", INT), ("B", INT)), Z, [(t, 1) for t in ab])
        s = relation_from_rows(schema(("B", INT), ("C", INT)), Z, [(t, 1) for t in bc])
        with metrics.fresh() as m:
            got = dict(natural_join([r, s]).rows())
        want = {}
        for a, b in ab:
            for b2, c in bc:
                if b == b2:
                    want[(a, b, c)] = want.get((a, b, c), 0) + 1
        assert got == want
        return m.trie_edges

    slope = fit_slope([(n, edges(n)) for n in (125, 250, 500, 1000)])
    assert slope <= 1.3, f"edge slope {slope:.3f}"


# --- worst-case optimality where pairwise plans fail -------------------------------
# Each relation is the star {(0,i)} ∪ {(i,0) : i < n}. A triangle over three
# stars has 3n - 2 rows, but every pairwise plan first builds a join of two
# stars on one shared column, n² + n - 1 rows (Ngo, Ré, Rudra, "Skew Strikes
# Back", SIGMOD Record 2013).

def _star(n):
    return [(0, i) for i in range(n)] + [(i, 0) for i in range(1, n)]


def _int_relation(cols, tuples):
    from polyalg import relation_from_rows, schema

    return relation_from_rows(schema(*((c, INT) for c in cols)), Z, [(t, 1) for t in tuples])


def _dict_join(atoms):
    """Rows of the join of atoms, (column names, tuples), keyed in name
    order: columns are bound one at a time in name order, each to the
    intersection, over the atoms that hold it, of its values under the
    atom's columns already bound."""
    names = sorted({c for cols, _ in atoms for c in cols})
    steps = {v: [] for v in names}  # column -> (bound columns, their values -> values)
    for cols, tuples in atoms:
        for i, v in enumerate(cols):
            bound = [j for j, u in enumerate(cols) if u < v]
            index = {}
            for t in tuples:
                index.setdefault(tuple(t[j] for j in bound), set()).add(t[i])
            steps[v].append(([cols[j] for j in bound], index))
    rows = [{}]
    for v in names:
        rows = [{**row, v: value} for row in rows for value in set.intersection(
            *(index.get(tuple(row[u] for u in bound), set()) for bound, index in steps[v]))]
    return {tuple(row[v] for v in names) for row in rows}


def _joined(relations):
    """The engine's natural join of the relations: its trie edges and its
    rows keyed in column-name order."""
    from polyalg import natural_join

    with metrics.fresh() as m:
        out = natural_join(relations)
    order = [out.schema.names.index(c) for c in sorted(out.schema.names)]
    return m.trie_edges, {tuple(row[i] for i in order): c for row, c in out.rows()}


def test_skewed_triangle_edges_grow_linearly_in_every_input_order():
    import itertools

    from polyalg.bench import fit_slope

    edges = {}
    for n in (250, 500, 1000, 2000):
        atoms = [(cols, _star(n)) for cols in ("AB", "BC", "AC")]
        want = dict.fromkeys(_dict_join(atoms), 1)
        assert len(want) == 3 * n - 2
        named = [(cols, _int_relation(cols, pairs)) for cols, pairs in atoms]
        for order in itertools.permutations(named):
            e, rows = _joined([r for _, r in order])
            assert rows == want
            edges.setdefault(tuple(cols for cols, _ in order), []).append((n, e))
    assert len(edges) == 6
    for order, points in edges.items():
        slope = fit_slope(points)
        assert slope <= 1.2, f"{order}: edge slope {slope:.3f} over {points}"


def test_skewed_pairwise_intermediate_grows_quadratically():
    # the contrast: the engine's own join of two stars on A alone
    from polyalg import natural_join
    from polyalg.bench import fit_slope

    points = []
    for n in (125, 250, 500):
        out = natural_join([_int_relation("AB", _star(n)), _int_relation("AC", _star(n))])
        count = len(out.rows())
        assert count == n * n + n - 1
        points.append((n, count))
    assert fit_slope(points) >= 1.85, points


def test_skewed_four_clique_edges_grow_linearly():
    # every pair of the six stars shares a column, so a plan that joins two
    # of them first builds the quadratic intermediate; the joint product
    # touches about as many edges as the inputs hold
    from polyalg.bench import fit_slope

    points = []
    for n in (32, 64, 128, 256):
        atoms = [(cols, _star(n)) for cols in ("AB", "AC", "AD", "BC", "BD", "CD")]
        e, rows = _joined([_int_relation(cols, pairs) for cols, pairs in atoms])
        assert rows == dict.fromkeys(_dict_join(atoms), 1)
        points.append((n, e))
    slope = fit_slope(points)
    assert slope <= 1.3, f"edge slope {slope:.3f} over {points}"


@pytest.mark.parametrize("shape", ["4-cycle", "4-clique"])
def test_cyclic_join_edges_stay_within_the_agm_bound(shape):
    # for N tuples per relation the fractional edge cover {AB: 1, CD: 1}
    # gives both shapes the AGM bound N²
    cols = ("AB", "BC", "CD", "AD") if shape == "4-cycle" else ("AB", "AC", "AD", "BC", "BD", "CD")
    rng = random.Random(4)
    instances = [_star(n) for n in (32, 64, 128)]
    instances += [list({(rng.randrange(d), rng.randrange(d)) for _ in range(n)})
                  for n, d in ((64, 16), (256, 32), (512, 48))]
    for pairs in instances:
        atoms = [(c, pairs) for c in cols]
        e, rows = _joined([_int_relation(c, pairs) for c, _ in atoms])
        assert rows == dict.fromkeys(_dict_join(atoms), 1)
        assert e <= 2.5 * len(pairs) ** 2, (shape, len(pairs), e)


def test_unequal_triangle_edges_stay_within_the_agm_bound():
    # a 31-row star on AB beside 7,999-row stars on BC and AC: the AGM bound
    # √(|AB|·|BC|·|AC|) = 44,537 lies far below the pairwise plan's
    # BC ⋈ AC, quadratic in the big stars, and in every input order the
    # edges stay within twice the bound plus the inputs
    import itertools
    import math

    atoms = [("AB", _star(16)), ("BC", _star(4000)), ("AC", _star(4000))]
    sizes = [len(tuples) for _, tuples in atoms]
    agm = math.sqrt(math.prod(sizes))
    want = dict.fromkeys(_dict_join(atoms), 1)
    for order in itertools.permutations([_int_relation(c, tuples) for c, tuples in atoms]):
        e, rows = _joined(list(order))
        assert rows == want
        assert e <= 2 * (agm + sum(sizes)), (e, agm)


def test_loomis_whitney_join_edges_stay_within_the_agm_bound():
    # four ternary atoms over A–D, each missing one attribute: the cover of
    # 1/3 per atom gives the AGM bound (∏|R_e|)^(1/3), here N^(4/3)
    rng = random.Random(3)
    instances = [list({t for i in range(n) for t in ((0, 0, i), (0, i, 0), (i, 0, 0))})
                 for n in (32, 128, 256)]
    instances += [list({(rng.randrange(d), rng.randrange(d), rng.randrange(d)) for _ in range(n)})
                  for n, d in ((64, 6), (256, 10), (512, 12))]
    for tuples in instances:
        atoms = [(c, tuples) for c in ("ABC", "ABD", "ACD", "BCD")]
        e, rows = _joined([_int_relation(c, tuples) for c, _ in atoms])
        assert rows == dict.fromkeys(_dict_join(atoms), 1)
        n = len(tuples)
        assert e <= 2 * (n ** (4 / 3) + 4 * n), (n, e)


def test_all_baseline_product_cost_follows_its_deviations():
    # in a full outer join every factor carries a baseline at every level;
    # the product visits only the factors' deviations, so each doubling of
    # the input at most about doubles the trie edges, in rows and in columns
    from polyalg import INT, outer_join, relation_from_rows, schema

    def edges(r, s, want):
        with metrics.fresh() as m:
            got = dict(outer_join("full", r, s).rows())
        assert got == want
        return m.trie_edges

    def wide(k):
        # (r + 1)(s + 1): each of r's rows, or all wildcards, beside each of s's
        r = relation_from_rows(schema(*[(f"a{i}", INT) for i in range(k)]), Z,
                               [((0,) * k, 1), ((1,) * k, 1)])
        s = relation_from_rows(schema(*[(f"b{i}", INT) for i in range(k)]), Z,
                               [((0,) * k, 1), ((1,) * k, 1)])
        sides = [(STAR,) * k, (0,) * k, (1,) * k]
        return edges(r, s, {a + b: 1 for a in sides for b in sides})

    def rows(n):
        rng = random.Random(n)
        ab = [(rng.randrange(n), rng.randrange(n // 10)) for _ in range(n)]
        bc = [(rng.randrange(n // 10), rng.randrange(n)) for _ in range(n)]
        r = relation_from_rows(schema(("A", INT), ("B", INT)), Z, [(t, 1) for t in ab])
        s = relation_from_rows(schema(("B", INT), ("C", INT)), Z, [(t, 1) for t in bc])
        want = {(STAR, STAR, STAR): 1}
        for a, b in ab:
            want[(a, b, STAR)] = want.get((a, b, STAR), 0) + 1
            for b2, c in bc:
                if b == b2:
                    want[(a, b, c)] = want.get((a, b, c), 0) + 1
        for b, c in bc:
            want[(STAR, b, c)] = want.get((STAR, b, c), 0) + 1
        return edges(r, s, want)

    for cost in (wide, rows):
        sizes = (10, 20, 40) if cost is wide else (100, 200, 400)
        counts = [cost(n) for n in sizes]
        for small, big in zip(counts, counts[1:]):
            assert big <= 2.2 * small, (cost.__name__, counts)


def test_all_baseline_real_product_keeps_small_deviations():
    # the deviation at key 1 is 1e-3 times y's unit baseline, not the
    # difference of two products near 1e8, which loses its low digits
    sp = CompactFree(REAL, INT)
    x = MapNF(sp, {1: 1e-3}, 1e8)
    y = MapNF(sp, {2: 5.0}, 1.0)
    out = nf_product([x, y])
    assert out.base == 1e8
    assert out.trie == {1: 1e-3, 2: 5e8}


# keys anywhere in int64, at both ends, and in runs sharing 61 high bits
WALK_KEYS = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.builds(
        lambda hi, lo: hi + lo,
        st.sampled_from([INT64_MIN, -(2**40), 2**40, INT64_MAX - 7]),
        st.integers(0, 7),
    ),
)


@st.composite
def walk_factors(draw):
    """1 to 3 factors, each a list of (coefficient, A key, B key) generators
    of an (A, B) compact chain, with keys from one small pool so factors
    meet; None is the wildcard, so a level may hold a baseline and
    deviations."""
    pool = draw(st.lists(WALK_KEYS, min_size=1, max_size=6, unique=True))
    key = st.sampled_from([None, *pool])
    gens = st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2]), key, key), max_size=6)
    return draw(st.lists(gens, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Z, GF2]), walk_factors())
# B tries {0, 1} and {-1, 0}: the first splits below the second's sign bit
@example(Z, [[(1, None, 0), (1, None, 1)], [(1, None, 0), (1, None, -1)]])
@example(GF2, [[(1, INT64_MIN, INT64_MAX)], [(1, INT64_MIN, None), (1, INT64_MAX, 0)]])
def test_walk_products_agree_with_expansion(ring, factors):
    ci = CompactFree(ring, INT)
    space = tensor_chain(ring, [INT, INT], compact=True)

    def level(k):
        return wild_one(ci) if k is None else inject(k, ci)

    terms = [
        sum_terms(space, [
            scale(c if ring is Z else True, tensor(level(a), level(b))) for c, a, b in gens
        ])
        for gens in factors
    ]
    want = normalize(terms[0])
    for t in terms[1:]:
        want = naive_multiply(readback(want), t)
    assert nf_equal(nf_product([normalize(t) for t in terms]), want)


def _c_tries(nf):
    """Every non-empty coefficient trie of the innermost level of a form."""
    if nf.space.shape == "free":  # a coefficient level
        return [] if nf.trie is None else [nf.trie]
    subs = list((nf.trie or {}).values())
    if nf.base is not None:
        subs.append(nf.base)
    return [t for sub in subs for t in _c_tries(sub)]


def _triangle_grid_inputs(k):
    """The three k x k grids of the triangle, embedded into (A, B, C)."""
    x, y, z = (bipartite_relation(k) for _ in range(3))
    A, B, C = ("A", INT), ("B", INT), ("C", INT)
    return [
        normalize(embed(x, [A, B], [A, B, C])),
        normalize(embed(y, [A, C], [A, B, C])),
        normalize(embed(z, [B, C], [A, B, C])),
    ]


def test_triangle_reuses_input_c_tries():
    # every (a, b) pair of the grid keeps all of a's C-trie, so the walk
    # returns that input trie instead of building k * k equal copies
    k = 8
    ins = _triangle_grid_inputs(k)
    out = nf_product(ins)
    assert len(enumerate_nf(out)) == k**3
    got = _c_tries(out)
    assert len(got) == k * k
    assert len({id(t) for t in got}) == k
    inputs = {id(t) for nf in ins for t in _c_tries(nf)}
    assert all(id(t) in inputs for t in got)


def test_triangle_grid_counters():
    # at C the first relation has only its unit baseline, which is left
    # out: one multiply per output row. Each C-level walks its two 8-key
    # levels (16 edges) and reuses an input level, whose entries are not
    # charged again; the A and B levels also charge their k new entries:
    # A 16 + 8, B 8 * (16 + 8), C 64 * 16
    k = 8
    ins = _triangle_grid_inputs(k)
    with metrics.fresh() as m:
        nf_product(ins)
    assert m.ring_mults == k**3
    assert m.trie_edges == 1_240
    assert m.lookups == 0


def test_free_level_multiplies_real_columns_in_factor_order():
    # a factor with no trie multiplies its baseline in its own place, left
    # to right, so real products are exactly (a * 0.1) * c
    cr = CompactFree(REAL, INT)
    a = MapNF(cr, {i: 0.1 * i + 0.3 for i in range(1, 40)}, None)
    c = MapNF(cr, {i: 1.7 / i for i in range(5, 60)}, None)
    out = nf_product([a, MapNF(cr, None, 0.1), c])
    assert out.base is None
    common = sorted(a.trie.keys() & c.trie.keys())
    assert sorted(out.trie) == common
    for k in common:
        assert out.trie[k] == (a.trie[k] * 0.1) * c.trie[k], k
    # the check tells the orders apart
    assert any((a.trie[k] * 0.1) * c.trie[k] != a.trie[k] * (0.1 * c.trie[k]) for k in common)
    # a unit baseline is left out, and a product equal to an input is it
    ones = MapNF(cr, {k: 1.0 for k in a.trie}, None)
    with metrics.fresh() as m:
        out = nf_product([MapNF(cr, None, 1.0), a, ones])
    assert out.trie is a.trie
    assert m.ring_mults == len(a.trie)


ORDER_SCRIPT = """
import json
from polyalg import STRING, Z, CompactFree, tries
from polyalg.normal import MapNF
from polyalg.product import nf_join, nf_product
small = {w: 2 for w in %r}
big = {w: 3 for w in %r}
keys, _, _ = tries.walk([[big], [small]], 1)
cs = CompactFree(Z, STRING)
out = nf_product([MapNF(cs, big, None), MapNF(cs, small, None)])
print(json.dumps([keys, list(out.trie)]))
"""


def test_walk_and_product_follow_the_smallest_levels_order():
    # a set of str keys iterates in an order that changes with the hash
    # seed; the walk and the product's level follow the smallest level
    words = [f"w{i:02d}" for i in range(60)]
    rng = random.Random(7)
    small = rng.sample(words[:40], 25)
    big = rng.sample(words[10:], 50)
    want = [w for w in small if w in big]
    root = str(Path(polyalg.__file__).resolve().parent.parent)
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=root)
        r = subprocess.run([sys.executable, "-c", ORDER_SCRIPT % (small, big)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == [want, want], seed


def test_reuse_keeps_exact_real_weights():
    # a product within the real ring's zero tolerance of an input's weight
    # is still the product: neither a leaf nor a whole form is reused
    w = 1.0 + 1e-12
    fr, cr = Free(REAL, INT), CompactFree(REAL, INT)
    x = scale(1.0, inject(1, fr)) + scale(2.0, inject(2, fr))
    y = scale(w, inject(1, fr)) + scale(1.0, inject(2, fr))
    assert enumerate_nf(multiply([x, y])) == [((1,), w), ((2,), 2.0)]
    out = multiply([scale(1.0, wild_one(cr)), scale(w, wild_one(cr))])
    assert nf_lookup_path(out, (STAR,)) == w


def test_triangle_walk_edges_and_no_lookups():
    row = run_triangle(32)
    assert row.trie_edges <= 200_000, row.trie_edges
    assert row.lookups == 0


def _pinned_cases():
    """Six products on prebuilt inputs: joins of random, Zipf-skewed and
    string relations, a full outer join, an intersection and a `multiply`
    over a compact-map chain with baselines at every level."""
    from polyalg import intersect, natural_join, outer_join, relation_from_rows, schema
    from polyalg import wild_maps_to

    rng = random.Random(24)

    def rel(names, prim, rows):
        r = relation_from_rows(schema(*[(n, prim) for n in names]), Z,
                               [(row, rng.randint(1, 3)) for row in rows])
        r.nf()
        return r

    ab = [(rng.randrange(12), rng.randrange(6)) for _ in range(16)]
    bc = [(rng.randrange(6), rng.randrange(12)) for _ in range(16)]
    r2 = [rel(("A", "B"), INT, ab), rel(("B", "C"), INT, bc)]
    nodes = list(range(10))
    edges = set()
    while len(edges) < 24:
        u, v = rng.choices(nodes, [1 / (i + 1) for i in nodes], k=2)
        if u != v:
            edges.add((u, v))
    edges = sorted(edges)
    tri = [rel(names, INT, edges) for names in (("A", "B"), ("B", "C"), ("A", "C"))]
    words = ["ab", "abc", "b", "ba", "q", "zz", "zebra", ""]
    path = [rel(names, STRING, [(rng.choice(words), rng.choice(words)) for _ in range(10)])
            for names in (("A", "B"), ("B", "C"), ("C", "D"))]
    other = rel(("A", "B"), INT, ab[::2] + [(rng.randrange(12), rng.randrange(6)) for _ in range(8)])
    inner = CompactMap(Z, INT, CI)
    chain = CompactMap(Z, STRING, inner)
    wild = wild_maps_to(wild_maps_to(wild_one(CI), inner), chain)
    x = (wild + maps_to("a", maps_to(1, 2 * inject(1, CI) + wild_one(CI), inner), chain)
         + maps_to("b", wild_maps_to(3 * inject(2, CI), inner), chain))
    y = wild + maps_to("a", wild_maps_to(inject(1, CI) + inject(2, CI), inner), chain)
    return {
        "random 2-way join": lambda: natural_join(r2).nf(),
        "zipf triangle": lambda: natural_join(tri).nf(),
        "string 3-path": lambda: natural_join(path).nf(),
        "full outer join": lambda: outer_join("full", *r2).nf(),
        "intersection": lambda: intersect(r2[0], other).nf(),
        "multiply over a compact-map chain": lambda: multiply([x, y, x]),
    }


# (trie_edges, ring_mults, lookups, {trace entry: count}) of each case,
# recorded on the depth-first evaluator that the level-wide one replaced
PINNED = {
    'random 2-way join': (104, 22, 0, {((1, 1), 1): 3, ((1, 2), 1): 3, ((1, 3), 1): 3, ((1, 4), 1): 1, ((1, 6), 0): 5, ((2, 6), 0): 3, ((3, 6), 0): 1, ((9, 1), 0): 1}),
    'zipf triangle': (219, 33, 0, {((1, 1, 6), 1): 1, ((1, 2, 1), 2): 1, ((1, 2, 2), 1): 2, ((1, 2, 3), 1): 3, ((1, 2, 6), 1): 3, ((1, 3, 2), 2): 3, ((1, 3, 3), 1): 3, ((1, 3, 6), 1): 1, ((1, 6, 2), 2): 3, ((1, 6, 3), 2): 3, ((1, 9, 1), 0): 1, ((2, 9, 1), 0): 4, ((3, 9, 1), 0): 3, ((6, 9, 1), 0): 1, ((9, 1, 9), 0): 1}),
    'string 3-path': (82, 16, 0, {((1, 1, 1), 2): 5, ((1, 1, 2), 2): 2, ((1, 1, 6), 1): 3, ((1, 2, 6), 1): 4, ((1, 6, 1), 0): 1, ((2, 6, 1), 0): 4, ((5, 1, 1), 0): 1}),
    'full outer join': (110, 32, 14, {((1, 1), 1): 3, ((1, 2), 1): 3, ((1, 3), 1): 3, ((1, 4), 1): 1, ((1, 6), 1): 1, ((1, 7), 0): 5, ((2, 7), 0): 3, ((3, 7), 0): 1, ((9, 1), 0): 1}),
    'intersection': (53, 9, 0, {((1, 1), 0): 3, ((2, 1), 1): 1, ((2, 2), 0): 1, ((2, 3), 0): 1, ((3, 4), 0): 1, ((9, 8), 1): 1}),
    'multiply over a compact-map chain': (81, 13, 13, {((1, 1, 1), 0): 5, ((1, 2, 1), 1): 1, ((2, 1, 1), 0): 1, ((2, 1, 1), 2): 2, ((2, 2, 1), 1): 2, ((2, 3, 1), 2): 1, ((3, 1, 1), 1): 1, ((3, 2, 2), 2): 1}),
}


def test_counters_and_trace_entries_are_pinned():
    # the level-wide joint product does the depth-first one's work: the same
    # counts and the same trace entries, though in level order
    from collections import Counter

    for name, run in _pinned_cases().items():
        with metrics.fresh(trace=True) as m:
            run()
        got = (m.trie_edges, m.ring_mults, m.lookups, dict(Counter(m.trace)))
        assert got == PINNED[name], name


def _wide_factors(n, padded):
    """Prebuilt factors of the join of two 2-row relations over n int
    columns that share the middle one, and the output space. Padded, each
    input adds the unit of its own chain, as a full outer join pads it, so
    every level carries a baseline."""
    from polyalg import relation_from_rows, schema
    from polyalg.normal import nf_add, unit_nf

    half = n // 2
    factors = []
    for cols in (range(half + 1), range(half, n)):
        r = relation_from_rows(schema(*[(f"C{i}", INT) for i in cols]), Z,
                               [((v,) * len(cols), 1) for v in (1, 2)])
        x = nf_add(r.nf(), unit_nf(r.nf().space)) if padded else r.nf()
        factors.append((x, list(cols)))
    return factors, tensor_chain(Z, [INT] * n, compact=True)


def _frames_needed(run):
    """The fewest frames above the caller's under which `run()` completes;
    a limit below the interpreter's own count of the current depth, which
    also counts some calls made from C, cannot even be set."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    try:
        for budget in range(1, 150):
            try:
                sys.setrecursionlimit(depth + budget)
                run()
            except RecursionError:
                continue
            return budget
    finally:
        sys.setrecursionlimit(limit)
    raise AssertionError("needs 150 frames or more")


def test_join_stack_depth_does_not_grow_with_columns():
    # the joint product goes a level at a time, so a join needs the same
    # frames at 10 and at 100 columns, and so does a full outer join, whose
    # every level carries a baseline
    for padded, rows in ((False, 2), (True, 7)):
        needed = []
        for n in (10, 100):
            factors, space = _wide_factors(n, padded)
            assert len(enumerate_nf(nf_join(factors, space), allow_baseline=True)) == rows
            needed.append(_frames_needed(lambda: nf_join(factors, space)))
        assert needed[0] == needed[1], (padded, needed)
