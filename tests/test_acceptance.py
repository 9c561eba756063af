"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Randomised criteria use fixed seeds; timing budgets are part of
the assertions.
"""

import random
import time

import pytest

from polyalg import (
    GF2,
    INT,
    STAR,
    STRING,
    Z,
    CompactFree,
    enumerate_nf,
    equal,
    inject,
    iso,
    maps_to,
    multiply,
    naive_multiply,
    nf_equal,
    nf_lookup,
    normalize,
    one,
    readback,
    scale,
    sum_terms,
    tensor,
    tensor_chain,
    unit_one,
    wild_one,
)
from polyalg.bench import bench_triangle
from polyalg.catalog import Catalog
from polyalg.query import run as run_query
from polyalg.relation import relation_from_rows, schema
from polyalg.spaces import FinMap, Free, Scalar
from polyalg.prims import Prod, Sum, left, right

from conftest import rand_term
from test_isos import CASES as ISO_CASES

PASS = "ACCEPTANCE {:>2} PASS  {}"


def report(n, text):
    print(PASS.format(n, text))


@pytest.fixture(scope="module")
def worked_example_catalog(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "x.csv").write_text("A,B\na,1\nb,2\nc,3\n")
    (d / "y.csv").write_text("B,C\n2,p\n3,q\n4,r\n")
    cat = Catalog.open(d / "cat.json")
    cat.add_csv("x", d / "x.csv", "A:str,B:int", "z")
    cat.add_csv("y", d / "y.csv", "B:int,C:str", "z")
    return cat


def test_criterion_01_golden_natural_join(worked_example_catalog):
    cat = worked_example_catalog
    run_query("(join x y)", cat)  # warm caches; the budget is evaluation time
    t0 = time.perf_counter()
    out = run_query("(join x y)", cat)
    rows = dict(out.rows())
    elapsed = time.perf_counter() - t0
    assert rows == {("b", 2, "p"): 1, ("c", 3, "q"): 1}
    assert elapsed < 0.010, f"join took {elapsed * 1000:.2f} ms"
    report(1, f"natural join golden exact, {elapsed * 1000:.2f} ms")


def test_criterion_02_compact_lookups():
    cs = CompactFree(Z, STRING)
    x = normalize(
        scale(2, wild_one(cs)) + scale(3, inject("a", cs)) + scale(-2, inject("b", cs))
    )
    got = (nf_lookup(x, STAR), nf_lookup(x, "a"), nf_lookup(x, "b"), nf_lookup(x, "c"))
    assert got == (2, 5, 0, 2)
    report(2, f"compact lookups (*, a, b, c) = {got}")


def test_criterion_03_golden_intersections():
    fs = Free(Z, STRING)
    a, b, c, d = (inject(x, fs) for x in "abcd")
    out1 = multiply([3 * a + 2 * b + 5 * c, 7 * b + 4 * c + 2 * d])
    assert enumerate_nf(out1) == [(("b",), 14), (("c",), 20)]
    out2 = multiply([2 * a + 3 * b, 5 * b + 7 * c])
    assert enumerate_nf(out2) == [(("b",), 15)]
    report(3, "intersections 14b + 20c and 15b exact")


def test_criterion_04_golden_aggregation():
    r = relation_from_rows(
        schema(("A", STRING), ("B", INT)),
        Z,
        [(("p", 2), 1), (("p", 3), 1), (("q", 4), 1)],
    )
    from polyalg import aggregate

    s = dict(aggregate(r, ["A"], "B", "sum").rows())
    assert s == {("p",): 5, ("q",): 4}
    mn = [k for k, c in aggregate(r, ["A"], "B", "min").rows()]
    assert mn == [("p", 2), ("q", 4)]
    mx = [k for k, c in aggregate(r, ["A"], "B", "max").rows()]
    assert mx == [("p", 3), ("q", 4)]
    report(4, "aggregation sum 5p + 4q, min (p,2)(q,4), max (p,3)(q,4)")


def test_criterion_05_nested_map_normalisation():
    sp = FinMap(Z, Prod(STRING, Sum(STRING, INT)), Scalar(Z))
    entry = lambda k: maps_to(k, one(Z), sp)
    t = (
        entry(("a", left("p")))
        + entry(("b", right(4)))
        + entry(("a", right(3)))
        + entry(("a", left("p")))
    )
    nf = normalize(t)
    from polyalg.normal import read_level
    from polyalg.tries import lookup

    prim = sp.prim
    # leaf coefficients: a -> (p: 2, 3: 1), b -> (4: 1)
    assert enumerate_nf(nf) == [
        ((("a", ("L", "p")),), 2),
        ((("a", ("R", 3)),), 1),
        ((("b", ("R", 4)),), 1),
    ]
    # the level is flat: one entry per pair key, read in the pair order
    assert len(nf.trie) == 3
    assert read_level([nf], prim)[0] == [[
        ("a", ("L", "p")),
        ("a", ("R", 3)),
        ("b", ("R", 4)),
    ]]
    assert lookup(nf.trie, ("a", ("L", "p"))).value == 2
    assert lookup(nf.trie, ("a", ("R", 3))).value == 1
    assert lookup(nf.trie, ("b", ("R", 4))).value == 1
    assert lookup(nf.trie, ("b", ("L", "p"))) is None
    report(5, "four-entry nested map normalises to {a: (p:2, 3:1), b: (4:1)}")


def test_criterion_06_oracle_equivalence():
    rng = random.Random(0xC6)
    t0 = time.perf_counter()
    trials = 1000
    for trial in range(trials):
        ring = Z if trial % 2 == 0 else GF2
        m = rng.randint(1, 3)
        space = tensor_chain(ring, [INT] * m, compact=True)

        def factor():
            parts = []
            for _ in range(rng.randint(0, 6)):
                c = rng.choice([-2, -1, 1, 2]) if ring is Z else True
                row = [inject(rng.randint(0, 5), CompactFree(ring, INT)) for _ in range(m)]
                g = row[-1]
                for f in reversed(row[:-1]):
                    g = tensor(f, g)
                parts.append(scale(c, g))
            if rng.random() < 0.4:
                c = rng.choice([-2, -1, 1, 2]) if ring is Z else True
                parts.append(scale(c, unit_one(space)))
            return sum_terms(space, parts)

        x, y = factor(), factor()
        assert nf_equal(multiply([x, y]), naive_multiply(x, y)), f"trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"{trials} joint products match the blunt oracle in {elapsed:.1f} s")


def test_criterion_07_law_suites():
    rng = random.Random(0xC7)
    cases = 200

    # ring axioms
    from test_rings import _laws, _sample

    for ring in (Z, GF2):
        for _ in range(cases):
            _laws(ring, _sample(rng, ring), _sample(rng, ring), _sample(rng, ring))

    # linearity of fold and bilinearity of the tensor constructor
    fs = Free(Z, STRING)
    fi = Free(Z, INT)
    for _ in range(cases):
        x = rand_term(rng, fs, size=4)
        y = rand_term(rng, fs, size=4)
        act = lambda s: inject(len(s) - 2, fi)
        from polyalg import fold

        assert equal(fold(x + y, fi, act), fold(x, fi, act) + fold(y, fi, act))
        assert equal(fold(scale(3, x), fi, act), scale(3, fold(x, fi, act)))
        v = rand_term(rng, fi, size=3)
        assert equal(tensor(x + y, v), tensor(x, v) + tensor(y, v))
        assert nf_equal(
            normalize(tensor(scale(2, x), v)), normalize(scale(2, tensor(x, v)))
        )

    # algebra laws in a compact chain
    space = tensor_chain(Z, [INT, INT], compact=True)
    for _ in range(cases):
        x = rand_term(rng, space, size=3)
        y = rand_term(rng, space, size=3)
        z = rand_term(rng, space, size=3)
        assert nf_equal(multiply([x, y]), multiply([y, x]))
        assert nf_equal(
            multiply([readback(multiply([x, y])), z]),
            multiply([x, readback(multiply([y, z]))]),
        )
        assert nf_equal(
            multiply([x + y, z]),
            normalize(readback(multiply([x, z])) + readback(multiply([y, z]))),
        )
        assert nf_equal(multiply([unit_one(space), x]), normalize(x))

    # every catalogued isomorphism round-trips
    for name, dom, cod in ISO_CASES:
        for _ in range(cases):
            t = rand_term(rng, dom, size=3)
            assert equal(iso(name, "bwd", iso(name, "fwd", t)), t)
    report(7, f"{cases} cases per law family, all exact")


def test_criterion_08_worst_case_scaling():
    t0 = time.perf_counter()
    report_data = bench_triangle([8, 16, 32, 64], repeats=1, with_naive=True)
    elapsed = time.perf_counter() - t0
    for row in report_data.rows:
        assert row.output_rows == row.k**3
    slope = report_data.slope
    assert 1.3 <= slope <= 1.7, f"slope {slope}"
    naive_slope = report_data.naive_slope
    assert naive_slope >= 1.85, f"naive slope {naive_slope}"
    assert elapsed < 120.0
    report(
        8,
        f"slope {slope:.3f} in [1.3, 1.7], naive {naive_slope:.3f} >= 1.85, "
        f"{elapsed:.1f} s",
    )


def test_criterion_09_outer_join_identities():
    rng = random.Random(0xC9)
    space = tensor_chain(Z, [INT, INT, INT], compact=True)
    for _ in range(50):
        x = rand_term(rng, space, size=4)
        y = rand_term(rng, space, size=4)
        u = unit_one(space)
        assert nf_equal(
            multiply([x, y + u]),
            normalize(readback(multiply([x, y])) + x),
        )
        assert nf_equal(
            multiply([x + u, y + u]),
            normalize(readback(multiply([x, y])) + x + y + u),
        )
    report(9, "left and full outer join identities, 50 random pairs exact")


def test_criterion_10_update_semantics():
    fs = Free(Z, STRING)
    a, b, c = (inject(s, fs) for s in "abc")
    db = a + b
    out = db + (c - b)
    assert equal(out, a + c)
    # starting from a smaller database a negative occurrence persists,
    # and the late insert repairs it
    out2 = (a + (c - b)) + b
    assert equal(out2, a + c)

    rng = random.Random(0xCA)
    for _ in range(100):
        base = rand_term(rng, fs, size=4)
        deltas = [rand_term(rng, fs, size=2) for _ in range(5)]
        order = list(range(5))
        rng.shuffle(order)
        acc1 = base
        for i in range(5):
            acc1 = acc1 + deltas[i]
        acc2 = base
        for i in order:
            acc2 = acc2 + deltas[i]
        assert equal(acc1, acc2)
    report(10, "update sequence reproduces a + c; 100 permutations commute")
