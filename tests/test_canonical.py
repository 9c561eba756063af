"""Every form is canonical: no trie level is an empty dict, no payload
vanishes, and every baseline is None or non-vanishing, at coefficient
levels as at form levels."""

import random

import pytest

from polyalg import (
    GF2,
    INT,
    REAL,
    STRING,
    Z,
    BoolPred,
    Compare,
    aggregate,
    apply_update,
    cartesian,
    clamp_nonneg,
    diff,
    intersect,
    map_col,
    natural_join,
    nf_add,
    nf_product,
    nf_scale,
    normalize,
    outer_join,
    project,
    readback,
    relabel,
    relation_from_rows,
    rename,
    schema,
    select,
    union,
)
from polyalg.normal import MapNF, PairNF, ScalarNF, nf_sub

from conftest import rand_coeff, rand_term, sample_spaces


def canonical_faults(nf):
    """Each place where `nf` is not canonical, as a short description."""
    faults = []
    stack = [nf]
    while stack:
        x = stack.pop()
        if isinstance(x, ScalarNF):
            continue
        if isinstance(x, PairNF):
            stack += (x.lhs, x.rhs)
            continue
        space = x.space
        coefficients = space.shape == "free"
        vanishes = space.ring.is_zero if coefficients else (lambda v: v.is_zero())
        if x.trie is not None and not (isinstance(x.trie, dict) and x.trie):
            faults.append(f"empty trie in {space}")
        payloads = list(x.trie.values()) if x.trie else []
        faults += [f"vanishing payload in {space}" for v in payloads if vanishes(v)]
        if x.base is not None and vanishes(x.base):
            faults.append(f"vanishing baseline in {space}")
        if not coefficients:
            stack += payloads if x.base is None else payloads + [x.base]
    return faults


def test_the_check_sees_each_fault():
    from polyalg import CompactFree, CompactMap, Scalar

    cf = CompactFree(REAL, INT)
    assert canonical_faults(MapNF(cf, {1: 2.0}, None)) == []
    assert canonical_faults(MapNF(cf, {}, None)) == [f"empty trie in {cf}"]
    assert canonical_faults(MapNF(cf, {1: 1e-12}, None)) == [f"vanishing payload in {cf}"]
    assert canonical_faults(MapNF(cf, None, 0.0)) == [f"vanishing baseline in {cf}"]
    cm = CompactMap(REAL, STRING, cf)
    inner = MapNF(cf, None, 0.0)
    assert canonical_faults(MapNF(cm, {"a": inner}, None)) == [f"vanishing baseline in {cf}"]
    scalars = CompactMap(Z, INT, Scalar(Z))
    assert canonical_faults(MapNF(scalars, None, ScalarNF(Scalar(Z), 0))) == [
        f"vanishing baseline in {scalars}"
    ]


@pytest.mark.parametrize("ring", [Z, GF2, REAL], ids=["z", "gf2", "real"])
def test_forms_of_every_sample_space_are_canonical(ring):
    rng = random.Random(0xC0DE)
    for space in sample_spaces(ring):
        for _ in range(6):
            x = normalize(rand_term(rng, space, size=4, allow_mul=True))
            y = normalize(rand_term(rng, space, size=4))
            c = rand_coeff(rng, ring)
            for nf in (x, y, nf_add(x, y), nf_sub(x, x), nf_sub(x, y), nf_scale(c, x),
                       nf_product([x, y]), nf_product([x, x, y]), normalize(readback(x))):
                assert canonical_faults(nf) == [], (space, nf)


def _weights(rng, ring, n):
    return [rand_coeff(rng, ring, -2, 2) for _ in range(n)]


def _relations(rng, ring):
    """Small random relations over (A:int, B:str), (B:str, C:int) and
    (D:int, E:str), with repeated rows so that weights add."""
    def make(cols, keys):
        rows = [(rng.choice(keys), w) for w in _weights(rng, ring, 8)]
        return relation_from_rows(schema(*cols), ring, rows)

    ab = [(a, b) for a in range(3) for b in "xyz"]
    bc = [(b, c) for b in "xyzw" for c in range(2)]
    de = [(d, e) for d in range(2) for e in "pq"]
    return (make([("A", INT), ("B", STRING)], ab),
            make([("B", STRING), ("C", INT)], bc),
            make([("D", INT), ("E", STRING)], de))


def _operator_outputs(r, s, t, ring):
    """Every relational operator on r(A, B), s(B, C) and t(D, E), outer
    joins included, with their outputs fed back into operators."""
    outs = [
        union(r, r), diff(r, r), apply_update(r, r), intersect(r, r), cartesian(r, t),
        select(r, Compare("<", "A", 2)), select(r, Compare("=", "B", "y")),
        select(r, BoolPred("or", (Compare("=", "A", 1), Compare("=", "B", "x")))),
        project(r, ["B"]), rename(r, [1, 0]), relabel(r, ["P", "Q"]),
        natural_join([r, s]), natural_join([r, s, r]),
        map_col(r, "A", "inc"), map_col(r, "B", "length"),
        aggregate(r, ["B"], "A", "min"), aggregate(r, ["B"], "A", "max"),
        aggregate(r, ["A"], "B", "count"),
    ]
    if ring is not GF2:
        outs.append(aggregate(r, ["B"], "A", "sum"))
    if ring is Z:
        outs += [clamp_nonneg(r), clamp_nonneg(diff(r, union(r, r)))]
    for kind in ("left", "right", "full"):
        oj = outer_join(kind, r, s)
        outs += [
            oj, union(oj, oj), diff(oj, oj), intersect(oj, oj),
            natural_join([oj, s]), project(oj, ["C", "A"]), rename(oj, [2, 0, 1]),
            map_col(oj, "C", "neg"), cartesian(oj, t),
        ]
        # the column filtered must hold no wildcard: a full outer join has
        # the unit's row, a wildcard in every column
        if kind != "full":
            outs.append(select(oj, Compare(">", "A", 0) if kind == "left" else Compare("<", "C", 1)))
    return outs


@pytest.mark.parametrize("ring", [Z, GF2, REAL], ids=["z", "gf2", "real"])
def test_relational_outputs_are_canonical(ring):
    rng = random.Random(0xFACE)
    for _ in range(5):
        r, s, t = _relations(rng, ring)
        for out in [r, s, t] + _operator_outputs(r, s, t, ring):
            assert canonical_faults(out.nf()) == [], out


def test_real_weights_that_cancel_within_the_tolerance_leave_no_level():
    # 0.1 + 0.2 and 0.3 differ by about 5.6e-17, inside the 1e-9 tolerance,
    # at the coefficient level and at the baselines an outer join adds
    ab, bc = [("A", INT), ("B", STRING)], [("B", STRING), ("C", INT)]
    split = relation_from_rows(schema(*ab), REAL, [((1, "x"), 0.1), ((1, "x"), 0.2), ((2, "y"), 1.0)])
    whole = relation_from_rows(schema(*ab), REAL, [((1, "x"), 0.3), ((2, "y"), 1.0)])
    s = relation_from_rows(schema(*bc), REAL, [(("x", 5), 0.7), (("z", 1), 0.2)])
    for kind in ("left", "right", "full"):
        x, y = outer_join(kind, split, s), outer_join(kind, whole, s)
        assert x.has_baseline()
        gone = diff(x, y)
        assert canonical_faults(gone.nf()) == []
        assert gone.nf().is_zero() and gone.rows() == []
    assert diff(split, whole).nf().is_zero()
    assert canonical_faults(union(split, whole).nf()) == []
