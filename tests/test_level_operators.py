"""The level operators against the row-list definitions they replaced.

`project`, `aggregate(..., "count")`, `select`, `clamp_nonneg`, `rename`
and `map_col` work on a relation's form a level at a time. The reference
below is the earlier definition of each: list the rows, keep, regroup,
permute or map them, and build the result from the rows with `_built`; a
one-column selection filtered that column's level, a copy of the level at a
time. Both must give the same rows in the same order, real coefficients
equal to the bit, and the same `RelationError` wherever the reference
raises one. The one exception is a selection reading several columns of a
relation with `*` rows: the reference refused every such relation, while a
level filter refuses only a wildcard in a column the predicate reads,
naming the first such column.
"""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from polyalg import (
    GF2,
    INT,
    REAL,
    STAR,
    STRING,
    Z,
    BoolPred,
    ColumnWhere,
    Compare,
    RelationError,
    aggregate,
    clamp_nonneg,
    map_col,
    outer_join,
    project,
    relation_from_rows,
    rename,
    schema,
    select,
    tries,
)
from polyalg.normal import InfiniteSupport, MapNF, enumerate_nf, map_payloads, payload_ops
from polyalg.prims import INT64_MAX, INT64_MIN
from polyalg.relation import Relation, _built, type_name
from polyalg.relational import FUNCTIONS, _getter

# the reference: the row-list definitions ------------------------------------

def ref_kept_rows(r, keep, what):
    try:
        rows = enumerate_nf(r.nf())
    except InfiniteSupport:
        raise RelationError(f"cannot {what} a relation with wildcard rows") from None
    return _built(r.schema, r.ring, [(row, c) for row, c in rows if keep(row, c)])


def ref_select_level(nf, pos, keep, col):
    space = nf.space
    if pos:
        return map_payloads(nf, lambda v: ref_select_level(v, pos - 1, keep, col), space)
    if nf.base is not None:
        raise RelationError(f"cannot select on wildcard-bearing column {col!r}")
    kept = [(k, v) for k, v in tries.items(space.prim, nf.trie) if keep(k)]
    return MapNF(space, tries.from_items(kept, payload_ops(space)), None)


def single_column(pred):
    if isinstance(pred, ColumnWhere) or isinstance(pred, Compare) and pred.other_column is None:
        return pred.column
    return None


def read_columns(pred):
    if isinstance(pred, BoolPred):
        return {c for p in pred.parts for c in read_columns(p)}
    return {pred.column, getattr(pred, "other_column", None)} - {None}


def ref_select(r, pred):
    col = single_column(pred)
    test = pred.row_test(r.schema)
    if col is None:
        return ref_kept_rows(r, lambda row, c: test(row), "select on")
    pos = r.schema.position(col)
    return Relation(r.schema, r.ring, nf=ref_select_level(
        r.nf(), pos, lambda k: test((None,) * pos + (k,)), col))


def ref_project(r, names):
    if not names:
        raise RelationError("projection needs at least one attribute")
    positions = [r.schema.position(n) for n in names]
    if len(set(positions)) != len(positions):
        raise RelationError(f"repeated attributes in projection {names}")
    sch = schema(*(r.schema.columns[p] for p in positions))
    row_map = _getter(positions)
    return _built(sch, r.ring, [(row_map(row), c) for row, c in r.rows()])


def ref_clamp(r):
    if r.ring.name != "z":
        raise RelationError("clamp is defined for integer multiplicities")
    return ref_kept_rows(r, lambda row, c: c > 0, "clamp")


def ref_rename(r, perm):
    sch = schema(*(r.schema.columns[p] for p in perm))
    return _built(sch, r.ring, [(_getter(perm)(row), c) for row, c in r.rows()])


def ref_map_col(r, name, fn):
    pos = r.schema.position(name)
    _, cod, f = FUNCTIONS[fn]

    def row_map(row):
        a = row[pos]
        if a is STAR:
            return row
        b = f(a)
        if not cod.contains(b):
            raise RelationError(f"{fn} maps {a!r} in column {name!r} outside {type_name(cod)}")
        return row[:pos] + (b,) + row[pos + 1:]

    cols = list(r.schema.columns)
    cols[pos] = (name, cod)
    return _built(schema(*cols), r.ring, [(row_map(row), c) for row, c in r.rows()])


# inputs -----------------------------------------------------------------------

KEYS = {INT: [INT64_MIN, -1, 0, 2, INT64_MAX], STRING: ["", "a", "b", "é"]}
# inexact reals, so that a sum in another order differs in its last bits
COEFFS = {Z: st.integers(-2, 2), GF2: st.booleans(),
          REAL: st.sampled_from([0.1, 0.2, -0.3, 1 / 3, 1.0, -1e-3])}


def rows_of(data, ring, prims, size):
    row = st.tuples(*(st.sampled_from(KEYS[p]) for p in prims))
    rows = data.draw(st.lists(st.tuples(row, COEFFS[ring]), max_size=size))
    if rows:  # repeat some rows, some negated so that they cancel
        again = data.draw(st.lists(st.sampled_from(rows), max_size=4))
        rows += [(r, c if data.draw(st.booleans()) else ring.neg(c)) for r, c in again]
    return rows


def relations(data):
    """A relation over 1-4 int or str columns: rows, or an outer join."""
    ring = data.draw(st.sampled_from([Z, GF2, REAL]), label="ring")
    prims = data.draw(st.lists(st.sampled_from([INT, STRING]), min_size=1, max_size=4))
    cols = [(f"C{i}", p) for i, p in enumerate(prims)]
    if len(cols) == 1 or data.draw(st.booleans()):
        return relation_from_rows(schema(*cols), ring, rows_of(data, ring, prims, 10))
    j = data.draw(st.integers(0, len(cols) - 2))  # the inputs share column j
    left, right = cols[:j + 1], cols[j:]
    if j + 1 < len(cols) - 1 and data.draw(st.booleans()):
        left, right = cols[:j + 1] + cols[j + 2:], cols[j:j + 2]  # not in output order
    halves = [relation_from_rows(schema(*cs), ring, rows_of(data, ring, [p for _, p in cs], 5))
              for cs in (left, right)]
    return outer_join(data.draw(st.sampled_from(["left", "right", "full"])), *halves)


def predicates(sch):
    names = sch.names
    by_type = {p: [n for n, q in sch.columns if q == p] for p in (INT, STRING)}
    literal = st.sampled_from(names).flatmap(lambda n: st.tuples(
        st.just(n), st.sampled_from(KEYS[sch.prims[sch.position(n)]] + [3, "zz"])))
    leaves = st.one_of(
        st.builds(lambda op, nl: Compare(op, nl[0], literal=nl[1]),
                  st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "prefix"]), literal),
        st.builds(lambda op, a, b: Compare(op, a, other_column=b),
                  st.sampled_from(["=", "<", ">="]), st.sampled_from(names),
                  st.sampled_from(names)),
        st.builds(lambda p: Compare("<", p[0], other_column=p[1]),
                  st.sampled_from([ps for ps in (by_type[INT], by_type[STRING]) if ps])
                  .flatmap(lambda ps: st.tuples(st.sampled_from(ps), st.sampled_from(ps)))),
        st.builds(lambda n: ColumnWhere(n, lambda v: len(str(v)) % 2 == 0),
                  st.sampled_from(names)),
    )
    return st.recursive(leaves, lambda parts: st.one_of(
        st.builds(lambda ps: BoolPred("and", tuple(ps)), st.lists(parts, min_size=2, max_size=3)),
        st.builds(lambda ps: BoolPred("or", tuple(ps)), st.lists(parts, min_size=2, max_size=3)),
        st.builds(lambda p: BoolPred("not", (p,)), parts)), max_leaves=4)


def outcome(fn, *args):
    """The result's schema and rows, real coefficients as their exact bits,
    or the text of the `RelationError` raised."""
    try:
        r = fn(*args)
    except RelationError as e:
        return str(e)
    rows = [(row, c.hex() if isinstance(c, float) else c) for row, c in r.rows()]
    return r.schema.names, rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_project_and_count_equal_the_row_list_definitions(data):
    r = relations(data)
    names = r.schema.names
    kept = data.draw(st.lists(st.sampled_from(names), max_size=len(names) + 1))
    assert outcome(project, r, kept) == outcome(ref_project, r, kept)
    if kept and len(set(kept)) == len(kept) and len(kept) < len(names):
        target = data.draw(st.sampled_from([n for n in names if n not in kept]))
        assert outcome(aggregate, r, kept, target, "count") == outcome(ref_project, r, kept)
    for order in permutations(names):  # every column order, a wildcard anywhere
        assert outcome(project, r, list(order)) == outcome(ref_project, r, list(order))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_select_and_clamp_equal_the_row_list_definitions(data):
    r = relations(data)
    pred = data.draw(predicates(r.schema))
    got, want = outcome(select, r, pred), outcome(ref_select, r, pred)
    if want == "cannot select on a relation with wildcard rows":
        # only a wildcard in a column the predicate reads has no selection
        reads = sorted(r.schema.position(c) for c in read_columns(pred))
        starred = [d for d in reads if any(row[d] is STAR for row, _ in r.rows())]
        if starred:
            want = f"cannot select on wildcard-bearing column {r.schema.names[starred[0]]!r}"
        else:
            test = pred.row_test(r.schema)
            want = outcome(lambda: _built(r.schema, r.ring,
                                          [(row, c) for row, c in r.rows() if test(row)]))
    assert got == want
    assert outcome(clamp_nonneg, r) == outcome(ref_clamp, r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rename_and_map_col_equal_the_row_list_definitions(data):
    r = relations(data)
    for perm in permutations(range(len(r.schema))):  # a wildcard anywhere
        assert outcome(rename, r, list(perm)) == outcome(ref_rename, r, list(perm))
    for name, prim in r.schema.columns:  # colliding outputs add, in row order
        for fn in [fn for fn, (dom, _, _) in FUNCTIONS.items() if dom == prim]:
            assert outcome(map_col, r, name, fn) == outcome(ref_map_col, r, name, fn)
