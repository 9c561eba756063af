"""Relational operations as linear maps over ring-weighted collections.

A relation is a named, typed schema plus its data in the tensor chain of
free modules over the column types, with coefficients in the session ring.
The data is held as one canonical form, a nested keyed trie in attribute
order. Relations built from rows are born as forms, in one pass over the
rows that fills one trie per node. Set operations, joins, products and
single-column selection work on forms, so an update visits the
entries of its delta and copies, in C, only the trie levels it changes.
Aggregation folds the form's levels, in row order per group, listing no rows.
Every relation over a schema and ring lives in one chain, the compact
chain of its column types: finite relations with no baselines, outer
joins with wildcard ones. So set operations use both forms as they
are, and every join and intersection is one joint product of the inputs'
own forms, an outer join's each padded with its own chain's unit; the
product is the output. Reordering, projection, column maps, clamping
and multi-column selection rebuild a form from its rows, rearranged,
mapped or filtered. A Cartesian product is the left input's form with
the right input's form grafted under each of its coefficients, shared
unchanged wherever the coefficient is one. Negative multiplicities are
ordinary data (deletions), and wildcard baselines are ordinary data too,
flagged at rendering time.
"""

from functools import reduce
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from . import metrics, normal, tries
from .normal import (
    STAR,
    InfiniteSupport,
    MapNF,
    enumerate_nf,
    has_baseline,
    map_payloads,
    nf_add,
    nf_equal,
    nf_sub,
    nf_tensor,
    nf_weight,
    normalize,
    payload_ops,
    readback,
    strip_space,
    unit_nf,
)
from .prims import (
    BOOL,
    INT,
    INT_WITH_INF,
    INT_WITH_NEG_INF,
    STRING,
    Int64,
    PrimSet,
    Record,
    Str,
)
from .rings import GF2Ring, Ring
from .spaces import tensor_chain
from .terms import Term


class RelationError(ValueError):
    pass


TYPE_NAMES = {"int": INT, "str": STRING, "bool": BOOL}

#: widest schema: widening (`product.embed`), adding (`nf_add`, as an outer
#: join pads its inputs) and reading back forms recurse per column, and 100
#: columns under a query nested `query.MAX_DEPTH` deep still fit the default
#: recursion limit; building from rows and joining do not recurse
MAX_COLUMNS = 100


def type_name(prim: PrimSet) -> str:
    for name, p in TYPE_NAMES.items():
        if p == prim:
            return name
    return str(prim)


class Schema(Record):
    _fields = ("columns",)  # a tuple of (name, PrimSet)

    def __post_init__(self):
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise RelationError(f"duplicate column names in {names}")
        if not names:
            raise RelationError("a schema needs at least one column")
        if len(names) > MAX_COLUMNS:
            raise RelationError(f"a schema has at most {MAX_COLUMNS} columns, not {len(names)}")

    @property
    def names(self):
        return [n for n, _ in self.columns]

    @property
    def prims(self):
        return [p for _, p in self.columns]

    def position(self, name: str) -> int:
        for i, (n, _) in enumerate(self.columns):
            if n == name:
                return i
        raise RelationError(f"unknown attribute {name!r}")

    def __len__(self):
        return len(self.columns)

    def render(self) -> str:
        return ",".join(f"{n}:{type_name(p)}" for n, p in self.columns)

    def chain(self, ring: Ring):
        """The one space of every relation over this schema and `ring`."""
        return tensor_chain(ring, self.prims, compact=True)


def schema(*cols) -> Schema:
    return Schema(tuple(cols))


class Relation:
    """Schema, ring and data held as one canonical form in `sch.chain(ring)`,
    the one place where a relation's chain is chosen.

    A form in that chain is stored as it is. A form, or a term given
    without one, in another right-nested chain of the schema's column
    types over `ring`, each factor plain or compact, is normalised and
    widened once, here; any other data is rejected. `chain_term()` reads
    the form back into a term on each call."""

    def __init__(self, sch: Schema, ring: Ring, term: Term | None = None, nf=None):
        data = term if nf is None else nf
        if data is None:
            raise RelationError("a relation needs a term or a normal form")
        chain = sch.chain(ring)
        if data.space != chain and strip_space(data.space) != tensor_chain(ring, sch.prims):
            raise RelationError(f"{data.space} is not a chain of the columns "
                                f"{sch.render()} over {ring}")
        if nf is None:
            nf = normalize(term)
        if nf.space != chain:
            from .product import embed

            nf = embed(nf, sch.columns, sch.columns)
        self.schema = sch
        self.ring = ring
        self._nf = nf

    def nf(self):
        return self._nf

    def chain_term(self) -> Term:
        return readback(self._nf)

    def weight(self):
        return nf_weight(self._nf)

    def has_baseline(self) -> bool:
        return has_baseline(self._nf)

    def rows(self):
        """Sorted (tuple, coefficient) rows; wildcard slots appear as STAR."""
        return enumerate_nf(self._nf, allow_baseline=True)

    def lookup(self, row):
        """Coefficient at a full tuple; STAR components read baselines."""
        return normal.nf_lookup_path(self._nf, tuple(row))

    def equals(self, other: "Relation") -> bool:
        if self.schema != other.schema or self.ring is not other.ring:
            return False
        return nf_equal(self._nf, other._nf)

    def __repr__(self):
        return f"Relation({self.schema.render()}, {self.ring}, {len(self.rows())} rows)"


def relation_from_rows(sch: Schema, ring: Ring, rows) -> Relation:
    """Rows are (tuple, coefficient) pairs; duplicates accumulate. The
    relation is born as its form: no term is built. The rows are checked a
    column at a time, and row by row only to report the first bad row."""
    prims = sch.prims
    rows = list(rows)
    try:
        keys = [row for row, _ in rows]
        fits = set(map(len, keys)) <= {len(prims)} and all(
            p.contains_all(col) for p, col in zip(prims, zip(*keys)))
    except (TypeError, ValueError):  # a malformed entry, which the row loop reports
        fits = False
    if not fits:  # find the first bad row
        for row, coeff in rows:
            if len(row) != len(prims):
                raise RelationError(f"row {row!r} does not fit schema {sch.render()}")
            for p, v in zip(prims, row):
                p.check(v)
            ring.coerce(coeff)
    coeffs = [c for _, c in rows]
    if not set(map(type, coeffs)) <= {type(ring.one)}:  # int, not bool, over Z
        coeffs = list(map(ring.coerce, coeffs))
    return _built(sch, ring, zip(keys, coeffs))


def _built(sch: Schema, ring: Ring, rows) -> Relation:
    """The relation over `sch` and `ring` of checked (row, coefficient)
    pairs. Each row walks a path of dicts, one per node, and enters a
    nonzero coefficient in the last; a repeated row's coefficients add by
    `tries.add_all`, in row order. Then, from the last column up, each dict
    becomes its node's trie in place, `STAR` popped into the baseline, and
    an empty node is deleted."""
    prims = sch.prims
    spaces = [tensor_chain(ring, prims[d:], compact=True) for d in range(len(prims))]
    last = len(prims) - 1
    root, runs = {}, {}
    for row, c in rows:
        node = root
        for k in row[:last]:
            node = node.get(k) or node.setdefault(k, {})
        if ring.is_zero(c):
            continue
        k = row[last]
        if k in node:
            runs.setdefault((id(node), k), (node, k, [node[k]]))[2].append(c)
        else:
            node[k] = c
    for node, k, cs in runs.values():
        c = tries.add_all(cs, ring)
        if c is None:
            del node[k]
        else:
            node[k] = c
    levels = [[root]]
    for _ in range(last):
        levels.append(list(chain.from_iterable(map(dict.values, levels[-1]))))
    edges = 0
    for d in range(last, 0, -1):
        space, gone = spaces[d], []
        edges += sum(map(len, levels[d]))
        for t in levels[d - 1]:
            for k, u in t.items():
                if u:
                    base = u.pop(STAR, None)
                    t[k] = MapNF(space, u or None, base)
                else:
                    gone.append((t, k))
        for t, k in gone:
            del t[k]
    metrics.current.trie_edges += edges + len(root)
    base = root.pop(STAR, None)
    return Relation(sch, ring, nf=MapNF(spaces[0], root or None, base))


# core operations ----------------------------------------------------------------

def _require_same_schema(r: Relation, s: Relation, what: str):
    if r.schema != s.schema:
        raise RelationError(
            f"{what} needs matching schemas, got {r.schema.render()} and {s.schema.render()}"
        )
    if r.ring is not s.ring:
        raise RelationError(f"{what} needs matching rings")


def _combine(r: Relation, s: Relation, what: str, op) -> Relation:
    """`op` on the two sides' forms."""
    _require_same_schema(r, s, what)
    return Relation(r.schema, r.ring, nf=op(r.nf(), s.nf()))


def union(r: Relation, s: Relation) -> Relation:
    return _combine(r, s, "union", nf_add)


def diff(r: Relation, s: Relation) -> Relation:
    return _combine(r, s, "difference", nf_sub)


def apply_update(db: Relation, delta: Relation) -> Relation:
    """Inserts and deletions are one addition of the delta's form to the
    relation's, so the cost follows the delta; negative rows persist."""
    return _combine(db, delta, "update", nf_add)


def intersect(r: Relation, s: Relation) -> Relation:
    _require_same_schema(r, s, "intersection")
    return _joined([r, s])


def cartesian(r: Relation, s: Relation) -> Relation:
    overlap = set(r.schema.names) & set(s.schema.names)
    if overlap:
        raise RelationError(f"product inputs share attributes {sorted(overlap)}")
    if r.ring is not s.ring:
        raise RelationError("product needs matching rings")
    sch = Schema(r.schema.columns + s.schema.columns)
    return Relation(sch, r.ring, nf=nf_tensor(r.nf(), s.nf(), sch.chain(r.ring)))


def select(r: Relation, pred) -> Relation:
    """Keep tuples satisfying the predicate, multiplicities intact.

    Single-column comparisons filter the keys of that column's level of
    the form; predicates reading several columns go through the expanded
    rows. A wildcard in a filtered column has no finite selection."""
    col = pred.single_column()
    if col is not None:
        pos = r.schema.position(col)
        keep = pred.value_test(r.schema.prims[pos])
        return Relation(r.schema, r.ring, nf=_select_level(r.nf(), pos, keep, col))
    row_test = pred.row_test(r.schema)
    return _kept_rows(r, lambda row, c: row_test(row), "select on")


def _kept_rows(r: Relation, keep, what: str) -> Relation:
    """`r`'s rows for which `keep(row, coefficient)` holds; a relation with
    wildcard rows has no finite `what`."""
    try:
        rows = enumerate_nf(r.nf())
    except InfiniteSupport:
        raise RelationError(f"cannot {what} a relation with wildcard rows") from None
    return _built(r.schema, r.ring, [(row, c) for row, c in rows if keep(row, c)])


def _select_level(nf, pos, keep, col):
    """`nf` with the keys at chain level `pos` filtered by `keep`."""
    space = nf.space
    if pos:
        return map_payloads(nf, lambda v: _select_level(v, pos - 1, keep, col), space)
    if nf.base is not None:
        raise RelationError(f"cannot select on wildcard-bearing column {col!r}")
    kept = [(k, v) for k, v in tries.items(space.prim, nf.trie) if keep(k)]
    return MapNF(space, tries.from_items(kept, payload_ops(space)), None)


def project(r: Relation, names) -> Relation:
    """Keep the named columns, in the order named; each discarded key or
    wildcard weighs one, so multiplicities are preserved rather than
    collapsed."""
    if not names:
        raise RelationError("projection needs at least one attribute")
    positions = [r.schema.position(n) for n in names]
    if len(set(positions)) != len(positions):
        raise RelationError(f"repeated attributes in projection {names}")
    sch = Schema(tuple(r.schema.columns[p] for p in positions))
    return _rebuilt(r, sch, _getter(positions))


def rename(r: Relation, perm) -> Relation:
    """Permute column order; output column i is input column perm[i]: a
    projection that keeps every column."""
    if sorted(perm) != list(range(len(r.schema))):
        raise RelationError(f"{perm} is not a permutation of the columns")
    if list(perm) == list(range(len(r.schema))):
        return r
    return project(r, [r.schema.columns[p][0] for p in perm])


def _rebuilt(r: Relation, sch: Schema, row_map) -> Relation:
    """`r`'s rows, wildcard slots included, each sent through `row_map` and
    built into the chain of `sch`."""
    return _built(sch, r.ring, [(row_map(row), c) for row, c in r.rows()])


def _getter(positions):
    """A row's values at `positions` as a tuple (a slice for one position)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def relabel(r: Relation, new_names) -> Relation:
    """Rename attributes positionally, keeping data and order."""
    if len(new_names) != len(r.schema):
        raise RelationError("wrong number of attribute names")
    sch = Schema(tuple((n, p) for n, (_, p) in zip(new_names, r.schema.columns)))
    return Relation(sch, r.ring, nf=r._nf)


def _join_target(rs):
    cols = []
    seen = {}
    for r in rs:
        if r.ring is not rs[0].ring:
            raise RelationError("join needs matching rings")
        for n, p in r.schema.columns:
            if n in seen:
                if seen[n] != p:
                    raise RelationError(
                        f"attribute {n!r} has conflicting types "
                        f"{type_name(seen[n])} and {type_name(p)}"
                    )
            else:
                seen[n] = p
                cols.append((n, p))
    return Schema(tuple(cols))


def _joined(rs, padded=()) -> Relation:
    """The joint product of the inputs as positioned factors: each input's
    own form, renamed into first-appearance order if it is out of it, with
    its attributes' positions in the output schema; an input flagged in
    `padded` is its form plus the unit of its own chain, which embeds to
    the unit of the output's. No input is embedded into the output's chain."""
    target = _join_target(rs)
    ring = rs[0].ring
    factors = []
    for r, pad in zip(rs, padded or repeat(False)):
        order = [n for n in target.names if n in r.schema.names]
        if order != r.schema.names:
            r = rename(r, [r.schema.position(n) for n in order])
        x = r.nf()
        if pad:
            x = nf_add(x, unit_nf(x.space))
        factors.append((x, [target.position(n) for n in order]))
    from .product import nf_join

    return Relation(target, ring, nf=nf_join(factors, target.chain(ring)))


def natural_join(rs) -> Relation:
    """Shared attributes are matched by name, in one joint product."""
    rs = list(rs)
    if not rs:
        raise RelationError("join needs at least one input")
    return _joined(rs)


def outer_join(kind: str, r: Relation, s: Relation) -> Relation:
    """Wildcard-padded join, (x + 1) * (y + 1) for a full one: unmatched
    tuples survive against the unit, which matches anything. The result
    usually carries baselines."""
    if kind not in ("left", "right", "full"):
        raise RelationError(f"unknown outer join kind {kind!r}")
    return _joined([r, s], (kind != "left", kind != "right"))


def aggregate(r: Relation, group, target, fold: str) -> Relation:
    """Group by the named columns and fold the target column.

    Sum, minimum and maximum are one frontier fold over the form's levels
    (`_group_totals`), which lists no rows, into one total per group, keyed
    in the order of `group`. A sum is the linear map e_(k,s,v) ↦ v·e_s:
    each row adds its coefficient times its target value in the ring, in
    row order per group, as a row-by-row fold does. Minimum and maximum
    keep each group's extreme value, in a column with an adjoined
    infinity. Count is projection's multiplicity bookkeeping under another
    name. A relation with wildcard rows has no finite fold."""
    if fold not in ("sum", "min", "max", "count"):
        raise RelationError(f"unknown aggregate {fold!r}")
    if not group:
        raise RelationError("aggregation needs at least one grouping attribute")
    if target in group:
        raise RelationError(f"target {target!r} cannot also be a grouping attribute")
    gpos = [r.schema.position(n) for n in group]
    tpos = r.schema.position(target)
    if fold == "count":
        return project(r, list(group))
    if not isinstance(r.schema.prims[tpos], Int64):
        raise RelationError(f"{fold} needs an int target column, not "
                            f"{type_name(r.schema.prims[tpos])}")
    if fold == "sum" and isinstance(r.ring, GF2Ring):
        raise RelationError("sum aggregation is meaningless over gf2; use count")

    cols = tuple(r.schema.columns[p] for p in gpos)
    ordered = sorted(gpos)
    key = _getter([ordered.index(p) for p in gpos])
    totals = [(key(g), v) for g, v in _group_totals(r, ordered, tpos, fold).items()]
    if fold == "sum":
        return _built(Schema(cols), r.ring, totals)
    cols += ((target, INT_WITH_INF if fold == "min" else INT_WITH_NEG_INF),)
    return _built(Schema(cols), r.ring, [(g + (v,), r.ring.one) for g, v in totals])


def _group_totals(r: Relation, grouping, tpos, fold):
    """Each group's total, keyed in column order, by one frontier fold over
    `r`'s levels. The frontier maps each group key seen so far to its
    sub-forms in row order and, from the target column on, a parallel list
    of their target values. A grouping level extends a key by each entry's
    key; any other level replaces a key's sub-forms by their children, in
    C. Each coefficient c gives its row's share, c·v (sum) or v (min, max),
    and a group folds its shares in row order. Keys are ordered, and
    `trie_edges` charged, as `enumerate_nf` orders and charges them."""
    nf, ring, last = r.nf(), r.ring, len(r.schema) - 1
    front, edges = {} if nf.is_zero() else {(): (None, [nf])}, 0
    base_of, trie_of = attrgetter("base"), attrgetter("trie")
    for d, prim in enumerate(r.schema.prims):
        order, nxt = tries.key_order(prim), {}
        for g, (vs, xs) in front.items():
            if set(map(base_of, xs)) != {None}:
                metrics.current.trie_edges += edges
                raise RelationError("cannot aggregate a relation with wildcard rows")
            ts = list(map(trie_of, xs))
            ys = list(chain.from_iterable(map(dict.values, ts)))
            if len(ys) > len(ts):  # put each trie's entries in key order
                ts = [t if len(t) == 1 else {k: t[k] for k in sorted(t, key=order)} for t in ts]
                ys = list(chain.from_iterable(map(dict.values, ts)))
            edges += len(ys)
            if d == tpos or d > tpos and len(ys) > len(xs):  # each child's target value
                vs = list(chain.from_iterable(ts if d == tpos else map(repeat, vs, map(len, ts))))
            if d == last:
                # v is an Int64 value: a ring element over Z, and over REAL
                # `c * v` converts it exactly as float(v) does
                ys = list(map(ring.mul, ys, vs)) if fold == "sum" else vs
            if d not in grouping:
                nxt[g] = vs, ys
                continue
            at = {}  # each key's entries, in row order
            for i, k in enumerate(chain.from_iterable(ts)):
                if k in at:
                    at[k].append(i)
                else:
                    at[k] = [i]
            for k, where in at.items():
                pick = _getter(where)
                nxt[g + (k,)] = None if vs is None else pick(vs), pick(ys)
        front = nxt
    metrics.current.trie_edges += edges
    merge = ring.add if fold == "sum" else min if fold == "min" else max
    return {g: reduce(merge, ys) for g, (_, ys) in front.items()}


def map_col(r: Relation, name: str, fn, out_prim: PrimSet | None = None) -> Relation:
    """Apply a total function to one column; colliding outputs add their
    multiplicities. `fn` may be a registered function name or a callable
    (callables need `out_prim` when the column type changes)."""
    pos = r.schema.position(name)
    prim = r.schema.prims[pos]
    if isinstance(fn, str):
        entry = FUNCTIONS.get(fn)
        if entry is None:
            raise RelationError(f"unknown function {fn!r}")
        dom, cod, f = entry
        if dom != prim:
            raise RelationError(
                f"function {fn!r} expects a {type_name(dom)} column, "
                f"{name!r} is {type_name(prim)}"
            )
    else:
        f = fn
        cod = out_prim or prim

    def checked(a):
        b = f(a)
        if not cod.contains(b):
            raise RelationError(f"{fn if isinstance(fn, str) else 'function'} maps {a!r} "
                                f"in column {name!r} outside {type_name(cod)}")
        return b

    def row_map(row):
        a = row[pos]
        return row[:pos] + (a if a is STAR else checked(a),) + row[pos + 1:]

    cols = list(r.schema.columns)
    cols[pos] = (name, cod)
    return _rebuilt(r, Schema(tuple(cols)), row_map)


def clamp_nonneg(r: Relation) -> Relation:
    """Drop rows with negative multiplicity; the explicit non-linear
    barrier between update batches."""
    if r.ring.name != "z":
        raise RelationError("clamp is defined for integer multiplicities")
    return _kept_rows(r, lambda row, c: c > 0, "clamp")


# predicate and function registries ---------------------------------------------

_COMPARES = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "prefix": lambda a, b: isinstance(a, str) and a.startswith(b),
    "contains": lambda a, b: isinstance(a, str) and b in a,
}


class Compare(Record):
    """Column against literal, or column against column."""

    _fields = ("op", "column", "literal", "other_column")
    literal = None
    other_column = None

    def single_column(self):
        return self.column if self.other_column is None else None

    def value_test(self, prim):
        fn = _COMPARES[self.op]
        lit = self.literal
        if self.op in ("prefix", "contains"):
            if not isinstance(prim, Str) or not isinstance(lit, str):
                raise RelationError(f"{self.op} applies to string columns only")
        elif not prim.contains(lit):
            raise RelationError(
                f"literal {lit!r} does not match the type of column {self.column!r}"
            )
        return lambda a: fn(a, lit)

    def row_test(self, sch: Schema):
        i = sch.position(self.column)
        if self.other_column is None:
            test = self.value_test(sch.prims[i])
            return lambda row: test(row[i])
        fn = _COMPARES[self.op]
        j = sch.position(self.other_column)
        pi, pj = sch.prims[i], sch.prims[j]
        if self.op in ("prefix", "contains"):
            if not (isinstance(pi, Str) and isinstance(pj, Str)):
                raise RelationError(f"{self.op} applies to string columns only")
        elif pi != pj:
            raise RelationError(
                f"cannot compare column {self.column!r} ({type_name(pi)}) "
                f"with column {self.other_column!r} ({type_name(pj)})"
            )
        return lambda row: fn(row[i], row[j])


class ColumnWhere(Record):
    """Arbitrary decidable test on one column; library-level extension
    point, deliberately not reachable from the query syntax."""

    _fields = ("column", "test")  # test: value -> bool

    def single_column(self):
        return self.column

    def value_test(self, prim):
        return self.test

    def row_test(self, sch: Schema):
        i = sch.position(self.column)
        return lambda row: self.test(row[i])


class BoolPred(Record):
    _fields = ("kind", "parts")  # kind: and | or | not

    def single_column(self):
        return None

    def row_test(self, sch: Schema):
        tests = [p.row_test(sch) for p in self.parts]
        if self.kind == "and":
            return lambda row: all(t(row) for t in tests)
        if self.kind == "or":
            return lambda row: any(t(row) for t in tests)
        return lambda row: not tests[0](row)


FUNCTIONS = {
    "upper": (STRING, STRING, str.upper),
    "lower": (STRING, STRING, str.lower),
    "reverse": (STRING, STRING, lambda s: s[::-1]),
    "length": (STRING, INT, len),
    "abs": (INT, INT, abs),
    "neg": (INT, INT, lambda v: -v),
    "inc": (INT, INT, lambda v: v + 1),
    "dec": (INT, INT, lambda v: v - 1),
}
