"""Relational operations as linear maps over ring-weighted collections.

Every operator takes relations (`relation.Relation`: a schema and its data
as one canonical form in the compact chain of its column types) and works
on their forms; none lists rows, so an update visits the entries of its
delta and copies, in C, only the trie levels it changes. Aggregation,
counting and projection fold the form's levels, in row order per group;
selection and clamping filter them, sharing every sub-form they keep;
reordering and column maps rebuild them from their keys. Every relation
over a schema and ring lives in one chain: finite relations with no
baselines, outer joins with wildcard ones. So set operations use both forms
as they are, and every join and intersection is one joint product of the
inputs' own forms, an outer join's each padded with its own chain's unit;
the product is the output. A Cartesian product is the left input's form
with the right input's form grafted under each of its coefficients, shared
unchanged wherever the coefficient is one. Negative multiplicities are
ordinary data (deletions), and wildcard baselines are ordinary data too,
flagged at rendering time.
"""

from bisect import bisect_left
from functools import partial, reduce
from importlib import import_module
from itertools import chain, compress, repeat
from operator import attrgetter, eq, ge, gt, is_not, itemgetter, le, lt, ne

from . import metrics, tries
from .normal import STAR, MapNF, nf_add, nf_sub, nf_tensor, unit_nf
from .prims import INT, INT_WITH_INF, INT_WITH_NEG_INF, STRING, Int64, PrimSet, Record, Str
from .relation import Relation, RelationError, Schema, _built, type_name
from .rings import GF2Ring

trie_of, base_of = attrgetter("trie"), attrgetter("base")


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
    """Keep tuples satisfying the predicate, multiplicities intact, by one
    filter of the form's levels down to the last column it reads
    (`_filtered`). A wildcard in a column it reads has no finite selection."""
    test, reads = pred.row_test(r.schema), {r.schema.position(c) for c in pred.columns()}
    return _filtered(r, reads, lambda row, _: test(row),
                     "cannot select on wildcard-bearing column {!r}")


def _filtered(r: Relation, reads, keep, refusal: str) -> Relation:
    """`r` keeping its last read column's entries where `keep(row, payload)`
    holds, `row[i]` being read column i's key, after one `_walk`. Going back
    up, a node that lost or changed an entry is built anew, one trie edge per
    entry; every other node, and every sub-form below a kept entry, is shared."""
    if r.nf().is_zero():
        return r
    down, nodes, cols = _walk(r, reads, refusal)
    outs = [v if ok else None for v, ok in zip(nodes, map(keep, zip(*cols), nodes))]
    for xs, keys, owner in reversed(down):  # `nodes` are the payloads of `xs`
        changed = set(compress(owner, map(is_not, outs, nodes)))
        rebuilt = changed.intersection(compress(owner, map(is_not, outs, repeat(None))))
        new = [None if i in changed else x for i, x in enumerate(xs)]
        for i in rebuilt:
            a, b = bisect_left(owner, i), bisect_left(owner, i + 1)
            t = {k: v for k, v in zip(keys[a:b], outs[a:b]) if v is not None}
            metrics.current.trie_edges += len(t)
            base = t.pop(STAR, None)
            new[i] = MapNF(xs[i].space, t or None, base)
        outs, nodes = new, xs
    return Relation(r.schema, r.ring, nf=outs[0] or MapNF(r.nf().space, None, None))


def _walk(r: Relation, reads, refusal=None, ordered=False):
    """Down `r`'s form to its last read column, charging each level as
    `_level` reads it; `refusal`, formatted with a read column's name,
    refuses its baselines. Returns each level's nodes, keys and each key's
    node index, the last level's payloads and the read columns' keys."""
    nf, prims, last = r.nf(), r.schema.prims, max(reads)
    nodes, down = [] if nf.is_zero() else [nf], []
    for d in range(last + 1):
        ts, ys, edges = _level(nodes, ordered and partial(sorted, key=tries.key_order(prims[d])),
                               refusal and d in reads and refusal.format(r.schema.names[d]))
        metrics.current.trie_edges += edges
        owner = list(chain.from_iterable(map(repeat, range(len(ts)), map(len, ts))))
        down.append((nodes, list(chain.from_iterable(ts)), owner))
        nodes = ys
    cols, at = [repeat(None)] * (last + 1), None  # each payload's entry in level d, if not its own
    for d, (_, keys, owner) in zip(range(last, min(reads) - 1, -1), reversed(down)):
        if d in reads:
            cols[d] = keys if at is None else list(map(keys.__getitem__, at))
        at = owner if at is None else list(map(owner.__getitem__, at))
    return down, nodes, cols


def _level(xs, ordered, refusal):
    """The one read of a level: a dict per node of `xs`, a baseline first as
    a `STAR` entry or, if `refusal` is given, raising it as a RelationError;
    all their payloads, in that order; one trie edge per trie entry. Tries
    are in key order by `ordered` where the caller's result depends on it."""
    ts = list(map(trie_of, xs))
    if set(map(base_of, xs)) <= {None}:
        ys = list(chain.from_iterable(map(dict.values, ts)))
        if ordered and len(ys) > len(ts):  # put each trie's entries in key order
            ts = [t if len(t) == 1 else {k: t[k] for k in ordered(t)} for t in ts]
            ys = list(chain.from_iterable(map(dict.values, ts)))
        return ts, ys, len(ys)
    if refusal:
        raise RelationError(refusal)
    edges = sum(map(len, filter(None, ts)))
    ts = [({} if x.base is None else {STAR: x.base})
          | ({k: t[k] for k in ordered(t)} if ordered and t else t or {}) for x, t in zip(xs, ts)]
    return ts, list(chain.from_iterable(map(dict.values, ts))), edges


def project(r: Relation, names) -> Relation:
    """Keep the named columns, in the order named: the count fold of
    `_group_totals` grouped by them, so each discarded key or wildcard
    weighs one and multiplicities are preserved rather than collapsed."""
    if not names:
        raise RelationError("projection needs at least one attribute")
    positions = [r.schema.position(n) for n in names]
    if len(set(positions)) != len(positions):
        raise RelationError(f"repeated attributes in projection {names}")
    sch = Schema(tuple(r.schema.columns[p] for p in positions))
    return _built(sch, r.ring, _group_totals(r, positions, None, "count"))


def rename(r: Relation, perm) -> Relation:
    """Permute column order; output column i is input column perm[i]: the
    key columns of one `_walk`, permuted, and its payloads, built."""
    if sorted(perm) != list(range(len(r.schema))):
        raise RelationError(f"{perm} is not a permutation of the columns")
    if list(perm) == list(range(len(r.schema))):
        return r
    _, coeffs, cols = _walk(r, range(len(r.schema)))
    sch = Schema(tuple(r.schema.columns[p] for p in perm))
    return _built(sch, r.ring, zip(zip(*[cols[p] for p in perm]), coeffs))


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
    seen = {}  # each attribute's type, in first-appearance order
    for r in rs:
        if r.ring is not rs[0].ring:
            raise RelationError("join needs matching rings")
        for n, p in r.schema.columns:
            if seen.setdefault(n, p) != p:
                raise RelationError(f"attribute {n!r} has conflicting types "
                                    f"{type_name(seen[n])} and {type_name(p)}")
    return Schema(tuple(seen.items()))


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

    Every fold is one frontier fold over the form's levels
    (`_group_totals`), which lists no rows, into one total per group, keyed
    in the order of `group`. A sum is the linear map e_(k,s,v) ↦ v·e_s:
    each row adds its coefficient times its target value in the ring, in
    row order per group, as a row-by-row fold does. Minimum and maximum
    keep each group's extreme value, in a column with an adjoined
    infinity. Count is projection under another name. A relation with
    wildcard rows has no finite sum, minimum or maximum."""
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
    totals = _group_totals(r, gpos, tpos, fold)
    if fold == "sum":
        return _built(Schema(cols), r.ring, totals)
    cols += ((target, INT_WITH_INF if fold == "min" else INT_WITH_NEG_INF),)
    return _built(Schema(cols), r.ring, [(g + (v,), r.ring.one) for g, v in totals])


def _group_totals(r: Relation, group, tpos, fold):
    """Each group's (key, total), keyed in the order of `group`, by one
    frontier fold over `r`'s levels. The frontier maps each group key seen
    so far to its sub-forms in row order and, from the target column on, a
    parallel list of their target values. A grouping level extends a key by
    each entry's key; any other level replaces a key's sub-forms by their
    children, in C. Each coefficient c gives its row's share, c·v (sum), v
    (min, max) or c (count), and a group folds its shares in row order, a
    count's by `tries.add_all` as `_built` adds a repeated row's. `_level`
    reads each group's level in key order; only a count reads baselines."""
    nf, ring, last = r.nf(), r.ring, len(r.schema) - 1
    grouping = sorted(group)
    front = {} if nf.is_zero() else {(): (None, [nf])}
    refusal = None if fold == "count" else "cannot aggregate a relation with wildcard rows"
    for d, prim in enumerate(r.schema.prims):
        ordered, nxt, edges = partial(sorted, key=tries.key_order(prim)), {}, 0
        for g, (vs, xs) in front.items():
            ts, ys, n = _level(xs, ordered, refusal)
            edges += n
            if d == tpos or vs is not None and len(ys) > len(xs):  # each child's target value
                vs = list(chain.from_iterable(ts if d == tpos else map(repeat, vs, map(len, ts))))
            if d == last and vs is not None:
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
        metrics.current.trie_edges += edges
        front = nxt
    key = _getter([grouping.index(p) for p in group])
    total = {"sum": partial(reduce, ring.add), "min": min, "max": max,
             "count": partial(tries.add_all, vops=ring)}[fold]  # None: the shares cancel
    return [(key(g), c) for g, (_, ys) in front.items() if (c := total(ys)) is not None]


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

    _, coeffs, cols = _walk(r, range(len(r.schema)), ordered=True)  # in row order, as outputs add
    cols[pos] = [a if a is STAR else checked(a) for a in cols[pos]]
    columns = list(r.schema.columns)
    columns[pos] = (name, cod)
    return _built(Schema(tuple(columns)), r.ring, zip(zip(*cols), coeffs))


def clamp_nonneg(r: Relation) -> Relation:
    """Drop rows with negative multiplicity, the explicit non-linear barrier
    between update batches: a filter of the free level reading every column."""
    if r.ring.name != "z":
        raise RelationError("clamp is defined for integer multiplicities")
    return _filtered(r, range(len(r.schema)), lambda row, c: c > 0,
                     "cannot clamp a relation with wildcard rows")


# predicate and function registries ---------------------------------------------

_COMPARES = {
    "=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge,
    "prefix": lambda a, b: isinstance(a, str) and a.startswith(b),
    "contains": lambda a, b: isinstance(a, str) and b in a,
}


class Compare(Record):
    """Column against literal, or column against column."""

    _fields = ("op", "column", "literal", "other_column")
    literal = None
    other_column = None

    def columns(self):
        return (self.column,) if self.other_column is None else (self.column, self.other_column)

    def row_test(self, sch: Schema):
        fn, i, lit = _COMPARES[self.op], sch.position(self.column), self.literal
        j = None if self.other_column is None else sch.position(self.other_column)
        pi, pj = sch.prims[i], None if j is None else sch.prims[j]
        if self.op in ("prefix", "contains"):
            other = isinstance(lit, str) if j is None else isinstance(pj, Str)
            if not (isinstance(pi, Str) and other):
                raise RelationError(f"{self.op} applies to string columns only")
        elif j is None and not pi.contains(lit):
            raise RelationError(
                f"literal {lit!r} does not match the type of column {self.column!r}")
        elif j is not None and pi != pj:
            raise RelationError(f"cannot compare column {self.column!r} ({type_name(pi)}) "
                                f"with column {self.other_column!r} ({type_name(pj)})")
        if j is None:
            return lambda row: fn(row[i], lit)
        return lambda row: fn(row[i], row[j])


class ColumnWhere(Record):
    """Arbitrary decidable test on one column; library-level extension
    point, deliberately not reachable from the query syntax."""

    _fields = ("column", "test")  # test: value -> bool

    def columns(self):
        return (self.column,)

    def row_test(self, sch: Schema):
        i = sch.position(self.column)
        return lambda row: self.test(row[i])


class BoolPred(Record):
    _fields = ("kind", "parts")  # kind: and | or | not

    def columns(self):
        return [c for p in self.parts for c in p.columns()]

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


def __getattr__(name):
    # `schema` and `relation_from_rows` live in `relation`; perfbench still
    # reads them here, and this forwarding goes when ROADMAP item 1 moves it
    if name in ("schema", "relation_from_rows"):
        return getattr(import_module(f"{__package__}.relation"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
