"""Relations: a typed schema and its data held as one canonical form.

A relation is a named, typed schema plus its data in the tensor chain of
free modules over the column types, with coefficients in the session ring.
The data is held as one canonical form, a nested keyed trie in attribute
order. Relations built from rows are born as forms, in one pass over the
rows that fills one trie per node (`_built`). This module is what `polyalg
load` runs; the operators on relations live in `relational`, and the term
code in `terms` is imported only for a relation given as a term or read
back as one.
"""

from itertools import chain

from . import metrics, tries
from .normal import (
    enumerate_nf,
    has_baseline,
    keyed_nf,
    nf_equal,
    nf_lookup_path,
    nf_weight,
    strip_space,
)
from .prims import BOOL, INT, STRING, PrimSet, Record
from .rings import Ring
from .spaces import tensor_chain


class RelationError(ValueError):
    pass


TYPE_NAMES = {"int": INT, "str": STRING, "bool": BOOL}

#: widest schema: widening (`product.embed`), adding (`nf_add`, as an outer
#: join pads its inputs) and reading back forms recurse per column, and 100
#: columns under a query nested `query.MAX_DEPTH` deep still fit the default
#: recursion limit; building, folding, joining and `relational._walk` do not
#: recurse
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

    def __init__(self, sch: Schema, ring: Ring, term=None, nf=None):
        data = term if nf is None else nf
        if data is None:
            raise RelationError("a relation needs a term or a normal form")
        chain = sch.chain(ring)
        if data.space != chain and strip_space(data.space) != tensor_chain(ring, sch.prims):
            raise RelationError(f"{data.space} is not a chain of the columns "
                                f"{sch.render()} over {ring}")
        if nf is None:
            from .terms import normalize

            nf = normalize(term)
        if nf.space != chain:
            from .product import embed

            nf = embed(nf, sch.columns, sch.columns)
        self.schema = sch
        self.ring = ring
        self._nf = nf

    def nf(self):
        return self._nf

    def chain_term(self):
        from .terms import readback

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
        return nf_lookup_path(self._nf, tuple(row))

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
    becomes its node's form in place by `normal.keyed_nf`, and an empty node
    is deleted."""
    last = len(sch) - 1
    spaces = [sch.chain(ring)]  # each level's space, the chain's tails
    for _ in range(last):
        spaces.append(spaces[-1].rhs)
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
                    t[k] = keyed_nf(space, u)
                else:
                    gone.append((t, k))
        for t, k in gone:
            del t[k]
    metrics.current.trie_edges += edges + len(root)
    return Relation(sch, ring, nf=keyed_nf(spaces[0], root))
