"""Random query programs checked against a dictionary model.

The model stores a relation as schema plus tuple -> coefficient mapping
and implements every operation by brute force; random expression trees
over a pool of small base relations must agree with the engine row for
row. Wildcard-producing operations are excluded here, the model has no
baselines; those paths are covered by the covering-sum oracle tests.
"""

import random

import pytest

from polyalg import (
    GF2,
    INT,
    INT_WITH_INF,
    INT_WITH_NEG_INF,
    STRING,
    Z,
    Compare,
    RelationError,
    aggregate,
    cartesian,
    clamp_nonneg,
    diff,
    intersect,
    map_col,
    natural_join,
    project,
    relabel,
    relation_from_rows,
    schema,
    select,
    union,
)


class Model:
    def __init__(self, names, prims, rows, ring):
        self.names = list(names)
        self.prims = list(prims)
        self.rows = {k: v for k, v in rows.items() if not ring.is_zero(v)}
        self.ring = ring

    def _merge(self, other, f):
        out = {}
        for k in set(self.rows) | set(other.rows):
            v = f(self.rows.get(k, self.ring.zero), other.rows.get(k, self.ring.zero))
            if not self.ring.is_zero(v):
                out[k] = v
        return Model(self.names, self.prims, out, self.ring)

    def union(self, other):
        return self._merge(other, self.ring.add)

    def diff(self, other):
        return self._merge(other, lambda a, b: self.ring.add(a, self.ring.neg(b)))

    def intersect(self, other):
        return self._merge(other, self.ring.mul)

    def select(self, col, op, lit):
        i = self.names.index(col)
        ops = {"=": lambda a: a == lit, "<": lambda a: a < lit, ">": lambda a: a > lit}
        rows = {k: v for k, v in self.rows.items() if ops[op](k[i])}
        return Model(self.names, self.prims, rows, self.ring)

    def project(self, cols):
        idx = [self.names.index(c) for c in cols]
        out = {}
        for k, v in self.rows.items():
            kk = tuple(k[i] for i in idx)
            out[kk] = self.ring.add(out.get(kk, self.ring.zero), v)
        return Model(cols, [self.prims[i] for i in idx],
                     {k: v for k, v in out.items() if not self.ring.is_zero(v)},
                     self.ring)

    def cartesian(self, other):
        out = {}
        for ka, va in self.rows.items():
            for kb, vb in other.rows.items():
                out[ka + kb] = self.ring.mul(va, vb)
        return Model(self.names + other.names, self.prims + other.prims,
                     {k: v for k, v in out.items() if not self.ring.is_zero(v)},
                     self.ring)

    def join(self, other):
        shared = [n for n in self.names if n in other.names]
        extra = [n for n in other.names if n not in shared]
        names = self.names + extra
        prims = self.prims + [other.prims[other.names.index(n)] for n in extra]
        out = {}
        for ka, va in self.rows.items():
            for kb, vb in other.rows.items():
                if all(
                    ka[self.names.index(n)] == kb[other.names.index(n)] for n in shared
                ):
                    kk = ka + tuple(kb[other.names.index(n)] for n in extra)
                    out[kk] = self.ring.add(
                        out.get(kk, self.ring.zero), self.ring.mul(va, vb)
                    )
        return Model(names, prims,
                     {k: v for k, v in out.items() if not self.ring.is_zero(v)},
                     self.ring)

    def map_col(self, col, f):
        i = self.names.index(col)
        out = {}
        for k, v in self.rows.items():
            kk = k[:i] + (f(k[i]),) + k[i + 1 :]
            out[kk] = self.ring.add(out.get(kk, self.ring.zero), v)
        return Model(self.names, self.prims,
                     {k: v for k, v in out.items() if not self.ring.is_zero(v)},
                     self.ring)

    def clamp(self):
        return Model(self.names, self.prims,
                     {k: v for k, v in self.rows.items() if v > 0}, self.ring)

    def agg_sum(self, group, target):
        gi = [self.names.index(c) for c in group]
        ti = self.names.index(target)
        out = {}
        for k, v in self.rows.items():
            kk = tuple(k[i] for i in gi)
            out[kk] = self.ring.add(out.get(kk, self.ring.zero),
                                    self.ring.mul(v, self.ring.coerce(k[ti])))
        return Model(group, [self.prims[i] for i in gi],
                     {k: v for k, v in out.items() if not self.ring.is_zero(v)},
                     self.ring)

    def agg_pick(self, group, target, fold):
        gi = [self.names.index(c) for c in group]
        ti = self.names.index(target)
        pick = min if fold == "min" else max
        best = {}
        for k in self.rows:
            kk = tuple(k[i] for i in gi)
            best[kk] = pick(best[kk], k[ti]) if kk in best else k[ti]
        prim = INT_WITH_INF if fold == "min" else INT_WITH_NEG_INF
        return Model(group + [target], [self.prims[i] for i in gi] + [prim],
                     {kk + (v,): self.ring.one for kk, v in best.items()}, self.ring)


def to_engine(m: Model):
    sch = schema(*zip(m.names, m.prims))
    return relation_from_rows(sch, m.ring, list(m.rows.items()))


def agree(r, m: Model):
    assert r.schema.names == m.names
    assert dict(r.rows()) == m.rows


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
# small values plus adversarial ones: the int64 ends, the empty string, a
# prefix of another key and a character outside the basic multilingual plane
INT_KEYS = [0, 1, 2, 3, INT64_MIN, INT64_MAX]
STR_KEYS = ["p", "q", "r", "", "pp", "\U0001F600"]


def _base_pool(rng, ring):
    """Small base relations over disjoint-ish schemas with some shared names."""
    def mk(names, prims, n):
        rows = {}
        for _ in range(n):
            k = tuple(rng.choice(INT_KEYS if p is INT else STR_KEYS) for p in prims)
            c = (rng.randint(-2, 2) or 1) if ring is Z else True
            rows[k] = c
        return Model(names, prims, rows, ring)

    return [
        mk(["A", "B"], [INT, INT], rng.randint(1, 5)),
        mk(["B", "C"], [INT, STRING], rng.randint(1, 5)),
        mk(["A", "C"], [INT, STRING], rng.randint(1, 5)),
        mk(["D"], [INT], rng.randint(1, 4)),
    ]


def _random_step(rng, pool, ring, engine_of=to_engine):
    """One random operation on pool models and, through `engine_of(model)`,
    on their engine relations."""
    kind = rng.choice(
        ["union", "diff", "intersect", "join", "project", "select", "map", "sum",
         "min", "max", "clamp", "cartesian"]
    )
    m = rng.choice(pool)
    if kind in ("union", "diff", "intersect"):
        mates = [o for o in pool if o.names == m.names]
        o = rng.choice(mates)
        if kind == "diff" and ring is GF2:
            kind = "union"  # same thing mod 2, keep the op map simple
        model = getattr(m, {"union": "union", "diff": "diff", "intersect": "intersect"}[kind])(o)
        engine = {"union": union, "diff": diff, "intersect": intersect}[kind](
            engine_of(m), engine_of(o)
        )
        return model, engine
    if kind == "join":
        o = rng.choice(pool)
        return m.join(o), natural_join([engine_of(m), engine_of(o)])
    if kind == "cartesian":
        o = rng.choice([p for p in pool if not set(p.names) & set(m.names)] or [None])
        if o is None:
            return m, engine_of(m)
        return m.cartesian(o), cartesian(engine_of(m), engine_of(o))
    if kind == "project":
        cols = rng.sample(m.names, rng.randint(1, len(m.names)))
        return m.project(cols), project(engine_of(m), cols)
    if kind == "select":
        col = rng.choice(m.names)
        if m.prims[m.names.index(col)] is INT:
            op, lit = rng.choice(["=", "<", ">"]), rng.randint(0, 3)
        else:
            op, lit = "=", rng.choice(STR_KEYS)
        return m.select(col, op, lit), select(engine_of(m), Compare(op, col, lit))
    if kind == "map":
        cols = [c for c, p in zip(m.names, m.prims) if p is INT]
        if not cols:
            return m, engine_of(m)
        col = rng.choice(cols)
        i = m.names.index(col)
        if any(k[i] == INT64_MIN for k in m.rows):
            # abs(INT64_MIN) is not an int64
            with pytest.raises(RelationError, match="abs"):
                map_col(engine_of(m), col, "abs")
            return m, engine_of(m)
        return m.map_col(col, abs), map_col(engine_of(m), col, "abs")
    if kind in ("sum", "min", "max"):
        if (kind == "sum" and ring is GF2) or len(m.names) < 2:
            return m, engine_of(m)
        ints = [c for c, p in zip(m.names, m.prims) if p is INT]
        if not ints:
            return m, engine_of(m)
        target = rng.choice(ints)
        # a non-empty subset of the other columns, in random order, so a
        # group key built in chain order shows
        others = [c for c in m.names if c != target]
        group = rng.sample(others, rng.randint(1, len(others)))
        model = m.agg_sum(group, target) if kind == "sum" else m.agg_pick(group, target, kind)
        return model, aggregate(engine_of(m), group, target, kind)
    if kind == "clamp":
        if ring is GF2:
            return m, engine_of(m)
        return m.clamp(), clamp_nonneg(engine_of(m))
    raise AssertionError(kind)


def _poolable(m: Model):
    """Results that later steps may take as input: non-empty, narrow, and
    typed int or str only (a min or max column is int with an infinity)."""
    return bool(m.rows) and len(m.names) <= 4 and all(p in (INT, STRING) for p in m.prims)


@pytest.mark.parametrize("ring", [Z, GF2], ids=["z", "gf2"])
def test_random_programs_agree_with_model(ring):
    rng = random.Random(0x5EED if ring is Z else 0x5EED2)
    for _ in range(120):
        pool = _base_pool(rng, ring)
        for _ in range(rng.randint(1, 4)):
            model, engine = _random_step(rng, pool, ring)
            agree(engine, model)
            # feed some intermediate results back into the pool
            if rng.random() < 0.4 and _poolable(model):
                pool.append(model)


@pytest.mark.parametrize("ring", [Z, GF2], ids=["z", "gf2"])
def test_chained_programs_agree_with_model(ring):
    # engine results feed later steps as they are, so forms from joins and
    # set operations reach selection, projection, maps and products, which
    # read their terms back
    rng = random.Random(0xC4A1 if ring is Z else 0xC4A2)
    for _ in range(120):
        pairs = [(m, to_engine(m)) for m in _base_pool(rng, ring)]
        for _ in range(rng.randint(2, 6)):
            engines = {id(m): e for m, e in pairs}
            model, engine = _random_step(rng, [m for m, _ in pairs], ring,
                                         engine_of=lambda m: engines[id(m)])
            agree(engine, model)
            if _poolable(model):
                pairs.append((model, engine))
