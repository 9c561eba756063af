"""Canonical trie-backed forms and the simplification that produces them.

A normal form has no zero coefficients, no repeated generators, biproducts
stored as a single pair, and keys enumerating in the index set's total
order. Compact spaces keep their wildcard component out of band, in a
dedicated baseline slot next to the key trie, so lookups are baseline plus
per-key deviation.

A relation chain, a tensor whose left factor is free, is keyed as well:
by F[A] ⊗ U ≅ A ⇒ U it is a `MapNF` over the left factor's keys whose
values are forms of the right factor, so a relation is one nested trie in
attribute order and products join it level by level. Only a tensor with
another left factor is a `TensorNF`, a list of factor-pair summands
compacted by grouping common factors and expanded to atomic pairs only by
`enumerate_nf`, where the quadratic cost is explicit and opt-in.
"""

import operator
from functools import reduce

from . import metrics, tries
from .spaces import (
    Biproduct,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    Scalar,
    Space,
    SpaceError,
    Tensor,
)
from .terms import (
    InjGen,
    MapsToGen,
    MulGen,
    OneGen,
    PairGen,
    Term,
    TensorGen,
    WildMapsToGen,
    WildOneGen,
    inject,
    linear_combination,
    maps_to,
    one,
    pair,
    scale,
    scaled,
    sum_terms,
    tensor,
    wild_maps_to,
    wild_one,
    zero,
)
from .tries import ValueOps


class _Star:
    __slots__ = ()

    def __repr__(self):
        return "*"


#: wildcard slot in key paths and lookups
STAR = _Star()


class InfiniteSupport(ValueError):
    pass


_RING_VOPS = {}


def ring_vops(ring):
    ops = _RING_VOPS.get(id(ring))
    if ops is None:
        # exact equality: reusing a node must not change a real weight by a
        # tolerance
        ops = ValueOps(add=ring.add, is_zero=ring.is_zero, same=operator.eq)
        _RING_VOPS[id(ring)] = ops
    return ops


class NormalForm:
    __slots__ = ("space", "_key", "_hash")

    def __init__(self, space):
        self.space = space
        self._key = None
        self._hash = None

    def is_zero(self) -> bool:
        raise NotImplementedError

    def sort_key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key

    def _make_key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.sort_key() == other.sort_key()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.sort_key()))
        return self._hash

    def __repr__(self):
        from .render import render_nf

        return render_nf(self)


class ScalarNF(NormalForm):
    __slots__ = ("value",)

    def __init__(self, space, value):
        super().__init__(space)
        self.value = value

    def is_zero(self):
        return self.space.ring.is_zero(self.value)

    def _make_key(self):
        return ("K", self.space.ring.sort_key(self.value))


class FreeNF(NormalForm):
    """Coefficient trie plus, for compact spaces, the unit's coefficient."""

    __slots__ = ("trie", "base")

    def __init__(self, space, trie, base):
        super().__init__(space)
        self.trie = trie
        self.base = base

    def is_zero(self):
        return self.trie is None and self.space.ring.is_zero(self.base)

    def _make_key(self):
        ring = self.space.ring
        prim = self.space.prim
        entries = tuple(
            (prim.sort_key(k), ring.sort_key(v)) for k, v in tries.items(prim, self.trie)
        )
        return ("F", ring.sort_key(self.base), entries)


class MapNF(NormalForm):
    """Trie of non-zero value forms plus, for compact maps, a baseline."""

    __slots__ = ("trie", "base")

    def __init__(self, space, trie, base):
        super().__init__(space)
        self.trie = trie
        self.base = base

    def is_zero(self):
        return self.trie is None and self.base is None

    def _make_key(self):
        prim = self.space.prim
        entries = tuple(
            (prim.sort_key(k), v.sort_key()) for k, v in tries.items(prim, self.trie)
        )
        base = () if self.base is None else self.base.sort_key()
        return ("M", base, entries)


class PairNF(NormalForm):
    __slots__ = ("lhs", "rhs")

    def __init__(self, space, lhs, rhs):
        super().__init__(space)
        self.lhs = lhs
        self.rhs = rhs

    def is_zero(self):
        return self.lhs.is_zero() and self.rhs.is_zero()

    def _make_key(self):
        return ("P", self.lhs.sort_key(), self.rhs.sort_key())


class TensorNF(NormalForm):
    __slots__ = ("summands",)

    def __init__(self, space, summands):
        super().__init__(space)
        self.summands = summands

    def is_zero(self):
        return not self.summands

    def _make_key(self):
        return ("T", tuple((l.sort_key(), r.sort_key()) for l, r in self.summands))


NF_VOPS = ValueOps(add=lambda x, y: nf_add(x, y), is_zero=lambda n: n.is_zero())


def zero_nf(space: Space) -> NormalForm:
    if isinstance(space, Scalar):
        return ScalarNF(space, space.ring.zero)
    if isinstance(space, (Free, CompactFree)):
        return FreeNF(space, None, space.ring.zero)
    if _is_keyed(space):
        return MapNF(space, None, None)
    if isinstance(space, Biproduct):
        return PairNF(space, zero_nf(space.lhs), zero_nf(space.rhs))
    if isinstance(space, Tensor):
        return TensorNF(space, ())
    raise SpaceError(f"no normal form for {space}")


def unit_nf(space: Space) -> NormalForm:
    """The unit of a compact chain: weight one on the wildcard of every level."""
    if isinstance(space, Tensor):
        return MapNF(space, None, unit_nf(space.rhs))
    return FreeNF(space, None, space.ring.one)


# addition, scaling ----------------------------------------------------------

def nf_add(x: NormalForm, y: NormalForm) -> NormalForm:
    space = x.space
    if space != y.space:
        raise SpaceError(f"cannot add forms of {space} and {y.space}")
    if isinstance(x, ScalarNF):
        return ScalarNF(space, space.ring.add(x.value, y.value))
    if isinstance(x, FreeNF):
        t = tries.merge(space.prim, x.trie, y.trie, ring_vops(space.ring))
        return FreeNF(space, t, space.ring.add(x.base, y.base))
    if isinstance(x, MapNF):
        t = tries.merge(space.prim, x.trie, y.trie, NF_VOPS)
        if x.base is None:
            base = y.base
        elif y.base is None:
            base = x.base
        else:
            base = nf_add(x.base, y.base)
            if base.is_zero():
                base = None
        return MapNF(space, t, base)
    if isinstance(x, PairNF):
        return PairNF(space, nf_add(x.lhs, y.lhs), nf_add(x.rhs, y.rhs))
    if isinstance(x, TensorNF):
        return TensorNF(space, compact_summands(x.summands + y.summands))
    raise SpaceError(f"cannot add {type(x).__name__}")


def nf_scale(r, x: NormalForm) -> NormalForm:
    space = x.space
    ring = space.ring
    if ring.is_zero(r):
        return zero_nf(space)
    if r == ring.one:  # exactly one: forms are immutable, so nothing is rebuilt
        return x
    if isinstance(x, ScalarNF):
        return ScalarNF(space, ring.mul(r, x.value))
    if isinstance(x, FreeNF):
        t = tries.map_values(space.prim, x.trie, lambda c: ring.mul(r, c), ring_vops(ring))
        return FreeNF(space, t, ring.mul(r, x.base))
    if isinstance(x, MapNF):
        t = tries.map_values(space.prim, x.trie, lambda nf: nf_scale(r, nf), NF_VOPS)
        base = None
        if x.base is not None:
            base = nf_scale(r, x.base)
            if base.is_zero():
                base = None
        return MapNF(space, t, base)
    if isinstance(x, PairNF):
        return PairNF(space, nf_scale(r, x.lhs), nf_scale(r, x.rhs))
    if isinstance(x, TensorNF):
        # scalings are absorbed into the left factor
        return TensorNF(space, compact_summands([(nf_scale(r, l), rr) for l, rr in x.summands]))
    raise SpaceError(f"cannot scale {type(x).__name__}")


def nf_neg(x: NormalForm) -> NormalForm:
    ring = x.space.ring
    return nf_scale(ring.neg(ring.one), x)


def nf_sub(x: NormalForm, y: NormalForm) -> NormalForm:
    return nf_add(x, nf_neg(y))


def compact_summands(raw):
    """Canonical tensor summand list: zero factors dropped, summands with a
    common right factor merged, then a common left factor, finally sorted.
    Recognising every factoring opportunity is not tractable; this is the
    fixed heuristic, and extensional equality falls back to expansion."""
    live = [(l, r) for l, r in raw if not l.is_zero() and not r.is_zero()]
    if not live:
        return ()

    def group(pairs, by_right):
        table = {}
        order = []
        for l, r in pairs:
            k = r if by_right else l
            got = table.get(k)
            if got is None:
                table[k] = l if by_right else r
                order.append(k)
            else:
                table[k] = nf_add(got, l if by_right else r)
        out = []
        for k in order:
            v = table[k]
            if v.is_zero():
                continue
            out.append((v, k) if by_right else (k, v))
        return out

    stage = group(group(live, True), False)
    stage.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return tuple(stage)


# normalisation --------------------------------------------------------------

def normalize(t: Term) -> NormalForm:
    """Simplify a term to its canonical form.

    Free, map and chain spaces become keyed forms (`_keyed_nf`), scalars
    are pushed to the leaves, biproducts add pointwise, other tensors keep
    unexpanded summands, and symbolic products are evaluated by the product
    engine. Idempotent: normalising a read-back form reproduces it.
    """
    space = t.space
    ring = space.ring
    if _is_keyed(space):
        return _keyed_nf(t)
    if isinstance(space, Tensor):
        summands = []
        for c, g in linear_combination(t):
            if ring.is_zero(c):
                continue
            if isinstance(g, TensorGen):
                summands.append((nf_scale(c, normalize(g.lhs)), normalize(g.rhs)))
            elif isinstance(g, MulGen):
                summands.extend(nf_scale(c, _product_nf(g)).summands)
            else:
                raise SpaceError(f"unexpected generator in {space}")
        return TensorNF(space, compact_summands(summands))
    pieces = (_gen_nf(c, g, space) for c, g in linear_combination(t) if not ring.is_zero(c))
    return reduce(nf_add, pieces, zero_nf(space))


def _is_keyed(space: Space) -> bool:
    """Free and map spaces, and chains: a tensor with a free left factor is
    keyed by that factor's keys, F[A] ⊗ U ≅ A ⇒ U and F*[A] ⊗ U ≅ A ⇒* U."""
    if isinstance(space, Tensor):
        return isinstance(space.lhs, (Free, CompactFree))
    return isinstance(space, (Free, CompactFree, FinMap, CompactMap))


def _keyed_nf(t: Term) -> NormalForm:
    """Free, map and chain forms alike: every generator gives (key, payload)
    entries or a share of the wildcard baseline, and the key trie is built
    by one `tries.from_items` call, so repeated keys add in balanced merges.
    A chain generator `lhs ⊗ rhs` maps each key of `lhs` to `rhs` scaled by
    that key's coefficient, and the unit's share of `lhs` to the baseline."""
    space = t.space
    ring = space.ring
    prim = space.prim
    entries = []
    bases = []
    for c, g in linear_combination(t):
        if ring.is_zero(c):
            continue
        if isinstance(g, InjGen):
            entries.append((g.value, c))
        elif isinstance(g, WildOneGen):
            bases.append(c)
        elif isinstance(g, MapsToGen):
            entries.append((g.key, nf_scale(c, normalize(g.body))))
        elif isinstance(g, WildMapsToGen):
            bases.append(nf_scale(c, normalize(g.body)))
        elif isinstance(g, TensorGen):
            l = normalize(g.lhs)
            r = normalize(g.rhs)
            entries.extend((k, nf_scale(ring.mul(c, a), r)) for k, a in tries.items(prim, l.trie))
            if not ring.is_zero(l.base):
                bases.append(nf_scale(ring.mul(c, l.base), r))
        elif isinstance(g, MulGen):
            nf = nf_scale(c, _product_nf(g))
            entries.extend(tries.items(prim, nf.trie))
            if nf.base is not None:
                bases.append(nf.base)
        else:
            raise SpaceError(f"unexpected generator in {space}")
    if isinstance(space, (Free, CompactFree)):
        base = reduce(ring.add, bases, ring.zero)
        return FreeNF(space, tries.from_items(prim, entries, ring_vops(ring)), base)
    # wildcard generators are few, so the baseline's shares are simply added
    base = reduce(nf_add, bases, zero_nf(space.value))
    return MapNF(space, tries.from_items(prim, entries, NF_VOPS), None if base.is_zero() else base)


def _product_nf(g: MulGen) -> NormalForm:
    from .product import nf_product

    return nf_product([normalize(f) for f in g.factors])


def force_product(g: MulGen) -> Term:
    """A symbolic product evaluated by the product engine and read back as
    a term, for `terms.linear_map`, which acts generator by generator."""
    return readback(_product_nf(g))


def _gen_nf(c, g, space) -> NormalForm:
    if isinstance(g, OneGen):
        return ScalarNF(space, c)
    if isinstance(g, PairGen):
        return PairNF(space, nf_scale(c, normalize(g.lhs)), nf_scale(c, normalize(g.rhs)))
    if isinstance(g, MulGen):
        return nf_scale(c, _product_nf(g))
    raise SpaceError(f"unexpected generator in {space}")


def readback(nf: NormalForm) -> Term:
    """Symbolic term denoting the normal form, with balanced sums."""
    space = nf.space
    if isinstance(nf, ScalarNF):
        if nf.is_zero():
            return zero(space)
        return scale(nf.value, one(space.ring))
    if isinstance(nf, FreeNF):
        parts = [scaled(c, inject(k, space)) for k, c in tries.items(space.prim, nf.trie)]
        if not space.ring.is_zero(nf.base):
            parts.append(scale(nf.base, wild_one(space)))
        return sum_terms(space, parts)
    if isinstance(nf, MapNF) and isinstance(space, Tensor):  # a chain
        lhs = space.lhs
        parts = [tensor(inject(k, lhs), readback(v)) for k, v in tries.items(space.prim, nf.trie)]
        if nf.base is not None:
            parts.append(tensor(wild_one(lhs), readback(nf.base)))
        return sum_terms(space, parts)
    if isinstance(nf, MapNF):
        parts = [maps_to(k, readback(v), space) for k, v in tries.items(space.prim, nf.trie)]
        if nf.base is not None:
            parts.append(wild_maps_to(readback(nf.base), space))
        return sum_terms(space, parts)
    if isinstance(nf, PairNF):
        return pair(readback(nf.lhs), readback(nf.rhs))
    if isinstance(nf, TensorNF):
        return sum_terms(space, [tensor(readback(l), readback(r)) for l, r in nf.summands])
    raise SpaceError(f"cannot read back {type(nf).__name__}")


# observation ----------------------------------------------------------------

def nf_weight(nf: NormalForm):
    ring = nf.space.ring
    if isinstance(nf, ScalarNF):
        return nf.value
    if isinstance(nf, FreeNF):
        total = nf.base
        for _, c in tries.items(nf.space.prim, nf.trie):
            total = ring.add(total, c)
        return total
    if isinstance(nf, MapNF):
        total = ring.zero if nf.base is None else nf_weight(nf.base)
        for _, v in tries.items(nf.space.prim, nf.trie):
            total = ring.add(total, nf_weight(v))
        return total
    if isinstance(nf, PairNF):
        return ring.add(nf_weight(nf.lhs), nf_weight(nf.rhs))
    if isinstance(nf, TensorNF):
        total = ring.zero
        for l, r in nf.summands:
            total = ring.add(total, ring.mul(nf_weight(l), nf_weight(r)))
        return total
    raise SpaceError(f"cannot weigh {type(nf).__name__}")


def has_baseline(nf: NormalForm) -> bool:
    """True when any wildcard slot anywhere in the form is non-zero."""
    if isinstance(nf, ScalarNF):
        return False
    if isinstance(nf, FreeNF):
        return not nf.space.ring.is_zero(nf.base)
    if isinstance(nf, MapNF):
        # a level at a time: the values of a map form share one space
        level = [nf]
        while level and isinstance(level[0], MapNF):
            if any(x.base is not None for x in level):
                return True
            level = [v for _, _, v in tries.expand(level[0].space.prim, [x.trie for x in level])]
        return any(has_baseline(x) for x in level)
    if isinstance(nf, PairNF):
        return has_baseline(nf.lhs) or has_baseline(nf.rhs)
    if isinstance(nf, TensorNF):
        return any(has_baseline(l) or has_baseline(r) for l, r in nf.summands)
    raise SpaceError(f"unexpected form {type(nf).__name__}")


def nf_lookup(nf: NormalForm, key):
    """Value at a key: baseline plus deviation. `STAR` reads the baseline.

    Free forms return a ring element, map forms a normal form of the value
    space. Plain (non-compact) forms have a zero baseline.
    """
    metrics.current.lookups += 1
    space = nf.space
    if isinstance(nf, FreeNF):
        if key is STAR:
            return nf.base
        space.prim.check(key)
        dev = tries.lookup(space.prim, nf.trie, key)
        if dev is None:
            return nf.base
        return space.ring.add(nf.base, dev)
    if isinstance(nf, MapNF):
        base = nf.base if nf.base is not None else zero_nf(space.value)
        if key is STAR:
            return base
        space.prim.check(key)
        dev = tries.lookup(space.prim, nf.trie, key)
        if dev is None:
            return base
        if nf.base is None:
            return dev
        return nf_add(base, dev)
    raise SpaceError(f"lookup needs a keyed form, not {type(nf).__name__}")


def _arity(space: Space) -> int:
    if isinstance(space, Scalar):
        return 0
    if isinstance(space, (Free, CompactFree)):
        return 1
    if isinstance(space, (FinMap, CompactMap)):
        return 1 + _arity(space.value)
    if isinstance(space, Tensor):
        return _arity(space.lhs) + _arity(space.rhs)
    raise SpaceError(f"paths through {space} have no fixed shape")


def nf_lookup_path(nf: NormalForm, path):
    """Coefficient at a full key path; `STAR` components read baselines."""
    value, consumed = _lookup_path(nf, tuple(path), 0)
    if consumed != len(path):
        raise SpaceError(f"path of length {len(path)} does not fit {nf.space}")
    return value


def _lookup_path(nf, path, i):
    ring = nf.space.ring
    if isinstance(nf, ScalarNF):
        return nf.value, i
    if isinstance(nf, FreeNF):
        return nf_lookup(nf, path[i]), i + 1
    if isinstance(nf, MapNF):
        key = path[i]
        if key is STAR:
            if nf.base is None:
                return ring.zero, i + 1 + _arity(nf.space.value)
            return _lookup_path(nf.base, path, i + 1)
        total = ring.zero
        j = None
        for part in (nf.base, tries.lookup(nf.space.prim, nf.trie, key)):
            if part is None:
                continue
            v, j = _lookup_path(part, path, i + 1)
            total = ring.add(total, v)
        if j is None:
            j = i + 1 + _arity(nf.space.value)
        return total, j
    if isinstance(nf, TensorNF):
        total = ring.zero
        j = i + _arity(nf.space)
        for l, r in nf.summands:
            lv, m = _lookup_path(l, path, i)
            rv, _ = _lookup_path(r, path, m)
            total = ring.add(total, ring.mul(lv, rv))
        return total, j
    if isinstance(nf, PairNF):
        tag = path[i]
        side = nf.lhs if tag == 1 else nf.rhs
        return _lookup_path(side, path, i + 1)
    raise SpaceError(f"cannot look up in {type(nf).__name__}")


# enumeration ----------------------------------------------------------------

def enumerate_nf(nf: NormalForm, allow_baseline: bool = False):
    """Fully expanded basis rows as (key path, coefficient), in key order.

    Wildcard components appear as `STAR` path elements and are only
    produced under `allow_baseline`; without it a non-zero baseline is an
    error, since the expansion would have infinite support. Tensor factors
    are expanded here and nowhere else.
    """
    return list(_enum(nf, allow_baseline))


def _enum(nf, allow):
    space = nf.space
    ring = space.ring
    if isinstance(nf, ScalarNF):
        if not ring.is_zero(nf.value):
            yield (), nf.value
        return
    if isinstance(nf, FreeNF):
        if not ring.is_zero(nf.base):
            if not allow:
                raise InfiniteSupport(f"{space} form has infinite support")
            yield (STAR,), nf.base
        for k, c in tries.items(space.prim, nf.trie):
            yield (k,), c
        return
    if isinstance(nf, MapNF):
        if nf.base is not None:
            if not allow:
                raise InfiniteSupport(f"{space} form has infinite support")
            for p, c in _enum(nf.base, allow):
                yield (STAR,) + p, c
        for k, v in tries.items(space.prim, nf.trie):
            for p, c in _enum(v, allow):
                yield (k,) + p, c
        return
    if isinstance(nf, PairNF):
        for p, c in _enum(nf.lhs, allow):
            yield (1,) + p, c
        for p, c in _enum(nf.rhs, allow):
            yield (2,) + p, c
        return
    if isinstance(nf, TensorNF):
        acc = {}
        for l, r in nf.summands:
            right_rows = list(_enum(r, allow))
            for pl, cl in _enum(l, allow):
                for pr, cr in right_rows:
                    p = pl + pr
                    c = ring.mul(cl, cr)
                    got = acc.get(p)
                    acc[p] = c if got is None else ring.add(got, c)
        rows = [(p, c) for p, c in acc.items() if not ring.is_zero(c)]
        rows.sort(key=lambda row: path_sort_key(space, row[0]))
        yield from rows
        return
    raise SpaceError(f"cannot enumerate {type(nf).__name__}")


def path_sort_key(space: Space, path):
    key, consumed = _path_key(space, tuple(path), 0)
    if consumed != len(path):
        raise SpaceError(f"path does not fit {space}")
    return key


def _path_key(space, path, i):
    if isinstance(space, Scalar):
        return (), i
    if isinstance(space, (Free, CompactFree)):
        el = path[i]
        k = (0,) if el is STAR else (1, space.prim.sort_key(el))
        return (k,), i + 1
    if isinstance(space, (FinMap, CompactMap)):
        el = path[i]
        k = (0,) if el is STAR else (1, space.prim.sort_key(el))
        sub, j = _path_key(space.value, path, i + 1)
        return (k,) + sub, j
    if isinstance(space, Tensor):
        l, j = _path_key(space.lhs, path, i)
        r, k = _path_key(space.rhs, path, j)
        return l + r, k
    if isinstance(space, Biproduct):
        tag = path[i]
        side = space.lhs if tag == 1 else space.rhs
        sub, j = _path_key(side, path, i + 1)
        return ((tag,),) + sub, j
    raise SpaceError(f"paths through {space} have no fixed shape")


# equality -------------------------------------------------------------------

def nf_equal(x: NormalForm, y: NormalForm) -> bool:
    """Extensional equality of normal forms.

    Structural comparison with ring-aware leaf equality; tensor forms whose
    summand lists disagree are compared by their expansions instead, which
    can be expensive but is the decision procedure of last resort.
    """
    if x.space != y.space:
        raise SpaceError(f"cannot compare forms of {x.space} and {y.space}")
    return _nf_eq(x, y)


def _nf_eq(x, y):
    ring = x.space.ring
    if isinstance(x, ScalarNF):
        return ring.eq(x.value, y.value)
    if isinstance(x, FreeNF):
        if not ring.eq(x.base, y.base):
            return False
        xs = list(tries.items(x.space.prim, x.trie))
        ys = list(tries.items(y.space.prim, y.trie))
        return len(xs) == len(ys) and all(
            a == b and ring.eq(u, v) for (a, u), (b, v) in zip(xs, ys)
        )
    if isinstance(x, MapNF):
        bx = x.base if x.base is not None else zero_nf(x.space.value)
        by = y.base if y.base is not None else zero_nf(y.space.value)
        if not _nf_eq(bx, by):
            return False
        xs = list(tries.items(x.space.prim, x.trie))
        ys = list(tries.items(y.space.prim, y.trie))
        return len(xs) == len(ys) and all(
            a == b and _nf_eq(u, v) for (a, u), (b, v) in zip(xs, ys)
        )
    if isinstance(x, PairNF):
        return _nf_eq(x.lhs, y.lhs) and _nf_eq(x.rhs, y.rhs)
    if isinstance(x, TensorNF):
        if len(x.summands) == len(y.summands) and all(
            _nf_eq(a, c) and _nf_eq(b, d)
            for (a, b), (c, d) in zip(x.summands, y.summands)
        ):
            return True
        ring = x.space.ring
        dx = dict(enumerate_nf(x, allow_baseline=True))
        dy = dict(enumerate_nf(y, allow_baseline=True))
        for p in dx.keys() | dy.keys():
            if not ring.eq(dx.get(p, ring.zero), dy.get(p, ring.zero)):
                return False
        return True
    raise SpaceError(f"cannot compare {type(x).__name__}")


def equal(x: Term, y: Term) -> bool:
    """Extensional equality of terms, decided by normalisation."""
    if x.space != y.space:
        raise SpaceError(f"cannot compare terms of {x.space} and {y.space}")
    return nf_equal(normalize(x), normalize(y))


# compact / plain conversions -------------------------------------------------

def strip_space(space: Space) -> Space:
    if isinstance(space, CompactFree):
        return Free(space.ring, space.prim)
    if isinstance(space, CompactMap):
        return FinMap(space.ring, space.prim, strip_space(space.value))
    if isinstance(space, Free):
        return space
    if isinstance(space, FinMap):
        return FinMap(space.ring, space.prim, strip_space(space.value))
    if isinstance(space, Tensor):
        return Tensor(strip_space(space.lhs), strip_space(space.rhs))
    if isinstance(space, Biproduct):
        return Biproduct(strip_space(space.lhs), strip_space(space.rhs))
    return space


def strip_compact(nf: NormalForm, target: Space | None = None) -> NormalForm:
    """Reinterpret a baseline-free compact form in the plain space `target`,
    by default `strip_space` of its own; each sub-form is given its part of
    the target, so the space is stripped once."""
    space = nf.space
    if target is None:
        target = strip_space(space)
    if isinstance(nf, ScalarNF):
        return nf
    if isinstance(nf, FreeNF):
        if not space.ring.is_zero(nf.base):
            raise InfiniteSupport(f"{space} form has a baseline; cannot restrict")
        return FreeNF(target, nf.trie, space.ring.zero)
    if isinstance(nf, MapNF):
        if nf.base is not None:
            raise InfiniteSupport(f"{space} form has a baseline; cannot restrict")
        value = target.value
        t = tries.map_values(space.prim, nf.trie, lambda v: strip_compact(v, value), NF_VOPS)
        return MapNF(target, t, None)
    if isinstance(nf, PairNF):
        return PairNF(target, strip_compact(nf.lhs, target.lhs),
                      strip_compact(nf.rhs, target.rhs))
    if isinstance(nf, TensorNF):
        summands = tuple((strip_compact(l, target.lhs), strip_compact(r, target.rhs))
                         for l, r in nf.summands)
        return TensorNF(target, summands)
    raise SpaceError(f"cannot restrict {type(nf).__name__}")
