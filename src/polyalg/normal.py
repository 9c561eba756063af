"""Canonical trie-backed forms and the simplification that produces them.

A normal form has no zero coefficients, no repeated generators, biproducts
stored as a single pair, and keys enumerating in the index set's total
order. Free modules and maps share one keyed form, `MapNF`: a key trie of
non-vanishing payloads plus a wildcard baseline in a dedicated slot next
to it, so lookups are baseline plus per-key deviation. A free level's
payloads and baseline are ring coefficients, F[A] ≅ A ⇒ K; any other
level's are forms of its value space. At every level a missing wildcard
is `None`, never a vanishing payload.

Every space has one form, and a tensor takes the form of its left factor
(`Space.shape`), with forms of the right factor where the left has
coefficients. A relation chain, a tensor whose left factor is free, is
keyed by F[A] ⊗ U ≅ A ⇒ U: a `MapNF` over the left factor's keys whose
values are forms of the right factor, so a relation is one nested trie in
attribute order and products join it level by level. A map on the left
keys it the same way, (A ⇒ V) ⊗ W ≅ A ⇒ (V ⊗ W); a biproduct splits it
into a `PairNF`, (U ⊕ V) ⊗ W ≅ (U ⊗ W) ⊕ (V ⊗ W); a scalar leaves the
right factor's form, K ⊗ W ≅ W; and a tensor reassociates.

A form's rows are the expansion of its tries; `enumerate_nf` lists them a
level at a time, so its depth does not grow with the column count.
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


class NormalForm:
    """A canonical form: every space has exactly one, so two forms denote
    the same element when they have the same rows, coefficients compared
    in the ring. `nf_equal` is that comparison; `==` on forms is identity,
    which `tries.keep` relies on to share only an input's own forms."""

    __slots__ = ("space",)

    def is_zero(self) -> bool:
        raise NotImplementedError

    def __repr__(self):
        from .render import render_nf

        return render_nf(self)


class ScalarNF(NormalForm):
    __slots__ = ("value",)

    def __init__(self, space, value):
        self.space = space
        self.value = value

    def is_zero(self):
        return self.space.ring.is_zero(self.value)


class MapNF(NormalForm):
    """Key trie of non-vanishing payloads plus, for compact spaces, a
    non-vanishing baseline or None: ring coefficients at a free level,
    forms of the value space at any other."""

    __slots__ = ("trie", "base")

    def __init__(self, space, trie, base):
        self.space = space
        self.trie = trie
        self.base = base

    def is_zero(self):
        return self.trie is None and self.base is None


class PairNF(NormalForm):
    __slots__ = ("lhs", "rhs")

    def __init__(self, space, lhs, rhs):
        self.space = space
        self.lhs = lhs
        self.rhs = rhs

    def is_zero(self):
        return self.lhs.is_zero() and self.rhs.is_zero()


NF_VOPS = ValueOps(add=lambda x, y: nf_add(x, y), is_zero=operator.methodcaller("is_zero"))


def payload_ops(space: Space):
    """Addition and zero test of a keyed level's payloads: at a free level
    the ring itself, which has both, the forms' at any other."""
    return space.ring if space.shape == "free" else NF_VOPS


def map_payloads(nf: MapNF, fn, space: Space) -> MapNF:
    """The keyed form in `space` holding `fn` of each payload and of the
    baseline of `nf`; vanishing images go."""
    vops = payload_ops(space)
    base = None if nf.base is None else fn(nf.base)
    if base is not None and vops.is_zero(base):
        base = None
    return MapNF(space, tries.map_values(nf.trie, fn, vops), base)


def zero_nf(space: Space) -> NormalForm:
    form = space.shape
    if form in ("free", "map"):
        return MapNF(space, None, None)
    if form == "scalar":
        return ScalarNF(space, space.ring.zero)
    lhs, rhs = space.halves
    return PairNF(space, zero_nf(lhs), zero_nf(rhs))


def unit_nf(space: Space) -> NormalForm:
    """The unit of a compact chain: weight one on the wildcard of every level."""
    return MapNF(space, None, unit_nf(space.rhs) if isinstance(space, Tensor) else space.ring.one)


# addition, scaling ----------------------------------------------------------

def nf_add(x: NormalForm, y: NormalForm) -> NormalForm:
    space = x.space
    if space != y.space:
        raise SpaceError(f"cannot add forms of {space} and {y.space}")
    if isinstance(x, ScalarNF):
        return ScalarNF(space, space.ring.add(x.value, y.value))
    if isinstance(x, MapNF):
        vops = payload_ops(space)
        t = tries.merge(x.trie, y.trie, vops)
        if x.base is None:
            base = y.base
        elif y.base is None:
            base = x.base
        else:
            base = vops.add(x.base, y.base)
            if vops.is_zero(base):
                base = None
        return MapNF(space, t, base)
    if isinstance(x, PairNF):
        return PairNF(space, nf_add(x.lhs, y.lhs), nf_add(x.rhs, y.rhs))
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
    if isinstance(x, MapNF):
        if space.shape == "free":
            return map_payloads(x, lambda c: ring.mul(r, c), space)
        return map_payloads(x, lambda v: nf_scale(r, v), space)
    if isinstance(x, PairNF):
        return PairNF(space, nf_scale(r, x.lhs), nf_scale(r, x.rhs))
    raise SpaceError(f"cannot scale {type(x).__name__}")


def nf_neg(x: NormalForm) -> NormalForm:
    ring = x.space.ring
    return nf_scale(ring.neg(ring.one), x)


def nf_sub(x: NormalForm, y: NormalForm) -> NormalForm:
    return nf_add(x, nf_neg(y))


def nf_tensor(l: NormalForm, r: NormalForm, space: Tensor) -> NormalForm:
    """l ⊗ r in `space`, in the form of the left factor: each coefficient c
    of `l` becomes c·r, each value form v becomes v ⊗ r, a pair tensors
    each half, and a scalar scales `r`, which keeps its own form."""
    if isinstance(l, MapNF):
        if l.space.shape == "free":
            return map_payloads(l, lambda c: nf_scale(c, r), space)
        value = space.value
        return map_payloads(l, lambda v: nf_tensor(v, r, value), space)
    if isinstance(l, PairNF):
        lhs, rhs = space.halves
        return PairNF(space, nf_tensor(l.lhs, r, lhs), nf_tensor(l.rhs, r, rhs))
    x = nf_scale(l.value, r)  # K ⊗ W ≅ W: the right factor's form, in `space`
    if isinstance(x, ScalarNF):
        return ScalarNF(space, x.value)
    if isinstance(x, PairNF):
        return PairNF(space, x.lhs, x.rhs)
    return MapNF(space, x.trie, x.base)


# normalisation --------------------------------------------------------------

def normalize(t: Term) -> NormalForm:
    """Simplify a term to the one canonical form of its space.

    Spaces of free or map shape, tensors keyed by their left factor
    included, become keyed forms (`_keyed_nf`); scalars are pushed to the
    leaves, pairs add pointwise, a tensor generator is built by `nf_tensor`
    in its left factor's form, and symbolic products are evaluated by the
    product engine. Idempotent: normalising a read-back form reproduces it.
    """
    space = t.space
    ring = space.ring
    if space.shape in ("free", "map"):
        return _keyed_nf(t)
    pieces = [_gen_nf(c, g, space) for c, g in linear_combination(t) if not ring.is_zero(c)]
    total = tries.add_all(pieces, NF_VOPS)
    return zero_nf(space) if total is None else total


def _keyed_nf(t: Term) -> NormalForm:
    """Free, map and chain forms alike: every generator gives (key, payload)
    entries, a share of the wildcard baseline being an entry under `STAR`,
    and `entries_nf` builds the level. A tensor, a chain generator
    included, or a product gives the entries and baseline of its form."""
    space = t.space
    ring = space.ring
    entries = []
    for c, g in linear_combination(t):
        if ring.is_zero(c):
            continue
        if isinstance(g, InjGen):
            entries.append((g.value, c))
        elif isinstance(g, WildOneGen):
            entries.append((STAR, c))
        elif isinstance(g, MapsToGen):
            entries.append((g.key, nf_scale(c, normalize(g.body))))
        elif isinstance(g, WildMapsToGen):
            entries.append((STAR, nf_scale(c, normalize(g.body))))
        else:
            nf = _gen_nf(c, g, space)
            if nf.trie is not None:
                entries.extend(nf.trie.items())
            if nf.base is not None:
                entries.append((STAR, nf.base))
    return entries_nf(space, entries)


def entries_nf(space: Space, entries) -> MapNF:
    """The keyed form in `space` of (key, payload) entries, a share of the
    wildcard baseline being an entry under `STAR`: one `tries.from_items`
    call adds repeated keys and the baseline's shares in balanced rounds,
    and the `STAR` entry is then popped into the baseline slot."""
    trie = tries.from_items(entries, payload_ops(space))
    base = None if trie is None else trie.pop(STAR, None)
    return MapNF(space, trie or None, base)


def force_product(g: MulGen) -> Term:
    """A symbolic product evaluated by the product engine and read back as
    a term, for `terms.linear_map`, which acts generator by generator."""
    from .product import multiply

    return readback(multiply(g.factors))


def _gen_nf(c, g, space) -> NormalForm:
    if isinstance(g, OneGen):
        return ScalarNF(space, c)
    if isinstance(g, PairGen):
        return PairNF(space, nf_scale(c, normalize(g.lhs)), nf_scale(c, normalize(g.rhs)))
    if isinstance(g, TensorGen):
        return nf_scale(c, nf_tensor(normalize(g.lhs), normalize(g.rhs), space))
    if isinstance(g, MulGen):
        from .product import multiply

        return nf_scale(c, multiply(g.factors))
    raise SpaceError(f"unexpected generator in {space}")


def readback(nf: NormalForm) -> Term:
    """Symbolic term denoting the normal form, with balanced sums. A tensor
    whose left factor is not free reads back row by row, as tensors of
    basis terms; a chain reads back level by level."""
    space = nf.space
    if isinstance(space, Tensor) and not isinstance(space.lhs, (Free, CompactFree)):
        parts = []
        for path, c in enumerate_nf(nf, allow_baseline=True):
            l, i = _basis_term(space.lhs, path, 0)
            r, _ = _basis_term(space.rhs, path, i)
            parts.append(scaled(c, tensor(l, r)))
        return sum_terms(space, parts)
    if isinstance(nf, ScalarNF):
        if nf.is_zero():
            return zero(space)
        return scale(nf.value, one(space.ring))
    if isinstance(nf, MapNF):
        items = tries.items(space.prim, nf.trie)
        if space.shape == "free":
            parts = [scaled(c, inject(k, space)) for k, c in items]
            if nf.base is not None:
                parts.append(scale(nf.base, wild_one(space)))
        elif isinstance(space, Tensor):  # a chain
            lhs = space.lhs
            parts = [tensor(inject(k, lhs), readback(v)) for k, v in items]
            if nf.base is not None:
                parts.append(tensor(wild_one(lhs), readback(nf.base)))
        else:
            parts = [maps_to(k, readback(v), space) for k, v in items]
            if nf.base is not None:
                parts.append(wild_maps_to(readback(nf.base), space))
        return sum_terms(space, parts)
    if isinstance(nf, PairNF):
        return pair(readback(nf.lhs), readback(nf.rhs))
    raise SpaceError(f"cannot read back {type(nf).__name__}")


def _basis_term(space, path, i):
    """The basis term of `space` at the key path starting at `path[i]`
    (`STAR` is the wildcard), and the index after it."""
    if isinstance(space, Scalar):
        return one(space.ring), i
    key = path[i]
    if isinstance(space, (Free, CompactFree)):
        return (wild_one(space) if key is STAR else inject(key, space)), i + 1
    if isinstance(space, (FinMap, CompactMap)):
        body, j = _basis_term(space.value, path, i + 1)
        return (wild_maps_to(body, space) if key is STAR else maps_to(key, body, space)), j
    if isinstance(space, Biproduct):
        side, j = _basis_term(space.lhs if key == 1 else space.rhs, path, i + 1)
        return (pair(side, zero(space.rhs)) if key == 1 else pair(zero(space.lhs), side)), j
    l, j = _basis_term(space.lhs, path, i)
    r, k = _basis_term(space.rhs, path, j)
    return tensor(l, r), k


# observation ----------------------------------------------------------------

def nf_weight(nf: NormalForm):
    """The sum of the form's row coefficients, in row order."""
    ring = nf.space.ring
    return reduce(ring.add, [c for _, c in enumerate_nf(nf, allow_baseline=True)], ring.zero)


def has_baseline(nf: NormalForm) -> bool:
    """True when any level anywhere in the form holds a baseline, that is
    when `STAR` appears in some row's path."""
    return any(STAR in path for path, _ in enumerate_nf(nf, allow_baseline=True))


def nf_lookup(nf: NormalForm, key):
    """Value at a key: baseline plus deviation. `STAR` reads the baseline.

    Free forms return a ring element, map forms a normal form of the value
    space; a missing baseline, as in every plain (non-compact) form, reads
    as zero.
    """
    metrics.current.lookups += 1
    if not isinstance(nf, MapNF):
        raise SpaceError(f"lookup needs a keyed form, not {type(nf).__name__}")
    space = nf.space
    if key is not STAR:
        space.prim.check(key)
        dev = tries.lookup(nf.trie, key)
        if dev is not None:
            return dev if nf.base is None else payload_ops(space).add(nf.base, dev)
    if nf.base is not None:
        return nf.base
    return space.ring.zero if space.shape == "free" else zero_nf(space.value)


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
    if i == len(path):
        raise SpaceError(f"path {path!r} ends before a coefficient of {nf.space}")
    if isinstance(nf, MapNF):
        if nf.space.shape == "free":
            return nf_lookup(nf, path[i]), i + 1
        key = path[i]
        parts = [nf.base]
        if key is not STAR:
            nf.space.prim.check(key)
            parts.append(tries.lookup(nf.trie, key))
        # with no entry, the zero form of the value space reads the rest of
        # the path, side tags included, to find where it ends
        parts = [p for p in parts if p is not None] or [zero_nf(nf.space.value)]
        total = ring.zero
        for part in parts:
            v, j = _lookup_path(part, path, i + 1)
            total = ring.add(total, v)
        return total, j
    if isinstance(nf, PairNF):
        tag = path[i]
        if type(tag) is not int or tag not in (1, 2):
            raise SpaceError(f"path {path!r} has {tag!r} where {nf.space} needs a side tag 1 or 2")
        return _lookup_path(nf.lhs if tag == 1 else nf.rhs, path, i + 1)
    raise SpaceError(f"cannot look up in {type(nf).__name__}")


# enumeration and equality ---------------------------------------------------

def enumerate_nf(nf: NormalForm, allow_baseline: bool = False):
    """Fully expanded basis rows as (key path, coefficient), in key order.

    Wildcard components appear as `STAR` path elements, each before its
    level's keys, and are only produced under `allow_baseline`; without it
    any baseline is an error, since the expansion would have infinite
    support. A tensor's form follows its left factor, so its rows come out
    as the left factor's path followed by the right factor's, already in
    key order.

    The walk goes a level at a time: each keyed level replaces every
    (path, form) pair, all in one space, by its baseline and entries.
    Only a level of pairs recurses, into each pair's halves, so the depth
    follows the nesting of biproducts, not the column count. Each node's
    trie is read in place, ordered by `tries.key_order` as `tries.items`
    orders it (a one-entry trie is not sorted), and charged as `items`
    charges it, in one `trie_edges` update per level.
    """
    return _rows([((), nf)], nf.space, allow_baseline)


def _rows(level, space, allow):
    """The rows below `level`, a list of (path, form) pairs in `space`."""
    shape = space.shape
    while shape in ("free", "map"):
        order = tries.key_order(space.prim)
        below, edges = [], 0
        for path, x in level:
            if x.base is not None:
                if not allow:
                    metrics.current.trie_edges += edges
                    raise InfiniteSupport(f"{space} form has infinite support")
                below.append((path + (STAR,), x.base))
            t = x.trie
            if t is None:
                continue
            edges += len(t)
            for k in sorted(t, key=order) if len(t) > 1 else t:
                below.append((path + (k,), t[k]))
        metrics.current.trie_edges += edges
        level = below
        if shape == "free":
            return level
        space = space.value
        shape = space.shape
    if shape == "scalar":
        is_zero = space.ring.is_zero
        return [(path, x.value) for path, x in level if not is_zero(x.value)]
    lhs, rhs = space.halves
    rows = []
    for path, x in level:
        rows += _rows([(path + (1,), x.lhs)], lhs, allow)
        rows += _rows([(path + (2,), x.rhs)], rhs, allow)
    return rows


def nf_equal(x: NormalForm, y: NormalForm) -> bool:
    """Extensional equality of normal forms, the one equality of forms:
    the same rows, with equal paths and coefficients equal in the ring.
    Every space has one canonical form, so the same rows mean the same
    element."""
    if x.space != y.space:
        raise SpaceError(f"cannot compare forms of {x.space} and {y.space}")
    eq = x.space.ring.eq
    xs, ys = enumerate_nf(x, allow_baseline=True), enumerate_nf(y, allow_baseline=True)
    return len(xs) == len(ys) and all(p == q and eq(a, b) for (p, a), (q, b) in zip(xs, ys))


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
    the target, so the space is stripped once. Relations always hold
    compact chains; `perfbench/workloads.traced_join` is the last caller."""
    space = nf.space
    if target is None:
        target = strip_space(space)
    if isinstance(nf, ScalarNF):
        return nf
    if isinstance(nf, MapNF):
        if nf.base is not None:
            raise InfiniteSupport(f"{space} form has a baseline; cannot restrict")
        if space.shape == "free":
            return MapNF(target, nf.trie, None)
        value = target.value
        return map_payloads(nf, lambda v: strip_compact(v, value), target)
    if isinstance(nf, PairNF):
        lhs, rhs = target.halves
        return PairNF(target, strip_compact(nf.lhs, lhs), strip_compact(nf.rhs, rhs))
    raise SpaceError(f"cannot restrict {type(nf).__name__}")
