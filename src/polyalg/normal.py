"""Canonical trie-backed forms and the operations on them.

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

Keyed levels are read and built here alone: `read_level`, the one ordered
read of a level of many nodes, a baseline first as a `STAR` key or the
caller's refusal, serves every relational operator, `terms.readback`, the
`repr` of a keyed form and `enumerate_nf`, whose depth does not grow with
the column count; `_at` reads one key, baseline and deviation,
for `nf_lookup` and `nf_lookup_path`; `keyed_nf` builds a keyed form from a
level dict whose `STAR` entry is the baseline. Forms are built from rows
(`relation._built`) or from terms: the simplification of a term into its
form, and its read-back, live in `terms`, which this module does not import.
"""

import operator
from functools import reduce
from importlib import import_module
from itertools import chain

from . import metrics, tries
from .spaces import (
    Biproduct,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    Space,
    SpaceError,
    Tensor,
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


class ScalarNF(NormalForm):
    __slots__ = ("value",)

    def __init__(self, space, value):
        self.space = space
        self.value = value

    def is_zero(self):
        return self.space.ring.is_zero(self.value)

    def __repr__(self):
        return self.space.ring.render(self.value)


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

    def __repr__(self):
        """`{key: payload, ...}` in key order, a baseline first as `*`."""
        if self.is_zero():
            return "{}"
        space = self.space
        (keys,), payloads, edges = read_level([self], space.prim)
        metrics.current.trie_edges += edges
        key = space.prim.render
        show = space.ring.render if space.shape == "free" else repr
        return "{" + ", ".join(f"{'*' if k is STAR else key(k)}: {show(v)}"
                               for k, v in zip(keys, payloads)) + "}"


class PairNF(NormalForm):
    __slots__ = ("lhs", "rhs")

    def __init__(self, space, lhs, rhs):
        self.space = space
        self.lhs = lhs
        self.rhs = rhs

    def is_zero(self):
        return self.lhs.is_zero() and self.rhs.is_zero()

    def __repr__(self):
        return f"({self.lhs!r}, {self.rhs!r})"


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
    parts = _at([nf], key, space)
    if parts:
        return reduce(payload_ops(space).add, parts)
    return space.ring.zero if space.shape == "free" else zero_nf(space.value)


def nf_lookup_path(nf: NormalForm, path):
    """Coefficient at a full key path; `STAR` components read baselines.
    The path is read a component at a time over every form it reaches, a
    key by `_at`, a side tag 1 or 2 by taking that half; where the path
    ends is read from the space, so a key with no entry reads on."""
    metrics.current.lookups += 1
    path = tuple(path)
    space, xs, ring = nf.space, [nf], nf.space.ring
    for key in path:
        shape = None if space is None else space.shape
        if shape == "pair":
            if type(key) is not int or key not in (1, 2):
                raise SpaceError(f"path {path!r} has {key!r} where {space} needs a side tag 1 or 2")
            xs = [x.lhs if key == 1 else x.rhs for x in xs]
            space = space.halves[key - 1]
        elif shape in ("free", "map"):
            xs = _at(xs, key, space)
            space = space.value if shape == "map" else None  # None: xs are coefficients
        else:
            raise SpaceError(f"path of length {len(path)} does not fit {nf.space}")
    if space is not None and space.shape != "scalar":
        raise SpaceError(f"path {path!r} ends before a coefficient of {space}")
    return reduce(ring.add, xs if space is None else [x.value for x in xs], ring.zero)


def _at(xs, key, space):
    """The one point read of a keyed level: the baseline and the deviation
    at `key`, where present, of each form of `xs` in `space`, in that
    order; `STAR` reads baselines alone. Each trie probed costs a trie edge."""
    if key is STAR:
        return [x.base for x in xs if x.base is not None]
    space.prim.check(key)
    parts = []
    for x in xs:
        if x.base is not None:
            parts.append(x.base)
        dev = tries.lookup(x.trie, key)
        if dev is not None:
            parts.append(dev)
    return parts


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
    (path, form) pair, all in one space, by its baseline and entries, as
    `read_level` reads them in key order. Only a level of pairs recurses,
    into each pair's halves, so the depth follows the nesting of
    biproducts, not the column count.
    """
    return _rows((), nf, nf.space, allow_baseline)


def _rows(path, x, space, allow):
    """The rows below the form `x` in `space`, at `path`."""
    if x.is_zero():
        return []
    paths, xs, shape = [path], [x], space.shape
    refusal = None if allow else lambda: InfiniteSupport(f"{space} form has infinite support")
    while shape in ("free", "map"):
        ks, xs, edges = read_level(xs, space.prim, refusal)
        metrics.current.trie_edges += edges
        paths = [path + (k,) for path, keys in zip(paths, ks) for k in keys]
        del ks  # the level's key lists go before its rows are built
        if shape == "free":
            return list(zip(paths, xs))
        space = space.value
        shape = space.shape
    if shape == "scalar":
        is_zero = space.ring.is_zero
        return [(path, x.value) for path, x in zip(paths, xs) if not is_zero(x.value)]
    lhs, rhs = space.halves
    rows = []
    for path, x in zip(paths, xs):
        rows += _rows(path + (1,), x.lhs, lhs, allow)
        rows += _rows(path + (2,), x.rhs, rhs, allow)
    return rows


def read_level(xs, prim=None, refusal=None):
    """The one read of a keyed level of many nonzero forms `xs`: the keys
    of each, a baseline first as a `STAR` key, and all their payloads, in
    that order, with the level's trie edges, one per trie entry, for the
    caller to charge once all of it is read. A baseline raises `refusal()`,
    if one is given, before any of the level is read. Given the level's
    `prim`, each trie of more than one entry is put in `tries.key_order`."""
    ts = [x.trie for x in xs]
    wild = not {x.base for x in xs} <= {None}
    if wild:
        if refusal:
            raise refusal()
        ts = [t or {} for t in ts]  # a baseline alone has no trie
    edges = sum(map(len, ts))
    if not wild and (prim is None or edges == len(ts)):  # nothing to order or prepend
        return ts, list(chain.from_iterable(map(dict.values, ts))), edges
    ks = ts
    if prim is not None:
        order = tries.key_order(prim)
        ks = [t if len(t) < 2 else sorted(t, key=order) for t in ts]
    if wild:
        ts = [t if x.base is None else {STAR: x.base} | t for x, t in zip(xs, ts)]
        ks = [k if x.base is None else [STAR, *k] for x, k in zip(xs, ks)]
    return ks, [t[k] for t, keys in zip(ts, ks) for k in keys], edges


def keyed_nf(space: Space, t) -> MapNF:
    """The keyed form of a level dict, or None, whose `STAR` entry, popped
    from the dict before it is shared, is the baseline."""
    base = t.pop(STAR, None) if t else None
    return MapNF(space, t or None, base)


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


def __getattr__(name):
    # `normalize` and `readback` live in `terms`; perfbench still reads them
    # here, and this forwarding goes when ROADMAP item 1 moves perfbench
    if name in ("normalize", "readback"):
        return getattr(import_module(f"{__package__}.terms"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
