"""Key-indexed trie levels: one immutable dict per level, for every key family.

A level maps keys to non-vanishing payloads; the empty level is `None`,
never an empty dict. Keys are the prims' own hashable values: a pair is a
flat tuple, a sum a tagged tuple `("L", x)` or `("R", x)`, an adjoined
marker is itself. Levels are never mutated once built, so an operation
may return an input level as it is. Only the enumerations take the key
family's prim, to order a level: Int64, Str and Bool keys sort naturally
(code point order, which is UTF-8 byte order), other families by
`prim.sort_key`.

`merge` adds two levels: it copies the larger in C and adds the smaller's
entries to the copy. `from_items` is the one multi-entry builder; the
payloads of equal keys add in balanced rounds. `items` and `expand` are
the enumerations, `map_values` maps payloads, and `walk` intersects
levels: it iterates the level with the fewest keys and probes the others
by hash, so its work is bounded by the smallest input, as Generic Join
needs for worst-case optimality. An intersection that keeps every entry
of an input with a payload `ValueOps.same` as the input's returns that
input level.

Counting rule: each entry iterated, built or probed costs one
`metrics.current.trie_edges`; a probe inside `walk` is not a lookup, and
the C copy of the larger level in `merge` is not counted.
"""

import operator
from dataclasses import dataclass
from typing import Callable

from . import metrics
from .prims import Bool, Int64, Str


@dataclass(frozen=True)
class ValueOps:
    add: Callable
    is_zero: Callable
    # whether an output payload may stand for an input's, so `walk` can
    # return the input's level; identity unless payloads compare by value
    same: Callable = operator.is_


_first = operator.itemgetter(0)


def _entry_key(prim):
    """Sort key of a (key, payload) entry in the set's total order."""
    if isinstance(prim, (Int64, Str, Bool)):
        return _first
    sort_key = prim.sort_key
    return lambda kv: sort_key(kv[0])


def merge(a, b, vops):
    """Additive union: a copy of the larger level with the smaller's
    entries added, linear in the smaller side."""
    if a is None:
        return b
    if b is None:
        return a
    if len(a) < len(b):
        a, b = b, a
    metrics.current.trie_edges += len(b)
    add, is_zero = vops.add, vops.is_zero
    out = dict(a)
    for k, v in b.items():
        d = out.get(k)
        if d is None:
            out[k] = v
        else:
            s = add(d, v)
            if is_zero(s):
                del out[k]
            else:
                out[k] = s
    return out or None


def lookup(t, key):
    """Payload at `key`, or None."""
    if t is None:
        return None
    metrics.current.trie_edges += 1
    return t.get(key)


def items(prim, t):
    """All (key, payload) entries of a level in the set's total order."""
    if t is None:
        return []
    metrics.current.trie_edges += len(t)
    return sorted(t.items(), key=_entry_key(prim))


def expand(prim, ts):
    """Every entry of every level in `ts` as (index, key, payload), where
    `index` is the level's position in `ts`: the levels in order, each
    one's entries in the set's total order, empty levels giving none."""
    for i, t in enumerate(ts):
        for k, v in items(prim, t):
            yield i, k, v


def count(t) -> int:
    return 0 if t is None else len(t)


def from_items(pairs, vops):
    """Build a level from (key, payload) pairs. Colliding keys add, in
    balanced rounds, since a payload may itself be a form and adding one
    at a time to a growing sum can be quadratic; vanishing payloads and
    sums are dropped."""
    is_zero, add = vops.is_zero, vops.add
    out, runs = {}, {}
    for k, v in pairs:
        if is_zero(v):
            continue
        if k not in out:
            out[k] = v
        elif k in runs:
            runs[k].append(v)
        else:
            runs[k] = [out[k], v]
    for k, vs in runs.items():
        while len(vs) > 1:
            paired = [add(vs[j], vs[j + 1]) for j in range(0, len(vs) - 1, 2)]
            if len(vs) % 2:
                paired.append(vs[-1])
            vs = [v for v in paired if not is_zero(v)]
        if vs:
            out[k] = vs[0]
        else:
            del out[k]
    metrics.current.trie_edges += len(out)
    return out or None


def walk(ts, leaf, vops):
    """Intersect n >= 1 levels: `leaf(key, payloads)` receives the payloads
    of a key present in every level, in level order, and returns the output
    payload, or None to drop the key. The level with the fewest keys (the
    leftmost on a tie) is iterated and the others probed."""
    if any(t is None for t in ts):
        return None
    small = min(ts, key=len)
    out = {}
    probes = 0
    for k in small:
        vals = []
        for t in ts:
            if t is not small:
                probes += 1
            v = t.get(k)
            if v is None:
                break
            vals.append(v)
        else:
            w = leaf(k, vals)
            if w is not None:
                out[k] = w
    metrics.current.trie_edges += len(small) + probes + len(out)
    same = vops.same
    for t in ts:
        if len(t) == len(out) and all(same(w, t[k]) for k, w in out.items()):
            return t
    return out or None


def map_values(t, fn, vops):
    """Apply fn to every payload; entries whose image is None or vanishes
    are dropped."""
    if t is None:
        return None
    metrics.current.trie_edges += len(t)
    is_zero = vops.is_zero
    out = {}
    for k, v in t.items():
        w = fn(v)
        if w is not None and not is_zero(w):
            out[k] = w
    return out or None
