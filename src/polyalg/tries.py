"""Key-indexed trie levels: one immutable dict per level, for every key family.

A level maps keys to non-vanishing payloads; the empty level is `None`,
never an empty dict. Keys are the prims' own hashable values: a pair is a
flat tuple, a sum a tagged tuple `("L", x)` or `("R", x)`, an adjoined
marker is itself. Levels are never mutated once built, apart from the
`STAR` entry popped below, so an operation may return an input level as it
is. Only the enumeration takes the key family's prim, to order a level by
`key_order`, the one key-order rule: Int64, Str and Bool keys sort
naturally (code point order, which is UTF-8 byte order), other families
by `prim.sort_key`. `items` and the row walk `normal.enumerate_nf` both
sort by it, and neither sorts a one-entry level.

`merge` adds two levels: it copies the larger in C and adds the smaller's
entries to the copy. `add_all` is the one way to add many payloads, in
balanced rounds, so a sum of n single-entry forms copies n·log₂n entries,
not n²/2. `from_items` builds one level from (key, payload) entries; the
payloads of equal keys add by `add_all`. A keyed form's builder passes its
wildcard baseline's shares as entries under `normal.STAR` and pops that
entry from the new level before the level is shared, so the shares add in
the same rounds. `relation._built` fills every level of a relation's form
from rows in one pass, by the same rules. `items` lists one level in order,
for readback and rendering; the row walk `normal.enumerate_nf` and, for
every relational operator, `relational._level` read each level in place,
ordered where it matters and charged as `items` would. `map_values` maps
payloads, and `walk` and `keep` intersect the levels of many nodes at once,
a column of keys at a time. `walk` flattens one chosen level of every node
into one key list, in that level's order, and probes each of the node's
other levels for the keys still standing with `dict.get` in C, dropping
misses with `compress`; the caller chooses each node's smallest level, so
the work is bounded by the smallest input, as Generic Join needs for
worst-case optimality. `keep` turns the caller's outputs at those keys into
one level per node: an input level of the node whose payloads are `==` to
its outputs is returned as it is, with its index, and only otherwise is a
new level built. `==` compares coefficients exactly, never within a ring's
tolerance, and forms, which define no `__eq__`, by identity.

Counting rule: each entry iterated, built or probed costs one
`metrics.current.trie_edges`. `walk` charges each node's iterated level's
entries plus, for each other level, the node's keys still standing when it
is probed; a probe inside `walk` is not a lookup. `keep` charges a level
it builds, not one it returns. A level built by `from_items` or from rows
costs one edge per entry it keeps, a `STAR` entry like any other. The C
copy of the larger level in `merge` is not counted. The row walk charges
each level it lists as `items` does, in one update per level of the walk.
`relational` charges a level once all of it is read, so a refusal charges
none of its level; its filter, like `keep`, charges no level it shares.
"""

import operator
from bisect import bisect_left
from functools import partial
from itertools import chain, compress, repeat

from . import metrics
from .prims import Bool, Int64, Record, Str


class ValueOps(Record):
    _fields = ("add", "is_zero")


def key_order(prim):
    """The `sorted` key that puts a level's keys in the set's total order:
    None where the keys sort naturally, else `prim.sort_key`."""
    return None if isinstance(prim, (Int64, Str, Bool)) else prim.sort_key


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
    ks = sorted(t, key=key_order(prim)) if len(t) > 1 else t
    return list(zip(ks, map(t.__getitem__, ks)))


def count(t) -> int:
    return 0 if t is None else len(t)


def add_all(values, vops):
    """The sum of payloads, or None when it vanishes. They add in balanced
    rounds, since a payload may itself be a form and adding one at a time
    to a growing sum copies it each time, which is quadratic; vanishing
    payloads and partial sums are dropped."""
    is_zero, add = vops.is_zero, vops.add
    vs = [v for v in values if not is_zero(v)]
    while len(vs) > 1:
        paired = [add(vs[j], vs[j + 1]) for j in range(0, len(vs) - 1, 2)]
        if len(vs) % 2:
            paired.append(vs[-1])
        vs = [v for v in paired if not is_zero(v)]
    return vs[0] if vs else None


def from_items(pairs, vops):
    """Build a level from (key, payload) pairs. The payloads of colliding
    keys add by `add_all`; vanishing payloads and sums are dropped."""
    is_zero = vops.is_zero
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
        v = add_all(vs, vops)
        if v is None:
            del out[k]
        else:
            out[k] = v
    metrics.current.trie_edges += len(out)
    return out or None


def walk(levels, first):
    """Intersect the levels of many nodes at once. `levels` holds one column
    per level of a node, each a list with one level per node. The levels of
    column `first` are iterated, flattened into one key list in their own
    order, and each other column's, in column order, is probed for the keys
    still standing; no level is empty. Returns those keys, the index of
    each key's node, and one column of payloads at those keys per column
    of `levels`."""
    it = levels[first]
    keys = list(chain.from_iterable(it))
    owner = list(chain.from_iterable(map(repeat, range(len(it)), map(len, it))))
    cols = [None] * len(levels)
    cols[first] = list(chain.from_iterable(map(dict.values, it)))
    edges = len(keys)
    for i, col in enumerate(levels):
        if i == first:
            continue
        edges += len(keys)
        found = list(map(dict.get, map(col.__getitem__, owner), keys))
        if None in found:
            hit = list(map(operator.is_not, found, repeat(None)))
            keys, owner, found, *cols = compressed(hit, [keys, owner, found, *cols])
        cols[i] = found
    metrics.current.trie_edges += edges
    return keys, owner, cols


def compressed(mask, cols):
    """The columns without their entries where `mask` is false; a column
    that is None stays None."""
    return [c if c is None else list(compress(c, mask)) for c in cols]


def keep(levels, owner, keys, outs):
    """One level per node: the node's `outs` at its `keys`, those whose
    `owner` is its index, which lie in each of its levels (`levels` as in
    `walk`). Returns a (level, index) pair per node: a level of the node
    whose payloads at exactly those keys are `==` to the outputs is
    returned as it is, with the index of its column in `levels`; otherwise
    a new level is built, with index None."""
    bounds = list(map(partial(bisect_left, owner), range(len(levels[0]) + 1)))
    built, out = 0, []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        ks, vs = keys[a:b], outs[a:b]
        for c, col in enumerate(levels):
            t = col[i]
            if len(t) == b - a and list(map(t.__getitem__, ks)) == vs:
                out.append((t, c))
                break
        else:
            out.append((dict(zip(ks, vs)) or None, None))
            built += b - a
    metrics.current.trie_edges += built
    return out


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
