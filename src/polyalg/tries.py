"""Key-indexed tries, one shape per primitive key family.

Integers use a big-endian Patricia trie over sign-adjusted 64-bit keys, so
negative keys enumerate before non-negative ones. Strings use a byte-level
radix trie. Booleans and tagged sums are fixed slot pairs, unit is a single
slot, and pair keys curry into a trie of tries. All structures are
immutable and persistent: merges share unchanged subtrees, lookup cost is
linear in the key size and independent of population.

`single` makes a one-entry trie, `merge` adds two tries, and `from_items`
builds a trie from entries: integer and string entries are sorted, equal
keys added, and the trie built bottom-up (Okasaki and Gill's Patricia
split, a radix split at each longest common prefix); other families merge
one-entry tries. `map_values` rebuilds integer and string tries node for
node, so a trie whose images all survive keeps its shape. `expand` walks
the entries of a whole level of tries at once, tagged with the trie each
came from, and is the one enumeration: `items` is `expand` of one trie.
`walk` intersects tries: on integer keys it builds its output bottom-up
as it goes and keeps every input node the intersection leaves unchanged.
Radix build, merge, mapping and enumeration and the Patricia walk keep
explicit stacks, so no operation's Python stack depth grows with key
length (Patricia recursion is bounded by the 64 key bits).

Payloads are opaque. Callers pass a `ValueOps` describing how payloads
add, when they vanish, and how many keys a payload stands for (one, except
for the curried inner tries of pair keys). The empty trie is `None`.
Every node visit bumps `metrics.current.trie_edges`.
"""

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from . import metrics
from .prims import Adjoined, Bool, Int64, Prod, Str, Sum, Unit


@dataclass(frozen=True)
class ValueOps:
    add: Callable
    is_zero: Callable
    count: Callable = field(default=lambda v: 1)
    # whether an output payload may stand for an input's, so `walk` can
    # return the input's node; identity unless payloads compare by value
    same: Callable = operator.is_


def _add_opt(a, b, vops):
    """None-aware payload addition; returns None when the sum vanishes."""
    if a is None:
        return b
    if b is None:
        return a
    s = vops.add(a, b)
    return None if vops.is_zero(s) else s


# ---------------------------------------------------------------------------
# Patricia trie on sign-adjusted 64-bit integers

_SIGN = 1 << 63
_M64 = (1 << 64) - 1


def _ukey(k):
    return (k & _M64) ^ _SIGN


def _skey(u):
    v = u ^ _SIGN
    return v - (1 << 64) if v & _SIGN else v


class PLeaf:
    __slots__ = ("ukey", "val", "count")

    def __init__(self, ukey, val, count):
        self.ukey = ukey
        self.val = val
        self.count = count


class PBranch:
    """Keys below share `prefix` above `bit`; left has the bit clear."""

    __slots__ = ("prefix", "bit", "left", "right", "count")

    def __init__(self, prefix, bit, left, right):
        self.prefix = prefix
        self.bit = bit
        self.left = left
        self.right = right
        self.count = left.count + right.count


def _p_prefix(t):
    return t.ukey if isinstance(t, PLeaf) else t.prefix


def _p_matches(u, prefix, bit):
    return (u & ~((bit << 1) - 1)) == prefix


def _p_join(t1, t2):
    p1, p2 = _p_prefix(t1), _p_prefix(t2)
    bit = 1 << ((p1 ^ p2).bit_length() - 1)
    prefix = p1 & ~((bit << 1) - 1)
    if p1 & bit:
        t1, t2 = t2, t1
    return PBranch(prefix, bit, t1, t2)


def _p_branch(prefix, bit, left, right):
    if left is None:
        return right
    if right is None:
        return left
    return PBranch(prefix, bit, left, right)


def _p_merge(a, b, vops):
    m = metrics.current
    m.trie_edges += 1
    if isinstance(a, PLeaf):
        if isinstance(b, PLeaf):
            if a.ukey == b.ukey:
                v = _add_opt(a.val, b.val, vops)
                return None if v is None else PLeaf(a.ukey, v, vops.count(v))
            return _p_join(a, b)
        a, b = b, a  # fall through with branch first
    if isinstance(b, PLeaf):
        if _p_matches(b.ukey, a.prefix, a.bit):
            if b.ukey & a.bit:
                return _p_branch(a.prefix, a.bit, a.left, _p_merge(a.right, b, vops))
            return _p_branch(a.prefix, a.bit, _p_merge(a.left, b, vops), a.right)
        return _p_join(a, b)
    # both branches
    if a.bit == b.bit and a.prefix == b.prefix:
        return _p_branch(
            a.prefix, a.bit, _p_merge(a.left, b.left, vops), _p_merge(a.right, b.right, vops)
        )
    if a.bit > b.bit and _p_matches(b.prefix, a.prefix, a.bit):
        if b.prefix & a.bit:
            return _p_branch(a.prefix, a.bit, a.left, _p_merge(a.right, b, vops))
        return _p_branch(a.prefix, a.bit, _p_merge(a.left, b, vops), a.right)
    if b.bit > a.bit and _p_matches(a.prefix, b.prefix, b.bit):
        if a.prefix & b.bit:
            return _p_branch(b.prefix, b.bit, b.left, _p_merge(a, b.right, vops))
        return _p_branch(b.prefix, b.bit, _p_merge(a, b.left, vops), b.right)
    return _p_join(a, b)


def _p_lookup(t, u):
    m = metrics.current
    while isinstance(t, PBranch):
        m.trie_edges += 1
        if not _p_matches(u, t.prefix, t.bit):
            return None
        t = t.right if u & t.bit else t.left
    m.trie_edges += 1
    return t.val if t.ukey == u else None


def _p_walk(ts, leaf, vops):
    """Lockstep intersection of n Patricia tries (Okasaki and Gill's, n-way).

    Each step visits one node per trie and splits them at the highest
    branch bit; a side missing any trie is dropped unvisited, and a leaf
    pulls the other nodes straight down to its key. Node tuples are
    explored top-down into frames [nodes, prefix, bit, left, right, parent
    frame, slot], then built bottom-up, because `leaf` walks the next level
    while this one is open and nested recursion would grow with key bits
    times levels. An output node equal to an input node is that node."""
    m = metrics.current
    same, vcount = vops.same, vops.count
    n = len(ts)
    frames = []
    todo = [(ts, None, 0)]
    while todo:
        nodes, parent, slot = todo.pop()
        m.trie_edges += n
        out = None
        for t in nodes:
            if isinstance(t, PLeaf):
                u = t.ukey
                found = []
                for x in nodes:
                    while isinstance(x, PBranch) and _p_matches(u, x.prefix, x.bit):
                        x = x.right if u & x.bit else x.left
                        m.trie_edges += 1
                    if isinstance(x, PBranch) or x.ukey != u:
                        break
                    found.append(x)
                else:
                    v = leaf(_skey(u), [x.val for x in found])
                    if v is not None:
                        for x in found:
                            if same(v, x.val):
                                out = x
                                break
                        else:
                            out = PLeaf(u, v, vcount(v))
                break
        else:
            top = nodes[0]
            for x in nodes:
                if x.bit > top.bit:
                    top = x
            prefix, bit = top.prefix, top.bit
            mask = ~((bit << 1) - 1)
            lefts, rights = [], []
            for x in nodes:
                if (x.prefix & mask) != prefix:
                    break
                if x.bit == bit:
                    lefts.append(x.left)
                    rights.append(x.right)
                elif x.prefix & bit:
                    rights.append(x)
                else:
                    lefts.append(x)
            else:
                frame = [nodes, prefix, bit, None, None, parent, slot]
                frames.append(frame)
                if len(rights) == n:
                    todo.append((rights, frame, 4))
                if len(lefts) == n:
                    todo.append((lefts, frame, 3))
                continue
        if parent is None:
            return out
        parent[slot] = out
    for nodes, prefix, bit, l, r, parent, slot in reversed(frames):
        if l is None or r is None:
            out = r if l is None else l
        else:
            # both sides survived only if every node split at `bit`
            for x in nodes:
                if x.left is l and x.right is r:
                    out = x
                    break
            else:
                out = PBranch(prefix, bit, l, r)
        if parent is None:
            return out
        parent[slot] = out


def _p_build(us, vals, lo, hi, vcount):
    """Patricia trie of the sorted distinct keys us[lo:hi]: a run splits at
    the highest bit where its first and last keys differ."""
    if hi - lo == 1:
        v = vals[lo]
        return PLeaf(us[lo], v, vcount(v))
    a = us[lo]
    bit = 1 << ((a ^ us[hi - 1]).bit_length() - 1)
    prefix = a & ~((bit << 1) - 1)
    mid = bisect_left(us, prefix | bit, lo, hi)
    return PBranch(prefix, bit, _p_build(us, vals, lo, mid, vcount),
                   _p_build(us, vals, mid, hi, vcount))


def _p_map(t, fn, vops, m):
    m.trie_edges += 1
    if isinstance(t, PLeaf):
        w = fn(t.val)
        if w is None or vops.is_zero(w):
            return None
        return PLeaf(t.ukey, w, vops.count(w))
    return _p_branch(t.prefix, t.bit, _p_map(t.left, fn, vops, m), _p_map(t.right, fn, vops, m))


# ---------------------------------------------------------------------------
# Radix trie on utf-8 bytes

class RNode:
    """`val` is the payload for the key ending here; edges carry non-empty
    labels, sorted by first byte. Non-root nodes with no payload keep at
    least two edges (paths are compressed). `vcount` is the key count of
    the payload alone (0 when absent)."""

    __slots__ = ("val", "edges", "count")

    def __init__(self, val, edges, vcount):
        self.val = val
        self.edges = edges
        c = vcount
        for _, child in edges:
            c += child.count
        self.count = c


def _r_single(key: bytes, val, vops):
    leaf_count = vops.count(val)
    if key == b"":
        return RNode(val, (), leaf_count)
    return RNode(None, ((key, RNode(val, (), leaf_count)),), 0)


def _common_prefix_len(a: bytes, b: bytes) -> int:
    # bisect on slice equality: log(n) byte compares in C, not n in Python
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _r_compress(label, child):
    if child.val is None and len(child.edges) == 1:
        sub_label, sub_child = child.edges[0]
        return label + sub_label, sub_child
    return label, child


def _r_node(val, edges, vops):
    if val is None and not edges:
        return None
    return RNode(val, tuple(edges), 0 if val is None else vops.count(val))


def _r_merge(a, b, vops):
    """Additive union of radix tries, without recursion: node pairs are
    merged top-down into frames (parent, slot, label, payload, edges), where
    a slot waits for the merge of a shared child, then nodes are built
    bottom-up, so key length costs heap rather than Python stack."""
    m = metrics.current
    frames = []
    todo = [(None, None, None, a, b)]
    while todo:
        parent, slot, label, x, y = todo.pop()
        m.trie_edges += 1
        me = len(frames)
        ea, eb = x.edges, y.edges
        i = j = 0
        out = []
        while i < len(ea) and j < len(eb):
            la, ca = ea[i]
            lb, cb = eb[j]
            if la[0] < lb[0]:
                out.append(ea[i])
                i += 1
            elif lb[0] < la[0]:
                out.append(eb[j])
                j += 1
            else:
                p = _common_prefix_len(la, lb)
                if p < len(la) and p < len(lb):
                    sub = sorted(((la[p:], ca), (lb[p:], cb)), key=lambda e: e[0])
                    out.append((la[:p], RNode(None, tuple(sub), 0)))
                else:
                    if p < len(lb):
                        cb = RNode(None, ((lb[p:], cb),), 0)
                    elif p < len(la):
                        ca = RNode(None, ((la[p:], ca),), 0)
                    todo.append((me, len(out), la[:p], ca, cb))
                    out.append(None)
                i += 1
                j += 1
        out.extend(ea[i:])
        out.extend(eb[j:])
        frames.append((parent, slot, label, _add_opt(x.val, y.val, vops), out))
    for parent, slot, label, val, out in reversed(frames):
        node = _r_node(val, [e for e in out if e is not None], vops)
        if parent is None:
            return node
        if node is not None:
            frames[parent][4][slot] = _r_compress(label, node)


def _r_build(keys, vals, vops):
    """Radix trie of sorted distinct byte keys. The open nodes along the
    previous key form a stack of depths, payloads and edge lists; each key
    closes the nodes deeper than its common prefix with the previous key,
    opening a branch node at that depth when none is open there, and a
    last pass at depth 0 closes the rest into the root."""
    vcount = vops.count
    depths, pvals, kids = [0], [None], [[]]
    prev = b""
    n = len(keys)
    built = 1
    for i in range(n + 1):
        depth = _common_prefix_len(prev, keys[i]) if i < n else 0
        while depths[-1] > depth:
            built += 1
            d, v, edges = depths.pop(), pvals.pop(), kids.pop()
            node = RNode(v, tuple(edges), 0 if v is None else vcount(v))
            if depths[-1] < depth:
                depths.append(depth)
                pvals.append(None)
                kids.append([])
            kids[-1].append((prev[depths[-1]:d], node))
        if i < n:
            prev = keys[i]
            if prev:
                depths.append(len(prev))
                pvals.append(vals[i])
                kids.append([])
            else:  # the empty key, first in order, at the root
                pvals[0] = vals[i]
    metrics.current.trie_edges += built
    v = pvals[0]
    return RNode(v, tuple(kids[0]), 0 if v is None else vcount(v))


def _r_map(t, fn, vops):
    """`map_values` on a radix trie: frames (parent, slot, label, payload,
    edges) top-down, nodes bottom-up, as in `_r_merge`."""
    m = metrics.current
    is_zero = vops.is_zero
    frames = []
    todo = [(None, None, None, t)]
    while todo:
        parent, slot, label, x = todo.pop()
        m.trie_edges += 1
        val = None
        if x.val is not None:
            val = fn(x.val)
            if val is not None and is_zero(val):
                val = None
        me = len(frames)
        frames.append((parent, slot, label, val, [None] * len(x.edges)))
        for i, (lb, child) in enumerate(x.edges):
            todo.append((me, i, lb, child))
    for parent, slot, label, val, out in reversed(frames):
        node = _r_node(val, [e for e in out if e is not None], vops)
        if parent is None:
            return node
        if node is not None:
            frames[parent][4][slot] = _r_compress(label, node)


def _r_lookup(t, key: bytes):
    m = metrics.current
    node = t
    i = 0
    while True:
        m.trie_edges += 1
        if i == len(key):
            return node.val
        nxt = None
        c = key[i]
        for label, child in node.edges:
            if label[0] == c:
                nxt = (label, child)
                break
            if label[0] > c:
                break
        if nxt is None:
            return None
        label, child = nxt
        if key[i : i + len(label)] != label:
            return None
        i += len(label)
        node = child


# ---------------------------------------------------------------------------
# Slot-shaped tries: unit, bool, sums, adjoined markers

class UNode:
    __slots__ = ("val", "count")

    def __init__(self, val, count):
        self.val = val
        self.count = count


class BNode:
    __slots__ = ("f", "t", "count")

    def __init__(self, f, t, count):
        self.f = f
        self.t = t
        self.count = count


class SNode:
    """Sub-tries for left-tagged and right-tagged keys."""

    __slots__ = ("left", "right", "count")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.count = (left.count if left else 0) + (right.count if right else 0)


class ANode:
    """Payload at the adjoined marker plus a base-set sub-trie."""

    __slots__ = ("mark", "base", "count")

    def __init__(self, mark, base, mark_count):
        self.mark = mark
        self.base = base
        self.count = mark_count + (base.count if base else 0)


# ---------------------------------------------------------------------------
# Prim-directed dispatch

def single(prim, key, val, vops):
    """One-entry trie. The payload must be non-vanishing."""
    if isinstance(prim, Int64):
        return PLeaf(_ukey(key), val, vops.count(val))
    if isinstance(prim, Str):
        return _r_single(key.encode("utf-8"), val, vops)
    if isinstance(prim, Unit):
        return UNode(val, vops.count(val))
    if isinstance(prim, Bool):
        c = vops.count(val)
        return BNode(None, val, c) if key else BNode(val, None, c)
    if isinstance(prim, Sum):
        tag, k = key
        if tag == "L":
            return SNode(single(prim.lhs, k, val, vops), None)
        return SNode(None, single(prim.rhs, k, val, vops))
    if isinstance(prim, Prod):
        inner = single(prim.snd, key[1], val, vops)
        return single(prim.fst, key[0], inner, _outer_vops(prim, vops))
    if isinstance(prim, Adjoined):
        if key is prim.marker:
            return ANode(val, None, vops.count(val))
        return ANode(None, single(prim.base, key, val, vops), 0)
    raise TypeError(f"no trie for {prim}")


def _outer_vops(prim, vops):
    snd = prim.snd
    return ValueOps(
        add=lambda x, y: merge(snd, x, y, vops),
        is_zero=lambda t: t is None,
        count=lambda t: t.count,
    )


def merge(prim, a, b, vops):
    """Additive union; linear in the smaller side plus shared paths."""
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(prim, Int64):
        return _p_merge(a, b, vops)
    if isinstance(prim, Str):
        return _r_merge(a, b, vops)
    if isinstance(prim, Unit):
        metrics.current.trie_edges += 1
        v = _add_opt(a.val, b.val, vops)
        return None if v is None else UNode(v, vops.count(v))
    if isinstance(prim, Bool):
        metrics.current.trie_edges += 1
        f = _add_opt(a.f, b.f, vops)
        t = _add_opt(a.t, b.t, vops)
        if f is None and t is None:
            return None
        c = (vops.count(f) if f is not None else 0) + (vops.count(t) if t is not None else 0)
        return BNode(f, t, c)
    if isinstance(prim, Sum):
        metrics.current.trie_edges += 1
        l = merge(prim.lhs, a.left, b.left, vops)
        r = merge(prim.rhs, a.right, b.right, vops)
        if l is None and r is None:
            return None
        return SNode(l, r)
    if isinstance(prim, Prod):
        return merge(prim.fst, a, b, _outer_vops(prim, vops))
    if isinstance(prim, Adjoined):
        metrics.current.trie_edges += 1
        mk = _add_opt(a.mark, b.mark, vops)
        base = merge(prim.base, a.base, b.base, vops)
        if mk is None and base is None:
            return None
        return ANode(mk, base, vops.count(mk) if mk is not None else 0)
    raise TypeError(f"no trie for {prim}")


def lookup(prim, t, key):
    """Payload at `key`, or None. Work is linear in the size of the key."""
    if t is None:
        return None
    if isinstance(prim, Int64):
        return _p_lookup(t, _ukey(key))
    if isinstance(prim, Str):
        return _r_lookup(t, key.encode("utf-8"))
    if isinstance(prim, Unit):
        metrics.current.trie_edges += 1
        return t.val
    if isinstance(prim, Bool):
        metrics.current.trie_edges += 1
        return t.t if key else t.f
    if isinstance(prim, Sum):
        metrics.current.trie_edges += 1
        tag, k = key
        if tag == "L":
            return lookup(prim.lhs, t.left, k)
        return lookup(prim.rhs, t.right, k)
    if isinstance(prim, Prod):
        inner = lookup(prim.fst, t, key[0])
        return lookup(prim.snd, inner, key[1])
    if isinstance(prim, Adjoined):
        metrics.current.trie_edges += 1
        if key is prim.marker:
            return t.mark
        return lookup(prim.base, t.base, key)
    raise TypeError(f"no trie for {prim}")


def items(prim, t):
    """All (key, payload) entries in the set's total order."""
    for _, k, v in expand(prim, (t,)):
        yield k, v


def expand(prim, ts):
    """Every entry of every trie in `ts` as (index, key, payload), where
    `index` is the trie's position in `ts`: the tries in order, each one's
    entries in the set's total order, empty tries giving none. One family
    dispatch serves all the tries of a level, and each node visited costs
    one trie edge. Integer and string tries are walked lazily, so no list
    of a level's entries is built unless the caller builds one."""
    m = metrics.current
    if isinstance(prim, Int64):
        for i, t in enumerate(ts):
            if t is None:
                continue
            stack = [t]
            while stack:
                n = stack.pop()
                m.trie_edges += 1
                if isinstance(n, PLeaf):
                    u = n.ukey ^ _SIGN  # `_skey`, inlined
                    yield i, u - (1 << 64) if u & _SIGN else u, n.val
                else:
                    stack.append(n.right)
                    stack.append(n.left)
    elif isinstance(prim, Str):
        for i, t in enumerate(ts):
            if t is None:
                continue
            stack = [(b"", t)]
            while stack:
                prefix, node = stack.pop()
                m.trie_edges += 1
                if node.val is not None:
                    yield i, prefix.decode(), node.val
                for label, child in reversed(node.edges):
                    stack.append((prefix + label, child))
    else:
        yield from _expand_slots(prim, ts, m)


def _expand_slots(prim, ts, m):
    """`expand` for pair keys and the slot-shaped families."""
    if isinstance(prim, Prod):
        outer = list(expand(prim.fst, ts))
        inner = expand(prim.snd, [v for _, _, v in outer])
        return [(outer[j][0], (outer[j][1], kb), v) for j, kb, v in inner]
    live = [(i, t) for i, t in enumerate(ts) if t is not None]
    m.trie_edges += len(live)
    if isinstance(prim, Unit):
        return [(i, (), t.val) for i, t in live]
    if isinstance(prim, Bool):
        out = []
        for i, t in live:
            if t.f is not None:
                out.append((i, False, t.f))
            if t.t is not None:
                out.append((i, True, t.t))
        return out
    if isinstance(prim, Sum):
        left = expand(prim.lhs, [t.left for _, t in live])
        right = expand(prim.rhs, [t.right for _, t in live])
        out = [(live[j][0], ("L", k), v) for j, k, v in left]
        out += [(live[j][0], ("R", k), v) for j, k, v in right]
    elif isinstance(prim, Adjoined):
        marks = [(i, prim.marker, t.mark) for i, t in live if t.mark is not None]
        base = [(live[j][0], k, v) for j, k, v in expand(prim.base, [t.base for _, t in live])]
        out = marks + base if prim.marker_first else base + marks
    else:
        raise TypeError(f"no trie for {prim}")
    out.sort(key=_first)  # stable: each trie's entries together again, in order
    return out


def count(t) -> int:
    return 0 if t is None else t.count


def from_items(prim, pairs, vops):
    """Build a trie from (key, payload) pairs; the one multi-entry builder.

    Colliding keys add, and vanishing payloads and sums are dropped.
    Integer and string entries are sorted and the trie is built from the
    sorted keys, each node once; other families merge one-entry tries in
    balanced rounds."""
    if not isinstance(prim, (Int64, Str)):
        level = [single(prim, k, v, vops) for k, v in pairs if not vops.is_zero(v)]
        if not level:
            return None
        while len(level) > 1:
            paired = [merge(prim, level[i], level[i + 1], vops)
                      for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                paired.append(level[-1])
            level = paired
        return level[0]
    if isinstance(prim, Int64):
        ents = [((k & _M64) ^ _SIGN, v) for k, v in pairs]  # `_ukey`, inlined
    else:
        ents = [(k.encode(), v) for k, v in pairs]
    if len(ents) == 1:  # most tries of a relation built from rows
        k, v = ents[0]
        if vops.is_zero(v):
            return None
        metrics.current.trie_edges += 1
        return PLeaf(k, v, vops.count(v)) if isinstance(prim, Int64) else _r_single(k, v, vops)
    ents.sort(key=_first)
    keys, vals = _summed(ents, vops)
    if not keys:
        return None
    if isinstance(prim, Str):
        return _r_build(keys, vals, vops)
    metrics.current.trie_edges += 2 * len(keys) - 1
    return _p_build(keys, vals, 0, len(keys), vops.count)


_first = operator.itemgetter(0)


def _summed(ents, vops):
    """Keys and payloads of sorted entries. The payloads of equal keys add
    in balanced rounds, since a payload may itself be a trie and adding one
    at a time to a growing sum can be quadratic; vanishing payloads and
    sums are dropped."""
    is_zero, add = vops.is_zero, vops.add
    keys, vals, runs = [], [], {}
    for k, v in ents:
        if is_zero(v):
            continue
        if keys and keys[-1] == k:
            runs.setdefault(len(keys) - 1, [vals[-1]]).append(v)
        else:
            keys.append(k)
            vals.append(v)
    if not runs:
        return keys, vals
    for i, vs in runs.items():
        while len(vs) > 1:
            paired = [add(vs[j], vs[j + 1]) for j in range(0, len(vs) - 1, 2)]
            if len(vs) % 2:
                paired.append(vs[-1])
            vs = [v for v in paired if not is_zero(v)]
        vals[i] = vs[0] if vs else None
    kept = [i for i, v in enumerate(vals) if v is not None]
    return [keys[i] for i in kept], [vals[i] for i in kept]


def lockstep(prim) -> bool:
    """Whether `walk` intersects this family's tries in lockstep rather than
    enumerating one trie and probing the others."""
    return isinstance(prim, Int64)


def walk(prim, ts, leaf, vops):
    """Intersect n >= 1 tries: `leaf(key, payloads)` receives the payloads
    of a key present in every trie, in trie order, and returns the output
    payload, or None to drop the key. Integer tries are walked in lockstep
    and keep every input node the output does not change; other families
    enumerate the trie with the fewest keys and probe the others."""
    if any(t is None for t in ts):
        return None
    if lockstep(prim):
        return _p_walk(ts, leaf, vops)
    m = metrics.current
    e = min(range(len(ts)), key=lambda i: ts[i].count)
    entries = []
    for key, v in items(prim, ts[e]):
        vals = []
        for i, t in enumerate(ts):
            if i == e:
                vals.append(v)
                continue
            m.lookups += 1
            d = lookup(prim, t, key)
            if d is None:
                break
            vals.append(d)
        else:
            w = leaf(key, vals)
            if w is not None:
                entries.append((key, w))
    return from_items(prim, entries, vops)


def map_values(prim, t, fn, vops):
    """Apply fn to every payload; entries whose image is None or vanishes are
    dropped. Integer and string tries are mapped node for node, so where no
    image vanishes the output has the input's shape; other families are
    rebuilt from the mapped entries."""
    if t is None:
        return None
    if isinstance(prim, Int64):
        return _p_map(t, fn, vops, metrics.current)
    if isinstance(prim, Str):
        return _r_map(t, fn, vops)
    mapped = ((k, w) for k, v in items(prim, t) if (w := fn(v)) is not None)
    return from_items(prim, mapped, vops)
