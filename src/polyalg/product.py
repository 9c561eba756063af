"""Products of collections: intersections and joins.

A join, natural or outer, and an intersection are one joint product of
positioned factors: each input's own canonical form together with the
positions of its attributes in the output's compact chain (`nf_join`).
The paper's algebraic join multiplies each input where its attributes
appear and matches everything elsewhere, so no input is rewritten into
the output's chain first. At an output level, a factor whose next
attribute is that level gives its trie and its baseline; a factor that
lacks the level is trie-less, its baseline at every key the factor
itself, passed down unchanged; and a factor whose attributes have all
been read is trie-less, its baseline its coefficient. A same-space
product (`nf_product`: symbolic products and `terms.multiply`) splits pairs,
multiplies scalars and hands keyed forms to `nf_join` with positions
None, each in the output space and holding every level.

The evaluator works breadth first, one frontier for every keyed level:
every row of factor values at that depth. A free level multiplies ring
coefficients; any other makes the factor values below each key rows of
the next level, and once the deepest level is done each level's forms
are assembled from its child rows' outputs, so the stack depth does not
grow with the column count. At each level a row's factors split into
those that restrict the support, whose baseline is None, and those that
do not, and rows that split alike go through every step together. Their
restricting levels are intersected by one `tries.walk`, which flattens
each row's level with the fewest keys into one key list and probes the
row's other restricting levels by hash, so a key missing from any
restricting factor is dropped before anything below it is visited. The
level then works a column at a time over all those rows' keys: a
non-restricting factor with a trie is probed at every surviving key and
adds its baseline to its deviation there; one without a trie gives its
baseline at every key. A free level multiplies its columns left to right
in factor order, the coefficients of ended factors each in its own place,
so real products are exact, and leaves out a baseline equal to the ring's
one. A factor that vanishes at a key drops the key before any later
factor is probed or any deeper work is charged. A row where every factor
carries a baseline is written with x_j = b_j + d_j, its baseline and its
deviations, as b_1⋯b_n + Σ_j x_1⋯x_{j−1} · d_j · b_{j+1}⋯b_n: the
baselines' product is the output's baseline, and each summand is a row of
the same level restricted by d_j, so only the factors' explicit keys and
what lies below them are visited.

All n factors are scheduled jointly: a row carries one value per factor
into the next level rather than folding pairwise, which is what makes the
evaluation worst-case optimal on cyclic joins such as the triangle. An
output that equals one of the inputs is that input, so unchanged levels
are shared, not rebuilt, and `==` is the one test of sameness: exact
value for coefficients, identity for forms. `tries.keep` returns an input
trie level whose payloads are `==` to the outputs, and the output is the
form of that level's factor when its space is the output level's, as is
the remaining factor of a row where every other factor has ended with
the coefficient one: a one-factor join is its factor.

`embed` widens a form into a larger compact chain, filling the attributes
it lacks with wildcard levels: `Relation` widens a plain chain's form with
it, and the tests and the naive triangle benchmark use it as the
reference that joins are checked against; no join calls it.

This module reads forms alone. The products of terms (`multiply`, the
triangle query and `naive_multiply`, the deliberately blunt alternative by
full distributivity kept as the differential-testing oracle) live with the
terms in `terms`, and `embed` imports it only when handed a term.
"""

from functools import reduce
from importlib import import_module

from . import metrics, tries
from .normal import (
    MapNF,
    NormalForm,
    PairNF,
    ScalarNF,
    map_payloads,
    nf_tensor,
    payload_ops,
    unit_nf,
    zero_nf,
)
from .spaces import SpaceError, tensor_chain


def nf_product(nfs) -> NormalForm:
    """Joint product of same-space forms, dispatched on the form (a tensor
    is keyed, paired or scalar like its left factor): keyed forms are
    factors of `nf_join`, pairs split and scalars multiply."""
    nfs = list(nfs)
    space = nfs[0].space
    if len(nfs) == 1:
        return nfs[0]
    for nf in nfs:
        if nf.is_zero():
            return zero_nf(space)
    if isinstance(nfs[0], ScalarNF):
        return ScalarNF(space, _ring_product(space.ring, [nf.value for nf in nfs]))
    if isinstance(nfs[0], MapNF):  # free levels, maps, and tensors keyed by their left factor
        return nf_join([(nf, None) for nf in nfs], space)
    return PairNF(
        space,
        nf_product([nf.lhs for nf in nfs]),
        nf_product([nf.rhs for nf in nfs]),
    )


def nf_join(factors, space) -> NormalForm:
    """Joint product in the keyed space `space` of (form, positions)
    factors. Positions None mean a form in `space` holding every level;
    otherwise the form is in a chain of the column types of the compact
    chain `space` at `positions`, its output levels in increasing order.
    Each form is read in its own chain; nothing is embedded."""
    factors = list(factors)
    xs = [x for x, _ in factors]
    for x in xs:
        if x.is_zero():
            return zero_nf(space)
    # one frontier per keyed level of `space`, down to a free level, to
    # values that are pairs or scalars or to a level without rows; then
    # each level's outputs are assembled from its child rows', deepest first
    rows, finishes, i, s = [xs], [], 0, space
    while True:
        here = tuple(pos is None or i in pos for _, pos in factors)
        live = [j for j, (_, pos) in enumerate(factors) if pos is None or pos[-1] >= i]
        rows, finish = _frontier(rows, s, here, live[0] if len(live) == 1 else None)
        finishes.append(finish)
        if not rows or s.shape != "map" or s.value.shape not in ("free", "map"):
            break
        i, s = i + 1, s.value
    below = list(map(nf_product, rows))
    while finishes:
        below = finishes.pop()(below)
    return below[0]


def _ring_product(ring, vals):
    """vals[0] * vals[1] * ..., multiplied left to right."""
    acc = vals[0]
    for v in vals[1:]:
        acc = ring.mul(acc, v)
    metrics.current.ring_mults += len(vals) - 1
    return acc


def _frontier(rows, space, here, live):
    """One level of the joint product in `space` over `rows`, every row of
    factor values at its depth. `here` flags the factors whose next
    attribute is this level; every other factor is its own baseline at
    every key, a form passed down unchanged or, past its last attribute,
    its coefficient. A row whose one live factor, `live`, is already in
    `space`, every other factor being a coefficient equal to the unit, is
    that factor. Returns the child rows and `finish(below)`, which takes
    the child rows' outputs and returns one output per row: the product
    form, or the input form in `space` it equals, the factor whose level
    `tries.keep` kept or, for an all-baseline row, a factor with the
    output's trie and a baseline `==` to the output's.

    Rows are grouped by which factors restrict, are probed or stand as a
    unit baseline, and by which restricting level is smallest. The
    summands of an all-baseline row are appended to `rows`, and their
    levels add in factor order, the summand of d_1 first, so a real
    deviation is a sum of those products, never a product less the
    baselines' product."""
    m = metrics.current
    ring = space.ring
    free = space.shape == "free"
    vops = payload_ops(space)
    is_zero, one, trace = vops.is_zero, ring.one, m.trace
    outs, children, groups, summed = [], [], {}, []
    for n, row in enumerate(rows):
        if live is not None and row[live].space is space and row.count(one) == len(row) - 1:
            # every factor but the live one is a coefficient, and no form
            # equals the unit; a summand row passes only where its parent would
            outs.append(row[live])
            continue
        outs.append(None)
        # kinds: 0 restricts (no baseline), 1 is probed (trie and baseline),
        # 2 is a baseline at every key, 3 a unit one left out of a multiply
        kinds, e = [], None
        for j, (x, h) in enumerate(zip(row, here)):
            if not h:
                kinds.append(3 if free and x == one else 2)
            elif x.base is None:
                kinds.append(0)
                # a factor value never vanishes, so a restricting trie exists
                if e is None or len(x.trie) < len(row[e].trie):
                    e = j
            else:
                kinds.append(1 if x.trie is not None else 3 if free and x.base == one else 2)
        if e is not None:
            if trace is not None:
                trace.append((tuple(len(x.trie or ()) + (x.base is not None) if h else 1
                                    for x, h in zip(row, here)), e))
            groups.setdefault((tuple(kinds), e), []).append((n, row))
            continue
        # every factor is its baseline plus its deviations, x_j = b_j + d_j:
        # x_1⋯x_n = b_1⋯b_n + Σ_j x_1⋯x_{j−1} · d_j · b_{j+1}⋯b_n, and each
        # summand is restricted by d_j, so only d_j's keys are visited
        subs = []
        for j, (x, h) in enumerate(zip(row, here)):
            if h and x.trie is not None:
                later = zip(row[j + 1:], here[j + 1:])
                subs.append(len(rows))
                rows.append([*row[:j], MapNF(x.space, x.trie, None),
                             *[MapNF(y.space, None, y.base) if g else y for y, g in later]])
        bs = [x.base if h else x for x, h in zip(row, here)]
        if free:
            base = _ring_product(ring, bs)
        else:
            base = len(children)
            children.append(bs)
        summed.append((n, row, subs, base))
    pending = []
    for (kinds, e), members in groups.items():
        # a column per factor, one entry per row of the group: its values,
        # tries and baselines
        ns, grows = zip(*members)
        xcols = list(zip(*grows))
        tcols = [[x.trie for x in c] if h else None for c, h in zip(xcols, here)]
        bcols = [[x.base for x in c] if h else c for c, h in zip(xcols, here)]
        restricting = [j for j, k in enumerate(kinds) if k == 0]
        levels = [tcols[j] for j in restricting]
        keys, owner, found = tries.walk(levels, restricting.index(e))
        cols = [None] * len(kinds)
        for j, col in zip(restricting, found):
            cols[j] = col
        for j, kind in enumerate(kinds):
            if kind != 1:
                continue
            m.lookups += len(keys)
            m.trie_edges += len(keys)
            # at its last attribute a factor's payloads are coefficients,
            # whatever the level's
            ops = payload_ops(xcols[j][0].space)
            add = ops.add
            col = [b if d is None else add(b, d) for b, d in
                   zip(map(bcols[j].__getitem__, owner),
                       map(dict.get, map(tcols[j].__getitem__, owner), keys))]
            if any(map(ops.is_zero, col)):
                # a vanishing factor drops its key before any later probe
                keys, owner, col, *cols = tries.compressed([not ops.is_zero(v) for v in col],
                                                           [keys, owner, col, *cols])
            cols[j] = col
        for j, kind in enumerate(kinds):
            if cols[j] is None and kind != 3:
                cols[j] = list(map(bcols[j].__getitem__, owner))
        if free:
            # multiply left to right, leaving out a baseline that is the unit
            cols = [c for c in cols if c is not None]
            got = reduce(lambda acc, col: list(map(ring.mul, acc, col)), cols)
            m.ring_mults += len(keys) * (len(cols) - 1)
        else:
            got = len(children)
            children.extend(zip(*cols))
        pending.append((ns, grows, restricting, levels, keys, owner, got))

    def finish(below):
        for ns, grows, restricting, levels, keys, owner, got in pending:
            if not free:
                got = below[got:got + len(keys)]
            if any(map(is_zero, got)):
                keys, owner, got = tries.compressed([not is_zero(v) for v in got],
                                                    [keys, owner, got])
            for n, row, (trie, c) in zip(ns, grows, tries.keep(levels, owner, keys, got)):
                x = None if c is None else row[restricting[c]]
                outs[n] = x if x is not None and x.space is space else MapNF(space, trie, None)
        for n, row, subs, base in summed:
            trie = None
            for s in subs:
                trie = tries.merge(trie, outs[s].trie, vops)
            if not free:
                base = below[base]
            base = None if is_zero(base) else base
            for x, h in zip(row, here):
                if h and x.space is space and x.trie is trie and x.base == base:
                    break
            else:
                x = MapNF(space, trie, base)
            outs[n] = x
        pending.clear()
        return outs

    return children, finish


# embeddings -------------------------------------------------------------------

def embed(x, source, target):
    """Send a chain over the attributes `source` into the compact chain over
    `target`, widening free factors and filling missing attributes with the
    wildcard. `source` and `target` are (name, prim) lists; the source
    attributes must appear in the target in the same order (reorder
    upstream). A form embeds as a form, keeping every trie whose level only
    widens; a term is normalised, embedded and read back."""
    if not isinstance(x, NormalForm):
        from .terms import normalize, readback

        return readback(embed(normalize(x), source, target))
    src = list(source)
    tgt = list(target)
    names = [n for n, _ in tgt]
    for n, _ in src:
        if n not in names:
            raise SpaceError(f"attribute {n!r} missing from the target schema")
    it = iter(names)
    for n, _ in src:
        for m in it:
            if m == n:
                break
        else:
            raise SpaceError(f"attribute {n!r} out of order for the target schema")
    out = tensor_chain(x.space.ring, [p for _, p in tgt], compact=True)
    return _embed(x, [n for n, _ in src], names, out)


def _embed(nf, src, tgt, out):
    """The form `nf` over the attribute names `src` into the compact chain
    `out` over the names `tgt`. A sub-form already in its target space is
    shared: for chains, equal spaces mean equal remaining attributes."""
    if nf.space == out:
        return nf
    if src[0] != tgt[0]:
        # a missing attribute is a wildcard level
        rest = _embed(nf, src, tgt[1:], out.rhs)
        return MapNF(out, None, None if rest.is_zero() else rest)
    if len(tgt) == 1:
        return MapNF(out, nf.trie, nf.base)
    if len(src) == 1:
        # the last source attribute: each coefficient c becomes c times the
        # unit of the missing attributes after it
        return nf_tensor(nf, unit_nf(out.rhs), out)
    src, tgt = src[1:], tgt[1:]
    return map_payloads(nf, lambda v: _embed(v, src, tgt, out.rhs), out)


def __getattr__(name):
    # `triangle` lives in `terms`; perfbench still reads it here, and this
    # forwarding goes when ROADMAP item 1 moves perfbench
    if name == "triangle":
        return getattr(import_module(f"{__package__}.terms"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
