"""Products of collections: intersections and joins.

The evaluator works level by level on nested keyed forms, one `_level` for
every keyed level: a free level multiplies ring coefficients, any other
multiplies its value forms by calling `nf_product` on them, and both add
and test payloads through the level's `ValueOps`. At each level the
factors split into those that restrict the support, whose baseline is
None, and those that do not. If a restricting factor exists, their trie
levels are intersected by `tries.walk`, which iterates the one with the
fewest keys and probes the others by hash, so a key missing from any
restricting factor is dropped before anything below it is visited. The
level then works a column at a time: a non-restricting factor with a trie
is probed at every surviving key and adds its baseline to its deviation
there; one without a trie gives its baseline at every key. A free level
multiplies its columns left to right in factor order, so real products
are exact, and leaves out a baseline equal to the ring's one.
`tries.keep` returns an input level when the products equal its entries.
A factor that vanishes at a key drops the key before any later factor is
probed or any deeper work is charged. A level where every factor carries
a baseline is written with x_j = b_j + d_j, its baseline and its
deviations, as b_1⋯b_n + Σ_j x_1⋯x_{j−1} · d_j · b_{j+1}⋯b_n: the
baselines' product is the output's baseline, and each summand is a level
restricted by d_j, intersected as above, so only the factors' explicit
keys and what lies below them are visited.

All n factors are scheduled jointly: the recursion at a key carries one
value per factor into the next level rather than folding pairwise, which
is what makes the evaluation worst-case optimal on cyclic joins such as
the triangle. An output that equals one of the inputs, in a trie level or
a whole form, is that input, so unchanged levels are shared, not rebuilt.

`naive_multiply` is the deliberately blunt alternative, full expansion by
distributivity, kept as the differential-testing oracle.
"""

from itertools import compress, repeat

from . import metrics, tries
from .normal import (
    NF_VOPS,
    MapNF,
    NormalForm,
    PairNF,
    ScalarNF,
    force_product,
    map_payloads,
    nf_tensor,
    normalize,
    readback,
    ring_vops,
    unit_nf,
    zero_nf,
)
from .spaces import SpaceError, chain_prims, tensor_chain
from .terms import (
    GenTerm,
    InjGen,
    MapsToGen,
    MulGen,
    OneGen,
    PairGen,
    Term,
    TensorGen,
    WildMapsToGen,
    WildOneGen,
    linear_combination,
    maps_to,
    pair,
    scaled,
    sum_terms,
    tensor,
    wild_maps_to,
)


def multiply(factors) -> NormalForm:
    """Simplified product of same-space terms, scheduled jointly."""
    factors = list(factors)
    if not factors:
        raise SpaceError("a product needs at least one factor")
    space = factors[0].space
    for f in factors[1:]:
        if f.space != space:
            raise SpaceError(f"product factors live in {space} and {f.space}")
    return nf_product([normalize(f) for f in factors])


def nf_product(nfs) -> NormalForm:
    """Joint product of same-space forms, dispatched on the form: every
    tensor is keyed, paired or scalar like its left factor, so no tensor
    needs a product of its own."""
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
        return _level(nfs, space)
    return PairNF(
        space,
        nf_product([nf.lhs for nf in nfs]),
        nf_product([nf.rhs for nf in nfs]),
    )


def _ring_product(ring, vals):
    """vals[0] * vals[1] * ..., multiplied left to right."""
    acc = vals[0]
    for v in vals[1:]:
        acc = ring.mul(acc, v)
    metrics.current.ring_mults += len(vals) - 1
    return acc


def _level(nfs, space):
    """One level of the joint product of the keyed forms `nfs` in `space`:
    the product form, or the factor it equals. A free level multiplies its
    columns left to right in factor order; an all-baseline level adds its
    summands' levels in factor order, the summand of d_1 first, so a real
    deviation is a sum of those products, never a product less the
    baselines' product."""
    m = metrics.current
    if space.shape == "free":
        ring = space.ring
        vops = ring_vops(ring)
    else:
        ring, vops = None, NF_VOPS
    add, is_zero = vops.add, vops.is_zero
    ts = [nf.trie for nf in nfs if nf.base is None]
    if not ts:
        # every factor is its baseline plus its deviations, x_j = b_j + d_j:
        # x_1⋯x_n = b_1⋯b_n + Σ_j x_1⋯x_{j−1} · d_j · b_{j+1}⋯b_n, and each
        # summand is restricted by d_j, so only d_j's keys are visited
        bs = [nf.base for nf in nfs]
        bases = [MapNF(space, None, b) for b in bs]
        trie = None
        for j, nf in enumerate(nfs):
            if nf.trie is not None:
                part = _level([*nfs[:j], MapNF(space, nf.trie, None), *bases[j + 1:]], space)
                trie = tries.merge(trie, part.trie, vops)
        base = nf_product(bs) if ring is None else _ring_product(ring, bs)
        if is_zero(base):
            base = None
    else:
        if m.trace is not None:
            # what the trace records only: `tries.walk` picks its own level
            tcs = [tries.count(nf.trie) for nf in nfs]
            restricting = [i for i, nf in enumerate(nfs) if nf.base is None]
            enum_i = min(restricting, key=lambda i: (tcs[i], i))
            m.trace.append((tuple(c + (nf.base is not None) for c, nf in zip(tcs, nfs)), enum_i))
        keys, cols = tries.walk(ts)
        # a column per factor: its payloads at `keys`, or None where its
        # baseline stands at every key
        cols = iter(cols)
        columns = [next(cols) if nf.base is None else None for nf in nfs]
        for j, nf in enumerate(nfs):
            if nf.base is None or nf.trie is None:
                continue
            m.lookups += len(keys)
            m.trie_edges += len(keys)
            bj = nf.base
            col = [bj if d is None else add(bj, d) for d in map(nf.trie.get, keys)]
            if any(map(is_zero, col)):
                # a vanishing factor drops its key before any later probe
                mask = [not is_zero(v) for v in col]
                keys = list(compress(keys, mask))
                columns = [c if c is None else list(compress(c, mask)) for c in columns]
                col = list(compress(col, mask))
            columns[j] = col
        if ring is None:
            outs = list(map(nf_product, zip(*[
                repeat(nf.base) if col is None else col for nf, col in zip(nfs, columns)
            ])))
        else:
            # multiply left to right, leaving out a baseline that is the unit
            mul, one = ring.mul, ring.one
            outs = None
            for nf, col in zip(nfs, columns):
                if col is None:
                    if nf.base == one:
                        continue
                    col = repeat(nf.base, len(keys))
                if outs is None:
                    outs = col
                else:
                    outs = map(mul, outs, col)
                    m.ring_mults += len(keys)
            outs = list(outs)
        if any(map(is_zero, outs)):
            mask = [not is_zero(v) for v in outs]
            keys, outs = list(compress(keys, mask)), list(compress(outs, mask))
        trie, base = tries.keep(ts, keys, outs, vops), None
    same = vops.same
    for nf in nfs:
        if nf.trie is trie and same(nf.base, base):
            return nf
    return MapNF(space, trie, base)


# the blunt oracle -------------------------------------------------------------

def naive_multiply(x: Term, y: Term) -> NormalForm:
    """Product by full distributivity; exponential blow-ups accepted.

    Every cross pair of generators is expanded, simplified by the delta
    rules and componentwise tensor multiplication, and the pile of results
    is normalised at the end. Differential-testing oracle only.
    """
    if x.space != y.space:
        raise SpaceError(f"product factors live in {x.space} and {y.space}")
    return normalize(_naive_term(x, y))


def _naive_term(x: Term, y: Term) -> Term:
    space = x.space
    ring = space.ring
    m = metrics.current
    parts = []
    ys = list(linear_combination(y))
    for cx, gx in linear_combination(x):
        for cy, gy in ys:
            m.pair_products += 1
            t = _gen_pair(gx, gy, space)
            if t is None:
                continue
            c = ring.mul(cx, cy)
            m.ring_mults += 1
            parts.append(scaled(c, t))
    return sum_terms(space, parts)


def _gen_pair(gx, gy, space):
    if isinstance(gx, MulGen):
        return _naive_term(force_product(gx), GenTerm(space, gy))
    if isinstance(gy, MulGen):
        return _naive_term(GenTerm(space, gx), force_product(gy))
    if isinstance(gx, OneGen):
        return GenTerm(space, gy)
    if isinstance(gy, OneGen):
        return GenTerm(space, gx)
    if isinstance(gx, WildOneGen):
        return GenTerm(space, gy)
    if isinstance(gy, WildOneGen):
        return GenTerm(space, gx)
    if isinstance(gx, InjGen):
        return GenTerm(space, gx) if gx.value == gy.value else None
    if isinstance(gx, WildMapsToGen):
        if isinstance(gy, WildMapsToGen):
            return wild_maps_to(_naive_term(gx.body, gy.body), space)
        return maps_to(gy.key, _naive_term(gx.body, gy.body), space)
    if isinstance(gx, MapsToGen):
        if isinstance(gy, WildMapsToGen):
            return maps_to(gx.key, _naive_term(gx.body, gy.body), space)
        if gx.key != gy.key:
            return None
        return maps_to(gx.key, _naive_term(gx.body, gy.body), space)
    if isinstance(gx, TensorGen):
        return tensor(_naive_term(gx.lhs, gy.lhs), _naive_term(gx.rhs, gy.rhs))
    if isinstance(gx, PairGen):
        return pair(_naive_term(gx.lhs, gy.lhs), _naive_term(gx.rhs, gy.rhs))
    raise SpaceError(f"cannot multiply generators of {space}")


# embeddings and the triangle query --------------------------------------------

def embed(x, source, target):
    """Send a chain over the attributes `source` into the compact chain over
    `target`, widening free factors and filling missing attributes with the
    wildcard. `source` and `target` are (name, prim) lists; the source
    attributes must appear in the target in the same order (reorder
    upstream). A form embeds as a form, keeping every trie whose level only
    widens; a term is normalised, embedded and read back."""
    if isinstance(x, Term):
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
    return map_payloads(nf, lambda v: _embed(v, src, tgt, out.rhs), NF_VOPS, out)


def triangle(x: Term, y: Term, z: Term) -> NormalForm:
    """Cyclic three-way join over attributes (A, B), (A, C), (B, C)."""
    pa, pb = chain_prims(x.space)
    pa2, pc = chain_prims(y.space)
    pb2, pc2 = chain_prims(z.space)
    if pa != pa2 or pb != pb2 or pc != pc2:
        raise SpaceError("triangle inputs do not share attribute types")
    tgt = [("A", pa), ("B", pb), ("C", pc)]
    return nf_product([
        embed(normalize(x), [("A", pa), ("B", pb)], tgt),
        embed(normalize(y), [("A", pa), ("C", pc)], tgt),
        embed(normalize(z), [("B", pb), ("C", pc)], tgt),
    ])
