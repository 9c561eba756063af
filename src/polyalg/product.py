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
product (`nf_product`: symbolic products and `multiply`) splits pairs,
multiplies scalars and hands keyed forms to `nf_join` with positions
None, each in the output space and holding every level.

The evaluator works level by level, one `_level` for every keyed level: a
free level multiplies ring coefficients, any other multiplies the factor
values below each key. At each level the factors split into those that
restrict the support, whose baseline is None, and those that do not. If a
restricting factor exists, their trie levels are intersected by
`tries.walk`, which iterates the one with the fewest keys and probes the
others by hash, so a key missing from any restricting factor is dropped
before anything below it is visited. The level then works a column at a
time: a non-restricting factor with a trie is probed at every surviving
key and adds its baseline to its deviation there; one without a trie
gives its baseline at every key. A free level multiplies its columns left
to right in factor order, the coefficients of ended factors each in its
own place, so real products are exact, and leaves out a baseline equal to
the ring's one. A factor that vanishes at a key drops the key before any
later factor is probed or any deeper work is charged. A level where every
factor carries a baseline is written with x_j = b_j + d_j, its baseline
and its deviations, as b_1⋯b_n + Σ_j x_1⋯x_{j−1} · d_j · b_{j+1}⋯b_n: the
baselines' product is the output's baseline, and each summand is a level
restricted by d_j, intersected as above, so only the factors' explicit
keys and what lies below them are visited.

All n factors are scheduled jointly: the recursion at a key carries one
value per factor into the next level rather than folding pairwise, which
is what makes the evaluation worst-case optimal on cyclic joins such as
the triangle. An output that equals one of the inputs is that input, so
unchanged levels are shared, not rebuilt: `tries.keep` returns an input's
trie level, a level whose trie and baseline are an input form's is that
form when its space is the output level's, and below a key where every
factor but one has ended with the coefficient one, the remaining factor's
form is the output's when its space is.

`embed` widens a form into a larger compact chain, filling the attributes
it lacks with wildcard levels: `Relation` widens a plain chain's form with
it, and the tests and the naive triangle benchmark use it as the
reference that joins are checked against; no join calls it.
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
    payload_ops,
    readback,
    ring_vops,
    unit_nf,
    zero_nf,
)
from .spaces import CompactFree, Free, SpaceError, Tensor, tensor_chain
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
    if len(xs) == 1 and xs[0].space is space:
        return xs[0]
    # one (here, live, below) plan per keyed level of `space`, down to a
    # free level or to values that are pairs or scalars, built from the last
    depth, s = 1, space
    while s.shape == "map" and s.value.shape in ("free", "map"):
        depth, s = depth + 1, s.value
    plan = None
    for i in reversed(range(depth)):
        here = tuple(pos is None or i in pos for _, pos in factors)
        live = [j for j, (_, pos) in enumerate(factors) if pos is None or pos[-1] >= i]
        plan = (here, live[0] if len(live) == 1 else None, plan)
    return _level(xs, space, plan)


def _ring_product(ring, vals):
    """vals[0] * vals[1] * ..., multiplied left to right."""
    acc = vals[0]
    for v in vals[1:]:
        acc = ring.mul(acc, v)
    metrics.current.ring_mults += len(vals) - 1
    return acc


def _level(xs, space, plan):
    """One level of the joint product of `xs` in `space` by `plan`: the
    product form, or the input form it equals, which needs that form's
    space to be `space`. `plan` is (here, live, below): `here` flags the
    factors whose next attribute is this level, and every other factor is
    its own baseline at every key, a form passed down unchanged or, past
    its last attribute, its coefficient; `below` is the next level's plan,
    None where the values are pairs or scalars, and `live`, when there is
    one, the one factor with attributes at this level or after it.

    A free level multiplies its columns left to right in factor order; an
    all-baseline level adds its summands' levels in factor order, the
    summand of d_1 first, so a real deviation is a sum of those products,
    never a product less the baselines' product."""
    m = metrics.current
    here = plan[0]
    # plain loops: a comprehension costs a call per use, and a level has
    # few factors
    ts, bs = [], []
    for x, h in zip(xs, here):
        ts.append(x.trie if h else None)
        bs.append(x.base if h else x)
    if space.shape == "free":
        ring = space.ring
        vops = ring_vops(ring)
    else:
        ring, vops = None, NF_VOPS
    is_zero = vops.is_zero
    restricting, probed = [], False
    for t, b in zip(ts, bs):
        if b is None:
            restricting.append(t)
        elif t is not None:
            probed = True
    if not restricting:
        # every factor is its baseline plus its deviations, x_j = b_j + d_j:
        # x_1⋯x_n = b_1⋯b_n + Σ_j x_1⋯x_{j−1} · d_j · b_{j+1}⋯b_n, and each
        # summand is restricted by d_j, so only d_j's keys are visited
        trie = None
        for j, t in enumerate(ts):
            if t is not None:
                later = zip(xs[j + 1:], here[j + 1:])
                row = [*xs[:j], MapNF(xs[j].space, t, None),
                       *[MapNF(x.space, None, x.base) if h else x for x, h in later]]
                trie = tries.merge(trie, _level(row, space, plan).trie, vops)
        if ring is not None:
            base = _ring_product(ring, bs)
        else:
            base = _below([bs], space.value, plan[2])[0]
        if is_zero(base):
            base = None
    else:
        if m.trace is not None:
            # what the trace records only: `tries.walk` picks its own level
            tcs = [tries.count(t) for t in ts]
            enum_i = min((i for i, b in enumerate(bs) if b is None), key=lambda i: (tcs[i], i))
            m.trace.append((tuple(c + (b is not None) for c, b in zip(tcs, bs)), enum_i))
        keys, cols = tries.walk(restricting)
        # a column per factor: its payloads at `keys`, or None where its
        # baseline stands at every key
        cols = iter(cols)
        columns = []
        for b in bs:
            columns.append(next(cols) if b is None else None)
        for j, (t, bj) in enumerate(zip(ts, bs) if probed else ()):
            if bj is None or t is None:
                continue
            m.lookups += len(keys)
            m.trie_edges += len(keys)
            # at its last attribute a factor's payloads are coefficients,
            # whatever the level's
            ops = payload_ops(xs[j].space)
            col = [bj if d is None else ops.add(bj, d) for d in map(t.get, keys)]
            if any(map(ops.is_zero, col)):
                # a vanishing factor drops its key before any later probe
                mask = [not ops.is_zero(v) for v in col]
                keys = list(compress(keys, mask))
                columns = [c if c is None else list(compress(c, mask)) for c in columns]
                col = list(compress(col, mask))
            columns[j] = col
        if ring is None:
            for j, col in enumerate(columns):
                if col is None:
                    columns[j] = repeat(bs[j])
            outs = _below(zip(*columns), space.value, plan[2])
        else:
            # multiply left to right, leaving out a baseline that is the unit
            mul, one = ring.mul, ring.one
            outs = None
            for b, col in zip(bs, columns):
                if col is None:
                    if b == one:
                        continue
                    col = repeat(b, len(keys))
                if outs is None:
                    outs = col
                else:
                    outs = map(mul, outs, col)
                    m.ring_mults += len(keys)
            outs = list(outs)
        if any(map(is_zero, outs)):
            mask = [not is_zero(v) for v in outs]
            keys, outs = list(compress(keys, mask)), list(compress(outs, mask))
        trie, base = tries.keep(restricting, keys, outs, vops), None
    same = vops.same
    for x, h in zip(xs, here):
        if h and x.space is space and x.trie is trie and same(x.base, base):
            return x
    return MapNF(space, trie, base)


def _below(rows, space, plan):
    """The products in `space` of the rows of factor values under a
    level's keys, each by `plan`, or by `nf_product` where `plan` is None
    and the values are pairs or scalars. A row whose one live factor is
    already in `space`, every other factor being a coefficient equal to
    the unit, is that factor."""
    if plan is None:
        return list(map(nf_product, rows))
    live = plan[1]
    one = space.ring.one
    outs = []
    for row in rows:
        # every factor but the live one is a coefficient, and no form
        # equals the unit
        if live is not None and row[live].space is space and row.count(one) == len(row) - 1:
            outs.append(row[live])
        else:
            outs.append(_level(row, space, plan))
    return outs


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
    """Cyclic three-way join over attributes (A, B), (A, C), (B, C): each
    input a positioned factor of the compact chain over (A, B, C)."""
    prims = []
    for s in (x.space, y.space, z.space):
        if not (isinstance(s, Tensor) and isinstance(s.lhs, (Free, CompactFree))
                and isinstance(s.rhs, (Free, CompactFree))):
            raise SpaceError(f"{s} is not a chain of two free factors")
        prims.append((s.lhs.prim, s.rhs.prim))
    (pa, pb), (pa2, pc), (pb2, pc2) = prims
    if pa != pa2 or pb != pb2 or pc != pc2:
        raise SpaceError("triangle inputs do not share attribute types")
    out = tensor_chain(x.space.ring, [pa, pb, pc], compact=True)
    return nf_join([(normalize(x), (0, 1)), (normalize(y), (0, 2)), (normalize(z), (1, 2))], out)
