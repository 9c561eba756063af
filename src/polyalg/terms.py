"""Symbolic module elements.

A term is a tagged tree of zero, addition, scalar multiple and generator
nodes; the generator variant depends on the space. Constructors allocate a
single node and never normalise, so sums, scalings, tensor pairs and
products stay symbolic until some context forces simplification. Terms are
immutable and may share subterms freely.

Products are a generator node of their own (`MulGen`); nested products
flatten into one n-ary factor list at construction so that later
simplification can schedule all factors jointly instead of folding
pairwise.

Terms are the library's input language, and this module is their bridge
to the engine: `normalize` simplifies a term into the one canonical form
of its space, `readback` reads a form back as a term, and `multiply`,
`triangle` and the blunt `naive_multiply` evaluate products of terms. The
engine itself (`normal`, `product`, `relation`, `relational`) builds forms
from rows and never imports this module, so no command of the CLI
compiles it.
"""

from . import metrics, tries
from .normal import (
    NF_VOPS,
    STAR,
    MapNF,
    NormalForm,
    PairNF,
    ScalarNF,
    enumerate_nf,
    nf_equal,
    nf_scale,
    nf_tensor,
    nf_weight,
    payload_ops,
    zero_nf,
)
from .prims import PrimSet
from .product import nf_join, nf_product
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
    tensor_chain,
)


class Term:
    __slots__ = ("space",)

    def __init__(self, space: Space):
        self.space = space

    @property
    def ring(self):
        return self.space.ring

    # algebra sugar; `t * u` is the algebra product, `r * t` a scalar multiple
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, Term):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, r):
        return scale(r, self)

    def __repr__(self):
        from .render import render_term

        return render_term(self)


class ZeroTerm(Term):
    __slots__ = ()


class AddTerm(Term):
    __slots__ = ("lhs", "rhs")

    def __init__(self, space, lhs, rhs):
        super().__init__(space)
        self.lhs = lhs
        self.rhs = rhs


class ScaleTerm(Term):
    __slots__ = ("coeff", "body")

    def __init__(self, space, coeff, body):
        super().__init__(space)
        self.coeff = coeff
        self.body = body


class GenTerm(Term):
    __slots__ = ("gen",)

    def __init__(self, space, gen):
        super().__init__(space)
        self.gen = gen


# generator variants -------------------------------------------------------

class Gen:
    __slots__ = ()


class OneGen(Gen):
    """The ring unit as the scalar space's generator."""

    __slots__ = ()


class InjGen(Gen):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class WildOneGen(Gen):
    """The adjoined unit of a compact free module."""

    __slots__ = ()


class PairGen(Gen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs


class MapsToGen(Gen):
    __slots__ = ("key", "body")

    def __init__(self, key, body):
        self.key = key
        self.body = body


class WildMapsToGen(Gen):
    """Wildcard entry: the same value at every key, the map's baseline."""

    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body


class TensorGen(Gen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs


class MulGen(Gen):
    """Unevaluated algebra product of same-space factors."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors


_ONE = OneGen()
_WILD = WildOneGen()


# constructors --------------------------------------------------------------

def zero(space: Space) -> Term:
    return ZeroTerm(space)


def is_zero_term(t: Term) -> bool:
    return isinstance(t, ZeroTerm)


def _require_same_space(x: Term, y: Term, what: str):
    if x.space != y.space:
        raise SpaceError(f"{what} needs matching spaces, got {x.space} and {y.space}")


def add(x: Term, y: Term) -> Term:
    _require_same_space(x, y, "addition")
    return AddTerm(x.space, x, y)


def scale(r, x: Term) -> Term:
    ring = x.space.ring
    if not ring.contains(r):
        raise SpaceError(f"{r!r} is not a coefficient of the {ring} ring")
    return ScaleTerm(x.space, r, x)


def neg(x: Term) -> Term:
    ring = x.space.ring
    return ScaleTerm(x.space, ring.neg(ring.one), x)


def scaled(c, x: Term) -> Term:
    """Like scale, but elides the wrapper for the unit coefficient."""
    return x if c == x.space.ring.one else scale(c, x)


def one(ring) -> Term:
    return GenTerm(Scalar(ring), _ONE)


def scalar(ring, value) -> Term:
    return scale(ring.coerce(value), one(ring))


def inject(a, space) -> Term:
    if not isinstance(space, (Free, CompactFree)):
        raise SpaceError(f"generators live in free modules, not {space}")
    space.prim.check(a)
    return GenTerm(space, InjGen(a))


def wild_one(space) -> Term:
    if not isinstance(space, CompactFree):
        raise SpaceError(f"the adjoined unit lives in compact free modules, not {space}")
    return GenTerm(space, _WILD)


def maps_to(key, body: Term, space) -> Term:
    if not isinstance(space, (FinMap, CompactMap)):
        raise SpaceError(f"keyed entries live in map modules, not {space}")
    space.prim.check(key)
    if body.space != space.value:
        raise SpaceError(f"entry value lives in {body.space}, expected {space.value}")
    return GenTerm(space, MapsToGen(key, body))


def wild_maps_to(body: Term, space) -> Term:
    if not isinstance(space, CompactMap):
        raise SpaceError(f"wildcard entries live in compact map modules, not {space}")
    if body.space != space.value:
        raise SpaceError(f"baseline value lives in {body.space}, expected {space.value}")
    return GenTerm(space, WildMapsToGen(body))


def tensor(u: Term, v: Term) -> Term:
    """u ⊗ v; bilinear, so a zero factor gives the zero term, which sums drop."""
    if is_zero_term(u) or is_zero_term(v):
        return zero(Tensor(u.space, v.space))
    return GenTerm(Tensor(u.space, v.space), TensorGen(u, v))


def pair(u: Term, v: Term) -> Term:
    return GenTerm(Biproduct(u.space, v.space), PairGen(u, v))


def inj1(u: Term, rhs_space: Space) -> Term:
    return pair(u, zero(rhs_space))


def inj2(lhs_space: Space, v: Term) -> Term:
    return pair(zero(lhs_space), v)


def mul(x: Term, y: Term) -> Term:
    _require_same_space(x, y, "multiplication")

    def factors_of(t):
        if isinstance(t, GenTerm) and isinstance(t.gen, MulGen):
            return t.gen.factors
        return (t,)

    return GenTerm(x.space, MulGen(factors_of(x) + factors_of(y)))


def product(factors) -> Term:
    factors = list(factors)
    if not factors:
        raise SpaceError("a product needs at least one factor")
    t = factors[0]
    for f in factors[1:]:
        t = mul(t, f)
    return t


def unit_one(space: Space) -> Term:
    """Multiplicative unit of the algebra, where one exists.

    Free modules and finite maps over an infinite index set have no unit;
    over a finite index set the unit is the sum of all generators. Compact
    spaces always have the distinct adjoined unit.
    """
    if isinstance(space, Scalar):
        return one(space.ring)
    if isinstance(space, CompactFree):
        return wild_one(space)
    if isinstance(space, CompactMap):
        return wild_maps_to(unit_one(space.value), space)
    if isinstance(space, Tensor):
        return tensor(unit_one(space.lhs), unit_one(space.rhs))
    if isinstance(space, Biproduct):
        return pair(unit_one(space.lhs), unit_one(space.rhs))
    if isinstance(space, Free):
        if space.prim.finite:
            return sum_terms(space, [inject(a, space) for a in space.prim.values()])
        raise SpaceError(f"no unit in non-compact space {space}")
    if isinstance(space, FinMap):
        if space.prim.finite:
            u = unit_one(space.value)
            return sum_terms(space, [maps_to(a, u, space) for a in space.prim.values()])
        raise SpaceError(f"no unit in non-compact space {space}")
    raise SpaceError(f"no unit in {space}")


def sum_terms(space: Space, ts) -> Term:
    """Sum a list as a balanced tree, keeping nesting depth logarithmic."""
    ts = [t for t in ts if not is_zero_term(t)]
    if not ts:
        return zero(space)
    while len(ts) > 1:
        nxt = [add(ts[i], ts[i + 1]) for i in range(0, len(ts) - 1, 2)]
        if len(ts) % 2:
            nxt.append(ts[-1])
        ts = nxt
    return ts[0]


# traversal ------------------------------------------------------------------

def linear_combination(t: Term):
    """Yield (coefficient, generator) pairs of the additive spine.

    Iterative, so arbitrarily deep sums and scalings are safe. Zero branches
    are skipped; coefficients multiply down through scalings.
    """
    ring = t.space.ring
    mul_ = ring.mul
    stack = [(ring.one, t)]
    while stack:
        c, node = stack.pop()
        while True:
            if isinstance(node, GenTerm):
                yield c, node.gen
                break
            if isinstance(node, ZeroTerm):
                break
            if isinstance(node, AddTerm):
                stack.append((c, node.rhs))
                node = node.lhs
                continue
            # ScaleTerm
            c = mul_(c, node.coeff)
            node = node.body


def linear_map(t: Term, out: Space, gen_fn) -> Term:
    """The linear map into `out` that sends each generator `g` to `gen_fn(g)`.

    By the universal property of free modules a linear map is fixed by its
    images of the generators, so this is the one linear extension every
    term rewrite uses. Symbolic products are forced first and their
    generators mapped in turn; a zero term maps to the zero of `out`.
    """
    parts = []
    for c, g in linear_combination(t):
        if isinstance(g, MulGen):
            img = linear_map(force_product(g), out, gen_fn)
        else:
            img = gen_fn(g)
        parts.append(scaled(c, img))
    return sum_terms(out, parts)


def weight(t: Term):
    """Generalised cardinality, computed without normalising.

    Additive over sums, multiplicative over tensor pairs, transparent to
    keys; symbolic products are the one case that forces simplification.
    """
    ring = t.space.ring
    total = ring.zero
    for c, g in linear_combination(t):
        total = ring.add(total, ring.mul(c, _gen_weight(g, t.space, ring)))
    return total


def _gen_weight(g, space, ring):
    if isinstance(g, (OneGen, InjGen, WildOneGen)):
        return ring.one
    if isinstance(g, (MapsToGen, WildMapsToGen)):
        return weight(g.body)
    if isinstance(g, PairGen):
        return ring.add(weight(g.lhs), weight(g.rhs))
    if isinstance(g, TensorGen):
        return ring.mul(weight(g.lhs), weight(g.rhs))
    # product: weigh its simplified value
    return nf_weight(multiply(g.factors))


def fold(t: Term, target: Space, gen_action, wild_action=None) -> Term:
    """The unique linear map determined by its action on generators.

    For free modules `gen_action(a)` gives the image of the generator at
    `a`; compact free modules additionally need `wild_action`, a target
    term, as the image of the adjoined unit. For map modules the action
    takes `(key, value_term)` and the wildcard action takes the baseline
    value term. Built on `linear_map`, so zero, sums, scalings and symbolic
    products map as linearity forces.
    """
    space = t.space
    if not isinstance(space, (Free, CompactFree, FinMap, CompactMap)):
        raise SpaceError(f"fold is defined on free and map modules, not {space}")

    def act(g):
        if isinstance(g, InjGen):
            img = gen_action(g.value)
        elif isinstance(g, WildOneGen):
            if wild_action is None:
                raise SpaceError("term has a wildcard unit but no wildcard action was given")
            img = wild_action
        elif isinstance(g, MapsToGen):
            img = gen_action(g.key, g.body)
        elif isinstance(g, WildMapsToGen):
            if wild_action is None:
                raise SpaceError("term has a wildcard entry but no wildcard action was given")
            img = wild_action(g.body)
        else:
            raise SpaceError(f"unexpected generator in {space}")
        if img.space != target:
            raise SpaceError(f"action produced {img.space}, expected {target}")
        return img

    return linear_map(t, target, act)


def fmap(t: Term, f, value_action=None, target_index: PrimSet | None = None) -> Term:
    """Functorial action on the index set, relabelling generators or keys.

    `f` maps key values; for map modules `value_action` (default identity)
    is applied to entry values and to the baseline, which the wildcard is
    transparent to.
    """
    space = t.space
    if isinstance(space, (Free, CompactFree)):
        prim = target_index or space.prim
        out = (
            Free(space.ring, prim)
            if isinstance(space, Free)
            else CompactFree(space.ring, prim)
        )
        wild = wild_one(out) if isinstance(space, CompactFree) else None
        return fold(t, out, lambda a: inject(f(a), out), wild)
    if isinstance(space, (FinMap, CompactMap)):
        act = value_action or (lambda u: u)
        prim = target_index or space.prim
        # resolve the target value space from the action on a throwaway zero
        act_space = act(zero(space.value)).space
        out = (
            FinMap(space.ring, prim, act_space)
            if isinstance(space, FinMap)
            else CompactMap(space.ring, prim, act_space)
        )
        wild = (lambda u: wild_maps_to(act(u), out)) if isinstance(space, CompactMap) else None
        return fold(t, out, lambda a, u: maps_to(f(a), act(u), out), wild)
    raise SpaceError(f"fmap acts on free and map modules, not {space}")


def tensor_map(t: Term, left_action, right_action) -> Term:
    """Functorial action on a tensor product, one linear map per factor."""
    space = t.space
    if not isinstance(space, Tensor):
        raise SpaceError(f"tensor_map acts on tensor products, not {space}")
    # each factor's target space, from its action on a throwaway zero
    out = Tensor(left_action(zero(space.lhs)).space, right_action(zero(space.rhs)).space)
    return linear_map(t, out, lambda g: tensor(left_action(g.lhs), right_action(g.rhs)))


def sum_over_index(t: Term) -> Term:
    """Forget the keys of a finite map, adding all values together."""
    space = t.space
    if not isinstance(space, FinMap):
        raise SpaceError(f"only finite maps can be summed out, not {space}")
    return fold(t, space.value, lambda a, u: u)


def proj1(t: Term) -> Term:
    if not isinstance(t.space, Biproduct):
        raise SpaceError(f"projection needs a biproduct, not {t.space}")
    return linear_map(t, t.space.lhs, lambda g: g.lhs)


def proj2(t: Term) -> Term:
    if not isinstance(t.space, Biproduct):
        raise SpaceError(f"projection needs a biproduct, not {t.space}")
    return linear_map(t, t.space.rhs, lambda g: g.rhs)


# forms of terms: normalisation and read-back --------------------------------

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
    a term, for `linear_map`, which acts generator by generator."""
    return readback(multiply(g.factors))


def _gen_nf(c, g, space) -> NormalForm:
    if isinstance(g, OneGen):
        return ScalarNF(space, c)
    if isinstance(g, PairGen):
        return PairNF(space, nf_scale(c, normalize(g.lhs)), nf_scale(c, normalize(g.rhs)))
    if isinstance(g, TensorGen):
        return nf_scale(c, nf_tensor(normalize(g.lhs), normalize(g.rhs), space))
    if isinstance(g, MulGen):
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


def equal(x: Term, y: Term) -> bool:
    """Extensional equality of terms, decided by normalisation."""
    if x.space != y.space:
        raise SpaceError(f"cannot compare terms of {x.space} and {y.space}")
    return nf_equal(normalize(x), normalize(y))


# products of terms ----------------------------------------------------------

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
