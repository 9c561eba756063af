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
"""

from .prims import PrimSet
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
            from .normal import force_product

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
    from .normal import nf_weight
    from .product import multiply

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
