"""Natural isomorphisms between the module constructions.

Each entry is a pair of mutually inverse linear maps on symbolic terms.
They are the machinery that lets one representation be traded for another:
keyed forms for sums and pairs of keys decompose level by level (the
generic-trie pattern), free modules over pairs trade for tensor products,
and compact spaces split into their finite part plus the baseline.

Each direction names its output space and the image of one generator;
`terms.linear_map` extends that to every term, forcing symbolic products
first, so a zero term maps to the zero of the output space.

The three rows of the catalogue involving the trivial one-point module
have no term-level content here, since the zero term of any space plays
that role; they are deliberately unhoused.

Converting from the compact side of a tensor isomorphism expands
structure: `free_prod` backward turns a product of sums into a
quadratically larger sum over pairs. Forward directions are linear.
"""

from .normal import normalize
from .prims import Prod, Sum, Unit, left, right
from .spaces import (
    Biproduct,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    Scalar,
    SpaceError,
    Tensor,
)
from .terms import (
    Term,
    WildMapsToGen,
    WildOneGen,
    inject,
    linear_map,
    maps_to,
    one,
    pair,
    proj1,
    proj2,
    scale,
    tensor,
    wild_maps_to,
    wild_one,
    zero,
)


def _expect(cond, space, name):
    if not cond:
        raise SpaceError(f"{name} does not apply to {space}")


# F[1] ≅ K --------------------------------------------------------------------

def _free_unit_fwd(t):
    s = t.space
    _expect(isinstance(s, Free) and isinstance(s.prim, Unit), s, "free_unit")
    out = Scalar(s.ring)
    return linear_map(t, out, lambda g: one(s.ring))


def _free_unit_bwd(t):
    s = t.space
    _expect(isinstance(s, Scalar), s, "free_unit (backward)")
    out = Free(s.ring, Unit())
    return linear_map(t, out, lambda g: inject((), out))


# 1 ⇒ U ≅ U -------------------------------------------------------------------

def _cp1_fwd(t):
    s = t.space
    _expect(isinstance(s, FinMap) and isinstance(s.prim, Unit), s, "cp1")
    return linear_map(t, s.value, lambda g: g.body)


def _cp1_bwd(t):
    out = FinMap(t.space.ring, Unit(), t.space)
    return maps_to((), t, out)


# A ⇒ K ≅ F[A] ----------------------------------------------------------------

def _map_scalar_fwd(t):
    s = t.space
    _expect(isinstance(s, FinMap) and isinstance(s.value, Scalar), s, "map_scalar")
    out = Free(s.ring, s.prim)

    def act(g):
        return scale(normalize(g.body).value, inject(g.key, out))

    return linear_map(t, out, act)


def _map_scalar_bwd(t):
    s = t.space
    _expect(isinstance(s, Free), s, "map_scalar (backward)")
    out = FinMap(s.ring, s.prim, Scalar(s.ring))
    return linear_map(t, out, lambda g: maps_to(g.value, one(s.ring), out))


# F[A + B] ≅ F[A] ⊕ F[B] ------------------------------------------------------

def _free_sum_fwd(t):
    s = t.space
    _expect(isinstance(s, Free) and isinstance(s.prim, Sum), s, "free_sum")
    la = Free(s.ring, s.prim.lhs)
    rb = Free(s.ring, s.prim.rhs)
    out = Biproduct(la, rb)

    def act(g):
        tag, v = g.value
        if tag == "L":
            return pair(inject(v, la), zero(rb))
        return pair(zero(la), inject(v, rb))

    return linear_map(t, out, act)


def _free_sum_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Biproduct) and isinstance(s.lhs, Free) and isinstance(s.rhs, Free),
        s,
        "free_sum (backward)",
    )
    out = Free(s.ring, Sum(s.lhs.prim, s.rhs.prim))

    def act(g):
        lpart = linear_map(g.lhs, out, lambda h: inject(left(h.value), out))
        rpart = linear_map(g.rhs, out, lambda h: inject(right(h.value), out))
        return lpart + rpart

    return linear_map(t, out, act)


# F[A × B] ≅ F[A] ⊗ F[B] ------------------------------------------------------

def _free_prod_fwd(t):
    s = t.space
    _expect(isinstance(s, Free) and isinstance(s.prim, Prod), s, "free_prod")
    fa = Free(s.ring, s.prim.fst)
    fb = Free(s.ring, s.prim.snd)
    out = Tensor(fa, fb)
    return linear_map(t, out, lambda g: tensor(inject(g.value[0], fa), inject(g.value[1], fb)))


def _free_prod_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Tensor) and isinstance(s.lhs, Free) and isinstance(s.rhs, Free),
        s,
        "free_prod (backward)",
    )
    out = Free(s.ring, Prod(s.lhs.prim, s.rhs.prim))

    def act(g):
        return linear_map(
            g.lhs,
            out,
            lambda gu: linear_map(
                g.rhs, out, lambda gv: inject((gu.value, gv.value), out)
            ),
        )

    return linear_map(t, out, act)


# (A + B) ⇒ U ≅ (A ⇒ U) ⊕ (B ⇒ U) --------------------------------------------

def _cp_sum_fwd(t):
    s = t.space
    _expect(isinstance(s, FinMap) and isinstance(s.prim, Sum), s, "cp_sum")
    ma = FinMap(s.ring, s.prim.lhs, s.value)
    mb = FinMap(s.ring, s.prim.rhs, s.value)
    out = Biproduct(ma, mb)

    def act(g):
        tag, v = g.key
        if tag == "L":
            return pair(maps_to(v, g.body, ma), zero(mb))
        return pair(zero(ma), maps_to(v, g.body, mb))

    return linear_map(t, out, act)


def _cp_sum_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Biproduct)
        and isinstance(s.lhs, FinMap)
        and isinstance(s.rhs, FinMap)
        and s.lhs.value == s.rhs.value,
        s,
        "cp_sum (backward)",
    )
    out = FinMap(s.ring, Sum(s.lhs.prim, s.rhs.prim), s.lhs.value)

    def act(g):
        lpart = linear_map(g.lhs, out, lambda h: maps_to(left(h.key), h.body, out))
        rpart = linear_map(g.rhs, out, lambda h: maps_to(right(h.key), h.body, out))
        return lpart + rpart

    return linear_map(t, out, act)


# (A × B) ⇒ U ≅ A ⇒ B ⇒ U ----------------------------------------------------

def _cp_prod_fwd(t):
    s = t.space
    _expect(isinstance(s, FinMap) and isinstance(s.prim, Prod), s, "cp_prod")
    inner = FinMap(s.ring, s.prim.snd, s.value)
    out = FinMap(s.ring, s.prim.fst, inner)

    def act(g):
        a, b = g.key
        return maps_to(a, maps_to(b, g.body, inner), out)

    return linear_map(t, out, act)


def _cp_prod_bwd(t):
    s = t.space
    _expect(
        isinstance(s, FinMap) and isinstance(s.value, FinMap), s, "cp_prod (backward)"
    )
    out = FinMap(s.ring, Prod(s.prim, s.value.prim), s.value.value)

    def act(g):
        a = g.key
        return linear_map(g.body, out, lambda h: maps_to((a, h.key), h.body, out))

    return linear_map(t, out, act)


# A ⇒ (U ⊕ V) ≅ (A ⇒ U) ⊕ (A ⇒ V) --------------------------------------------

def _map_biprod_fwd(t):
    s = t.space
    _expect(isinstance(s, FinMap) and isinstance(s.value, Biproduct), s, "map_biprod")
    mu = FinMap(s.ring, s.prim, s.value.lhs)
    mv = FinMap(s.ring, s.prim, s.value.rhs)
    out = Biproduct(mu, mv)

    def act(g):
        return pair(maps_to(g.key, proj1(g.body), mu), maps_to(g.key, proj2(g.body), mv))

    return linear_map(t, out, act)


def _map_biprod_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Biproduct)
        and isinstance(s.lhs, FinMap)
        and isinstance(s.rhs, FinMap)
        and s.lhs.prim == s.rhs.prim,
        s,
        "map_biprod (backward)",
    )
    value = Biproduct(s.lhs.value, s.rhs.value)
    out = FinMap(s.ring, s.lhs.prim, value)

    def act(g):
        lpart = linear_map(
            g.lhs, out, lambda h: maps_to(h.key, pair(h.body, zero(value.rhs)), out)
        )
        rpart = linear_map(
            g.rhs, out, lambda h: maps_to(h.key, pair(zero(value.lhs), h.body), out)
        )
        return lpart + rpart

    return linear_map(t, out, act)


# A ⇒ (U ⊗ V) ≅ (A ⇒ U) ⊗ V --------------------------------------------------

def _map_tensor_fwd(t):
    s = t.space
    _expect(isinstance(s, FinMap) and isinstance(s.value, Tensor), s, "map_tensor")
    mu = FinMap(s.ring, s.prim, s.value.lhs)
    out = Tensor(mu, s.value.rhs)

    def act(g):
        a = g.key
        return linear_map(
            g.body,
            out,
            lambda h: tensor(maps_to(a, h.lhs, mu), h.rhs),
        )

    return linear_map(t, out, act)


def _map_tensor_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Tensor) and isinstance(s.lhs, FinMap), s, "map_tensor (backward)"
    )
    value = Tensor(s.lhs.value, s.rhs)
    out = FinMap(s.ring, s.lhs.prim, value)

    def act(g):
        v = g.rhs
        return linear_map(g.lhs, out, lambda h: maps_to(h.key, tensor(h.body, v), out))

    return linear_map(t, out, act)


# A ⇒ U ≅ F[A] ⊗ U and A ⇒* U ≅ F*[A] ⊗ U ------------------------------------

def _copower_tensor_fwd(t):
    s = t.space
    _expect(isinstance(s, (FinMap, CompactMap)), s, "copower_tensor")
    compact = isinstance(s, CompactMap)
    fa = CompactFree(s.ring, s.prim) if compact else Free(s.ring, s.prim)
    out = Tensor(fa, s.value)

    def act(g):
        if isinstance(g, WildMapsToGen):
            return tensor(wild_one(fa), g.body)
        return tensor(inject(g.key, fa), g.body)

    return linear_map(t, out, act)


def _copower_tensor_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Tensor) and isinstance(s.lhs, (Free, CompactFree)),
        s,
        "copower_tensor (backward)",
    )
    compact = isinstance(s.lhs, CompactFree)
    out = (
        CompactMap(s.ring, s.lhs.prim, s.rhs)
        if compact
        else FinMap(s.ring, s.lhs.prim, s.rhs)
    )

    def act(g):
        v = g.rhs

        def inner(h):
            if isinstance(h, WildOneGen):
                return wild_maps_to(v, out)
            return maps_to(h.value, v, out)

        return linear_map(g.lhs, out, inner)

    return linear_map(t, out, act)


# F*[A] ≅ F[A] ⊕ K ------------------------------------------------------------

def _compact_split_fwd(t):
    s = t.space
    _expect(isinstance(s, CompactFree), s, "compact_split")
    fa = Free(s.ring, s.prim)
    sc = Scalar(s.ring)
    out = Biproduct(fa, sc)

    def act(g):
        if isinstance(g, WildOneGen):
            return pair(zero(fa), one(s.ring))
        return pair(inject(g.value, fa), zero(sc))

    return linear_map(t, out, act)


def _compact_split_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Biproduct)
        and isinstance(s.lhs, Free)
        and isinstance(s.rhs, Scalar),
        s,
        "compact_split (backward)",
    )
    out = CompactFree(s.ring, s.lhs.prim)

    def act(g):
        fin = linear_map(g.lhs, out, lambda h: inject(h.value, out))
        base = scale(normalize(g.rhs).value, wild_one(out))
        return fin + base

    return linear_map(t, out, act)


# A ⇒* U ≅ (A ⇒ U) ⊕ U --------------------------------------------------------

def _compactmap_split_fwd(t):
    s = t.space
    _expect(isinstance(s, CompactMap), s, "compactmap_split")
    fin = FinMap(s.ring, s.prim, s.value)
    out = Biproduct(fin, s.value)

    def act(g):
        if isinstance(g, WildMapsToGen):
            return pair(zero(fin), g.body)
        return pair(maps_to(g.key, g.body, fin), zero(s.value))

    return linear_map(t, out, act)


def _compactmap_split_bwd(t):
    s = t.space
    _expect(
        isinstance(s, Biproduct)
        and isinstance(s.lhs, FinMap)
        and s.lhs.value == s.rhs,
        s,
        "compactmap_split (backward)",
    )
    out = CompactMap(s.ring, s.lhs.prim, s.rhs)

    def act(g):
        fin = linear_map(g.lhs, out, lambda h: maps_to(h.key, h.body, out))
        return fin + wild_maps_to(g.rhs, out)

    return linear_map(t, out, act)


ISOS = {
    "free_unit": (_free_unit_fwd, _free_unit_bwd),
    "cp1": (_cp1_fwd, _cp1_bwd),
    "map_scalar": (_map_scalar_fwd, _map_scalar_bwd),
    "free_sum": (_free_sum_fwd, _free_sum_bwd),
    "free_prod": (_free_prod_fwd, _free_prod_bwd),
    "cp_sum": (_cp_sum_fwd, _cp_sum_bwd),
    "cp_prod": (_cp_prod_fwd, _cp_prod_bwd),
    "map_biprod": (_map_biprod_fwd, _map_biprod_bwd),
    "map_tensor": (_map_tensor_fwd, _map_tensor_bwd),
    "copower_tensor": (_copower_tensor_fwd, _copower_tensor_bwd),
    "compact_split": (_compact_split_fwd, _compact_split_bwd),
    "compactmap_split": (_compactmap_split_fwd, _compactmap_split_bwd),
}


def iso(name: str, direction: str, t: Term) -> Term:
    """Apply a named isomorphism forward or backward to a term."""
    try:
        fwd, bwd = ISOS[name]
    except KeyError:
        raise SpaceError(f"unknown isomorphism {name!r}; known: {sorted(ISOS)}") from None
    if direction == "fwd":
        return fwd(t)
    if direction == "bwd":
        return bwd(t)
    raise SpaceError(f"direction must be 'fwd' or 'bwd', not {direction!r}")
