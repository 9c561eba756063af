"""Deterministic textual rendering of terms, normal forms and key paths."""

from . import tries
from .normal import MapNF, NormalForm, PairNF, ScalarNF
from .terms import (
    AddTerm,
    InjGen,
    MapsToGen,
    MulGen,
    OneGen,
    PairGen,
    ScaleTerm,
    TensorGen,
    Term,
    WildMapsToGen,
    WildOneGen,
    ZeroTerm,
)


def render_term(t: Term) -> str:
    """Fully parenthesised symbolic form, stable across runs."""
    ring = t.space.ring
    if isinstance(t, ZeroTerm):
        return "0"
    if isinstance(t, AddTerm):
        return f"({render_term(t.lhs)} + {render_term(t.rhs)})"
    if isinstance(t, ScaleTerm):
        return f"{ring.render(t.coeff)}*{render_term(t.body)}"
    g = t.gen
    if isinstance(g, OneGen) or isinstance(g, WildOneGen):
        return "1"
    if isinstance(g, InjGen):
        return f"<{t.space.prim.render(g.value)}>"
    if isinstance(g, MapsToGen):
        return f"({t.space.prim.render(g.key)} ↦ {render_term(g.body)})"
    if isinstance(g, WildMapsToGen):
        return f"(* ↦ {render_term(g.body)})"
    if isinstance(g, PairGen):
        return f"({render_term(g.lhs)}, {render_term(g.rhs)})"
    if isinstance(g, TensorGen):
        return f"({render_term(g.lhs)} ⊗ {render_term(g.rhs)})"
    if isinstance(g, MulGen):
        return "(" + " · ".join(render_term(f) for f in g.factors) + ")"
    return "?"


def render_nf(nf: NormalForm) -> str:
    ring = nf.space.ring
    if isinstance(nf, ScalarNF):
        return ring.render(nf.value)
    if isinstance(nf, MapNF):
        prim = nf.space.prim
        show = ring.render if nf.space.shape == "free" else render_nf
        parts = [] if nf.base is None else [f"*: {show(nf.base)}"]
        parts += [f"{prim.render(k)}: {show(v)}" for k, v in tries.items(prim, nf.trie)]
        return "{" + ", ".join(parts) + "}"
    if isinstance(nf, PairNF):
        return f"({render_nf(nf.lhs)}, {render_nf(nf.rhs)})"
    return "?"
