"""Shared random builders for terms over arbitrary spaces.

Seeded `random.Random` instances keep the law suites deterministic; the
hypothesis-based tests build their own strategies on top of these helpers.
"""

import random

import pytest

from polyalg import (
    BOOL,
    GF2,
    INT,
    REAL,
    STRING,
    Adjoined,
    Biproduct,
    Bool,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    Int64,
    Prod,
    Scalar,
    Str,
    Sum,
    Tensor,
    Unit,
    inject,
    left,
    maps_to,
    mul,
    one,
    pair,
    right,
    scale,
    sum_terms,
    tensor,
    wild_maps_to,
    wild_one,
    zero,
)

WORDS = ["", "a", "ab", "abc", "abd", "b", "ba", "q", "zz", "zebra"]


def rand_coeff(rng, ring, lo=-3, hi=3):
    if ring is GF2:
        return rng.random() < 0.6
    if ring is REAL:
        return round(rng.uniform(-3.0, 3.0), 3) or 1.0
    c = rng.randint(lo, hi)
    return c if c != 0 else 1


def rand_value(rng, prim):
    if isinstance(prim, Int64):
        return rng.randint(-6, 6)
    if isinstance(prim, Str):
        return rng.choice(WORDS)
    if isinstance(prim, Bool):
        return rng.random() < 0.5
    if isinstance(prim, Unit):
        return ()
    if isinstance(prim, Sum):
        if rng.random() < 0.5:
            return left(rand_value(rng, prim.lhs))
        return right(rand_value(rng, prim.rhs))
    if isinstance(prim, Prod):
        return (rand_value(rng, prim.fst), rand_value(rng, prim.snd))
    if isinstance(prim, Adjoined):
        if rng.random() < 0.15:
            return prim.marker
        return rand_value(rng, prim.base)
    raise AssertionError(prim)


def rand_term(rng, space, size=4, allow_mul=False):
    """A random symbolic term of the given space with about `size` generators."""
    parts = []
    for _ in range(rng.randint(0, size)):
        parts.append(_rand_gen(rng, space, size, allow_mul))
    if not parts:
        return zero(space)
    t = sum_terms(space, parts)
    if allow_mul and rng.random() < 0.2:
        t = mul(t, _rand_gen(rng, space, max(1, size // 2), False))
    return t


def _rand_gen(rng, space, size, allow_mul):
    ring = space.ring
    c = rand_coeff(rng, ring)
    if isinstance(space, Scalar):
        return scale(c, one(ring))
    if isinstance(space, Free):
        return scale(c, inject(rand_value(rng, space.prim), space))
    if isinstance(space, CompactFree):
        if rng.random() < 0.25:
            return scale(c, wild_one(space))
        return scale(c, inject(rand_value(rng, space.prim), space))
    if isinstance(space, FinMap):
        body = rand_term(rng, space.value, max(1, size - 1), allow_mul)
        return scale(c, maps_to(rand_value(rng, space.prim), body, space))
    if isinstance(space, CompactMap):
        body = rand_term(rng, space.value, max(1, size - 1), allow_mul)
        if rng.random() < 0.25:
            return scale(c, wild_maps_to(body, space))
        return scale(c, maps_to(rand_value(rng, space.prim), body, space))
    if isinstance(space, Biproduct):
        return pair(
            rand_term(rng, space.lhs, max(1, size - 1), allow_mul),
            rand_term(rng, space.rhs, max(1, size - 1), allow_mul),
        )
    if isinstance(space, Tensor):
        return scale(
            c,
            tensor(
                rand_term(rng, space.lhs, max(1, size - 1), allow_mul),
                rand_term(rng, space.rhs, max(1, size - 1), allow_mul),
            ),
        )
    raise AssertionError(space)


def sample_spaces(ring):
    """A spread of spaces touching every construction."""
    return [
        Scalar(ring),
        Free(ring, STRING),
        Free(ring, INT),
        Free(ring, Sum(STRING, INT)),
        Free(ring, Prod(STRING, INT)),
        CompactFree(ring, STRING),
        CompactFree(ring, INT),
        Biproduct(Free(ring, STRING), Free(ring, INT)),
        FinMap(ring, STRING, Scalar(ring)),
        FinMap(ring, Prod(STRING, Sum(STRING, INT)), Scalar(ring)),
        FinMap(ring, INT, Free(ring, STRING)),
        CompactMap(ring, STRING, Scalar(ring)),
        CompactMap(ring, INT, CompactFree(ring, STRING)),
        Tensor(Free(ring, STRING), Free(ring, INT)),
        Tensor(CompactFree(ring, STRING), CompactFree(ring, INT)),
        FinMap(ring, BOOL, Biproduct(Scalar(ring), Free(ring, INT))),
        # tensors whose left factor is not free: each takes its left
        # factor's form
        Tensor(FinMap(ring, STRING, Free(ring, INT)), Free(ring, STRING)),
        Tensor(CompactMap(ring, INT, CompactFree(ring, STRING)), CompactFree(ring, INT)),
        Tensor(Biproduct(Free(ring, STRING), Free(ring, INT)), Free(ring, INT)),
        Tensor(Scalar(ring), Free(ring, STRING)),
        Tensor(Scalar(ring), Biproduct(Free(ring, STRING), Free(ring, STRING))),
        Tensor(Tensor(Free(ring, STRING), Free(ring, INT)), Free(ring, STRING)),
        Tensor(Tensor(Biproduct(Free(ring, STRING), Scalar(ring)), Free(ring, INT)), Scalar(ring)),
    ]


@pytest.fixture
def rng():
    return random.Random(0xA1FE)
