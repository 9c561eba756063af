"""Ring law suites over the three coefficient rings."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyalg import GF2, REAL, Z, ring_by_name

RINGS = [Z, GF2, REAL]


def _sample(rng, ring):
    if ring is GF2:
        return rng.random() < 0.5
    if ring is REAL:
        return rng.uniform(-10.0, 10.0)
    return rng.randint(-10**6, 10**6)


def _laws(ring, x, y, z):
    eq = ring.eq
    assert eq(ring.add(x, ring.add(y, z)), ring.add(ring.add(x, y), z))
    assert eq(ring.add(x, y), ring.add(y, x))
    assert eq(ring.add(x, ring.zero), x)
    assert eq(ring.add(x, ring.neg(x)), ring.zero)
    assert eq(ring.mul(ring.zero, x), ring.zero)
    assert eq(ring.mul(ring.one, x), x)
    assert eq(ring.mul(x, ring.mul(y, z)), ring.mul(ring.mul(x, y), z))
    assert eq(ring.mul(x, ring.add(y, z)), ring.add(ring.mul(x, y), ring.mul(x, z)))
    assert eq(ring.mul(x, y), ring.mul(y, x))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ring_laws_randomized(ring):
    rng = random.Random(101)
    for _ in range(200):
        _laws(ring, _sample(rng, ring), _sample(rng, ring), _sample(rng, ring))


@given(st.integers(), st.integers(), st.integers())
def test_integer_laws_hypothesis(x, y, z):
    _laws(Z, x, y, z)


@given(st.booleans(), st.booleans(), st.booleans())
def test_gf2_laws_hypothesis(x, y, z):
    _laws(GF2, x, y, z)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_is_zero_agrees_with_equality(ring):
    rng = random.Random(77)
    for _ in range(200):
        x = _sample(rng, ring)
        assert ring.is_zero(x) == ring.eq(x, ring.zero)
    assert ring.is_zero(ring.zero)


def test_gf2_characteristic_two():
    assert GF2.add(True, True) is False
    assert GF2.mul(True, True) is True
    assert GF2.neg(True) is True


def test_integer_examples():
    assert Z.add(2, 3) == 5
    assert Z.add(3, Z.neg(3)) == 0
    assert Z.mul(2, 7) == 14


def test_real_tolerance():
    assert REAL.is_zero(1e-12)
    assert not REAL.is_zero(1e-6)
    assert REAL.eq(0.3, 0.1 + 0.2)
    assert REAL.neg(0.3) == -0.3


def test_arbitrary_precision_products():
    big = 2**80
    assert Z.mul(big, big) == 2**160
    assert Z.add(2**200, Z.neg(2**200)) == 0


def test_rendering():
    assert Z.render(-7) == "-7"
    assert GF2.render(True) == "1"
    assert GF2.render(False) == "0"
    assert REAL.render(0.1) == "0.1"
    assert float(REAL.render(1 / 3)) == 1 / 3


def test_coercion_guards():
    with pytest.raises(TypeError):
        Z.coerce(True)
    with pytest.raises(TypeError):
        Z.coerce("3")
    assert GF2.coerce(1) is True
    assert REAL.coerce(2) == 2.0


def test_ring_registry():
    assert ring_by_name("z") is Z
    assert ring_by_name("gf2") is GF2
    with pytest.raises(ValueError):
        ring_by_name("q")


def test_real_parse_rejects_non_finite_weights():
    assert REAL.parse("-2.5") == -2.5
    for text in ("nan", "NaN", "inf", "-inf", "1e999"):
        with pytest.raises(ValueError):
            REAL.parse(text)
