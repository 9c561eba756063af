"""Ring law suites over the three coefficient rings."""

import math
import random
import struct

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


# The operations that are plain arithmetic are `operator` builtins; each must
# agree with the Python definition it replaced, result type included.

_HUGE = st.integers(min_value=-2**200, max_value=2**200)
_INTS = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5), st.integers(), _HUGE)


@given(_INTS, _INTS)
def test_integer_builtins_match_python_definitions(a, b):
    for got, want in [
        (Z.add(a, b), a + b),
        (Z.neg(a), -a),
        (Z.sub(a, b), a + -b),
        (Z.mul(a, b), a * b),
        (Z.is_zero(a), a == 0),
        (Z.eq(a, b), a == b),
    ]:
        assert got == want and type(got) is type(want)


def test_gf2_builtins_match_python_definitions_on_every_pair():
    for a in (False, True):
        assert GF2.neg(a) is a
        assert GF2.is_zero(a) is (not a)
        for b in (False, True):
            for got, want in [
                (GF2.add(a, b), a != b),
                (GF2.sub(a, b), a != b),
                (GF2.mul(a, b), a and b),
                (GF2.eq(a, b), a == b),
            ]:
                assert type(got) is bool and got is want
    assert GF2.neg(True) is True


def _bits(x):
    return struct.pack("<d", x)


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.5e-9, -1.5e-9]),
                    st.floats(allow_nan=False, allow_infinity=False))


@given(_FLOATS, _FLOATS)
def test_real_builtins_match_python_definitions(a, b):
    assert _bits(REAL.add(a, b)) == _bits(a + b)
    assert _bits(REAL.neg(a)) == _bits(-a)
    assert _bits(REAL.mul(a, b)) == _bits(a * b)
    assert REAL.is_zero(a) is (abs(a) <= 1e-9)


def test_real_keeps_its_tolerance_at_and_past_the_bound():
    assert _bits(REAL.neg(0.0)) == _bits(-0.0)
    assert _bits(REAL.add(-0.0, -0.0)) == _bits(-0.0)
    assert REAL.is_zero(-0.0) and REAL.is_zero(1e-9) and REAL.is_zero(-1e-9)
    assert not REAL.is_zero(math.nextafter(1e-9, 1.0))
    assert not REAL.is_zero(-math.nextafter(1e-9, 1.0))
    assert REAL.eq(1.0, 1.0 + 1e-10) and not REAL.eq(1.0, 1.0 + 2e-9)
    assert REAL.eq(-0.0, 0.0)
