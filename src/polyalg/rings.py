"""Coefficient rings for weighted collections.

Multiplicities live in a commutative ring: signed integers give polysets,
the two-element field gives ordinary sets, floats give fuzzy sets with
real-valued membership. Ring elements are plain Python values; the ring
object supplies the operations, so mixing rings is a type error at
construction time rather than something checked per operation.

The operations that are plain arithmetic are the `operator` module's C
builtins, held as static methods, so `map(ring.mul, ...)` and the folds
over a level run without a Python call per element: add, neg and mul
over Z and REAL, GF2's add (`!=`) and mul (`&`), and the zero test
(`not a`) and equality over Z and GF2. GF2's neg stays the Python
identity, since `operator.pos(True)` is the int 1, not a field element;
REAL's zero test and equality stay in Python, since they compare within
a tolerance.
"""

import math
import operator


class Ring:
    """Commutative ring interface over opaque element values."""

    name = "?"
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a):
        raise NotImplementedError

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def contains(self, a) -> bool:
        raise NotImplementedError

    def coerce(self, a):
        """Best-effort conversion into this ring, for loaders and CLI input."""
        if self.contains(a):
            return a
        raise TypeError(f"{a!r} is not a {self.name} ring element")

    def parse(self, text: str):
        raise NotImplementedError

    def render(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    """Arbitrary-precision signed integers.

    Multiplicities multiply under intersection and can exceed 64 bits on
    adversarial inputs; exactness here is what keeps cancellation (and hence
    zero detection) sound.
    """

    name = "z"
    zero = 0
    one = 1

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)
    eq = staticmethod(operator.eq)

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool)

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("booleans are not integer multiplicities")
        if isinstance(a, int):
            return a
        raise TypeError(f"{a!r} is not an integer multiplicity")

    def parse(self, text):
        return int(text)

    def render(self, a):
        return str(a)


class GF2Ring(Ring):
    """The two-element field: xor and conjunction on booleans."""

    name = "gf2"
    zero = False
    one = True

    add = staticmethod(operator.ne)
    mul = staticmethod(operator.and_)
    is_zero = staticmethod(operator.not_)
    eq = staticmethod(operator.eq)

    def neg(self, a):
        return a

    def contains(self, a):
        return isinstance(a, bool)

    def coerce(self, a):
        if isinstance(a, bool):
            return a
        if a in (0, 1):
            return bool(a)
        raise TypeError(f"{a!r} is not a GF(2) multiplicity")

    def parse(self, text):
        t = text.strip().lower()
        if t in ("1", "true"):
            return True
        if t in ("0", "false"):
            return False
        raise ValueError(f"bad GF(2) value {text!r}")

    def render(self, a):
        return "1" if a else "0"


class RealRing(Ring):
    """64-bit floats with an absolute tolerance for zero tests.

    Pruning almost-zero coefficients keeps normal forms of fuzzy sets small.
    """

    name = "real"
    zero = 0.0
    one = 1.0
    tolerance = 1e-9

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def is_zero(self, a):
        return abs(a) <= self.tolerance

    def eq(self, a, b):
        return abs(a - b) <= self.tolerance

    def contains(self, a):
        return isinstance(a, float)

    def coerce(self, a):
        if isinstance(a, bool):
            raise TypeError("booleans are not real multiplicities")
        if isinstance(a, (int, float)):
            return float(a)
        raise TypeError(f"{a!r} is not a real multiplicity")

    def parse(self, text):
        v = float(text)
        if not math.isfinite(v):  # nan is unequal to itself; inf - inf is nan
            raise ValueError(f"{text!r} is not a finite weight")
        return v

    def render(self, a):
        # repr of a float is the shortest decimal that round-trips
        return repr(a)


Z = IntegerRing()
GF2 = GF2Ring()
REAL = RealRing()

BY_NAME = {"z": Z, "gf2": GF2, "real": REAL}


def ring_by_name(name: str) -> Ring:
    try:
        return BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown ring {name!r}; expected one of {sorted(BY_NAME)}") from None
