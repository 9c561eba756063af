"""Space descriptors: which module a symbolic term inhabits.

Seven constructions, all over a fixed coefficient ring: the scalar module,
free and compact free modules over a primitive index set, biproducts,
finite and compact maps, and tensor products. Every construction here is a
weighted algebra, so multiplication and the weight map are total across
spaces. The ring is carried on every descriptor and must agree between the
parts of a composite space.
"""

from functools import cached_property

from .prims import Record
from .rings import Ring


class SpaceError(TypeError):
    pass


class Space(Record):
    """`shape` names the form a space normalises to: "scalar", "free" (a
    coefficient trie), "map" (a trie of value forms) or "pair"."""

    ring: Ring

    def _check_ring(self, *parts):
        for p in parts:
            if p.ring is not self.ring:
                raise SpaceError(f"mixed rings in {self}: {p.ring} vs {self.ring}")


class Scalar(Space):
    _fields = ("ring",)
    shape = "scalar"

    def __str__(self):
        return "K"


class Free(Space):
    _fields = ("ring", "prim")
    shape = "free"

    def __str__(self):
        return f"F[{self.prim}]"


class CompactFree(Space):
    _fields = ("ring", "prim")
    shape = "free"

    def __str__(self):
        return f"F*[{self.prim}]"


class Biproduct(Space):
    _fields = ("lhs", "rhs")
    shape = "pair"

    def __post_init__(self):
        self._check_ring(self.lhs, self.rhs)

    @property
    def ring(self):
        return self.lhs.ring

    @property
    def halves(self):
        return self.lhs, self.rhs

    def __str__(self):
        return f"({self.lhs} ⊕ {self.rhs})"


class FinMap(Space):
    _fields = ("ring", "prim", "value")
    shape = "map"

    def __post_init__(self):
        self._check_ring(self.value)

    def __str__(self):
        return f"({self.prim} ⇒ {self.value})"


class CompactMap(Space):
    _fields = ("ring", "prim", "value")
    shape = "map"

    def __post_init__(self):
        self._check_ring(self.value)

    def __str__(self):
        return f"({self.prim} ⇒* {self.value})"


class Tensor(Space):
    _fields = ("lhs", "rhs")

    def __post_init__(self):
        self._check_ring(self.lhs, self.rhs)

    @property
    def ring(self):
        return self.lhs.ring

    # a tensor takes the form of its left factor: F[A] ⊗ W ≅ A ⇒ W,
    # (A ⇒ V) ⊗ W ≅ A ⇒ (V ⊗ W), (U ⊕ V) ⊗ W ≅ (U ⊗ W) ⊕ (V ⊗ W) and
    # K ⊗ W ≅ W; a tensor on the left reassociates through its own left
    # factor, (U ⊗ V) ⊗ W ≅ U ⊗ (V ⊗ W)
    @cached_property
    def shape(self):
        left = self.lhs.shape
        if left == "scalar":
            return self.rhs.shape
        return "map" if left == "free" else left

    @cached_property
    def prim(self):
        return (self.rhs if self.lhs.shape == "scalar" else self.lhs).prim

    @cached_property
    def value(self):
        left = self.lhs.shape
        if left == "scalar":
            return self.rhs.value
        return self.rhs if left == "free" else Tensor(self.lhs.value, self.rhs)

    @cached_property
    def halves(self):
        if self.lhs.shape == "scalar":
            return self.rhs.halves
        return tuple(Tensor(h, self.rhs) for h in self.lhs.halves)

    def __str__(self):
        return f"({self.lhs} ⊗ {self.rhs})"


_CHAINS = {}


def tensor_chain(ring: Ring, prims, compact: bool = False) -> Space:
    """Right-nested chain of free factors, one per attribute.

    A single attribute is just the free module itself, no tensor wrapper.
    There is one chain object per ring, prim list and compactness, and a
    chain's right factor is the chain of its remaining prims, so equal
    chains, and their tails, compare as identical objects.
    """
    prims = tuple(prims)
    key = (ring, prims, compact)
    space = _CHAINS.get(key)
    if space is None:
        if not prims:
            raise SpaceError("a tensor chain needs at least one factor")
        space = (CompactFree if compact else Free)(ring, prims[0])
        if len(prims) > 1:
            space = Tensor(space, tensor_chain(ring, prims[1:], compact))
        _CHAINS[key] = space
    return space

