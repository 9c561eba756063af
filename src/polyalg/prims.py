"""Primitive index sets for free modules and key-indexed collections.

A `PrimSet` describes the set of admissible keys at one collection level:
unit, booleans, 64-bit integers, strings, plus tagged sums and pairs of
these. Values of each set carry a total order (lexicographic for pairs,
left before right for sums) so canonical forms render deterministically.
`Adjoined` extends a base set with a single marker value, used for the
infinity element of min/max aggregation.

General function-space keys are deliberately unsupported; they do not
admit trie-shaped canonical forms.
"""

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class PrimValueError(TypeError):
    pass


class _Marker:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


#: adjoined top/bottom elements for aggregation results
INF = _Marker("inf")
NEG_INF = _Marker("-inf")


def left(v):
    return ("L", v)


def right(v):
    return ("R", v)


class Record:
    """An immutable value whose fields `_fields` names. It is built from
    positional or keyword arguments; a field given by neither takes its
    class's attribute of that name as its default. It equals only a record
    of its own class with equal fields, and hashes and prints like a frozen
    dataclass. The field values are stored once, as the tuple that `==` and
    `hash` compare."""

    _fields = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        d = self.__dict__
        d.update(zip(self._fields, args))
        d["_values"] = args
        self.__post_init__()

    def _bind(self, args, kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, not {len(args)}")
        args = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                args.append(kwargs.pop(name))
            elif name in vars(cls):
                args.append(vars(cls)[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        return tuple(args)

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        parts = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({parts})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PrimSet(Record):
    def contains(self, v) -> bool:
        raise NotImplementedError

    def check(self, v):
        if not self.contains(v):
            raise PrimValueError(f"{v!r} is not a value of {self}")
        return v

    def contains_all(self, values) -> bool:
        """Whether every one of `values`, a column of rows, is in the set."""
        return all(map(self.contains, values))

    def sort_key(self, v):
        """Comparable key realising the set's total order."""
        raise NotImplementedError

    def render(self, v) -> str:
        raise NotImplementedError

    @property
    def finite(self) -> bool:
        return False

    def values(self):
        """All values, in order. Only for finite sets."""
        raise ValueError(f"{self} is not a finite set")


class Unit(PrimSet):
    def contains(self, v):
        return v == ()

    def sort_key(self, v):
        return ()

    def render(self, v):
        return "()"

    @property
    def finite(self):
        return True

    def values(self):
        return [()]

    def __str__(self):
        return "Unit"


class Bool(PrimSet):
    def contains(self, v):
        return isinstance(v, bool)

    def sort_key(self, v):
        return v

    def render(self, v):
        return "true" if v else "false"

    @property
    def finite(self):
        return True

    def values(self):
        return [False, True]

    def __str__(self):
        return "Bool"


class Int64(PrimSet):
    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and INT64_MIN <= v <= INT64_MAX

    def contains_all(self, values):
        if set(map(type, values)) <= {int}:  # no bool, no other subclass
            return not values or INT64_MIN <= min(values) and max(values) <= INT64_MAX
        return super().contains_all(values)

    def sort_key(self, v):
        return v

    def render(self, v):
        return str(v)

    def __str__(self):
        return "Int64"


class Str(PrimSet):
    def contains(self, v):
        return isinstance(v, str)

    def contains_all(self, values):
        return set(map(type, values)) <= {str} or super().contains_all(values)

    def sort_key(self, v):
        return v

    def render(self, v):
        return v

    def __str__(self):
        return "Str"


class Sum(PrimSet):
    _fields = ("lhs", "rhs")

    def contains(self, v):
        if not (isinstance(v, tuple) and len(v) == 2):
            return False
        tag, x = v
        if tag == "L":
            return self.lhs.contains(x)
        if tag == "R":
            return self.rhs.contains(x)
        return False

    def sort_key(self, v):
        tag, x = v
        if tag == "L":
            return (0, self.lhs.sort_key(x))
        return (1, self.rhs.sort_key(x))

    def render(self, v):
        tag, x = v
        side = self.lhs if tag == "L" else self.rhs
        word = "left" if tag == "L" else "right"
        return f"{word}({side.render(x)})"

    @property
    def finite(self):
        return self.lhs.finite and self.rhs.finite

    def values(self):
        return [left(x) for x in self.lhs.values()] + [right(x) for x in self.rhs.values()]

    def __str__(self):
        return f"({self.lhs} + {self.rhs})"


class Prod(PrimSet):
    _fields = ("fst", "snd")

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and self.fst.contains(v[0])
            and self.snd.contains(v[1])
        )

    def sort_key(self, v):
        return (self.fst.sort_key(v[0]), self.snd.sort_key(v[1]))

    def render(self, v):
        return f"({self.fst.render(v[0])}, {self.snd.render(v[1])})"

    @property
    def finite(self):
        return self.fst.finite and self.snd.finite

    def values(self):
        return [(a, b) for a in self.fst.values() for b in self.snd.values()]

    def __str__(self):
        return f"({self.fst} × {self.snd})"


class Adjoined(PrimSet):
    """A base set plus one marker value, ordered first or last."""

    _fields = ("base", "marker", "marker_first")

    def contains(self, v):
        return v is self.marker or self.base.contains(v)

    def sort_key(self, v):
        if v is self.marker:
            return (0 if self.marker_first else 1, ())
        return (1 if self.marker_first else 0, self.base.sort_key(v))

    def render(self, v):
        if v is self.marker:
            return self.marker.label
        return self.base.render(v)

    @property
    def finite(self):
        return self.base.finite

    def values(self):
        vs = list(self.base.values())
        return [self.marker] + vs if self.marker_first else vs + [self.marker]

    def __str__(self):
        return f"({self.base} ∪ {{{self.marker.label}}})"


UNIT = Unit()
BOOL = Bool()
INT = Int64()
STRING = Str()

#: integers with a greatest element, the codomain of min over possibly empty sets
INT_WITH_INF = Adjoined(INT, INF, marker_first=False)
#: integers with a least element, the codomain of max over possibly empty sets
INT_WITH_NEG_INF = Adjoined(INT, NEG_INF, marker_first=True)
