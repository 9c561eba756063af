"""Prims, spaces, schemas, predicates and query symbols are immutable
records: built by position or keyword, equal and hashed by class and
fields, and printed as frozen dataclasses print them, so no message that
shows one with `!r` changes."""

import pytest

from polyalg import (
    BOOL,
    INF,
    INT,
    STRING,
    UNIT,
    Z,
    Adjoined,
    Compare,
    CompactFree,
    CompactMap,
    Free,
    Int64,
    Prod,
    Scalar,
    Schema,
    Sum,
    Tensor,
    schema,
)
from polyalg.query import Symbol


def test_records_of_one_class_with_equal_fields_are_equal():
    pairs = [
        (Int64(), INT),
        (Free(Z, INT), Free(ring=Z, prim=INT)),
        (Tensor(Free(Z, INT), CompactFree(Z, STRING)), Tensor(Free(Z, INT), CompactFree(Z, STRING))),
        (schema(("A", INT), ("B", STRING)), Schema((("A", INT), ("B", STRING)))),
        (Symbol("x", 3), Symbol(name="x", pos=3)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Free(Z, INT) != Free(Z, STRING)
    assert len({Free(Z, INT), Free(Z, INT), Free(Z, STRING)}) == 2


def test_records_of_different_classes_differ():
    assert Free(Z, INT) != CompactFree(Z, INT)
    assert CompactFree(Z, INT) != Free(Z, INT)
    assert Free(Z, INT) != (Z, INT)


def test_records_take_keywords_and_defaults():
    assert Compare("<", "K", 5) == Compare("<", "K", literal=5)
    bare = Compare("=", "K")
    assert bare.literal is None and bare.other_column is None
    marked = Adjoined(INT, INF, marker_first=False)
    assert marked == Adjoined(base=INT, marker=INF, marker_first=False)
    assert marked.sort_key(INF) > marked.sort_key(7)


def test_records_are_immutable():
    space = Free(Z, INT)
    with pytest.raises(AttributeError):
        space.prim = STRING
    with pytest.raises(AttributeError):
        del space.ring
    with pytest.raises(AttributeError):
        space.colour = "red"
    assert space == Free(Z, INT)
    # a tensor's cached derived attributes neither fail nor change its value
    t = Tensor(Free(Z, INT), CompactFree(Z, STRING))
    h = hash(t)
    assert (t.shape, t.prim, t.value) == ("map", INT, CompactFree(Z, STRING))
    assert hash(t) == h and t == Tensor(Free(Z, INT), CompactFree(Z, STRING))


def test_records_reject_missing_and_unknown_fields():
    for build in (
        lambda: Free(Z),
        lambda: Free(Z, INT, INT),
        lambda: Free(Z, INT, value=INT),
        lambda: Free(Z, prim=INT, colour="red"),
        lambda: Compare("<"),
    ):
        with pytest.raises(TypeError):
            build()


def test_record_repr_is_the_dataclass_text():
    assert repr(Free(Z, INT)) == "Free(ring=z, prim=Int64())"
    assert repr(Tensor(Free(Z, INT), CompactMap(Z, STRING, Scalar(Z)))) == (
        "Tensor(lhs=Free(ring=z, prim=Int64()), "
        "rhs=CompactMap(ring=z, prim=Str(), value=Scalar(ring=z)))")
    assert repr(Compare("<", "K", 5)) == (
        "Compare(op='<', column='K', literal=5, other_column=None)")
    assert repr(Adjoined(INT, INF, marker_first=False)) == (
        "Adjoined(base=Int64(), marker=inf, marker_first=False)")
    assert repr(Sum(UNIT, Prod(BOOL, STRING))) == "Sum(lhs=Unit(), rhs=Prod(fst=Bool(), snd=Str()))"
    assert repr(schema(("A", INT))) == "Schema(columns=(('A', Int64()),))"
    assert repr(Symbol("x", 3)) == "Symbol(name='x', pos=3)"
