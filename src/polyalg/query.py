"""Query expressions: an s-expression surface over the relational layer.

Grammar, one form per operation:

    R                              load a named relation
    (union R S)  (diff R S)  (intersect R S)
    (product R S)                  Cartesian product (disjoint attributes)
    (join R S T ...)               natural join on shared attribute names
    (outer left|right|full R S)    wildcard-padded joins
    (select PRED R)                PRED: (= A 3) (!= A "x") (< A 5) (<= ..)
                                   (> ..) (>= ..) (prefix A "s")
                                   (contains A "s") (and P Q) (or P Q)
                                   (not P); the right operand may be another
                                   column name
    (project [A C] R)
    (rename [X Y] R)               relabel attributes positionally
    (agg sum|min|max|count [A ...] B R)
    (map FN A R)                   FN from the function registry
    (clamp R)                      drop rows with negative multiplicity

Atoms: integers, double-quoted strings, true/false, bare symbols.

Forms and [...] lists nest at most MAX_DEPTH deep; a deeper query is a
`QueryError`, as parsing and evaluation recurse once per level.
"""

from . import relational as rel
from .prims import Record
from .relation import Relation, RelationError
from .relational import BoolPred, Compare


#: deepest nesting of forms and [...] lists a query may have
MAX_DEPTH = 300


class QueryError(ValueError):
    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at offset {pos})")


# --- s-expression reader -------------------------------------------------------

class Symbol(Record):
    _fields = ("name", "pos")


def tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()[]":
            yield ch, i
            i += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise QueryError("unterminated string", i)
            yield ("str", "".join(buf)), i
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()[]"':
                j += 1
            yield ("atom", text[i:j]), i
            i = j


#: the closing token of each opening one; a [...] list parses to a `VecNode`
_CLOSING = {"(": ")", "[": "]"}


def parse_sexpr(text: str):
    tokens = list(tokenize(text))
    depth = 0
    for tok, at in tokens:
        if tok in ("(", "["):
            depth += 1
            if depth > MAX_DEPTH:
                raise QueryError(f"query nests deeper than {MAX_DEPTH} levels", at)
        elif tok in (")", "]"):
            depth -= 1

    def parse_one(k):
        if k >= len(tokens):
            raise QueryError("unexpected end of input", len(text))
        tok, at = tokens[k]
        if tok in _CLOSING:
            close = _CLOSING[tok]
            items = []
            k += 1
            while True:
                if k >= len(tokens):
                    raise QueryError(f"missing {close}", at)
                if tokens[k][0] == close:
                    return (VecNode(items) if close == "]" else items), k + 1
                item, k = parse_one(k)
                items.append(item)
        if tok in (")", "]"):
            raise QueryError(f"unexpected {tok}", at)
        kind, value = tok
        if kind == "str":
            return value, k + 1
        return _atom(value, at), k + 1

    node, k = parse_one(0)
    if k != len(tokens):
        raise QueryError("trailing input", tokens[k][1])
    return node


class VecNode(list):
    pass


def _atom(text: str, pos: int):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    return Symbol(text, pos)


# --- evaluation ------------------------------------------------------------------

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=", "prefix", "contains")


def _sym(node, what):
    if not isinstance(node, Symbol):
        raise QueryError(f"expected {what}", getattr(node, "pos", None))
    return node.name


def _names(node, what):
    if not isinstance(node, VecNode):
        raise QueryError(f"expected a [...] list of {what}", getattr(node, "pos", None))
    return [_sym(n, what) for n in node]


def parse_predicate(node):
    if not isinstance(node, list) or isinstance(node, VecNode) or not node:
        raise QueryError("expected a predicate form", getattr(node, "pos", None))
    head = _sym(node[0], "a predicate operator")
    if head in ("and", "or"):
        if len(node) < 3:
            raise QueryError(f"({head} ...) needs at least two parts", node[0].pos)
        return BoolPred(head, tuple(parse_predicate(p) for p in node[1:]))
    if head == "not":
        if len(node) != 2:
            raise QueryError("(not P) takes one part", node[0].pos)
        return BoolPred("not", (parse_predicate(node[1]),))
    if head in _CMP_OPS:
        if len(node) != 3:
            raise QueryError(f"({head} A value) takes two arguments", node[0].pos)
        col = _sym(node[1], "a column name")
        rhs = node[2]
        if isinstance(rhs, Symbol):
            return Compare(head, col, other_column=rhs.name)
        return Compare(head, col, literal=rhs)
    raise QueryError(f"unknown predicate {head!r}", node[0].pos)


def evaluate(node, catalog) -> Relation:
    """Evaluate a parsed query against a name -> Relation mapping."""
    if isinstance(node, Symbol):
        r = catalog.get(node.name)
        if r is None:
            raise QueryError(f"unknown relation {node.name!r}", node.pos)
        return r
    if not isinstance(node, list) or isinstance(node, VecNode) or not node:
        raise QueryError("expected a query form", getattr(node, "pos", None))
    head = _sym(node[0], "an operation")
    args = node[1:]
    try:
        if head in ("union", "diff", "intersect", "product"):
            if len(args) != 2:
                raise QueryError(f"({head} R S) takes two relations", node[0].pos)
            r, s = evaluate(args[0], catalog), evaluate(args[1], catalog)
            fn = {
                "union": rel.union,
                "diff": rel.diff,
                "intersect": rel.intersect,
                "product": rel.cartesian,
            }[head]
            return fn(r, s)
        if head == "join":
            if not args:
                raise QueryError("(join ...) needs at least one relation", node[0].pos)
            return rel.natural_join([evaluate(a, catalog) for a in args])
        if head == "outer":
            if len(args) != 3:
                raise QueryError("(outer kind R S) takes a kind and two relations", node[0].pos)
            kind = _sym(args[0], "an outer join kind")
            return rel.outer_join(kind, evaluate(args[1], catalog), evaluate(args[2], catalog))
        if head == "select":
            if len(args) != 2:
                raise QueryError("(select PRED R) takes a predicate and a relation", node[0].pos)
            return rel.select(evaluate(args[1], catalog), parse_predicate(args[0]))
        if head == "project":
            if len(args) != 2:
                raise QueryError("(project [A ...] R) takes names and a relation", node[0].pos)
            return rel.project(evaluate(args[1], catalog), _names(args[0], "column names"))
        if head == "rename":
            if len(args) != 2:
                raise QueryError("(rename [A ...] R) takes names and a relation", node[0].pos)
            return rel.relabel(evaluate(args[1], catalog), _names(args[0], "column names"))
        if head == "agg":
            if len(args) != 4:
                raise QueryError(
                    "(agg fold [group ...] target R) takes four arguments", node[0].pos
                )
            fold = _sym(args[0], "an aggregate name")
            group = _names(args[1], "grouping columns")
            target = _sym(args[2], "the target column")
            return rel.aggregate(evaluate(args[3], catalog), group, target, fold)
        if head == "map":
            if len(args) != 3:
                raise QueryError("(map FN A R) takes three arguments", node[0].pos)
            fn = _sym(args[0], "a function name")
            col = _sym(args[1], "a column name")
            return rel.map_col(evaluate(args[2], catalog), col, fn)
        if head == "clamp":
            if len(args) != 1:
                raise QueryError("(clamp R) takes one relation", node[0].pos)
            return rel.clamp_nonneg(evaluate(args[0], catalog))
    except RelationError as e:
        raise QueryError(str(e), node[0].pos) from e
    raise QueryError(f"unknown operation {head!r}", node[0].pos)


def run(text: str, catalog) -> Relation:
    return evaluate(parse_sexpr(text), catalog)
