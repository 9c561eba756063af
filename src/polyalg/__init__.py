"""Ring-weighted collections as modules, queries as linear maps.

Collections generalise sets and multisets: multiplicities come from a
pluggable commutative ring, so deletion is subtraction and updates are
addition. Terms stay symbolic until a context forces simplification into
trie-backed canonical forms; intersections and joins are evaluated by a
jointly scheduled product that is worst-case optimal on cyclic joins.
"""

from importlib import import_module

from .metrics import Counters, fresh
from .normal import (
    STAR,
    InfiniteSupport,
    NormalForm,
    enumerate_nf,
    has_baseline,
    nf_add,
    nf_equal,
    nf_lookup,
    nf_lookup_path,
    nf_scale,
    nf_weight,
    strip_compact,
)
from .prims import (
    BOOL,
    INF,
    INT,
    INT_WITH_INF,
    INT_WITH_NEG_INF,
    NEG_INF,
    STRING,
    UNIT,
    Adjoined,
    Bool,
    Int64,
    PrimSet,
    PrimValueError,
    Prod,
    Str,
    Sum,
    Unit,
    left,
    right,
)
from .relation import Relation, RelationError, Schema, relation_from_rows, schema
from .rings import GF2, REAL, Z, GF2Ring, IntegerRing, RealRing, Ring, ring_by_name
from .spaces import (
    Biproduct,
    CompactFree,
    CompactMap,
    FinMap,
    Free,
    Scalar,
    Space,
    SpaceError,
    Tensor,
    tensor_chain,
)


#: names served from a module imported on first use, since each `polyalg`
#: process compiles what it imports: no command of the CLI runs the
#: isomorphism catalogue or builds a term, only joins and intersections run
#: the product engine, and only `query` parses and runs operators, so a
#: `load` compiles none of these modules and a `query` neither `terms` nor
#: `isos`
_ON_FIRST_USE = {
    "isos": ("ISOS", "iso"),
    "product": ("embed", "nf_product"),
    "query": ("QueryError", "parse_sexpr", "run"),
    "relational": ("BoolPred", "ColumnWhere", "Compare", "aggregate", "apply_update",
                   "cartesian", "clamp_nonneg", "diff", "intersect", "map_col",
                   "natural_join", "outer_join", "project", "relabel", "rename", "select",
                   "union"),
    "terms": ("Term", "add", "equal", "fmap", "fold", "inj1", "inj2", "inject", "maps_to",
              "mul", "multiply", "naive_multiply", "normalize", "one", "pair", "proj1",
              "proj2", "readback", "scalar", "scale", "sum_over_index", "sum_terms",
              "tensor", "tensor_map", "triangle", "unit_one", "weight", "wild_maps_to",
              "wild_one", "zero"),
}


def __getattr__(name):
    if name == "symbolic_product":  # `terms.product`; `polyalg.product` is the module
        return import_module(f"{__name__}.terms").product
    for module, names in _ON_FIRST_USE.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
