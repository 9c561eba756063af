"""Ring-weighted collections as modules, queries as linear maps.

Collections generalise sets and multisets: multiplicities come from a
pluggable commutative ring, so deletion is subtraction and updates are
addition. Terms stay symbolic until a context forces simplification into
trie-backed canonical forms; intersections and joins are evaluated by a
jointly scheduled product that is worst-case optimal on cyclic joins.
"""

from .metrics import Counters, fresh
from .normal import (
    STAR,
    InfiniteSupport,
    NormalForm,
    enumerate_nf,
    equal,
    has_baseline,
    nf_add,
    nf_equal,
    nf_lookup,
    nf_lookup_path,
    nf_scale,
    nf_weight,
    normalize,
    readback,
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
from .query import QueryError, parse_sexpr, run
from .relational import (
    BoolPred,
    ColumnWhere,
    Compare,
    Relation,
    RelationError,
    Schema,
    aggregate,
    apply_update,
    cartesian,
    clamp_nonneg,
    diff,
    intersect,
    map_col,
    natural_join,
    outer_join,
    project,
    relabel,
    relation_from_rows,
    rename,
    schema,
    select,
    union,
)
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
from .terms import (
    Term,
    add,
    fmap,
    fold,
    inject,
    inj1,
    inj2,
    maps_to,
    mul,
    one,
    pair,
    product as symbolic_product,
    proj1,
    proj2,
    scalar,
    scale,
    sum_over_index,
    sum_terms,
    tensor,
    tensor_map,
    unit_one,
    weight,
    wild_maps_to,
    wild_one,
    zero,
)


def __getattr__(name):
    # the isomorphism catalogue and the product engine are imported on first
    # use: no command of the CLI runs the catalogue, only joins, intersections
    # and products of terms run the engine, and each `polyalg` process
    # compiles what it imports, so `load` and most queries compile neither
    if name in ("ISOS", "iso"):
        from . import isos

        return getattr(isos, name)
    if name in ("embed", "multiply", "naive_multiply", "nf_product", "triangle"):
        from . import product

        return getattr(product, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
