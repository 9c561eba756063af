"""Triangle-query benchmark: scaling evidence for the join evaluator.

The worst case for a triangle join is the complete bipartite instance:
three relations, each the full k x k grid, so n = k^2 tuples per relation
and exactly k^3 output rows. Output size is Theta(n^{3/2}), and the joint
evaluator's trie-edge count should track it; a log-log fit of edges
against n lands near 3/2. The contrast path folds the same join as blunt
pairwise expansions, whose pair-product count grows near quadratically or
worse.

Trie edges are the primary metric because they are machine independent;
wall time is reported alongside. Every timing row is gated on the output
count being exactly k^3.
"""

import math
import time
from dataclasses import dataclass, field

from . import metrics
from .normal import enumerate_nf, readback
from .prims import INT
from .product import naive_multiply, triangle
from .rings import Z
from .spaces import Free
from .terms import inject, sum_terms, tensor


def bipartite_relation(k: int, ring=Z):
    """The full grid [0,k) x [0,k) as a term over two integer columns."""
    fi = Free(ring, INT)
    rows = [tensor(inject(i, fi), inject(j, fi)) for i in range(k) for j in range(k)]
    space = rows[0].space
    return sum_terms(space, rows)


def count_rows(nf) -> int:
    return len(enumerate_nf(nf, allow_baseline=True))


@dataclass
class SizeRow:
    k: int
    n: int  # tuples per input relation
    output_rows: int
    seconds: float
    trie_edges: int
    ring_mults: int
    lookups: int


@dataclass
class NaiveRow:
    k: int
    n: int
    output_rows: int
    seconds: float
    pair_products: int


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    naive_rows: list = field(default_factory=list)

    @property
    def slope(self) -> float:
        return fit_slope([(r.n, r.trie_edges) for r in self.rows])

    @property
    def naive_slope(self) -> float:
        return fit_slope([(r.n, r.pair_products) for r in self.naive_rows])


def fit_slope(points) -> float:
    """Least-squares slope of log(metric) against log(n)."""
    if len(points) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(m) for _, m in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def run_triangle(k: int, repeats: int = 1) -> SizeRow:
    x = bipartite_relation(k)
    y = bipartite_relation(k)
    z = bipartite_relation(k)
    best = None
    edges = mults = lookups = rows = None
    for _ in range(max(1, repeats)):
        with metrics.fresh() as m:
            t0 = time.perf_counter()
            out = triangle(x, y, z)
            dt = time.perf_counter() - t0
        rows = count_rows(out)
        if rows != k**3:
            raise AssertionError(f"triangle correctness gate: {rows} rows, expected {k**3}")
        edges, mults, lookups = m.trie_edges, m.ring_mults, m.lookups
        best = dt if best is None else min(best, dt)
    return SizeRow(k, k * k, rows, best, edges, mults, lookups)


def run_naive(k: int, repeats: int = 1) -> NaiveRow:
    """Pairwise fold by blunt expansion: (x' * y') then * z'."""
    x = bipartite_relation(k)
    y = bipartite_relation(k)
    z = bipartite_relation(k)
    from .product import embed

    A, B, C = ("A", INT), ("B", INT), ("C", INT)
    xe = embed(x, [A, B], [A, B, C])
    ye = embed(y, [A, C], [A, B, C])
    ze = embed(z, [B, C], [A, B, C])
    best = None
    pairs = rows = None
    for _ in range(max(1, repeats)):
        with metrics.fresh() as m:
            t0 = time.perf_counter()
            first = naive_multiply(xe, ye)
            out = naive_multiply(readback(first), ze)
            dt = time.perf_counter() - t0
        rows = count_rows(out)
        if rows != k**3:
            raise AssertionError(f"naive correctness gate: {rows} rows, expected {k**3}")
        pairs = m.pair_products
        best = dt if best is None else min(best, dt)
    return NaiveRow(k, k * k, rows, best, pairs)


def bench_triangle(sizes, repeats: int = 1, with_naive: bool = False) -> BenchReport:
    sizes = list(sizes)
    if any(k < 2 for k in sizes):
        raise ValueError("sizes must be at least 2")
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    report = BenchReport()
    for k in sizes:
        report.rows.append(run_triangle(k, repeats))
    if with_naive:
        # the expansion is near quartic; contrast on the small sizes only
        for k in sizes:
            if k <= 16:
                report.naive_rows.append(run_naive(k, repeats))
    return report
