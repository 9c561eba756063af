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
import statistics
import time

from . import metrics
from .normal import enumerate_nf
from .prims import INT, Record
from .product import embed
from .rings import Z
from .spaces import Free
from .terms import inject, naive_multiply, readback, sum_terms, tensor, triangle


def bipartite_relation(k: int, ring=Z):
    """The full grid [0,k) x [0,k) as a term over two integer columns."""
    fi = Free(ring, INT)
    rows = [tensor(inject(i, fi), inject(j, fi)) for i in range(k) for j in range(k)]
    space = rows[0].space
    return sum_terms(space, rows)


class SizeRow(Record):
    _fields = ("k", "n", "output_rows", "seconds", "trie_edges", "ring_mults", "lookups")


class NaiveRow(Record):
    _fields = ("k", "n", "output_rows", "seconds", "pair_products")


class BenchReport(Record):
    _fields = ("rows", "naive_rows")  # tuples of SizeRow and NaiveRow

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
    xs, ys = zip(*((math.log(n), math.log(m)) for n, m in points))
    return statistics.linear_regression(xs, ys).slope


def _timed(k: int, repeats: int, label: str, run):
    """The best time of `repeats` gated calls of `run`, and the last call's counters."""
    best = math.inf
    for _ in range(repeats):
        with metrics.fresh() as m:
            t0 = time.perf_counter()
            out = run()
            dt = time.perf_counter() - t0
        rows = len(enumerate_nf(out, allow_baseline=True))
        if rows != k**3:
            raise AssertionError(f"{label} correctness gate: {rows} rows, expected {k**3}")
        best = min(best, dt)
    return best, m


def run_triangle(k: int, repeats: int = 1) -> SizeRow:
    x, y, z = (bipartite_relation(k) for _ in range(3))
    seconds, m = _timed(k, repeats, "triangle", lambda: triangle(x, y, z))
    return SizeRow(k, k * k, k**3, seconds, m.trie_edges, m.ring_mults, m.lookups)


def run_naive(k: int, repeats: int = 1) -> NaiveRow:
    """Pairwise fold by blunt expansion: (x' * y') then * z'."""
    A, B, C = ("A", INT), ("B", INT), ("C", INT)
    x, y, z = (embed(bipartite_relation(k), cols, [A, B, C]) for cols in ([A, B], [A, C], [B, C]))
    seconds, m = _timed(k, repeats, "naive",
                        lambda: naive_multiply(readback(naive_multiply(x, y)), z))
    return NaiveRow(k, k * k, k**3, seconds, m.pair_products)


def bench_triangle(sizes, repeats: int = 1, with_naive: bool = False) -> BenchReport:
    """Checks its arguments, then runs the triangle and the naive sizes (k <= 16)."""
    sizes = list(sizes)
    naive = [k for k in sizes if k <= 16] if with_naive else []
    if len(sizes) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    if any(k < 2 for k in sizes):
        raise ValueError("sizes must be at least 2")
    if sorted(set(sizes)) != sizes:
        raise ValueError("sizes must be strictly increasing")
    if len(naive) == 1:
        raise ValueError("the naive contrast needs two sizes of at most 16")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    return BenchReport(tuple(run_triangle(k, repeats) for k in sizes),
                       tuple(run_naive(k, repeats) for k in naive))
