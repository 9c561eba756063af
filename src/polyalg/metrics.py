"""Operation counters for the evaluation engine.

Trie edge visits are the primary machine-independent cost metric; ring
multiplications, lookups and naive pair-product expansions are tracked
alongside. A single module-level counter object is active at a time;
`fresh()` swaps in a clean one for the duration of a block. The counters
are plain ints, so concurrent workers would need one counter each, summed
afterwards.
"""

from contextlib import contextmanager


class Counters:
    __slots__ = ("trie_edges", "ring_mults", "lookups", "pair_products", "trace")

    def __init__(self, trace=False):
        self.trie_edges = 0
        self.ring_mults = 0
        self.lookups = 0
        self.pair_products = 0
        # trace, when enabled, records (component_counts, chosen_index) per
        # intersecting row of a product level for enumerator-rule
        # assertions, an all-baseline row through its summands' rows; the
        # index is the restricting factor that was iterated. Entries come
        # in level order, the rows of one level before the next's
        self.trace = [] if trace else None

    def snapshot(self):
        return {
            "trie_edges": self.trie_edges,
            "ring_mults": self.ring_mults,
            "lookups": self.lookups,
            "pair_products": self.pair_products,
        }

    def __repr__(self):
        return f"Counters({self.snapshot()})"


current = Counters()


@contextmanager
def fresh(trace=False):
    """Run a block against a fresh counter set; restores the previous one."""
    global current
    saved = current
    current = Counters(trace=trace)
    try:
        yield current
    finally:
        current = saved
