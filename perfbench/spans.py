"""Spans around the benchmark's calls into each layer.

A span records its name, its parent, its start and end in process CPU
seconds, and the change of polyalg's operation counters (`metrics.current`)
across it. Deltas, not `metrics.fresh()`, so spans nest: an inner span's
counts are also part of the outer one's. Spans stay in memory and are
summed per unit of work (one set-up or one pass) when the run ends.
"""

import time
from contextlib import contextmanager, nullcontext

COUNTERS = ("trie_edges", "ring_mults", "lookups")


class Tracer:
    enabled = True

    def __init__(self, metrics):
        self._metrics = metrics
        self.spans = []  # (name, parent index or None, start, end, counter deltas)
        self.notes = {}
        self.merged = []  # totals taken in another process
        self._stack = []

    @contextmanager
    def span(self, name):
        m = self._metrics.current
        before = [getattr(m, c) for c in COUNTERS]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append(None)
        t0 = time.process_time()
        try:
            yield
        finally:
            t1 = time.process_time()
            m = self._metrics.current
            deltas = {c: getattr(m, c) - b for c, b in zip(COUNTERS, before)}
            self.spans[self._stack.pop()] = (name, parent, t0, t1, deltas)

    def note(self, name, value):
        """Add a count observed at a boundary, such as output rows."""
        self.notes[name] = self.notes.get(name, 0) + value

    def merge(self, totals):
        """Add the result of another tracer's `take()`."""
        self.merged.append(totals)

    def take(self):
        """Per-name totals of the spans and notes recorded since the last
        call: {name: {"s": seconds, "calls": n, counter: delta, ...}} for
        spans and {name: value} for notes."""
        totals = {}
        for other in self.merged:
            for name, v in other.items():
                if isinstance(v, dict):
                    agg = totals.setdefault(name, dict.fromkeys(v, 0))
                    for key, x in v.items():
                        agg[key] += x
                else:
                    self.note(name, v)
        for name, _, t0, t1, deltas in self.spans:
            agg = totals.setdefault(name, {"s": 0.0, "calls": 0, **dict.fromkeys(COUNTERS, 0)})
            agg["s"] += t1 - t0
            agg["calls"] += 1
            for c, d in deltas.items():
                agg[c] += d
        totals.update(self.notes)
        self.spans = []
        self.notes = {}
        self.merged = []
        return totals


class NoTracer:
    """Tracing switched off: every span is a no-op."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def note(self, name, value):
        pass

    def take(self):
        return {}
