"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup` (untimed by the
pass clock, reported as `setup_s`) and then repeats an identical `run_pass`
for the measured time. A pass times only the calls into polyalg; every
result is gated on a reference from `reference.py` after the clock stops.
With a tracer, a pass makes the same calls split at the public layer
boundaries, with a span around each.
"""

import csv
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import reference

from polyalg import metrics, normal, product, relational
from polyalg.prims import INT, STRING
from polyalg.rings import Z

HERE = Path(__file__).resolve().parent

# Input sizes per scale; "tiny" is the smoke run's scale.
SIZES = {
    "full": {
        "triangle-grid": {"k": 32},
        "join-skew": {"join2_random": {"n": 220, "domain": 220},
                      "triangle_zipf": {"m": 350, "nodes": 300},
                      "path3_str": {"n": 130, "domain": 130}},
        "update-stream": {"base": 2000, "batches": 3, "batch": 100, "lookups": 16},
        "cli-etl": {"base": 600, "delta": 200, "dim": 200, "labels": 40},
    },
    "tiny": {
        "triangle-grid": {"k": 4},
        "join-skew": {"join2_random": {"n": 30, "domain": 30},
                      "triangle_zipf": {"m": 40, "nodes": 30},
                      "path3_str": {"n": 30, "domain": 30}},
        "update-stream": {"base": 60, "batches": 2, "batch": 10, "lookups": 6},
        "cli-etl": {"base": 60, "delta": 20, "dim": 12, "labels": 4},
    },
}


class Ledger:
    """Operations attempted and the gate failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, problem):
        """Count one operation; `problem` is None when its gate passed."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
            print(f"gate failed: {problem}", file=sys.stderr)


def cpu_time():
    """CPU seconds used so far by this process and its waited-for children.

    The benchmark times CPU, not wall-clock, since on a shared machine wall
    time also counts the time other tenants hold the processor. The work is
    single threaded, so on an idle machine the two agree."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Clock:
    """Timed regions of a pass in CPU seconds, by operation name."""

    def __init__(self):
        self.samples = {}
        self.pass_s = 0.0

    @contextmanager
    def __call__(self, op):
        t0 = cpu_time()
        try:
            yield
        finally:
            dt = cpu_time() - t0
            self.samples.setdefault(op, []).append(dt)
            self.pass_s += dt


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _rel(names, prims, rows, tr):
    """A relation with coefficient-1 rows, built through the public API."""
    sch = relational.schema(*zip(names, prims))
    with tr.span("relational.from_rows"):
        return relational.relation_from_rows(sch, Z, [(r, 1) for r in rows])


def _words(r, count, lo=3, hi=9):
    """`count` distinct lowercase strings, some sharing prefixes."""
    out = set()
    while len(out) < count:
        n = r.randint(lo, hi)
        out.add("".join(r.choice("abcdefghij") for _ in range(n)))
    return sorted(out)


def _product_spans(terms, tr):
    """`multiply` split into its layers: normalise each factor, then the
    joint product, noting the levels it scheduled."""
    with tr.span("normal.normalize"):
        nfs = [normal.normalize(t) for t in terms]
    tr.note("normal.tensor_summands", sum(len(getattr(nf, "summands", ())) for nf in nfs))
    trace = metrics.current.trace
    levels = len(trace) if trace is not None else 0
    with tr.span("product.nf_product"):
        nf = product.nf_product(nfs)
    if trace is not None:
        tr.note("product.levels", len(trace) - levels)
    return nf


def traced_join(rs, tr):
    """`relational.natural_join(rs).rows()` split at the layer boundaries:
    rename into first-appearance order, embed, normalise, multiply, strip,
    read back, enumerate."""
    cols = {}
    for r in rs:
        for name, prim in r.schema.columns:
            cols.setdefault(name, prim)
    target = list(cols.items())
    terms = []
    for r in rs:
        want = [n for n in cols if n in r.schema.names]
        if want != list(r.schema.names):
            with tr.span("relational.rename"):
                r = relational.rename(r, [r.schema.position(n) for n in want])
        with tr.span("product.embed"):
            terms.append(product.embed(r.chain_term(), list(r.schema.columns), target))
    nf = _product_spans(terms, tr)
    if not normal.has_baseline(nf):
        with tr.span("normal.strip"):
            nf = normal.strip_compact(nf)
    with tr.span("normal.readback"):
        term = normal.readback(nf)
    out = relational.Relation(relational.schema(*target), rs[0].ring, term, nf)
    with tr.span("normal.enumerate"):
        rows = out.rows()
    tr.note("product.out_rows", len(rows))
    return rows


class TriangleGrid:
    """`product.triangle` on three complete-bipartite k x k grids over
    seeded random int64 keys: the worst case for the triangle, with
    exactly k^3 output rows."""

    name = "triangle-grid"

    def __init__(self, sizes, src):
        self.k = sizes["k"]

    def setup(self, seed, tr, tmp):
        r = _rng(self.name, seed)
        doms = [r.sample(range(-2**61, 2**61), self.k) for _ in range(3)]

        def grid(i, j):
            rows = [(a, b) for a in doms[i] for b in doms[j]]
            r.shuffle(rows)
            return rows

        x = _rel(("A", "B"), (INT, INT), grid(0, 1), tr)
        y = _rel(("A", "C"), (INT, INT), grid(0, 2), tr)
        z = _rel(("B", "C"), (INT, INT), grid(1, 2), tr)
        return {"rels": (x, y, z), "doms": [set(d) for d in doms]}

    def run_pass(self, st, clock, tr, ledger):
        x, y, z = (rel.chain_term() for rel in st["rels"])
        if not tr.enabled:
            with clock("triangle"):
                rows = normal.enumerate_nf(product.triangle(x, y, z))
        else:
            with clock("triangle"):
                tgt = [("A", INT), ("B", INT), ("C", INT)]
                with tr.span("product.embed"):
                    es = [product.embed(t, [tgt[i], tgt[j]], tgt)
                          for t, (i, j) in zip((x, y, z), ((0, 1), (0, 2), (1, 2)))]
                nf = _product_spans(es, tr)
                with tr.span("normal.enumerate"):
                    rows = normal.enumerate_nf(nf)
                tr.note("product.out_rows", len(rows))
        ledger.check(self._gate(rows, st["doms"]))

    def _gate(self, rows, doms):
        da, db, dc = doms
        want = self.k ** 3
        if len(rows) != want:
            return f"triangle: {len(rows)} rows, expected {want}"
        if len({row for row, _ in rows}) != want:
            return "triangle: repeated rows"
        for (a, b, c), coeff in rows:
            if coeff != 1 or a not in da or b not in db or c not in dc:
                return f"triangle: unexpected row {(a, b, c)!r} with coefficient {coeff!r}"
        return None


def _balanced(r, values, n):
    """n cells drawing every value equally often, in random order, so the
    join's output size is set by the sizes and not by the seed."""
    cells = [values[i % len(values)] for i in range(n)]
    r.shuffle(cells)
    return cells


def _join2_random(r, n, domain):
    """(A,B) join (B,C) on random ints: the tensor-to-keyed conversion path."""
    keys = r.sample(range(10**9), domain)

    def side():
        return list(zip(r.sample(range(10**9), n), _balanced(r, keys, n)))

    (ab, bc) = side(), side()
    return [(("A", "B"), (INT, INT), ab),
            (("B", "C"), (INT, INT), [(b, c) for c, b in bc])]


def _triangle_zipf(r, m, nodes):
    """(A,B) join (B,C) join (A,C) over one Zipf(s=1) edge list."""
    labels = r.sample(range(10**9), nodes)  # heavy nodes get random keys
    weights = [1.0 / (i + 1) for i in range(nodes)]
    edges = set()
    while len(edges) < m:
        u, v = r.choices(labels, weights, k=2)
        if u != v:
            edges.add((u, v))
    edges = sorted(edges)
    r.shuffle(edges)
    return [(names, (INT, INT), edges) for names in (("A", "B"), ("B", "C"), ("A", "C"))]


def _path3_str(r, n, domain):
    """R(A,B) join S(B,C) join T(D,C) on string keys; T's column order
    differs from the join order, so the join renames it first."""
    words = _words(r, domain)

    def side():
        return list(zip(_balanced(r, words, n), _balanced(r, words, n)))

    return [(("A", "B"), (STRING, STRING), side()),
            (("B", "C"), (STRING, STRING), side()),
            (("D", "C"), (STRING, STRING), side())]


class JoinSkew:
    """Three natural joins through `relational.natural_join` and `rows()`,
    each gated by a dict-based hash join."""

    name = "join-skew"
    QUERIES = {"join2_random": _join2_random, "triangle_zipf": _triangle_zipf,
               "path3_str": _path3_str}

    def __init__(self, sizes, src):
        self.sizes = sizes

    def setup(self, seed, tr, tmp):
        r = _rng(self.name, seed)
        st = {}
        for query, make in self.QUERIES.items():
            inputs = make(r, **self.sizes[query])
            rels = [_rel(names, prims, rows, tr) for names, prims, rows in inputs]
            want = reference.hash_join([(names, reference.weighted((row, 1) for row in rows))
                                        for names, _, rows in inputs])
            st[query] = (rels, want)
        return st

    def run_pass(self, st, clock, tr, ledger):
        for query, (rels, want) in st.items():
            with clock(query):
                if tr.enabled:
                    rows = traced_join(rels, tr)
                else:
                    rows = relational.natural_join(rels).rows()
            ledger.check(reference.compare_rows(rows, want, query))


class UpdateStream:
    """A (K:int, S:str, V:int) relation under a stream of update batches:
    each batch is half inserts and half deletions, then a forced `nf()` and
    point lookups; the stream ends with `(agg sum [S] V)`."""

    name = "update-stream"

    def __init__(self, sizes, src):
        self.__dict__.update(sizes)

    def setup(self, seed, tr, tmp):
        r = _rng(self.name, seed)
        groups = _words(r, 30)
        keys = iter(r.sample(range(-2**40, 2**40),
                             self.base + self.batches * (self.batch + self.lookups)))
        cols, prims = ("K", "S", "V"), (INT, STRING, INT)

        def fresh_row():
            return (next(keys), r.choice(groups), r.randrange(1000))

        model = {fresh_row(): 1 for _ in range(self.base)}
        base = _rel(cols, prims, list(model), tr)
        with tr.span("normal.normalize"):
            base.nf()
        batches = []
        for _ in range(self.batches):
            half = self.batch // 2
            delta = {fresh_row(): 1 for _ in range(half)}
            for row in r.sample(sorted(model), half):
                delta[row] = -1
            reference.add_into(model, delta)
            with tr.span("relational.from_rows"):
                rel = relational.relation_from_rows(
                    relational.schema(*zip(cols, prims)), Z, list(delta.items()))
            probes = r.sample(sorted(model), self.lookups // 2)
            probes += [(next(keys), r.choice(groups), r.randrange(1000))
                       for _ in range(self.lookups - len(probes))]
            r.shuffle(probes)
            batches.append((rel, [(p, model.get(p, 0)) for p in probes]))
        return {"base": base, "batches": batches, "final": dict(model),
                "agg": reference.group_sum(model, [1], 2)}

    def run_pass(self, st, clock, tr, ledger):
        db = st["base"]
        for delta, probes in st["batches"]:
            with clock("update"):
                with tr.span("relational.update"):
                    db = relational.apply_update(db, delta)
                with tr.span("normal.normalize"):
                    nf = db.nf()
            tr.note("normal.tensor_summands", len(getattr(nf, "summands", ())))
            for row, want in probes:
                with clock("lookup"):
                    with tr.span("normal.lookup"):
                        got = db.lookup(row)
                ledger.check(None if got == want else
                             f"lookup {row!r}: {got!r}, expected {want!r}")
        with clock("aggregate"):
            with tr.span("relational.aggregate"):
                agg = relational.aggregate(db, ["S"], "V", "sum")
            with tr.span("normal.enumerate"):
                rows = agg.rows()
        ledger.check(reference.compare_rows(rows, st["agg"], "aggregate sum"))
        ledger.check(reference.compare_rows(db.rows(), st["final"], "stream end state"))


class CliEtl:
    """`polyalg load` of a base CSV, a `#weight` delta and a string
    dimension, then four `polyalg query` runs, each in its own process."""

    name = "cli-etl"
    spawns = True  # its peak RSS is the largest child's

    def __init__(self, sizes, src):
        self.__dict__.update(sizes)
        self.src = src  # absolute, so children resolve it from any directory

    def setup(self, seed, tr, tmp):
        r = _rng(self.name, seed)
        groups = _words(r, self.dim)
        labels = _words(r, self.labels)
        keys = r.sample(range(10**6), self.base + self.delta)
        base = [(k, r.choice(groups), r.randrange(1000)) for k in keys[:self.base]]
        half = self.delta // 2
        delta = {(k, r.choice(groups), r.randrange(1000)): r.randint(1, 2)
                 for k in keys[self.base:self.base + half]}
        for row in r.sample(base, self.delta - half):
            delta[row] = -1
        dim = [(g, r.choice(labels)) for g in groups]
        files = {"base": ("K:int,S:str,V:int", base, None),
                 "delta": ("K:int,S:str,V:int", list(delta), delta),
                 "dim": ("S:str,L:str", dim, None)}
        for name, (schema_text, rows, weights) in files.items():
            with open(tmp / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, lineterminator="\n")
                header = [c.split(":")[0] for c in schema_text.split(",")]
                w.writerow(header + (["#weight"] if weights else []))
                for row in rows:
                    w.writerow(list(row) + ([weights[row]] if weights else []))
        base_m = reference.weighted((row, 1) for row in base)
        union = dict(base_m)
        reference.add_into(union, delta)
        cut = 500_000
        queries = [
            ("(agg sum [S] V (union base delta))", "csv", ["S"],
             reference.group_sum(union, [1], 2), ("base", "delta")),
            (f"(select (< K {cut}) base)", "json", ["K", "S", "V"],
             {k: v for k, v in base_m.items() if k[0] < cut}, ("base",)),
            ("(union base delta)", "csv", ["K", "S", "V"], union, ("base", "delta")),
            ("(join base dim)", "csv", ["K", "S", "V", "L"],
             reference.hash_join([(("K", "S", "V"), base_m),
                                  (("S", "L"), reference.weighted((d, 1) for d in dim))]),
             ("base", "dim")),
        ]
        return {"tmp": tmp, "files": files, "queries": queries,
                "rows": {"base": len(base), "delta": len(delta), "dim": len(dim)}}

    def _child(self, st, tr, argv):
        """Run one CLI process to completion; traced, it writes its span
        totals to spans.json in the temporary directory."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        catalog = ["--catalog", str(st["tmp"] / "catalog.json")]
        if not tr.enabled:
            cmd = [sys.executable, "-m", "polyalg.cli"] + catalog + argv
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"),
                   str(st["tmp"] / "spans.json")] + catalog + argv
        proc = subprocess.run(cmd, cwd=st["tmp"], env=env, capture_output=True,
                              text=True, timeout=150)
        return proc

    def run_pass(self, st, clock, tr, ledger):
        counters = {}
        for name, (schema_text, _, _) in st["files"].items():
            argv = ["load", str(st["tmp"] / f"{name}.csv"), "--as", name, "--schema", schema_text]
            with clock("load"):
                proc = self._child(st, tr, argv)
            want = f"loaded {name}: {st['rows'][name]} rows,"
            ledger.check(self._exit_problem(proc, "load " + name) or
                         (None if proc.stdout.startswith(want) else
                          f"load {name}: printed {proc.stdout.strip()!r}, expected {want!r}"))
            self._collect(st, tr, proc, [name])
        for expr, fmt, columns, want, reads in st["queries"]:
            argv = ["query", expr, "--format", fmt, "--stats"]
            with clock("query"):
                proc = self._child(st, tr, argv)
            problem = self._exit_problem(proc, expr)
            if problem is None:
                try:
                    parse = (reference.parse_json_output if fmt == "json"
                             else reference.parse_csv_output)
                    got = parse(proc.stdout, columns)
                except ValueError as e:
                    problem = f"{expr}: unreadable output: {e}"
                else:
                    problem = _compare_rendered(got, reference.rendered(want), expr)
                for k, v in reference.parse_stats(proc.stdout).items():
                    counters[k] = counters.get(k, 0) + v
            ledger.check(problem)
            self._collect(st, tr, proc, reads)
        return counters

    @staticmethod
    def _exit_problem(proc, what):
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return f"{what}: exit code {proc.returncode}: {tail[0]}"
        return None

    def _collect(self, st, tr, proc, reads):
        """Fold a traced child's spans into this pass's tracer."""
        if not tr.enabled or proc.returncode != 0:
            return
        child = json.loads((st["tmp"] / "spans.json").read_text(encoding="utf-8"))
        tr.merge(child)
        tr.note("catalog.rows_read", sum(st["rows"][n] for n in reads))


def _compare_rendered(got, want, what):
    if len(got) != len(want):
        return f"{what}: {len(got)} rows, expected {len(want)}"
    for key, coeff in want.items():
        if got.get(key) != coeff:
            return f"{what}: row {key!r} reads {got.get(key)!r}, expected {coeff!r}"
    return None


WORKLOADS = {w.name: w for w in (TriangleGrid, JoinSkew, UpdateStream, CliEtl)}
