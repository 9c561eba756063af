"""Command-line surface.

    polyalg load data.csv --as x --schema A:str,B:int [--ring z|gf2|real]
    polyalg query '(join x y)' [--stats] [--format table|csv|json]
    polyalg show x [--format table|csv|json]
    polyalg bench triangle --sizes 8,16,32,64 [--repeats 3] [--with-naive]

Relations are registered in a JSON manifest (default ./polyalg-catalog.json,
override with --catalog) that records the CSV path, schema and ring; data
is re-read on use. Exit codes: 0 success, 1 usage error, 2 data/type error.
"""

import argparse
import csv as _csv
import io
import json
import sys

from . import metrics
from .catalog import Catalog, CatalogError
from .normal import STAR
from .prims import PrimSet
from .relation import Relation, type_name


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _render_cell(prim: PrimSet, v) -> str:
    if v is STAR:
        return "*"
    return prim.render(v)


def render_relation(r: Relation, fmt: str) -> str:
    paths = r.rows()
    # a wildcard baseline shows as a STAR slot in some row
    flagged = any(STAR in path for path, _ in paths)
    rows = [([_render_cell(p, v) for p, v in zip(r.schema.prims, path)], r.ring.render(coeff))
            for path, coeff in paths]
    if fmt == "json":
        payload = {
            "schema": [
                {"name": n, "type": type_name(p)} for n, p in r.schema.columns
            ],
            "ring": r.ring.name,
            "has_baseline": flagged,
            "rows": [{"key": cells, "coeff": coeff} for cells, coeff in rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        w = _csv.writer(buf, lineterminator="\n")
        w.writerow(r.schema.names + ["#weight"])
        for cells, coeff in rows:
            w.writerow(cells + [coeff])
        return buf.getvalue().rstrip("\n")
    # table
    headers = r.schema.names + ["#"]
    table = [cells + [coeff] for cells, coeff in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(f"({len(table)} rows)")
    if flagged:
        lines.append("note: result contains wildcard baselines (rows marked *)")
    return "\n".join(lines)


def _stats_table(counters) -> str:
    items = counters.snapshot()
    width = max(len(k) for k in items)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in sorted(items.items()))


def _cmd_load(args) -> int:
    cat = Catalog.open(args.catalog)
    r = cat.add_csv(args.name, args.csv, args.schema, args.ring)
    cat.save()
    print(
        f"loaded {args.name}: {len(r.rows())} rows, "
        f"schema {r.schema.render()}, ring {r.ring.name}"
    )
    return 0


def _cmd_query(args) -> int:
    from .query import run as run_query

    cat = Catalog.open(args.catalog)
    with metrics.fresh() as m:
        r = run_query(args.expr, cat)
        out = render_relation(r, args.format)
    print(out)
    if args.stats:
        print()
        print(_stats_table(m))
    return 0


def _cmd_show(args) -> int:
    r = Catalog.open(args.catalog).get(args.name)
    if r is None:
        raise CatalogError(f"unknown relation {args.name!r}")
    print(render_relation(r, args.format))
    return 0


def _cmd_bench(args) -> int:
    from .bench import bench_triangle

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print("error: --sizes expects a comma-separated list of integers", file=sys.stderr)
        return 1
    try:
        report = bench_triangle(sizes, repeats=args.repeats, with_naive=args.with_naive)
    except (ValueError, AssertionError) as e:  # bad arguments, a failed correctness gate
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ValueError) else 2
    print(f"{'k':>5} {'n':>8} {'rows':>10} {'seconds':>9} {'trie_edges':>12} {'ring_mults':>12}")
    for row in report.rows:
        print(
            f"{row.k:>5} {row.n:>8} {row.output_rows:>10} "
            f"{row.seconds:>9.3f} {row.trie_edges:>12} {row.ring_mults:>12}"
        )
    print(f"log-log slope of trie edges vs n: {report.slope:.3f}")
    if report.naive_rows:
        print()
        print(f"{'k':>5} {'n':>8} {'rows':>10} {'seconds':>9} {'pair_products':>14}")
        for row in report.naive_rows:
            print(
                f"{row.k:>5} {row.n:>8} {row.output_rows:>10} "
                f"{row.seconds:>9.3f} {row.pair_products:>14}"
            )
        print(f"log-log slope of pair products vs n: {report.naive_slope:.3f}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="polyalg", description="ring-weighted relational algebra")
    p.add_argument(
        "--catalog",
        default="polyalg-catalog.json",
        help="catalog manifest path (default ./polyalg-catalog.json)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    load = sub.add_parser("load", help="register a CSV file as a named relation")
    load.add_argument("csv")
    load.add_argument("--as", dest="name", required=True)
    load.add_argument("--schema", required=True, help="e.g. A:str,B:int")
    load.add_argument("--ring", default="z", choices=["z", "gf2", "real"])
    load.set_defaults(fn=_cmd_load)

    query = sub.add_parser("query", help="evaluate an s-expression query")
    query.add_argument("expr")
    query.add_argument("--stats", action="store_true")
    query.add_argument("--format", default="table", choices=["table", "csv", "json"])
    query.set_defaults(fn=_cmd_query)

    show = sub.add_parser("show", help="print a named relation")
    show.add_argument("name")
    show.add_argument("--format", default="table", choices=["table", "csv", "json"])
    show.set_defaults(fn=_cmd_show)

    bench = sub.add_parser("bench", help="run a benchmark")
    bench_sub = bench.add_subparsers(dest="benchmark", required=True)
    tri = bench_sub.add_parser("triangle", help="worst-case triangle join scaling")
    tri.add_argument("--sizes", default="8,16,32,64")
    tri.add_argument("--repeats", type=int, default=3)
    tri.add_argument("--with-naive", action="store_true")
    tri.set_defaults(fn=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.fn(args)
    except ValueError as e:  # CatalogError, QueryError, RelationError, InfiniteSupport
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
