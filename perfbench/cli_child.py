"""Traced stand-in for `python -m polyalg.cli` in the cli-etl workload.

    python cli_child.py SPANS_JSON [polyalg arguments for load or query]

It parses the same arguments with `polyalg.cli.build_parser`, makes the
same public calls as the `load` and `query` commands with a span around
each layer, prints the same output, and writes the span totals, with the
time taken to import `polyalg.cli`, to SPANS_JSON.
"""

import json
import sys
import time


def _symbols(node):
    from polyalg.query import Symbol

    if isinstance(node, Symbol):
        yield node.name
    elif isinstance(node, list):
        for x in node:
            yield from _symbols(x)


def main(argv):
    t0 = time.process_time()
    from polyalg import cli, metrics, query
    from polyalg.catalog import Catalog

    startup = time.process_time() - t0
    import spans

    out_path, argv = argv[0], argv[1:]
    tr = spans.Tracer(metrics)
    args = cli.build_parser().parse_args(argv)
    cat = Catalog.open(args.catalog)
    if args.command == "load":
        with tr.span("catalog.load_csv"):
            r = cat.add_csv(args.name, args.csv, args.schema, args.ring)
        cat.save()
        with tr.span("normal.enumerate"):
            n = len(r.rows())
        print(f"loaded {args.name}: {n} rows, "
              f"schema {r.schema.render()}, ring {r.ring.name}")
    elif args.command == "query":
        with metrics.fresh() as m:
            with tr.span("query.parse"):
                node = query.parse_sexpr(args.expr)
            for name in sorted(set(_symbols(node)) & set(cat.names())):
                with tr.span("catalog.load_csv"):
                    cat.get(name)  # cached, so `evaluate` reads no CSV
            with tr.span("query.evaluate"):
                r = query.evaluate(node, cat)
            with tr.span("normal.normalize"):
                r.nf()
            with tr.span("cli.render"):
                out = cli.render_relation(r, args.format)
        print(out)
        if args.stats:
            print()
            items = m.snapshot()
            width = max(len(k) for k in items)
            for k, v in sorted(items.items()):
                print(f"{k.ljust(width)}  {v}")
    else:
        raise SystemExit(f"cli_child.py: unsupported command {args.command!r}")
    totals = tr.take()
    totals["cli.startup"] = {"s": startup, "calls": 1}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
