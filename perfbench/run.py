"""polyalg benchmark: one seeded workload per run, gated on correctness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from `src/` of the current directory; nothing
needs installing. The run sets the workload up SETUPS times, then repeats
identical passes until S seconds have gone. Every result is checked
against the references in `reference.py`. The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `setup_s` and
`cpu_s`, the median CPU seconds of a set-up and of a pass, scaled to a
reference machine speed (see `calibrate`), and `peak_rss_mb`. With
`--trace 1` passes alternate between untraced and traced; the metrics are
the per-layer ones, from spans around the public calls, and
`trace.overhead_s` is the traced minus the untraced median pass time.
`--scale tiny` shrinks every input for the smoke run. The line before the
result records the operation counters of one pass, the unscaled CPU time
and the per-operation latencies.
"""

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans

SETUPS = 5
# CPU seconds `calibrate()` takes at the reference speed: a quiet 2-core
# x86-64 cloud VM with CPython 3.11
CALIBRATION_S = 0.1

# per-operation timings kept among the per-layer metrics, under the names
# of the workload steps they time
OP_METRICS = {
    "triangle_s": "triangle",
    "join2_random_s": "join2_random",
    "triangle_zipf_s": "triangle_zipf",
    "path3_str_s": "path3_str",
    "update_s": "update",
    "query_s": "query",
}


RATIO_UNITS = {
    "catalog.rows_per_s": "1/s",
    "normal.lookup_lookups": "probes/call",
    "product.edges_per_out_row": "edges/row",
    "product.probe_yield": "rows/probe",
}


def _unit(name):
    if name in RATIO_UNITS:
        return RATIO_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def calibrate():
    """A fixed pure-Python computation, dicts, tuples and sorting over a
    few megabytes like the engine's own work, run before the first set-up
    and after every set-up and pass.

    On a shared two-core machine the CPU time of one pass drifted by a
    third within two minutes with the load of other tenants, and this
    computation drifted with it. Each set-up and pass is therefore reported
    as its CPU time times CALIBRATION_S over the mean CPU time of the
    calibrations just before and after it: seconds at the reference
    speed."""
    r = random.Random(0)
    rows = [(r.randrange(1 << 30), str(i), i) for i in range(40000)]
    index = {}
    for key, name, i in rows:
        index.setdefault(key % 4093, []).append((name, i))
    rows.sort()
    return len(index), rows[0]


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_call(unit, name):
    span = unit.get(name)
    return span["s"] / span["calls"] if span else 0.0


def tail(samples):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _cpu_of(fn):
    gc.disable()  # a collection of the workload's heap is not the machine's speed
    try:
        t0 = time.process_time()
        fn()
        return time.process_time() - t0
    finally:
        gc.enable()


def load_package(root):
    src = root / "src"
    if not (src / "polyalg" / "__init__.py").is_file():
        print(f"error: no polyalg package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import polyalg

    if Path(polyalg.__file__).resolve().parent != (src / "polyalg").resolve():
        print(f"error: polyalg was imported from {polyalg.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return src


def layer_metrics(setups, traced, untraced):
    """Per-layer metrics from the traced units (dicts of span totals and
    notes, one per set-up or pass) and the untraced passes."""
    def spent(name, key="s", units=traced):
        return _median([u[name][key] if name in u else 0 for u in units])

    def noted(name):
        return _median([u.get(name, 0) for u in traced])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "catalog.load_csv_s": spent("catalog.load_csv"),
        "catalog.rows_per_s": _median([
            ratio(u.get("catalog.rows_read", 0), u["catalog.load_csv"]["s"])
            for u in traced if "catalog.load_csv" in u]),
        "query.parse_s": spent("query.parse"),
        "query.evaluate_s": spent("query.evaluate"),
        "cli.startup_s": _median([_per_call(u, "cli.startup") for u in traced]),
        "cli.render_s": spent("cli.render"),
        "relational.from_rows_s": spent("relational.from_rows", units=setups),
        "relational.rename_s": spent("relational.rename"),
        "relational.update_s": spent("relational.update"),
        "relational.aggregate_s": spent("relational.aggregate"),
        "normal.normalize_s": spent("normal.normalize"),
        "normal.normalize_trie_edges": spent("normal.normalize", "trie_edges"),
        "normal.tensor_summands": noted("normal.tensor_summands"),
        "normal.lookup_s": _median([_per_call(u, "normal.lookup") for u in traced]),
        "normal.lookup_lookups": _median([
            ratio(u["normal.lookup"]["lookups"], u["normal.lookup"]["calls"])
            for u in traced if "normal.lookup" in u]),
        "normal.enumerate_s": spent("normal.enumerate"),
        "normal.enumerate_trie_edges": spent("normal.enumerate", "trie_edges"),
        "normal.strip_s": spent("normal.strip"),
        "normal.readback_s": spent("normal.readback"),
        "product.embed_s": spent("product.embed"),
        "product.nf_product_s": spent("product.nf_product"),
        "product.trie_edges": spent("product.nf_product", "trie_edges"),
        "product.lookups": spent("product.nf_product", "lookups"),
        "product.ring_mults": spent("product.nf_product", "ring_mults"),
        "product.levels": noted("product.levels"),
        "product.edges_per_out_row": _median([
            ratio(u["product.nf_product"]["trie_edges"], u.get("product.out_rows", 0))
            for u in traced if "product.nf_product" in u]),
        "product.probe_yield": _median([
            ratio(u.get("product.out_rows", 0), u["product.nf_product"]["lookups"])
            for u in traced if "product.nf_product" in u]),
    }
    first = untraced[0]["counters"] if untraced else {}
    for c in spans.COUNTERS:
        out[f"pass.{c}"] = first.get(c, 0)
    out["trace.overhead_s"] = (_median([u["pass.cpu_s"] for u in traced])
                               - _median([p["cpu"] for p in untraced]))
    return out


def op_metrics(untraced):
    """Per-operation latencies of the untraced passes, by workload step."""
    samples = {}
    for p in untraced:
        for op, xs in p["samples"].items():
            samples.setdefault(op, []).extend(xs)
    out = {name: _median(samples.get(op, [])) for name, op in OP_METRICS.items()}
    out["load_s"] = _median([sum(p["samples"].get("load", [])) for p in untraced])
    lookups = samples.get("lookup", [])
    out["lookup_p50_ms"] = 1000 * _median(lookups)
    t = tail(lookups)
    out["lookup_tail_ms"] = 1000 * t[1] if t else 0.0
    return out, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    # a terminated run still removes its temporary directory and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd().resolve()
    src = load_package(root)
    import workloads
    from polyalg import metrics

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.scale][args.workload], src)
    ledger = workloads.Ledger()

    calibration = [_cpu_of(calibrate)]

    def calibrated(cpu):
        """(cpu, index of the calibration run right after it)."""
        calibration.append(_cpu_of(calibrate))
        return cpu, len(calibration) - 1

    def at_reference_speed(sample):
        cpu, k = sample  # scaled by the two calibrations before and after
        return CALIBRATION_S * cpu / _median(calibration[max(0, k - 2):k + 2])

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setup_tracer = spans.Tracer(metrics) if args.trace else spans.NoTracer()
        setup_s, setups = [], []
        for _ in range(SETUPS):
            gc.collect()
            t0 = workloads.cpu_time()
            st = wl.setup(args.seed, setup_tracer, Path(tmp))
            setup_s.append(calibrated(workloads.cpu_time() - t0))
            setups.append(setup_tracer.take())

        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < 1 + args.trace or time.perf_counter() < deadline:
            is_traced = bool(args.trace and i % 2)
            i += 1
            tr = spans.Tracer(metrics) if is_traced else spans.NoTracer()
            clock = workloads.Clock()
            gc.collect()
            before = metrics.current.snapshot()
            try:
                with metrics.fresh(trace=True) if is_traced else nullcontext():
                    child_counters = wl.run_pass(st, clock, tr, ledger)
            except Exception as e:  # a raising operation is a failed one
                traceback.print_exc()
                ledger.check(f"{wl.name}: pass raised {e!r}")
                continue
            after = metrics.current.snapshot()
            cpu = calibrated(clock.pass_s)
            if is_traced:
                unit = tr.take()
                unit["pass.cpu_s"] = cpu
                traced.append(unit)
                continue
            counters = child_counters or {c: after[c] - before[c] for c in spans.COUNTERS}
            counters = {c: counters.get(c, 0) for c in spans.COUNTERS}
            if untraced and counters != untraced[0]["counters"]:
                ledger.check(f"{wl.name}: counters {counters} differ from the first "
                             f"pass's {untraced[0]['counters']} on identical input")
            untraced.append({"cpu": cpu, "raw_cpu": clock.pass_s, "samples": clock.samples,
                             "counters": counters})

    setup_s = [at_reference_speed(x) for x in setup_s]
    for p in untraced:
        p["cpu"] = at_reference_speed(p["cpu"])
    for u in traced:
        u["pass.cpu_s"] = at_reference_speed(u["pass.cpu_s"])
    ops, samples = op_metrics(untraced)
    info = {"workload": wl.name, "seed": args.seed, "scale": args.scale,
            "passes": len(untraced), "traced_passes": len(traced),
            "calibration_s": _median(calibration),
            "raw_cpu_s": _median([p["raw_cpu"] for p in untraced]),
            "counters": untraced[0]["counters"] if untraced else None,
            "ops": {}}
    for op, xs in sorted(samples.items()):
        t = tail(xs)
        info["ops"][op] = {"n": len(xs), "p50_ms": 1000 * _median(xs),
                           "tail_pct": t and round(t[0], 1), "tail_ms": t and 1000 * t[1]}
    print(json.dumps(info))

    if args.trace:
        result = {**layer_metrics(setups, traced, untraced), **ops}
        metrics_out = {k: {"value": v, "unit": _unit(k)} for k, v in result.items()}
    else:
        usage = resource.RUSAGE_CHILDREN if getattr(wl, "spawns", False) else resource.RUSAGE_SELF
        metrics_out = {
            "setup_s": {"value": _median(setup_s), "unit": "s"},
            "cpu_s": {"value": _median([p["cpu"] for p in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024, "unit": "MB"},
        }
    failed = len(ledger.failures)
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
