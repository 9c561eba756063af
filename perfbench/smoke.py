"""Smoke run of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs the benchmark twice untraced and once traced, with one seed, and
checks that:
- each run exits 0 and ends with a result line whose gates all passed;
- the untraced runs print exactly the end-to-end metrics and the traced
  run exactly the per-layer metrics, with the units BENCHMARK.json gives;
- the operation counters repeat exactly for the same seed.
It also checks that the benchmark fails, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's files.
Exits 1 on the first problem it reports.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 7


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(proc, workload, trace, spec):
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return None, f"{what}: exit code {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, f"{what}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return None, f"{what}: gates failed\n{proc.stderr}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return None, f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}"
    return info, None


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        name = w["name"]
        first, problem = check_run(run(root, name, 0), name, 0, spec)
        second, problem2 = check_run(run(root, name, 0), name, 0, spec) if first else (None, None)
        _, problem3 = check_run(run(root, name, 1), name, 1, spec)
        for p in (problem, problem2, problem3):
            if p:
                print(p)
                return 1
        if first["counters"] != second["counters"]:
            print(f"{name}: counters differ for seed {SEED}: "
                  f"{first['counters']} vs {second['counters']}")
            return 1
        print(f"ok {name}: counters {first['counters']}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=root) as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(root / p, Path(bare) / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            print("benchmark printed a result without the package source")
            return 1
    print("ok: fails without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
