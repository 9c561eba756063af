"""Correctness references for the benchmark's gates.

Everything here uses the standard library only: no part of polyalg (and
not its expansion oracle) is imported, so a defect in the engine cannot
hide by also being present in the reference.
"""

import csv
import io
import json


def hash_join(inputs):
    """Natural join of weighted relations by repeated hash joins.

    `inputs` is a list of (column names, {row tuple: coefficient}). The
    result maps rows, with the columns in order of first appearance, to
    the product of the matched coefficients; zero results are dropped."""
    names, rows = inputs[0]
    cur_names = list(names)
    cur = dict(rows)
    for names, rows in inputs[1:]:
        shared = [n for n in names if n in cur_names]
        new = [i for i, n in enumerate(names) if n not in cur_names]
        rpos = [names.index(n) for n in shared]
        lpos = [cur_names.index(n) for n in shared]
        index = {}
        for row, c in rows.items():
            index.setdefault(tuple(row[i] for i in rpos), []).append(row)
        out = {}
        for row, c in cur.items():
            for match in index.get(tuple(row[i] for i in lpos), ()):
                key = row + tuple(match[i] for i in new)
                out[key] = out.get(key, 0) + c * rows[match]
        cur_names += [names[i] for i in new]
        cur = {k: v for k, v in out.items() if v != 0}
    return cur


def weighted(rows):
    """{row: coefficient} from (row, coefficient) pairs; duplicates add."""
    out = {}
    for row, c in rows:
        out[row] = out.get(row, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def add_into(model, delta):
    """Apply a {row: coefficient} delta to a dict-of-rows model in place."""
    for row, c in delta.items():
        v = model.get(row, 0) + c
        if v:
            model[row] = v
        else:
            model.pop(row, None)


def group_sum(model, group, target):
    """`(agg sum [group] target)`: per group, the coefficient-weighted sum."""
    out = {}
    for row, c in model.items():
        key = tuple(row[i] for i in group)
        out[key] = out.get(key, 0) + c * row[target]
    return {k: v for k, v in out.items() if v != 0}


def compare_rows(got, want, what):
    """Compare engine rows [(row, coefficient)] with a reference dict.

    Returns None when equal, else a one-line description of the first
    difference."""
    got = list(got)
    seen = {}
    for row, c in got:
        if row in seen:
            return f"{what}: row {row!r} listed twice"
        seen[row] = c
    if len(seen) != len(want):
        return f"{what}: {len(seen)} rows, expected {len(want)}"
    for row, c in want.items():
        if row not in seen:
            return f"{what}: missing row {row!r}"
        if seen[row] != c:
            return f"{what}: row {row!r} has coefficient {seen[row]!r}, expected {c!r}"
    return None


def rendered(model):
    """Model rows as the CLI renders them: cells and coefficient as text."""
    return {tuple(str(v) for v in row): str(c) for row, c in model.items()}


def parse_csv_output(text, columns):
    """Rows of `polyalg query --format csv` output as {cells: coefficient}.

    A trailing `--stats` table after a blank line is ignored."""
    body = text.split("\n\n", 1)[0]
    records = list(csv.reader(io.StringIO(body)))
    if not records or records[0] != list(columns) + ["#weight"]:
        raise ValueError(f"unexpected csv header {records[:1]!r}")
    out = {}
    for rec in records[1:]:
        if len(rec) != len(columns) + 1:
            raise ValueError(f"csv record {rec!r} has the wrong width")
        key = tuple(rec[:-1])
        if key in out:
            raise ValueError(f"csv row {key!r} listed twice")
        out[key] = rec[-1]
    return out


def parse_json_output(text, columns):
    """Rows of `polyalg query --format json` output as {cells: coefficient}."""
    body = text.split("\n\n", 1)[0]
    payload = json.loads(body)
    names = [c["name"] for c in payload["schema"]]
    if names != list(columns):
        raise ValueError(f"unexpected json schema {names!r}")
    if payload["has_baseline"]:
        raise ValueError("json output flags wildcard rows")
    out = {}
    for r in payload["rows"]:
        key = tuple(r["key"])
        if key in out:
            raise ValueError(f"json row {key!r} listed twice")
        out[key] = r["coeff"]
    return out


def parse_stats(text):
    """Counters from the `--stats` table that follows the rows."""
    parts = text.rstrip("\n").rsplit("\n\n", 1)
    if len(parts) != 2:
        return {}
    stats = {}
    for line in parts[1].splitlines():
        name, _, value = line.partition(" ")
        if value.strip().isdigit():
            stats[name] = int(value)
    return stats
