"""CSV ingestion and the named-relation catalog.

A catalog maps names to relations. For the command line it persists as a
small JSON manifest pointing at the source CSV files with their declared
schemas and ring, so separate invocations share names without any storage
engine; files are re-read on use.

CSV format: RFC-4180 with a header row matching the declared schema.
Integer cells are 64-bit decimals, booleans are true/false, strings are
UTF-8. Duplicate rows accumulate multiplicity; an optional trailing
`#weight` column supplies explicit coefficients (negative weights make
deletion deltas).
"""

import csv
import json
import os
import tempfile
from pathlib import Path

from .prims import BOOL, INT, INT64_MAX, INT64_MIN
from .relational import TYPE_NAMES, Relation, Schema, _built
from .rings import Ring, ring_by_name

WEIGHT_COLUMN = "#weight"
_ENTRY_FIELDS = ("path", "schema", "ring")


class CatalogError(ValueError):
    pass


def parse_schema(text: str) -> Schema:
    """Parse `A:str,B:int` into a schema."""
    cols = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise CatalogError(f"bad schema column {part!r}; expected name:type")
        name, tname = (x.strip() for x in part.split(":", 1))
        prim = TYPE_NAMES.get(tname)
        if prim is None:
            raise CatalogError(f"unknown type {tname!r}; expected one of {sorted(TYPE_NAMES)}")
        cols.append((name, prim))
    if not cols:
        raise CatalogError("empty schema")
    return Schema(tuple(cols))


def _parse_cell(text: str, prim):
    """The cell's value in `prim`; the caller adds a bad cell's location."""
    if prim is INT:
        try:
            v = int(text)
        except ValueError:
            raise CatalogError(f"{text!r} is not an integer") from None
        if not INT64_MIN <= v <= INT64_MAX:
            raise CatalogError(f"{text!r} is out of 64-bit range")
        return v
    if prim is BOOL:
        t = text.strip().lower()
        if t == "true":
            return True
        if t == "false":
            return False
        raise CatalogError(f"{text!r} is not true/false")
    return text


def _records(reader, path):
    """The reader's records, each as (the file line it starts on, its
    cells): a quoted cell may span lines. A malformed file, such as one
    with a cell longer than `csv.field_size_limit()`, fails at its line."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as e:
        raise CatalogError(f"{path}:{reader.line_num}: {e}") from None


def load_csv(path, sch: Schema, ring: Ring) -> Relation:
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as e:
        raise CatalogError(f"cannot read {path}: {e}") from None
    with fh:
        reader = _records(csv.reader(fh), path)
        try:
            _, header = next(reader)
        except StopIteration:
            raise CatalogError(f"{path}: missing header row") from None
        expected = list(sch.names)
        has_weight = False
        if header == expected + [WEIGHT_COLUMN]:
            has_weight = True
        elif header != expected:
            raise CatalogError(
                f"{path}: header {header} does not match schema columns {expected}"
            )
        prims = sch.prims
        rows = []
        for lineno, row in reader:
            if not row:
                continue
            want = len(sch) + (1 if has_weight else 0)
            if len(row) != want:
                raise CatalogError(f"{path}:{lineno}: expected {want} cells, got {len(row)}")
            try:
                tup = tuple(map(_parse_cell, row, prims))
            except CatalogError:  # cite the row's first bad cell
                for i, (cell, prim) in enumerate(zip(row, prims)):
                    try:
                        _parse_cell(cell, prim)
                    except CatalogError as e:
                        raise CatalogError(f"{path}:{lineno}:{i + 1}: {e}") from None
            if has_weight:
                try:
                    coeff = ring.parse(row[-1])
                except ValueError as e:
                    raise CatalogError(f"{path}:{lineno}: bad weight: {e}") from None
            else:
                coeff = ring.one
            rows.append((tup, coeff))
    return _built(sch, ring, rows)  # every cell and weight is checked above


class Catalog:
    """Named relations, persisted as a JSON manifest of CSV sources."""

    def __init__(self, manifest_path):
        self.manifest_path = Path(manifest_path)
        self.entries = {}  # name -> {"path", "schema", "ring"}
        self._cache = {}

    @classmethod
    def open(cls, manifest_path) -> "Catalog":
        cat = cls(manifest_path)
        p = cat.manifest_path
        if p.exists():
            try:
                data = json.loads(p.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as e:
                raise CatalogError(f"cannot read catalog {p}: {e}") from None
            entries = data.get("relations", {}) if isinstance(data, dict) else None
            if not isinstance(entries, dict):
                raise CatalogError(f"catalog {p} is not an object with a \"relations\" object")
            for name, entry in entries.items():
                if not (isinstance(entry, dict)
                        and all(isinstance(entry.get(f), str) for f in _ENTRY_FIELDS)):
                    raise CatalogError(f"catalog {p}: relation {name!r} needs string "
                                       f"fields {', '.join(_ENTRY_FIELDS)}")
            cat.entries = entries
        return cat

    def save(self):
        path = self.manifest_path
        text = json.dumps({"relations": self.entries}, indent=2, sort_keys=True) + "\n"
        # write beside the manifest, then rename over it: a failed write
        # leaves the previous manifest whole
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as e:
            raise CatalogError(f"cannot write catalog {path}: {e.strerror or e}") from None

    def add_csv(self, name: str, path, schema_text: str, ring_name: str) -> Relation:
        sch = parse_schema(schema_text)
        ring = ring_by_name(ring_name)
        relation = load_csv(path, sch, ring)  # validate before recording
        self.entries[name] = {
            "path": str(Path(path).resolve()),
            "schema": schema_text,
            "ring": ring_name,
        }
        self._cache[name] = relation
        return relation

    def get(self, name: str):
        if name in self._cache:
            return self._cache[name]
        entry = self.entries.get(name)
        if entry is None:
            return None
        relation = load_csv(
            entry["path"], parse_schema(entry["schema"]), ring_by_name(entry["ring"])
        )
        self._cache[name] = relation
        return relation

    def names(self):
        return sorted(self.entries)
