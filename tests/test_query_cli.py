"""S-expression queries, CSV ingestion, the command line, and output formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyalg
from polyalg import GF2, INT, REAL, Z, QueryError, natural_join, parse_sexpr, rename, run, schema
from polyalg.catalog import Catalog, CatalogError, load_csv, parse_schema
from polyalg.cli import main, render_relation
from polyalg.query import MAX_DEPTH
from polyalg.relation import MAX_COLUMNS, relation_from_rows

X_CSV = "A,B\na,1\nb,2\nc,3\n"
Y_CSV = "B,C\n2,p\n3,q\n4,r\n"


@pytest.fixture
def cat(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "y.csv").write_text(Y_CSV)
    c = Catalog.open(tmp_path / "cat.json")
    c.add_csv("x", tmp_path / "x.csv", "A:str,B:int", "z")
    c.add_csv("y", tmp_path / "y.csv", "B:int,C:str", "z")
    return c


def rows(r):
    return dict(r.rows())


# --- parsing ---------------------------------------------------------------------

def test_parse_atoms_and_nesting():
    node = parse_sexpr('(select (= A "foo") (union x y))')
    assert node[0].name == "select"
    assert node[1][1].name == "A"
    assert node[1][2] == "foo"


def test_parse_errors_carry_positions():
    with pytest.raises(QueryError) as e:
        parse_sexpr("(union x")
    assert "offset" in str(e.value)
    with pytest.raises(QueryError):
        parse_sexpr("(union x y) extra")
    with pytest.raises(QueryError):
        parse_sexpr('"unterminated')


def test_query_evaluation(cat):
    out = run("(join x y)", cat)
    assert rows(out) == {("b", 2, "p"): 1, ("c", 3, "q"): 1}
    out = run("(union x x)", cat)
    assert set(rows(out).values()) == {2}
    out = run('(select (>= B 2) x)', cat)
    assert rows(out) == {("b", 2): 1, ("c", 3): 1}
    out = run("(project [A] x)", cat)
    assert rows(out) == {("a",): 1, ("b",): 1, ("c",): 1}
    out = run("(agg min [A] B x)", cat)
    assert [k for k, _ in out.rows()] == [("a", 1), ("b", 2), ("c", 3)]
    out = run("(map upper A (project [A] x))", cat)
    assert rows(out) == {("A",): 1, ("B",): 1, ("C",): 1}
    out = run("(rename [D] (project [A] x))", cat)
    assert out.schema.names == ["D"]
    out = run("(diff x x)", cat)
    assert rows(out) == {}
    out = run("(outer left x y)", cat)
    assert out.has_baseline()


def test_query_type_errors_name_the_attribute(cat):
    with pytest.raises(QueryError) as e:
        run("(select (= Z 1) x)", cat)
    assert "Z" in str(e.value)
    with pytest.raises(QueryError) as e:
        run('(select (= B "two") x)', cat)
    assert "B" in str(e.value)
    with pytest.raises(QueryError) as e:
        run("(join x unknown)", cat)
    assert "unknown" in str(e.value)
    with pytest.raises(QueryError):
        run("(frobnicate x)", cat)


#: (query, message, offset) of each malformed query; integer atoms carry no
#: position, so a form rejected for one has no offset
SHAPE_ERRORS = [
    ('(select (and (= A "a")) R)', "(and ...) needs at least two parts", 9),
    ("(select (not P Q) R)", "(not P) takes one part", 9),
    ("(select (foo A 1) R)", "unknown predicate 'foo'", 9),
    ("(select (= A) R)", "(= A value) takes two arguments", 9),
    ("(select (= A (R)) R)", "expected a literal or a column name", 9),
    ("(select (prefix A [1]) R)", "expected a literal or a column name", 9),
    ("(select 5 R)", "expected a predicate form", None),
    ("(join)", "(join ...) needs at least one relation", 1),
    ("(outer left R)", "(outer kind R S) takes a kind and two relations", 1),
    ("(project A R)", "expected a [...] list of column names", 9),
    ("(agg sum [A] B)", "(agg fold [group ...] target R) takes four arguments", 1),
    ("(agg sum [A] 5 R)", "expected the target column", None),
    ("(map upper A)", "(map FN A R) takes three arguments", 1),
    ("(clamp)", "(clamp R) takes one relation", 1),
    ("(union R)", "(union R S) takes two relations", 1),
    ("(frob R)", "unknown operation 'frob'", 1),
    ("R)", "trailing input", 1),
]


def test_query_shape_errors_name_the_form(cat):
    # each is a QueryError, never another exception, with its message and
    # the offset of the form the parser or evaluator rejects
    catalog = {"R": cat.get("x")}
    for text, message, pos in SHAPE_ERRORS:
        with pytest.raises(QueryError) as e:
            run(text, catalog)
        assert e.value.pos == pos, text
        assert str(e.value) == (message if pos is None else f"{message} (at offset {pos})"), text


# --- CSV -------------------------------------------------------------------------

def test_csv_duplicates_accumulate(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("A,B\na,1\na,1\nb,2\n")
    r = load_csv(p, parse_schema("A:str,B:int"), Z)
    assert rows(r) == {("a", 1): 2, ("b", 2): 1}


def test_csv_weight_column_makes_deltas(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("A,#weight\na,1\nb,-1\n")
    r = load_csv(p, parse_schema("A:str"), Z)
    assert rows(r) == {("a",): 1, ("b",): -1}
    db = relation_from_rows(r.schema, Z, [(("b",), 1), (("c",), 1)])
    from polyalg import apply_update

    assert rows(apply_update(db, r)) == {("a",): 1, ("c",): 1}


def test_csv_diagnostics(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("A,B\na,notanint\n")
    with pytest.raises(CatalogError) as e:
        load_csv(p, parse_schema("A:str,B:int"), Z)
    assert ":2:" in str(e.value)
    p2 = tmp_path / "head.csv"
    p2.write_text("X,Y\na,1\n")
    with pytest.raises(CatalogError):
        load_csv(p2, parse_schema("A:str,B:int"), Z)
    with pytest.raises(CatalogError):
        parse_schema("A:float")


@pytest.mark.parametrize("text, ring, error", [
    ("K,S,B\n1,a,true\nx1,b,false\n", Z, ":3:1: 'x1' is not an integer"),
    ("K,S,B\n1,a,true\n99999999999999999999,b,false\n", Z,
     ":3:1: '99999999999999999999' is out of 64-bit range"),
    ("K,S,B\n1,a,maybe\n", Z, ":2:3: 'maybe' is not true/false"),
    # the first bad cell of a row is the one cited
    ("K,S,B\n1,a,true\n1.5,b,nope\n", Z, ":3:1: '1.5' is not an integer"),
    ("K,S,B,#weight\n1,a,nope,x\n", Z, ":2:3: 'nope' is not true/false"),
    ("K,S,B,#weight\n1,a,true,1\n2,b,false,2.5\n", Z,
     ":3: bad weight: invalid literal for int() with base 10: '2.5'"),
    ("K,S,B,#weight\n1,a,true,nan\n", REAL, ":2: bad weight: 'nan' is not a finite weight"),
    ("K,S,B,#weight\n1,a,true,2\n", GF2, ":2: bad weight: bad GF(2) value '2'"),
])
def test_csv_cell_and_weight_errors_are_located_exactly(tmp_path, text, ring, error):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(CatalogError) as e:
        load_csv(p, parse_schema("K:int,S:str,B:bool"), ring)
    assert str(e.value) == f"{p}{error}"


def test_csv_round_trip(cat, tmp_path):
    r = cat.get("x")
    text = render_relation(r, "csv")
    p = tmp_path / "round.csv"
    p.write_text(text + "\n")
    again = load_csv(p, parse_schema("A:str,B:int"), Z)
    assert again.equals(r)


def test_csv_quoting_round_trip(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text('A,B\n"a,b",1\n"say ""hi""",2\néè,3\n')
    r = load_csv(p, parse_schema("A:str,B:int"), Z)
    assert rows(r) == {("a,b", 1): 1, ('say "hi"', 2): 1, ("éè", 3): 1}
    text = render_relation(r, "csv")
    p2 = tmp_path / "q2.csv"
    p2.write_text(text + "\n")
    assert load_csv(p2, parse_schema("A:str,B:int"), Z).equals(r)


def test_gf2_ring_load(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("A\na\na\nb\n")
    r = load_csv(p, parse_schema("A:str"), GF2)
    assert rows(r) == {("b",): True}  # the two a's cancel mod 2


@pytest.mark.parametrize("ring, weights", [
    (Z, ["3", "-3", "2", "5", "1"]),
    (GF2, ["1", "true", "0", "1", "false"]),
    (REAL, ["0.5", "-0.5", "2.25", "1e300", "-7"]),
])
def test_csv_load_builds_the_form_of_its_rows(tmp_path, ring, weights):
    # cells and weights are checked once, as they are parsed; the form is
    # the one `relation_from_rows` builds from the same values, to the bit
    keys = [(1, "a", True), (1, "a", True), (-(2**63), "", False), (2**63 - 1, "é", True),
            (1, "b", False)]
    p = tmp_path / "w.csv"
    lines = [f"{k},{s},{str(b).lower()},{w}" for (k, s, b), w in zip(keys, weights)]
    p.write_text("\n".join(["K,S,B,#weight", *lines]) + "\n")
    sch = parse_schema("K:int,S:str,B:bool")
    with polyalg.metrics.fresh() as m:
        got = load_csv(p, sch, ring)
    with polyalg.metrics.fresh() as n:
        want = relation_from_rows(sch, ring, zip(keys, map(ring.parse, weights)))
    assert [(k, repr(c)) for k, c in got.rows()] == [(k, repr(c)) for k, c in want.rows()]
    assert m.trie_edges == n.trie_edges


# --- CLI -------------------------------------------------------------------------

# The directory that holds the imported package: a source checkout's src/, or
# site-packages for an install. The child runs in a temp directory, where a
# relative PYTHONPATH entry such as "src" would not resolve.
PACKAGE_ROOT = str(Path(polyalg.__file__).resolve().parent.parent)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(args, cwd):
    return run_python(["-m", "polyalg.cli", *args], cwd)


def load_ok(cwd, path, name, schema):
    r = run_cli(["load", path, "--as", name, "--schema", schema], cwd)
    assert r.returncode == 0, r.stderr


def query_json(cwd, query):
    r = run_cli(["query", query, "--format", "json"], cwd)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["rows"], r.stdout
    return r, payload


def assert_usage_error(r):
    """Exit 1 from polyalg's own argument parser, not from a child that failed to start."""
    assert r.returncode == 1
    assert "No module named" not in r.stderr
    # "polyalg: error: ..." or, from a subcommand, "polyalg query: error: ..."
    assert re.search(r"^polyalg( \w+)?: error: ", r.stderr, re.M), r.stderr


def test_cli_end_to_end(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "y.csv").write_text(Y_CSV)
    load_ok(tmp_path, "x.csv", "x", "A:str,B:int")
    load_ok(tmp_path, "y.csv", "y", "B:int,C:str")
    q = run_cli(["query", "(join x y)"], tmp_path)
    assert q.returncode == 0, q.stderr
    assert "b  2  p  1" in q.stdout
    assert "c  3  q  1" in q.stdout
    stats = run_cli(["query", "(join x y)", "--stats"], tmp_path)
    assert stats.returncode == 0, stats.stderr
    assert "trie_edges" in stats.stdout
    shown = run_cli(["show", "x", "--format", "csv"], tmp_path)
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout.splitlines()[0] == "A,B,#weight"


def test_cli_start_up_imports_only_what_load_and_query_run(tmp_path):
    # each `polyalg` process compiles the modules it imports, so importing
    # the CLI must not load dataclasses, the product engine, the relational
    # operators, the term layer, the isomorphism catalogue or the benchmark,
    # and a `load` must not load the query language either; a query, a join
    # included, runs the operators and the product engine but builds no term;
    # modules the interpreter itself loads at start-up do not count
    def loaded(code):
        r = run_python(["-c", code + "import sys; print('\\n'.join(sys.modules))"], tmp_path)
        assert r.returncode == 0, r.stderr
        return set(r.stdout.split())

    at_start = loaded("")
    after = loaded("import polyalg.cli; ")
    assert "polyalg.cli" in after
    termless = {"dataclasses", "inspect", "polyalg.isos", "polyalg.bench", "polyalg.terms"}
    unwanted = termless | {"polyalg.product", "polyalg.query", "polyalg.relational"}
    assert sorted((unwanted - at_start) & after) == []
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "y.csv").write_text(Y_CSV)
    after = loaded("from polyalg.cli import main; "
                   "assert main(['load', 'x.csv', '--as', 'x', '--schema', 'A:str,B:int']) == 0; "
                   "assert main(['load', 'y.csv', '--as', 'y', '--schema', 'B:int,C:str']) == 0; ")
    assert "polyalg.catalog" in after
    assert sorted((unwanted - at_start) & after) == []
    after = loaded("from polyalg.cli import main; "
                   "assert main(['query', '(join x y)']) == 0; ")
    assert {"polyalg.query", "polyalg.relational", "polyalg.product"} <= after
    assert sorted((termless - at_start) & after) == []


REPR_SCRIPT = """
import sys
from polyalg import INT, STRING, Z, outer_join, relation_from_rows, schema
r = relation_from_rows(schema(("A", STRING), ("B", INT)), Z, [(("b", -4), 1), (("a", 1), 2)])
s = relation_from_rows(schema(("B", INT), ("C", STRING)), Z, [((1, "x"), 3)])
print(repr(r.nf()))
print(repr(outer_join("left", r, s).nf()))
print(repr(r))
print(sorted({"polyalg.terms", "polyalg.render"} & set(sys.modules)))
"""


def test_printing_a_form_or_a_relation_builds_no_term(tmp_path):
    # a form renders itself in `normal`, a baseline first as a `*` key, so
    # printing one compiles none of the term layer
    r = run_python(["-c", REPR_SCRIPT], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "{a: {1: 2}, b: {-4: 1}}",
        "{a: {1: {*: 2, x: 6}}, b: {-4: {*: 1}}}",
        "Relation(A:str,B:int, z, 2 rows)",
        "[]",
    ]


def test_moved_names_forward_to_their_new_homes():
    # perfbench reads these names at their old homes until it moves
    from polyalg import normal, product, relation, relational, terms

    for old, new, name in ((normal, terms, "normalize"), (normal, terms, "readback"),
                           (product, terms, "triangle"), (relational, relation, "schema"),
                           (relational, relation, "relation_from_rows")):
        assert getattr(old, name) is getattr(new, name)
        assert name not in vars(old)
    assert relational.Relation is relation.Relation
    for mod in (normal, product, relational):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            mod.no_such_name


def test_cli_json_schema(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    load_ok(tmp_path, "x.csv", "x", "A:str,B:int")
    _, payload = query_json(tmp_path, "(union x x)")
    assert payload["ring"] == "z"
    assert payload["has_baseline"] is False
    assert payload["schema"] == [
        {"name": "A", "type": "str"},
        {"name": "B", "type": "int"},
    ]
    assert {"key": ["a", "1"], "coeff": "2"} in payload["rows"]


def test_cli_baseline_flagging(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "y.csv").write_text(Y_CSV)
    load_ok(tmp_path, "x.csv", "x", "A:str,B:int")
    load_ok(tmp_path, "y.csv", "y", "B:int,C:str")
    _, payload = query_json(tmp_path, "(outer full x y)")
    assert payload["has_baseline"] is True
    assert {"key": ["*", "4", "r"], "coeff": "1"} in payload["rows"]
    table = run_cli(["query", "(outer full x y)"], tmp_path)
    assert table.returncode == 0, table.stderr
    assert "wildcard baselines" in table.stdout


def test_cli_determinism(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "y.csv").write_text(Y_CSV)
    load_ok(tmp_path, "x.csv", "x", "A:str,B:int")
    load_ok(tmp_path, "y.csv", "y", "B:int,C:str")
    a, _ = query_json(tmp_path, "(outer full x y)")
    b, _ = query_json(tmp_path, "(outer full x y)")
    assert a.stdout == b.stdout


def test_cli_exit_codes(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    usage = run_cli(["query"], tmp_path)  # missing argument
    assert_usage_error(usage)
    unknown = run_cli(["nonsense"], tmp_path)
    assert_usage_error(unknown)
    load_ok(tmp_path, "x.csv", "x", "A:str,B:int")
    data_err = run_cli(["query", "(select (= Q 1) x)"], tmp_path)
    assert data_err.returncode == 2
    assert "Q" in data_err.stderr
    bad_load = run_cli(
        ["load", "x.csv", "--as", "x2", "--schema", "A:int,B:int"], tmp_path
    )
    assert bad_load.returncode == 2
    missing = run_cli(["show", "nosuch"], tmp_path)
    assert missing.returncode == 2
    assert missing.stderr == "error: unknown relation 'nosuch'\n"
    (tmp_path / "k.csv").write_text("K\n-9223372036854775808\n5\n")
    load_ok(tmp_path, "k.csv", "k", "K:int")
    overflow = run_cli(["query", "(map abs K k)"], tmp_path)
    assert overflow.returncode == 2
    assert overflow.stderr.startswith("error: abs maps -9223372036854775808"), overflow.stderr
    assert len(overflow.stderr.splitlines()) == 1
    # an aggregate of an outer join's wildcard rows has no finite fold
    (tmp_path / "y.csv").write_text(Y_CSV)
    load_ok(tmp_path, "y.csv", "y", "B:int,C:str")
    wild = run_cli(["query", "(agg sum [A] B (outer left x y))"], tmp_path)
    assert wild.returncode == 2
    assert wild.stderr.startswith("error: cannot aggregate a relation with wildcard rows")
    assert len(wild.stderr.splitlines()) == 1
    # a selection refuses a wildcard only in a column it reads; clamp reads all
    for query, message in (("(select (< A C) (outer left x y))",
                            "cannot select on wildcard-bearing column 'C'"),
                           ("(clamp (outer left x y))", "cannot clamp a relation with wildcard rows")):
        wild = run_cli(["query", query], tmp_path)
        assert wild.returncode == 2
        assert wild.stderr.startswith(f"error: {message}"), wild.stderr
        assert len(wild.stderr.splitlines()) == 1
    kept = run_cli(["query", '(select (and (= A "b") (> B 1)) (outer left x y))', "--format",
                    "csv"], tmp_path)
    assert kept.returncode == 0, kept.stderr[-2000:]
    assert kept.stdout.splitlines() == ["A,B,C,#weight", "b,2,*,1", "b,2,p,1"]
    # a union of a chain mixing compact and plain factors with a plain one
    (tmp_path / "r.csv").write_text("K,S\n1,a\n2,b\n")
    (tmp_path / "s.csv").write_text("K,X\n1,x\n")
    (tmp_path / "t.csv").write_text("Z\n7\n")
    load_ok(tmp_path, "r.csv", "R", "K:int,S:str")
    load_ok(tmp_path, "s.csv", "S", "K:int,X:str")
    load_ok(tmp_path, "t.csv", "T", "Z:int")
    mixed = run_cli(
        ["query", "(union (product (outer left R S) T) (product (join R S) T))",
         "--format", "csv"],
        tmp_path,
    )
    assert mixed.returncode == 0, mixed.stderr[-2000:]
    assert mixed.stdout.splitlines() == [
        "K,S,X,Z,#weight", "1,a,*,7,1", "1,a,x,7,2", "2,b,*,7,1",
    ]
    # query nesting is capped at query.MAX_DEPTH (300) levels
    for depth, code in ((300, 0), (500, 2), (3000, 2)):
        nested = run_cli(
            ["query", "(union " * depth + "x" + " x)" * depth, "--format", "csv"], tmp_path
        )
        assert nested.returncode == code, nested.stderr[-2000:]
        if code:
            assert nested.stderr.startswith("error: query nests deeper than 300 levels")
            assert len(nested.stderr.splitlines()) == 1
        else:
            assert nested.stdout.splitlines()[1] == f"a,1,{depth + 1}"
    # predicates that do not type-check against A:int,B:str, inside and
    # outside a boolean form
    (tmp_path / "ab.csv").write_text("A,B\n1,x\n2,y\n")
    load_ok(tmp_path, "ab.csv", "ab", "A:int,B:str")
    for pred, msg in (
        ("(< A B)", "cannot compare column 'A' (int) with column 'B' (str)"),
        ("(prefix B A)", "prefix applies to string columns only"),
        ('(and (< A "x") (< A 3))', "literal 'x' does not match the type of column 'A'"),
        ("(or (= B 1) (= A 1))", "literal 1 does not match the type of column 'B'"),
    ):
        typed = run_cli(["query", f"(select {pred} ab)"], tmp_path)
        assert typed.returncode == 2, (pred, typed.stderr[-2000:])
        assert typed.stderr.startswith(f"error: {msg}"), (pred, typed.stderr)
        assert len(typed.stderr.splitlines()) == 1
    (tmp_path / "broken.json").write_text("{not json")
    broken = run_cli(["--catalog", "broken.json", "show", "x"], tmp_path)
    assert broken.returncode == 2
    assert broken.stderr.startswith("error: cannot read catalog broken.json"), broken.stderr


def test_cli_loads_csv_with_byte_order_mark(tmp_path):
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + X_CSV.encode())
    load_ok(tmp_path, "bom.csv", "x", "A:str,B:int")
    shown = run_cli(["show", "x", "--format", "csv"], tmp_path)
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout.splitlines() == ["A,B,#weight", "a,1,1", "b,2,1", "c,3,1"]


def test_cli_nested_prefix_keys(tmp_path):
    # each key is a prefix of the next: 1,499 nested prefixes
    keys = ["a" * i for i in range(1, 1500)]
    (tmp_path / "p.csv").write_text("A\n" + "\n".join(keys) + "\n")
    load_ok(tmp_path, "p.csv", "p", "A:str")
    shown = run_cli(["show", "p", "--format", "csv"], tmp_path)
    assert shown.returncode == 0, shown.stderr[-2000:]
    lines = shown.stdout.splitlines()
    assert lines[0] == "A,#weight"
    assert lines[1:] == [f"{k},1" for k in keys]


# Saves a manifest that has grown by one relation under a file-size limit
# equal to the previous manifest's size, so the write stops partway through.
SAVE_PAST_FSIZE_LIMIT = """
import resource, signal, sys
from polyalg.catalog import Catalog
cat = Catalog.open(sys.argv[1])
cat.add_csv("y", sys.argv[2], "B:int,C:str", "z")
limit = cat.manifest_path.stat().st_size
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
cat.save()
"""


def test_catalog_failed_save_keeps_previous_manifest(tmp_path):
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "y.csv").write_text(Y_CSV)
    manifest = tmp_path / "cat.json"
    cat = Catalog.open(manifest)
    cat.add_csv("x", tmp_path / "x.csv", "A:str,B:int", "z")
    cat.save()
    before = manifest.read_bytes()
    r = run_python(["-c", SAVE_PAST_FSIZE_LIMIT, str(manifest), "y.csv"], tmp_path)
    assert r.returncode != 0
    assert "File too large" in r.stderr, r.stderr
    assert manifest.read_bytes() == before
    assert Catalog.open(manifest).names() == ["x"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cat.json", "x.csv", "y.csv"]


def test_cli_rejects_malformed_manifests(tmp_path, capsys):
    (tmp_path / "x.csv").write_text(X_CSV)
    entry = {"path": str(tmp_path / "x.csv"), "ring": "z"}
    for shape in ([], {"relations": []}, {"relations": {"x": entry}},
                  {"relations": {"x": "x.csv"}}, {"relations": {"x": dict(entry, schema=1)}}):
        manifest = tmp_path / "cat.json"
        manifest.write_text(json.dumps(shape))
        for args in (["show", "x"], ["query", "(union x x)"]):
            assert main(["--catalog", str(manifest), *args]) == 2, shape
            err = capsys.readouterr().err
            assert err.startswith(f"error: catalog {manifest}"), err
            assert len(err.splitlines()) == 1
        with pytest.raises(CatalogError):
            Catalog.open(manifest)


def test_cli_manifest_in_a_missing_directory(tmp_path, capsys):
    (tmp_path / "x.csv").write_text(X_CSV)
    manifest = tmp_path / "missing" / "c.json"
    code = main(["--catalog", str(manifest), "load", str(tmp_path / "x.csv"), "--as", "x",
                 "--schema", "A:str,B:int"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write catalog {manifest}: "), err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_csv_cell_past_the_field_size_limit(tmp_path, capsys):
    import csv

    p = tmp_path / "long.csv"
    p.write_text("A,B\na,1\n" + "b" * (csv.field_size_limit() + 1) + ",2\n")
    with pytest.raises(CatalogError) as e:
        load_csv(p, parse_schema("A:str,B:int"), Z)
    assert str(e.value).startswith(f"{p}:3: field larger than field limit"), str(e.value)
    code = main(["--catalog", str(tmp_path / "c.json"), "load", str(p), "--as", "long",
                 "--schema", "A:str,B:int"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {p}:3: ")


@pytest.mark.parametrize("text, sch, error", [
    ("A,B\na,true\nb,FALSE\nc, true \n", "A:str,B:bool", None),
    ("A,B\na,yes\n", "A:str,B:bool", ":2:2: 'yes' is not true/false"),
    ("A,B\na,9223372036854775807\nb,9223372036854775808\n", "A:str,B:int",
     ":3:2: '9223372036854775808' is out of 64-bit range"),
    ("A,B\na,-9223372036854775809\n", "A:str,B:int", ":2:2: '-9223372036854775809' is out"),
    ("", "A:str,B:int", ": missing header row"),
    ("A,B\na,1\nb\n", "A:str,B:int", ":3: expected 2 cells, got 1"),
    # a record is cited at the file line it starts on, past a quoted cell
    # that spans two lines and past a blank line
    ('A,B\n1,"x\ny"\nzz,w\n', "A:int,B:str", ":4:1: 'zz' is not an integer"),
    ('A,B\n1,"x\ny"\n\n2\n', "A:int,B:str", ":5: expected 2 cells, got 1"),
    ("A,B\na,1\n", "A:str,B", "bad schema column 'B'; expected name:type"),
    ("A,B\na,1\n", " , ", "empty schema"),
])
def test_cli_csv_contract(tmp_path, capsys, text, sch, error):
    # bool cells, the 64-bit bound, header, row shape and schema syntax,
    # each as the command line meets them
    p = tmp_path / "b.csv"
    p.write_text(text)
    catalog = str(tmp_path / "c.json")
    code = main(["--catalog", catalog, "load", str(p), "--as", "b", "--schema", sch])
    err = capsys.readouterr().err
    if error is not None:
        assert code == 2
        assert err.startswith("error: ") and error in err, err
        assert len(err.splitlines()) == 1
        return
    assert code == 0, err
    assert main(["--catalog", catalog, "query", "(select (= B true) b)", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "A,B,#weight\na,true,1\nc,true,1\n"


def test_cli_column_bound(tmp_path, capsys):
    # every schema, loaded or built by an operator, has at most
    # relation.MAX_COLUMNS columns; past the bound is one error line
    catalog = str(tmp_path / "c.json")

    def load(name, cols):
        p = tmp_path / f"{name}.csv"
        p.write_text(",".join(cols) + "\n" + ",".join(["1"] * len(cols)) + "\n"
                     + ",".join(["2"] * len(cols)) + "\n")
        code = main(["--catalog", catalog, "load", str(p), "--as", name,
                     "--schema", ",".join(f"{c}:int" for c in cols)])
        return code, capsys.readouterr().err

    def one_error(code, err, what):
        assert code == 2, err
        assert err.startswith(f"error: a schema has at most {MAX_COLUMNS} columns, not {what}")
        assert len(err.splitlines()) == 1

    cols = [f"C{i}" for i in range(MAX_COLUMNS + 1)]
    assert load("wide", cols[:MAX_COLUMNS]) == (0, "")
    assert main(["--catalog", catalog, "show", "wide", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [",".join(cols[:MAX_COLUMNS]) + ",#weight",
                   ",".join(["1"] * MAX_COLUMNS) + ",1", ",".join(["2"] * MAX_COLUMNS) + ",1"]
    one_error(*load("wider", cols), MAX_COLUMNS + 1)

    half = MAX_COLUMNS // 2
    assert load("a", cols[:half + 1]) == (0, "")  # C0..C50
    assert load("b", cols[half:MAX_COLUMNS]) == (0, "")  # C50..C99: joined with a, 100 columns
    assert load("c", cols[half:]) == (0, "")  # C50..C100: joined with a, 101
    assert load("d", [f"D{i}" for i in range(half)]) == (0, "")  # beside a, 101
    for query in ("(product a d)", "(join a c)"):
        code = main(["--catalog", catalog, "query", query])
        one_error(code, capsys.readouterr().err, MAX_COLUMNS + 1)
    deep = "(clamp " * (MAX_DEPTH - 1) + "(join a b)" + ")" * (MAX_DEPTH - 1)
    assert main(["--catalog", catalog, "query", deep, "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(cols[:MAX_COLUMNS]) + ",#weight"
    assert out[1:] == [",".join(["1"] * MAX_COLUMNS) + ",1", ",".join(["2"] * MAX_COLUMNS) + ",1"]


def test_cli_wide_join_under_deep_query_fits_the_stack(tmp_path, capsys):
    # a 100-column join under MAX_DEPTH - 1 clamps runs within 650 frames
    # above the caller: evaluation takes a frame per level of the query;
    # `clamp`, like a `select` on the last column, filters its 100-column
    # input a level at a time, and the filter and the joint product take the
    # same few frames at any width. Padding the inputs of a full outer join
    # adds forms, which recurses per column
    catalog = str(tmp_path / "c.json")
    cols = [f"C{i}" for i in range(MAX_COLUMNS)]
    half = MAX_COLUMNS // 2
    for name, cs in (("a", cols[:half + 1]), ("b", cols[half:])):
        p = tmp_path / f"{name}.csv"
        p.write_text(",".join(cs) + "\n" + ",".join(["1"] * len(cs)) + "\n"
                     + ",".join(["2"] * len(cs)) + "\n")
        assert main(["--catalog", catalog, "load", str(p), "--as", name,
                     "--schema", ",".join(f"{c}:int" for c in cs)]) == 0
    capsys.readouterr()
    deep = "(clamp " * (MAX_DEPTH - 1) + "(join a b)" + ")" * (MAX_DEPTH - 1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 650)
    try:
        code = main(["--catalog", catalog, "query", deep, "--format", "csv"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(cols) + ",#weight"
    assert out[1:] == [",".join(["1"] * MAX_COLUMNS) + ",1", ",".join(["2"] * MAX_COLUMNS) + ",1"]
    pairs = (MAX_DEPTH - 1) // 2
    deep = f"(select (>= C{MAX_COLUMNS - 1} 2) (clamp " * pairs + "(join a b)" + "))" * pairs
    sys.setrecursionlimit(depth + 650)
    try:
        code = main(["--catalog", catalog, "query", deep, "--format", "csv"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == [",".join(["2"] * MAX_COLUMNS) + ",1"]
    # `map` walks every column of its input and builds its output from them,
    # neither recursing
    deep = f"(map inc C{MAX_COLUMNS - 1} " * (MAX_DEPTH - 1) + "(join a b)" + ")" * (MAX_DEPTH - 1)
    sys.setrecursionlimit(depth + 650)
    try:
        code = main(["--catalog", catalog, "query", deep, "--format", "csv"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        ",".join([v] * (MAX_COLUMNS - 1) + [str(int(v) + MAX_DEPTH - 1)]) + ",1" for v in "12"]
    # so does `rename`, alone and as a join reorders an input out of order
    wide = relation_from_rows(schema(*[(c, INT) for c in cols]), Z,
                              [((1,) * MAX_COLUMNS, 1), ((2,) * MAX_COLUMNS, 1)])
    sys.setrecursionlimit(depth + 650)
    try:
        backwards = rename(wide, list(range(MAX_COLUMNS))[::-1])
        joined = natural_join([wide, backwards])
    finally:
        sys.setrecursionlimit(limit)
    assert backwards.schema.names == cols[::-1]
    assert joined.schema == wide.schema and joined.rows() == wide.rows()
    # the same columns as a full outer join, whose every level carries a
    # baseline; `clamp` refuses wildcard rows, so nest it under `map`
    deep = "(map abs C0 " * (MAX_DEPTH - 1) + "(outer full a b)" + ")" * (MAX_DEPTH - 1)
    sys.setrecursionlimit(depth + 650)
    try:
        code = main(["--catalog", catalog, "query", deep, "--format", "csv"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    star, one, two = ["*"], ["1"], ["2"]
    padded = [star * MAX_COLUMNS, star * half + one * half, star * half + two * half,
              one * (half + 1) + star * (half - 1), one * MAX_COLUMNS,
              two * (half + 1) + star * (half - 1), two * MAX_COLUMNS]
    assert out[1:] == [",".join(row) + ",1" for row in padded]
    # two 50-column inputs that interleave their attributes, the even and
    # the odd columns: joined alone, the first's columns lead the output, so
    # the second passes unchanged through 50 levels; joined after all 100
    # columns, every level has one of the two absent
    for name, cs in (("c", cols[0::2]), ("d", cols[1::2]), ("e", cols)):
        p = tmp_path / f"{name}.csv"
        p.write_text(",".join(cs) + "\n" + ",".join(["1"] * len(cs)) + "\n"
                     + ",".join(["2"] * len(cs)) + "\n")
        assert main(["--catalog", catalog, "load", str(p), "--as", name,
                     "--schema", ",".join(f"{c}:int" for c in cs)]) == 0
    capsys.readouterr()
    for join, names, rows in (
            ("(join c d)", cols[0::2] + cols[1::2],
             [one * half + one * half, one * half + two * half,
              two * half + one * half, two * half + two * half]),
            ("(join e c d)", cols, [one * MAX_COLUMNS, two * MAX_COLUMNS])):
        deep = "(clamp " * (MAX_DEPTH - 1) + join + ")" * (MAX_DEPTH - 1)
        sys.setrecursionlimit(depth + 650)
        try:
            code = main(["--catalog", catalog, "query", deep, "--format", "csv"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, join
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(names) + ",#weight"
        assert out[1:] == [",".join(row) + ",1" for row in rows]


def test_cli_rejects_non_finite_real_weights(tmp_path, capsys):
    catalog = str(tmp_path / "c.json")
    for weight in ("nan", "inf", "-inf", "-Infinity", "1e400"):
        p = tmp_path / "w.csv"
        p.write_text(f"A,#weight\na,{weight}\n")
        code = main(["--catalog", catalog, "load", str(p), "--as", "w", "--schema", "A:str",
                     "--ring", "real"])
        assert code == 2, weight
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}:2: bad weight: "), err
        assert len(err.splitlines()) == 1
    (tmp_path / "ok.csv").write_text("A,#weight\na,0.5\nb,-2\n")
    assert main(["--catalog", catalog, "load", str(tmp_path / "ok.csv"), "--as", "ok",
                 "--schema", "A:str", "--ring", "real"]) == 0


def test_cli_product_of_different_rings(tmp_path, capsys):
    (tmp_path / "x.csv").write_text(X_CSV)
    (tmp_path / "w.csv").write_text("W\n1\n")
    catalog = str(tmp_path / "c.json")
    for name, path, sch, ring in (("x", "x.csv", "A:str,B:int", "z"),
                                  ("w", "w.csv", "W:int", "real")):
        assert main(["--catalog", catalog, "load", str(tmp_path / path), "--as", name,
                     "--schema", sch, "--ring", ring]) == 0
    capsys.readouterr()
    assert main(["--catalog", catalog, "query", "(product x w)"]) == 2
    assert capsys.readouterr().err == "error: product needs matching rings (at offset 1)\n"


def test_cli_bench_small(tmp_path):
    out = run_cli(
        ["bench", "triangle", "--sizes", "2,3", "--repeats", "1", "--with-naive"],
        tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert "slope" in out.stdout
    # correctness gate rows: 8 and 27
    assert " 8 " in out.stdout and " 27 " in out.stdout


BENCH_GOLDEN = """\
    k        n       rows   seconds   trie_edges   ring_mults
    2        4          8     S.SSS           82            8
    3        9         27     S.SSS          198           27
    4       16         64     S.SSS          392           64
log-log slope of trie edges vs n: 1.126

    k        n       rows   seconds  pair_products
    2        4          8     S.SSS             92
    3        9         27     S.SSS            456
    4       16         64     S.SSS           1576
log-log slope of pair products vs n: 2.044
"""


def test_cli_bench_output_is_pinned(tmp_path):
    # every counter and slope, byte for byte; only the seconds column varies
    out = run_cli(
        ["bench", "triangle", "--sizes", "2,3,4", "--repeats", "1", "--with-naive"],
        tmp_path,
    )
    assert (out.returncode, out.stderr) == (0, "")
    masked = re.sub(r"^((?: +\d+){3} +)\d+\.\d{3}(?= )", r"\1S.SSS", out.stdout, flags=re.M)
    assert masked == BENCH_GOLDEN


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "8"], "need at least two sizes to fit a slope"),
    (["--sizes", ""], "need at least two sizes to fit a slope"),
    (["--sizes", "8,8"], "sizes must be strictly increasing"),
    (["--sizes", "3,2"], "sizes must be strictly increasing"),
    (["--sizes", "1,2"], "sizes must be at least 2"),
    (["--sizes", "a,b"], "--sizes expects a comma-separated list of integers"),
    (["--sizes", "2,32", "--with-naive"], "the naive contrast needs two sizes of at most 16"),
    (["--sizes", "2,3", "--repeats", "0"], "repeats must be at least 1"),
    (["--sizes", "2,3", "--repeats", "-5"], "repeats must be at least 1"),
])
def test_cli_bench_rejects_bad_arguments_before_running(argv, message, capsys):
    assert main(["bench", "triangle", *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_bench_failed_correctness_gate_exits_2(monkeypatch, capsys):
    import polyalg.bench as bench

    triangle, edge = bench.triangle, bench.bipartite_relation(1)
    # a third input of one edge leaves k of the k^3 rows
    monkeypatch.setattr(bench, "triangle", lambda x, y, z: triangle(x, y, edge))
    assert main(["bench", "triangle", "--sizes", "2,3", "--repeats", "1"]) == 2
    assert capsys.readouterr() == ("", "error: triangle correctness gate: 2 rows, expected 8\n")


def test_in_process_main(tmp_path, capsys):
    (tmp_path / "x.csv").write_text(X_CSV)
    code = main(
        [
            "--catalog",
            str(tmp_path / "c.json"),
            "load",
            str(tmp_path / "x.csv"),
            "--as",
            "x",
            "--schema",
            "A:str,B:int",
        ]
    )
    assert code == 0
    code = main(["--catalog", str(tmp_path / "c.json"), "show", "x"])
    assert code == 0
    out = capsys.readouterr().out
    assert "loaded x" in out and "(3 rows)" in out


# --- no query ends in a traceback ------------------------------------------------

def _query_catalog():
    """Z, GF2 and REAL relations over A:str,B:int and B:int,C:str, an empty
    one and an outer join's, with Int64-edge keys."""
    from polyalg import INT, STRING, outer_join, schema

    ab, bc = schema(("A", STRING), ("B", INT)), schema(("B", INT), ("C", STRING))
    rels = {}
    for ring, tag, c in ((Z, "z", -1), (GF2, "g", True), (REAL, "r", 0.5)):
        r = relation_from_rows(ab, ring, [(("a", INT64_MAX), ring.one), (("b", 0), c),
                                          (("a", INT64_MIN), ring.one)])
        s = relation_from_rows(bc, ring, [((0, "x"), ring.one), ((INT64_MAX, "a"), c)])
        rels |= {"R" + tag: r, "S" + tag: s, "O" + tag: outer_join("full", r, s)}
    rels["E"] = relation_from_rows(ab, Z, [(("a", 1), 1), (("a", 1), -1)])
    return rels


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# an unknown relation, column, form, operation or predicate, one among many known ones
_NAMES = ["Rz", "Sz", "Oz", "Rz", "Sz", "Oz", "Rg", "Sg", "Og", "Rr", "Sr", "Or", "E", "Nope",
          "(clamp Rz Sz)"]
_COLS = ["A", "B", "C", "A", "B", "C", "Q"]
_LITERALS = [str(INT64_MAX), str(INT64_MIN), str(INT64_MAX + 1), str(INT64_MIN - 1), "0",
             '"a"', '""', '"x y"', "true"]
# forms and [...] lists, which the grammar does not take as a comparison's operand
_NESTED = ["()", "(Rz)", "(union Rz Sz)", "(= A 1)", "[]", "[A]", "[1 B]", "[(Rz)]"]


def _queries():
    col = st.sampled_from(_COLS)
    cols = st.lists(col, max_size=3).map(lambda cs: "[" + " ".join(cs) + "]")
    operand = st.one_of(col, st.sampled_from(_LITERALS), st.sampled_from(_NESTED))
    compare = st.builds("({} {} {})".format, st.sampled_from(
        ["=", "!=", "<", "<=", ">", ">=", "prefix", "contains", "like"]), operand, operand)
    pred = st.recursive(compare, lambda p: st.one_of(
        st.builds("(and {} {})".format, p, p), st.builds("(or {} {})".format, p, p),
        st.builds("(not {})".format, p)), max_leaves=3)
    return st.recursive(st.sampled_from(_NAMES), lambda q: st.one_of(
        st.builds("({} {} {})".format, st.sampled_from(
            ["union", "diff", "intersect", "product", "join", "frob"]), q, q),
        st.builds("(join {})".format, q),
        st.builds("(outer {} {} {})".format, st.sampled_from(["left", "right", "full", "inner"]),
                  q, q),
        st.builds("(select {} {})".format, pred, q),
        st.builds("({} {} {})".format, st.sampled_from(["project", "rename"]), cols, q),
        st.builds("(agg {} {} {} {})".format, st.sampled_from(["sum", "min", "max", "count",
                                                               "avg"]), cols, col, q),
        st.builds("(map {} {} {})".format, st.sampled_from(
            ["upper", "length", "abs", "neg", "inc", "dec", "bogus"]), col, q),
        st.builds("(clamp {})".format, q)), max_leaves=4)


_CATALOG = _query_catalog()


@settings(max_examples=250, deadline=None)
@given(_queries())
@example("(select (= A (Rz)) Rz)")
@example("(select (prefix A [B]) Rz)")
def test_no_query_ends_in_a_traceback(text):
    # each query either evaluates and renders in every format, or fails
    # with a `ValueError` subclass, which the CLI turns into exit code 2,
    # whose message shows the query's own text, never the parser's nodes
    try:
        r = run(text, _CATALOG)
        for fmt in ("table", "csv", "json"):
            render_relation(r, fmt)
    except ValueError as e:
        assert "Symbol(" not in str(e), text
