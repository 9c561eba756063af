"""Every name a `polyalg` module imports is used in that module, and every
function or class it defines is named somewhere.

`__init__.py` is exempt from the import check: its imports are the
package's public re-exports.
"""

import ast
import symtable
from pathlib import Path

import polyalg

PACKAGE = Path(polyalg.__file__).resolve().parent


def unused_imports(source: str):
    """Names bound by an import and never read where that binding is seen.
    Scopes follow Python's own rules, as `symtable` resolves them: a read in
    a function that binds the same name, as a parameter, by assignment or
    by its own import, reads that binding, and a store reads nothing."""
    lines = {}  # (line of the enclosing def or class, 0 for the module, name) -> import line

    def collect(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    name = alias.asname or alias.name.split(".")[0]
                    lines.setdefault((scope, name), child.lineno)
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            collect(child, child.lineno if defines else scope)

    collect(ast.parse(source), 0)
    found = []

    def check(table):
        module = table.get_type() == "module"
        for sym in table.get_symbols():
            name = sym.get_name()
            if sym.is_imported() and not sym.is_referenced() and not _read_below(table, name, module):
                found.append((lines[0 if module else table.get_lineno(), name], name))
        for child in table.get_children():
            check(child)

    check(symtable.symtable(source, "<module>", "exec"))
    return sorted(found)


def _read_below(table, name, module):
    """Whether a scope nested in `table` reads `table`'s binding of `name`:
    a global read for a module binding, a free one for a function's."""
    for child in table.get_children():
        if name in child.get_identifiers():
            sym = child.lookup(name)
            if sym.is_referenced() and (sym.is_global() if module else sym.is_free()):
                return True
            if sym.is_local() and not module:
                continue  # shadowed here and in every scope nested in it
        if _read_below(child, name, module):
            return True
    return False


def test_unused_import_check_sees_function_level_imports():
    source = (
        "import os\n"
        "from .terms import MulGen, scaled, zero\n"
        "def f(x):\n"
        "    from .normal import force_product\n"
        "    return scaled(1, x) if os.sep else None\n"
        "def g(zero):\n"
        "    return zero\n"
        "def h(x):\n"
        "    zero = x\n"
        "    return zero\n"
    )
    assert unused_imports(source) == [(2, "MulGen"), (2, "zero"), (4, "force_product")]


def test_modules_import_only_what_they_use():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{p.name}:{line}: {name}"
        for p in modules
        for line, name in unused_imports(p.read_text(encoding="utf-8"))
    ]
    assert found == []


def orphaned_helpers(sources, defining=None, public=False):
    """Module-level functions and classes, private ones unless `public`,
    defined in the `defining` files (by default every file) that no code in
    `sources` refers to outside their own definition. `sources` maps file
    names to source text."""
    helpers = []
    where = {}  # name -> the (file, top-level statement) pairs reading it
    for mod, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and (defining is None or mod in defining) \
                    and (public or stmt.name.startswith("_")) and not stmt.name.startswith("__"):
                helpers.append((mod, i, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                where.setdefault(name, set()).add((mod, i))
    return helpers, sorted(
        f"{mod}: {name}" for mod, i, name in helpers if where.get(name, set()) <= {(mod, i)}
    )


def test_orphan_check_ignores_self_reference():
    sources = {
        "a": "def _loop(n):\n    return _loop(n - 1)\n\nclass _Used:\n    pass\n",
        "b": "from .a import _Used\n\ndef _spare():\n    pass\n",
    }
    helpers, orphans = orphaned_helpers(sources)
    assert len(helpers) == 3
    assert orphans == ["a: _loop", "b: _spare"]


def test_private_helpers_are_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    helpers, orphans = orphaned_helpers(sources)
    assert helpers
    assert orphans == []


def test_dead_code_check_reads_tests_and_scripts():
    sources = {
        "pkg/a.py": "def used():\n    pass\n\ndef spare():\n    return spare\n\nclass _Kept:\n    pass\n",
        "pkg/b.py": "def unchecked():\n    pass\n",
        "tests/t.py": "from pkg.a import used\n",
        "bench/w.py": "import pkg.a as a\n\nprint(a._Kept)\n",
    }
    helpers, orphans = orphaned_helpers(sources, defining={"pkg/a.py"}, public=True)
    assert len(helpers) == 3
    assert orphans == ["pkg/a.py: spare"]


def test_every_definition_is_named():
    # a module-level function or class of the package that nothing in the
    # package, its tests or the benchmark names is dead code
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    sources = {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8") for p in files}
    defining = {p.relative_to(root).as_posix() for p in (root / "src" / "polyalg").glob("*.py")}
    helpers, orphans = orphaned_helpers(sources, defining, public=True)
    assert len(helpers) > 100
    assert orphans == []


def _named(node, name):
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.Name) and node.id == name)


def baseline_zero_tests(source: str):
    """Lines of the calls that hand `is_zero`, as the callee or as an
    argument, something read from a `.base` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (
                _named(node.func, "is_zero") or any(_named(a, "is_zero") for a in node.args)):
            if any(isinstance(sub, ast.Attribute) and sub.attr == "base"
                   for a in node.args for sub in ast.walk(a)):
                found.append(node.lineno)
    return sorted(found)


def test_baseline_check_sees_direct_and_mapped_tests():
    source = (
        "def f(nf, ring, forms):\n"
        "    if ring.is_zero(nf.base):\n"
        "        return all(map(ring.is_zero, {x.base for x in forms}))\n"
        "    return nf.base is None or is_zero(nf.value) or ring.is_zero(nf.trie)\n"
    )
    assert baseline_zero_tests(source) == [2, 3]


def test_a_missing_baseline_is_only_none():
    # a keyed form says "no wildcard" with None alone, never with a
    # vanishing baseline, so no code tests a baseline with `is_zero`
    found = [
        f"{p.name}:{line}"
        for p in sorted(PACKAGE.glob("*.py"))
        for line in baseline_zero_tests(p.read_text(encoding="utf-8"))
    ]
    assert found == []


def level_rule_breaches(module: str, source: str):
    """Lines where a module other than `normal` pops `STAR` from a dict or
    calls `key_order`: a level is read in key order and built with its
    baseline by `normal` alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        pops_star = _named(node.func, "pop") and node.args and _named(node.args[0], "STAR")
        if module != "normal" and (_named(node.func, "key_order") or pops_star):
            found.append(node.lineno)
    return found


def test_level_rule_check_sees_pops_and_orders():
    source = (
        "def f(t, prim):\n"
        "    base = t.pop(STAR, None)\n"
        "    return sorted(t, key=tries.key_order(prim)), t.pop(1), key_order(prim)\n"
    )
    assert level_rule_breaches("relational", source) == [2, 3, 3]
    assert level_rule_breaches("tries", source) == [2, 3, 3]
    assert level_rule_breaches("normal", source) == []


def test_levels_are_read_and_built_in_one_place():
    found = [
        f"{p.name}:{line}"
        for p in sorted(PACKAGE.glob("*.py"))
        for line in level_rule_breaches(p.stem, p.read_text(encoding="utf-8"))
    ]
    assert found == []
