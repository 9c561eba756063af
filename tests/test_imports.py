"""Every name a `polyalg` module imports is used in that module.

`__init__.py` is exempt: its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import polyalg

PACKAGE = Path(polyalg.__file__).resolve().parent


def unused_imports(source: str):
    """Names bound by an import anywhere in the module and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_function_level_imports():
    source = (
        "import os\n"
        "from .terms import MulGen, scaled\n"
        "def f(x):\n"
        "    from .normal import force_product\n"
        "    return scaled(1, x) if os.sep else None\n"
    )
    assert unused_imports(source) == [(2, "MulGen"), (4, "force_product")]


def test_modules_import_only_what_they_use():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{p.name}:{line}: {name}"
        for p in modules
        for line, name in unused_imports(p.read_text(encoding="utf-8"))
    ]
    assert found == []


def orphaned_helpers(sources):
    """Private module-level functions and classes that no code in the
    package refers to outside their own definition. `sources` maps module
    names to source text."""
    helpers = []
    where = {}  # name -> the (module, top-level statement) pairs reading it
    for mod, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
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
