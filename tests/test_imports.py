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
