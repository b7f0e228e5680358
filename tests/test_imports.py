"""Every package module uses each name it imports (``__init__`` re-exports, so it is exempt),
and every name in a module's ``__all__`` exists on that module."""

import ast
import importlib
from pathlib import Path

import pytest

import hecke3

MODULES = sorted(p for p in Path(hecke3.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by an import statement and never read as a name in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    src = "import random\nfrom itertools import islice, product\n\nprint(product)\n"
    assert unused_imports(src) == [(1, "random"), (2, "islice")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_all_names_resolve(path):
    module = importlib.import_module(f"hecke3.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
