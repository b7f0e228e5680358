"""Every package module, test and demo uses each name it imports (``__init__`` re-exports, so
it is exempt), every name in a module's ``__all__`` exists on that module, and the package's
modules import one another at the top only, along an acyclic graph."""

import ast
import importlib
from pathlib import Path

import pytest

import hecke3

PACKAGE = Path(hecke3.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
LINTED = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


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


@pytest.mark.parametrize("path", LINTED, ids=[p.stem if p in MODULES else f"{p.parent.name}/{p.stem}"
                                              for p in LINTED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    src = "import random\nfrom itertools import islice, product\n\nprint(product)\n"
    assert unused_imports(src) == [(1, "random"), (2, "islice")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_all_names_resolve(path):
    module = importlib.import_module(f"hecke3.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []


def package_imports(source: str):
    """(top-level imports, imports inside a function) of package modules, by module name."""
    tree = ast.parse(source)
    nested = {node for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(f)}
    top, inner = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            (inner if node in nested else top).update(names)
    return top, inner


def first_cycle(graph):
    """A list of modules closing a cycle of the import graph, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt, path + [nxt])):
                return cycle
        state[node] = "done"
        return None

    return next((c for n in sorted(graph) if n not in state and (c := visit(n, [n]))), None)


def test_the_package_import_graph_is_acyclic():
    graph = {p.stem: set.union(*package_imports(p.read_text())) for p in MODULES}
    assert first_cycle(graph) is None


def test_no_function_imports_a_package_module():
    assert {p.stem: inner for p in MODULES if (inner := package_imports(p.read_text())[1])} == {}


def test_the_graph_checks_see_a_cycle_and_a_nested_import():
    assert first_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert first_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
    src = "from .fields import QQ\n\ndef f():\n    from .classify import canonical\n"
    assert package_imports(src) == ({"fields"}, {"classify"})
