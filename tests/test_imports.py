"""Every package module, test and demo uses each name it imports (``__init__`` re-exports, so
it is exempt), every name in a module's ``__all__`` exists on that module and is read outside
the tests (so the package exports no test-only code), the package's
modules import one another at the top only, along an acyclic graph, the errors of the rule
for q are raised in one function, the type labels are spelled out in ``classify`` only,
``fractions`` is imported by ``fields`` and ``linalg`` only (elsewhere integers become field
scalars through ``linalg.field_scalars``), one function builds a witness document (a dict with
the keys "lhs" and "rhs"), and no package line is longer than 100 characters
(so the package's line count is not met by packing more code onto each line)."""

import ast
import importlib
import re
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


def exported_names(source: str):
    """The names a module lists in its ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def names_read(source: str, strings=False):
    """The names a module reads as a name or attribute, and with ``strings`` its str constants."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_exports(package: dict, readers: list, tracer: list):
    """(module, name) of each ``__all__`` name of a package module (source by module name) that
    no package module, reader source or tracer source reads.

    A definition, an ``__all__`` entry and an import are not reads, so ``__init__``'s
    re-exports do not count.  The tracer wraps functions by name, so its string constants are
    reads too.
    """
    read = set().union(*(names_read(s) for s in [*package.values(), *readers]),
                       *(names_read(s, strings=True) for s in tracer))
    return sorted((m, n) for m, s in package.items() for n in exported_names(s) if n not in read)


def test_every_export_is_read_outside_the_tests():
    """A name only tests read belongs in ``tests/`` (``paper_reference``, ``field_reference``)."""
    package = {p.stem: p.read_text() for p in MODULES}
    demos = [p.read_text() for p in sorted(ROOT.glob("demos/*.py"))]
    bench = [p.read_text() for p in sorted(ROOT.glob("bench/*.py"))]
    assert unread_exports(package, demos, bench) == []


def test_the_export_check_sees_an_unread_name():
    package = {"m": '__all__ = ["used", "unread", "wrapped"]\n\n'
                    "def used():\n    pass\n\ndef unread():\n    pass\n\n"
                    "def wrapped():\n    pass\n",
               "n": "from .m import used, unread\n\nused()\n"}
    tracer = ['for attr in ("wrapped",):\n    wrap(h.m, attr)\n']
    assert unread_exports(package, [], tracer) == [("m", "unread")]
    assert unread_exports(package, ["print('unread')\n"], []) == [("m", "unread"), ("m", "wrapped")]
    assert unread_exports(package, ["import hecke3\n\nhecke3.m.unread()\n"], tracer) == []


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


RULE_ERRORS = {"ZeroQ", "InvalidConstraint"}


def rule_raisers(source: str, module: str):
    """The functions, as "module:qualified.name", holding a raise of ZeroQ or InvalidConstraint.

    A raise outside every function is reported as "module:".
    """
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                target = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if (getattr(target, "id", None) or getattr(target, "attr", None)) in RULE_ERRORS:
                    found.add(f"{module}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_rule_for_q_has_one_home():
    raisers = set().union(*(rule_raisers(p.read_text(), p.stem) for p in PACKAGE.glob("*.py")))
    assert len(raisers) == 1, sorted(raisers)


def test_the_rule_check_sees_every_raise():
    src = ("class A:\n    def f(self):\n        raise ZeroQ('x')\n\n"
           "def g():\n    def h():\n        raise errors.InvalidConstraint\n"
           "    if True:\n        raise InvalidConstraint('y') from None\n    raise ValueError\n\n"
           "raise ZeroQ\n")
    assert rule_raisers(src, "m") == {"m:A.f", "m:g.h", "m:g", "m:"}


FRACTION_HOMES = {"fields", "linalg"}


def fraction_importers(package: dict):
    """The package modules (source by module name) that import ``fractions`` in any form."""
    return sorted(m for m, source in package.items() if any(
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions"
                                             for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "fractions"
        for node in ast.walk(ast.parse(source))))


def test_fractions_has_one_home():
    """Other modules form field scalars with linalg.field_scalars, not with Fraction."""
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert set(fraction_importers(package)) <= FRACTION_HOMES


def test_the_fractions_check_sees_every_import():
    package = {"a": "from fractions import Fraction\n", "b": "import fractions as fr\n",
               "c": "def f():\n    import os, fractions\n", "d": "from .fractions import x\n",
               "e": "from fractionsx import y\nx = 'from fractions import Fraction'\n"}
    assert fraction_importers(package) == ["a", "b", "c"]


TYPE_LABEL = re.compile(r"^Type[1-8]$")


def type_label_constants(source: str):
    """(line number, text) of each string constant that is a type label, such as "Type1"."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and TYPE_LABEL.match(node.value))


def test_the_type_labels_have_one_home():
    """Other modules read classify.TYPE_LABELS and classify.Q_FAMILIES."""
    found = {p.stem: labels for p in PACKAGE.glob("*.py") if p.stem != "classify"
             and (labels := type_label_constants(p.read_text()))}
    assert found == {}


def test_the_label_check_sees_every_label_constant():
    src = ('x = ("Type1", "Type2")\nif label == "Type8":\n    pass\n'
           'y = {"Type3": 1, "Type9": 2, "Type10": 3, "type4": 4}\nz = f"Type{n}"\n'
           '"""Type5 docstring"""\n')
    assert type_label_constants(src) == [(1, "Type1"), (1, "Type2"), (2, "Type8"), (4, "Type3")]


WITNESS_SIDES = {"lhs", "rhs"}


def witness_builders(source: str, module: str):
    """The scope, as "module:qualified.name", of each dict display or ``dict(...)`` call with
    the key "lhs" or "rhs", a witness document; one outside every function is "module:"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Dict):
                keys = {getattr(k, "value", None) for k in child.keys}
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "dict":
                keys = {k.arg for k in child.keywords}
            else:
                keys = set()
            if keys & WITNESS_SIDES:
                found.append(f"{module}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_the_witness_document_has_one_home():
    """Every check builds its witness through verifier._witness."""
    found = [b for p in PACKAGE.glob("*.py") for b in witness_builders(p.read_text(), p.stem)]
    assert found == ["verifier:_witness"]


def test_the_witness_check_sees_a_second_builder():
    src = ('def _witness(x, y):\n    return {"input": 0, "lhs": x, "rhs": y}\n\n'
           "class C:\n    def f(self, x):\n        return {**x, 'rhs': 1}\n\n"
           'def g(x):\n    def h():\n        return dict(lhs=x)\n    return {"lhsx": x}\n\n'
           'W = [{"lhs": 1}]\n')
    assert witness_builders(src, "m") == ["m:", "m:C.f", "m:_witness", "m:g.h"]


MAX_LINE_CHARS = 100


def long_lines(source: str):
    """(line number, length) of each line longer than MAX_LINE_CHARS characters."""
    return [(n, len(line)) for n, line in enumerate(source.splitlines(), 1)
            if len(line) > MAX_LINE_CHARS]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_package_line_is_longer_than_100_characters(path):
    assert long_lines(path.read_text()) == []


def test_the_line_check_sees_a_long_line():
    src = "x = 1\n" + "y = '" + "a" * 95 + "'\n" + "z" * 100 + "\n"
    assert long_lines(src) == [(2, 101)]
