"""Every module-level function and class of `src/pspt`, and every public
method and property of its classes, has a caller.

A name counts as used when some module of `src/pspt` or `perfbench/` names
it outside its own definition: as a variable, an attribute, an imported
name, or a string (perfbench's tracer looks functions up by name). A name
that only tests use belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pspt"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _names(node: ast.AST) -> Counter:
    """How often `node` mentions each name."""
    found: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
EVERYWHERE = sum((_names(tree) for tree in TREES.values()), Counter())
DEFINITIONS = [
    (path, node) for path in sorted(PACKAGE.glob("*.py")) for node in TREES[path].body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
]

# methods and properties not starting with "_", so no dunder or private helper
METHODS = [
    (path, cls, node) for path, cls in DEFINITIONS if isinstance(cls, ast.ClassDef)
    for node in cls.body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
]


def test_package_defines_something():
    assert len(DEFINITIONS) > 50
    assert len(METHODS) > 20


@pytest.mark.parametrize("path, node", DEFINITIONS,
                         ids=[f"{p.stem}.{n.name}" for p, n in DEFINITIONS])
def test_named_outside_its_definition(path, node):
    assert EVERYWHERE[node.name] > _names(node)[node.name], \
        f"{path.name}: {node.name} is named only in its own definition"


@pytest.mark.parametrize("path, cls, node", METHODS,
                         ids=[f"{p.stem}.{c.name}.{n.name}" for p, c, n in METHODS])
def test_method_named_outside_its_definition(path, cls, node):
    assert EVERYWHERE[node.name] > _names(node)[node.name], \
        f"{path.name}: {cls.name}.{node.name} is named only in its own definition"
