"""Every definition in src/exactrips is reached by the program or the benchmark.

A top-level function or class of a module of src/exactrips, or a public
method of such a class, must have its name used somewhere in
src/exactrips (other than __init__.py) or in perfbench/*.py: as a Name,
an Attribute or an import alias.  An `__all__` entry is a string, not a
use.  A definition that only tests call is a second route beside the one
the program runs; its referee belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "exactrips").glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(qualified name, name) of each top-level function and class, and of
    each public non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):  # the imported name, not its local one
            yield node.name.rpartition(".")[2]


def test_every_definition_is_used_outside_tests():
    used = {name for path in READERS for name in used_names(ast.parse(path.read_text()))}
    unused = [
        f"{path.name}: {qualified}"
        for path in MODULES
        for qualified, name in definitions(ast.parse(path.read_text()))
        if name not in used
    ]
    assert unused == [], "defined in src/exactrips but used only by tests: " + ", ".join(unused)
