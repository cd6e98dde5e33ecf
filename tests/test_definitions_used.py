"""Every definition in src/exactrips is reached by the program or the benchmark.

A top-level function or class of a module of src/exactrips, or a public
method of such a class, must have its name used somewhere in
src/exactrips (other than __init__.py) or in perfbench/*.py: as a Name,
an Attribute or an import alias.  An `__all__` entry is a string, not a
use.  A definition that only tests call is a second route beside the one
the program runs; its referee belongs in tests/oracles.py.

Uses are matched by name, not by class: a method name that several
src/exactrips classes define counts as used for all of them once any one
is named.  RipsComplex2.to_json and CloudConfig.to_json were called only
by tests, yet passed because LemmaSuiteReport.to_json is called; a
method that shares its name with another class's must be checked by
hand.

Every `__all__` entry must be bound in its module, and every name the
package `__init__.py` imports must be in its module's `__all__`, so a
deleted definition cannot linger in either list.
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


def all_names(tree) -> list[str]:
    """The strings of the module's `__all__` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def bound_names(tree):
    """Names a module binds at top level: definitions, assignments and imports."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)


def test_every_all_entry_is_defined_in_its_module():
    missing = [
        f"{path.name}: {name}"
        for path in MODULES
        for tree in [ast.parse(path.read_text())]
        for name in sorted(set(all_names(tree)) - set(bound_names(tree)))
    ]
    assert missing == [], "in __all__ but not defined: " + ", ".join(missing)


def test_the_package_imports_only_exported_names():
    init = ast.parse((ROOT / "src" / "exactrips" / "__init__.py").read_text())
    exported = {path.stem: set(all_names(ast.parse(path.read_text()))) for path in MODULES}
    unexported = [
        f"{node.module}.{alias.name}"
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exported[node.module]
    ]
    assert unexported == [], "imported by the package, not in __all__: " + ", ".join(unexported)
