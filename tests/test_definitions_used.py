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
by tests, yet passed because LemmaSuiteReport.to_json is called.  So the
shared public method names are pinned in SHARED_METHODS, with the
classes that define each, every one checked by hand for a caller outside
tests; a new shared name fails until its callers are checked and it is
added there.

Every `__all__` entry must be bound in its module, so a deleted
definition cannot linger there.  The package `__init__.py` is its
docstring alone: each definition has one import path, exactrips.<module>.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
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


# Public method names that several src/exactrips classes define, and
# those classes.  Each class's method was checked by hand for a caller in
# src/exactrips or perfbench: _DigitString.digits in text(), the
# _WordStream one in the lemma draws, each to_json_dict in cli or harness,
# Cloud.to_csv_text in cli's build, ExperimentReport's in experiment.
SHARED_METHODS = {
    "digits": ["_DigitString", "_WordStream"],
    "to_json_dict": ["FactReport", "LemmaSuiteReport", "RigidFreeReport", "RipsComplex2"],
    "to_csv_text": ["Cloud", "ExperimentReport"],
}


def test_shared_method_names_are_pinned():
    owners = defaultdict(list)
    for path in MODULES:
        for qualified, name in definitions(ast.parse(path.read_text())):
            if qualified != name:
                owners[name].append(qualified.partition(".")[0])
    shared = {name: sorted(classes) for name, classes in owners.items() if len(classes) > 1}
    assert shared == SHARED_METHODS, (
        "a method name several classes define is matched by name only; check each "
        "class's callers by hand, then pin it in SHARED_METHODS"
    )


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


def test_the_package_module_is_its_docstring_alone():
    (node,) = ast.parse((ROOT / "src" / "exactrips" / "__init__.py").read_text()).body
    assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    assert isinstance(node.value.value, str)


def test_importing_the_package_loads_no_module_of_it():
    probe = "import sys, exactrips; print(*sorted(m for m in sys.modules if m.startswith('exactrips')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["exactrips"]
