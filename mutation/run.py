"""Mutation gate: every listed mutant must make its test selection fail.

    python3 mutation/run.py

Runs from anywhere; the package, its tests and the mutant list,
mutation/mutants.json, are read from the checkout this file sits in.
Standard library only (pytest runs as a child process).

Each entry of the list is an object with
- "file": a path relative to the checkout root,
- "old": text that must occur exactly once in that file,
- "new": the text that replaces it,
- "tests": the pytest arguments that select the tests meant to kill it,
- "why": one line on what the mutant breaks.

The runner copies src/, tests/, pyproject.toml, perfbench/ and
.github/workflows/ci.yml to a temporary directory; tier-1 reads the last
two (test_definitions_used counts perfbench's uses, test_golden reads the
CI file), so the whole of it passes in the copy.  Every distinct
selection first runs on the unmutated copy and must pass, so a selection
that is broken, empty or already failing kills nothing.  Then each mutant
is applied to the copy in turn, its selection runs (`pytest -x -q`,
bytecode not written, so no stale cache is read), and the file is
restored.  A mutant is killed when pytest exits nonzero or runs past
TIMEOUT_S.  Exit 0 when every mutant is killed, else 1.

A mutant that survives calls for a new test, never for dropping the mutant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "perfbench", ".github/workflows/ci.yml")
TIMEOUT_S = 600


def pytest(tree: Path, tests: list[str]) -> str:
    """pytest's exit code on `tests` in `tree`, as text, or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return str(done.returncode)


def main() -> int:
    mutants = json.loads((ROOT / "mutation" / "mutants.json").read_text())

    misplaced = [
        f"{m['file']}: {m['old']!r} occurs {n} times"
        for m in mutants
        for n in [(ROOT / m["file"]).read_text().count(m["old"])]
        if n != 1
    ]
    if misplaced:
        print("each mutant's old text must occur exactly once:", *misplaced, sep="\n  ")
        return 1

    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                (tree / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, tree / name)

        selections = list(dict.fromkeys(tuple(m["tests"]) for m in mutants))
        failing = [s for s in selections if pytest(tree, list(s)) != "0"]
        if failing:
            print("these selections do not pass unmutated:", *map(" ".join, failing), sep="\n  ")
            return 1

        survivors = 0
        for m in mutants:
            path = tree / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["old"], m["new"]))
            start = perf_counter()
            code = pytest(tree, m["tests"])
            path.write_text(original)
            killed = code != "0"
            survivors += not killed
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{verdict} {m['file']}: {m['why']} "
                  f"(pytest {' '.join(m['tests'])}: exit {code}, {perf_counter() - start:.1f} s)")

    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
