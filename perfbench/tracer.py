"""Aggregated spans for the traced benchmark run.

The traced run makes the same public call as the untraced one; spans are
added by replacing, for the length of the call, the module globals that
the program's own functions look up (``patched``) with wrappers made by
``Tracer.wrap``.  Only aggregates are kept: the self time of each span
name (its duration minus the time its child spans cover) and integer
counters recorded at the same boundaries.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Self time per span name and exact counters for one traced batch."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._child_s
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self.self_s[name] += duration - stack.pop()
            if stack:
                stack[-1] += duration

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(result, *args) records counts."""

        def spanned(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return spanned

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)


@contextmanager
def patched(module, attr: str, replacement):
    """Temporarily replace module.attr, the global its own functions look up."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)
