"""Exact base-3/base-2 digit strings and the ternary ultrametric.

A digit string is packed as (value, depth), its digits read as one base-3
(base-2) numeral: "012" is (5, 3), unequal to "0120" = (15, 4).  All
arithmetic is int or ``fractions.Fraction``; no floating point anywhere.
Finite digit strings follow the terminating convention: a string stands
for the infinite sequence obtained by appending zeros, so every finite
string is the greedy expansion of its own value, zero-padded.

The distance ``delta3`` is 3**-k for the first index k at which two
(zero-padded) strings disagree.  For identical strings the minimum
ranges over an empty set; we define that case to be 0, which is the
convention making delta3 a pseudometric (and in fact an ultrametric).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

__all__ = [
    "TernaryString",
    "BinaryString",
    "parse_int",
    "parse_rational",
    "rational_parts",
    "format_rational",
    "MaskRows",
    "json_text",
    "json_fields",
    "to_ternary",
    "ternary_value",
    "first_difference",
    "first_difference_packed",
    "power",
    "delta3_at",
    "delta3",
    "exact_type",
]


_POWERS = {base: tuple(base**k for k in range(256)) for base in (2, 3)}


def power(base: int, k: int) -> int:
    """base**k for base 2 or 3 and k >= 0, from a table for k < 256."""
    return _POWERS[base][k] if k < 256 else base**k


@dataclass(frozen=True, slots=True, init=False)
class _DigitString:
    """Finite digit sequence packed as (value, depth); see the module docstring."""

    value: int
    depth: int

    def __new__(cls, digits: Iterable[int] = ()):
        digits, value = tuple(digits), 0
        for d in digits:
            if d not in range(cls.base):
                raise ValueError(f"{cls._digit_error}, got {digits!r}")
            value = value * cls.base + d
        return cls.from_int(value, len(digits))

    @classmethod
    def from_int(cls, value: int, depth: int):
        """The string of `depth` digits whose packed value is `value`."""
        if depth < 0 or not 0 <= value < power(cls.base, depth):
            raise ValueError(f"no {depth}-digit base-{cls.base} string has value {value}")
        s = object.__new__(cls)
        _set_value(s, value)
        _set_depth(s, depth)
        return s

    @classmethod
    def from_text(cls, text: str):
        # ASCII digits below the base only: int() would also take "\u0661".
        if text.lstrip("0123456789"[: cls.base]):
            raise ValueError(f"{cls._digit_error}, got {text!r}")
        return cls(map(int, text))

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self.digit(k) for k in range(self.depth))

    def digit(self, k: int) -> int:
        """Digit at index k under the zero-padding convention."""
        return self.value_at(k + 1) % self.base if k >= 0 else 0

    def value_at(self, depth: int) -> int:
        """Packed value of the first `depth` digits, zero-padded if needed."""
        if depth == self.depth:  # no table read and no multiply by 1
            return self.value
        if depth > self.depth:
            return self.value * power(self.base, depth - self.depth)
        return self.value // power(self.base, self.depth - depth)

    def text(self) -> str:
        return "".join(map(str, self.digits))


# The slots' own setters, which a frozen dataclass's __setattr__ does not
# guard: from_int fills each new string through them, once.
_set_value, _set_depth = _DigitString.value.__set__, _DigitString.depth.__set__


class TernaryString(_DigitString):
    """Finite digit sequence over {0, 1, 2}, most significant digit first."""

    __slots__ = ()
    base = 3
    _digit_error = "ternary digits must be 0, 1 or 2"


class BinaryString(_DigitString):
    """Finite digit sequence over {0, 1}; indexes one sheet of the construction."""

    __slots__ = ()
    base = 2
    _digit_error = "binary digits must be 0 or 1"


# ASCII digits only: int() would also take "1_0" and non-ASCII digits.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INT = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """Parse an integer: ASCII [+-]?[0-9]+ after stripping outer whitespace."""
    if _INT.fullmatch(text.strip()) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def rational_parts(text: str) -> tuple[int, int]:
    """Unreduced ints (num, den > 0) of "num/den" text, or "k" as (k, 1):
    ASCII [+-]?[0-9]+(/[0-9]+)? after stripping outer whitespace."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den = int(m[1]), int(m[2] or 1)
    if den == 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """The Fraction of rational_parts(text)."""
    return Fraction(*rational_parts(text))


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form; integers render with denominator 1."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class MaskRows:
    """Int rows held as runs: run r is the rows prefixes[r] + (k,), ascending,
    for k = prefixes[r][-1] + 1 + b, b a set bit of masks[r]; all k < size."""

    prefixes: Sequence[tuple[int, ...]]
    masks: Sequence[int]
    size: int
    _FLAGS = bytes.maketrans(b"01", b"\0\1")  # bin() digits to compress() flags

    def json_at(self, nl: str, memo: dict, out: list) -> None:
        """Append to `out` the rows' list as json_text writes it where `nl`
        starts a line.  `memo`, one per document, maps (nl, prefix, mask) to
        a run's text, so a run repeated in the document is built once."""
        inner = nl + "  "
        deeper, sep = inner + "  ", "," + inner
        heads = [f"{k},{deeper}" for k in range(self.size)]
        tails = [f"{k}{inner}]" for k in range(self.size)]
        lead = "[" + inner
        for prefix, mask in zip(self.prefixes, self.masks):
            if not mask:
                continue
            run = memo.get(key := (nl, prefix, mask))
            if run is None:
                head = "[" + deeper + "".join([heads[k] for k in prefix])
                flags = bin(mask).encode()[:1:-1].translate(self._FLAGS)  # bit b at b
                run = memo[key] = head + (sep + head).join(compress(tails[prefix[-1] + 1 :], flags))
            out += lead, run
            lead = sep
        out.append(nl + "]" if lead == sep else "[]")  # "[]": no run written


def json_text(obj) -> str:
    """The text json.dumps(obj, indent=2, sort_keys=True) + "\\n" writes,
    with each MaskRows value written as the list of its rows.

    Every JSON report goes through here.  Each level appends its pieces to
    one list, joined once on return, so no text is copied into its parent's:
    dicts and lists recurse, scalars are the stdlib's, and MaskRows (edges,
    triangles) are written from the masks, with no row tuple and no str()
    per row.  A row run repeated in the document (as across a sweep's
    complexes) is built once, from a memo freed on return.  Keys must be str.
    """
    _json_at(obj, "\n", {}, out := [])
    out.append("\n")
    return "".join(out)


def json_fields(record, names=None) -> dict:
    """A dataclass's fields (or the attributes `names`) by name, as JSON
    values: a Fraction becomes "num/den", a digit string its text, a tuple
    a list of such values."""
    names = [f.name for f in fields(record)] if names is None else names
    return {k: _json_value(getattr(record, k)) for k in names}


def _json_value(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, _DigitString):
        return v.text()
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def _json_at(obj, nl: str, memo: dict, out: list) -> None:
    """Append obj's pieces to `out`, as written where `nl` starts a line."""
    if isinstance(obj, MaskRows):
        return obj.json_at(nl, memo, out)
    if isinstance(obj, dict):
        if bad := [k for k in obj if not isinstance(k, str)]:
            raise TypeError(f"JSON keys must be str, not {type(bad[0]).__name__}")
        items, ends = [(f"{json.dumps(k)}: ", v) for k, v in sorted(obj.items())], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [("", v) for v in obj], "[]"
    else:
        return out.append(json.dumps(obj))
    lead, inner = ends[0], nl + "  "
    for key, v in items:
        out.append(f"{lead}{inner}{key}")
        _json_at(v, inner, memo, out)
        lead = ","
    out.append(nl + ends[1] if items else ends)


def exact_type(what: str, value, *kinds):
    """value, if its type is exactly one of `kinds`, else ValueError
    "{what} must be {kinds}: {value!r}".  Exact, so a bool is not an int,
    a float not a Fraction, and nothing is coerced."""
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what} must be {names}: {value!r}")
    return value


def to_ternary(q: Fraction, depth: int) -> TernaryString:
    """Greedy (terminating-preferred) base-3 expansion of q in [0, 1].

    The packed value is floor(q * 3**depth), which is the expansion ending
    in zeros whenever q terminates at the requested depth.  q = 1 is the
    one value without such an expansion and returns the all-2s string.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    num, den = q.numerator, q.denominator
    if not 0 <= num <= den:
        raise ValueError(f"value out of [0, 1]: {q}")
    top = 3**depth
    return TernaryString.from_int(top - 1 if num == den else num * top // den, depth)


def ternary_value(s: TernaryString) -> Fraction:
    """Exact value sum(digits[k] * 3**-(k+1))."""
    return Fraction(s.value, 3**s.depth)


def first_difference(s: TernaryString, t: TernaryString) -> int | None:
    """First index at which the zero-padded strings disagree, None if nowhere."""
    depth = max(s.depth, t.depth)
    return first_difference_packed(s.value_at(depth), t.value_at(depth), depth)


def first_difference_packed(a: int, b: int, depth: int) -> int | None:
    """First index at which the `depth`-digit ternary strings of packed
    values a and b disagree, None if nowhere."""
    if a == b:
        return None
    # The digits at 3**m and up agree iff a // 3**m == b // 3**m, never when
    # 3**m <= |a - b|, and once they agree at m they agree above it, at
    # depth at the latest.  So the least such m is searched from the least
    # m with |a - b| < 3**m (256 if the table holds none): probes at m,
    # m + 1, m + 3, m + 7, ... up to the first agreement (the first probe,
    # unless a carry runs past m), then bisection below it.  Index depth - m
    # is the first difference.  The probes read the table inline, not
    # through power: a third of random pairs take a second probe.
    p3 = _POWERS[3]
    lo = hi = bisect_right(p3, abs(a - b))
    step = 1
    while a // (p := p3[hi] if hi < 256 else 3**hi) != b // p:
        lo, hi, step = hi + 1, hi + step if hi + step < depth else depth, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if a // (p := power(3, mid)) == b // p:
            hi = mid
        else:
            lo = mid + 1
    return depth - hi


@lru_cache(maxsize=256)
def delta3_at(k: int | None) -> Fraction:
    """3**-k, or 0 for None: delta3 given the first difference index."""
    return Fraction(0) if k is None else Fraction(1, 3**k)


def delta3(s: TernaryString, t: TernaryString) -> Fraction:
    """Ternary ultrametric: 3**-k at the first disagreeing index k, 0 if equal.

    Strings of unequal depth are zero-padded to the longer one, consistent
    with the terminating convention.
    """
    return delta3_at(first_difference(s, t))
