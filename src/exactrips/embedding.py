"""Digit-interleaving embedding of sheet-labeled interval points into [0,1]^3.

A point is its digit data: a base-3 expansion t, whose value is the
point's x in [0,1], and a binary sheet label y.  The three image
coordinates interleave the digits

    coordinate i:  (t[2i], t[2i+1], y[0],  t[6+2i], t[6+2i+1], y[1],  ...)

so every t digit and every y digit lands somewhere in the image: the map
is injective and invertible by reading the digits back (on packed strings,
two base-27 blocks per step through 729-entry tables).  Because y digits
occupy every position congruent to 2 mod 3 and are at most 1, image
coordinates never carry the digit 2 there; that reserved-digit gap is what
keeps coordinate values apart (an asymmetric-Cantor picture) and gives the
inverse-Hoelder lower bound checked by :func:`check_facts`.

The pseudometric on the domain is |x - x'| and ignores y entirely.  That
degeneracy is load-bearing: two sheets over the same x are at pseudo-
distance 0 yet embed to distinct points.

All comparisons are exact; square roots never appear (inequalities are
checked in squared or cleared form).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .digits import BinaryString, TernaryString, delta3_at, first_difference
from .digits import first_difference_packed, json_fields, power
from .digits import delta3, ternary_value, to_ternary  # for perfbench --trace 1

__all__ = [
    "IManyPoint",
    "FactReport",
    "MalformedImageError",
    "DegeneratePairError",
    "t_coordinates",
    "label_weight",
    "embed_strings",
    "decode",
    "reserved_twos",
    "check_facts",
    "check_close_expanding",
    "estimate_equivalence",
]

# Per-coordinate metric comparison constant of the image (3**-4).
COORD_METRIC_CONSTANT = Fraction(1, 81)


class MalformedImageError(ValueError):
    """Digit strings that cannot be the image of any domain point."""


class DegeneratePairError(ValueError):
    """Two points with identical digit data where distinct ones are required."""


@dataclass(frozen=True, slots=True)
class IManyPoint:
    """A point (x, y) of the many-sheeted interval, held as its digits: x is
    the value of the base-3 expansion t (at least one digit) and y labels
    the sheet.  Equality and hash are those of (t, y), so "1" and "10" are
    distinct expansions of x = 1/3."""

    t: TernaryString
    y: BinaryString

    def __post_init__(self) -> None:
        if self.t.depth < 1:
            raise ValueError("expansion must have at least one digit")

    def digit_data_equals(self, other: "IManyPoint") -> bool:
        """Equality of (t, y) under the zero-padding convention."""
        tdepth = max(self.t.depth, other.t.depth)
        ydepth = max(self.y.depth, other.y.depth)
        same_t = self.t.value_at(tdepth) == other.t.value_at(tdepth)
        return same_t and self.y.value_at(ydepth) == other.y.value_at(ydepth)


# t block v = t[6k..6k+5] -> 3 * t[6k+2i..6k+2i+1] as a 2-digit value, one
# flat table per coordinate i < 3: 18 KB in all where 729 3-tuples take 52 KB.
# Tuples, not arrays: an array read makes the loop a quarter slower.
_SPLIT = tuple(tuple(v // 9 ** (2 - i) % 9 * 3 for v in range(729)) for i in range(3))


def t_coordinates(t: TernaryString, blocks: int) -> tuple[int, int, int]:
    """Packed values of the three image coordinates of (t, empty label):
    block k of coordinate i holds (t[6k+2i], t[6k+2i+1], 0)."""
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    tv, (s0, s1, s2) = t.value_at(6 * blocks), _SPLIT
    weight, c0, c1, c2 = 1, 0, 0, 0
    for _ in range(blocks):  # lowest block first
        tv, v = divmod(tv, 729)
        c0 += s0[v] * weight
        c1 += s1[v] * weight
        c2 += s2[v] * weight
        weight *= 27
    return c0, c1, c2


def label_weight(b: BinaryString, blocks: int) -> int:
    """The label's share of every packed image coordinate: bit k of
    b.value_at(blocks), counted from the last label digit, at weight 27**k."""
    return int(format(b.value_at(blocks), "b"), 27)


def _coordinate_values(t: TernaryString, b: BinaryString, blocks: int):
    # Packed values of the three image coordinates: the t part plus the label term.
    c0, c1, c2 = t_coordinates(t, blocks)
    w = label_weight(b, blocks)
    return c0 + w, c1 + w, c2 + w


def embed_strings(
    p: IManyPoint, blocks: int
) -> tuple[TernaryString, TernaryString, TernaryString]:
    """The three coordinate digit strings of the embedding of p."""
    c0, c1, c2 = _coordinate_values(p.t, p.y, blocks)
    from_int, depth = TernaryString.from_int, 3 * blocks
    return from_int(c0, depth), from_int(c1, depth), from_int(c2, depth)


def _reserved_digits(s: TernaryString, blocks: int) -> list[int]:
    # Digits 3k+2, k < blocks, of s, in order: block k of a 3*blocks-digit
    # string is its base-27 digit k, highest first, and mod 3 it is digit 3k+2.
    v, column = s.value, [0] * blocks
    for k in range(blocks - 1, -1, -1):
        v, w = divmod(v, 27)
        column[k] = w % 3
    return column


def reserved_twos(s: TernaryString, blocks: int) -> int:
    """How many reserved digits 3k+2, k < blocks, of the 3*blocks-digit
    coordinate string s are 2 (none, for an image of embed_strings)."""
    return _reserved_digits(s, blocks).count(2)


# Two base-27 blocks (hi, lo) of one coordinate as a base-729 digit d: the
# t digits of coordinate 2 as a 12-digit value (coordinates 0 and 1 hold 81
# and 9 times that), and the label bit pair, -1 where a reserved digit is 2.
# Arrays, not tuples: 2.2 KB in all where tuples of ints take 32 KB.
_PAIR_T = array("H", [d // 81 * 729 + d % 27 // 3 for d in range(729)])
_PAIR_LABEL = array("b", [
    -1 if d // 27 % 3 == 2 or d % 3 == 2 else d // 27 % 3 * 2 + d % 3 for d in range(729)
])


def decode(
    strings: Sequence[TernaryString], blocks: int
) -> tuple[TernaryString, BinaryString]:
    """Invert the interleaving: recover (t, b) from the three coordinate strings.

    Each step reads two base-27 blocks of every coordinate as one base-729
    digit, lowest first, through a 729-entry table (at odd blocks the top
    half of the last step reads the zero block).  Raises MalformedImageError
    if a string does not have exactly 3*blocks digits, if a reserved
    position (index 2 mod 3) holds the digit 2, or if the coordinates
    disagree on the shared b digits; the message names the first defect, in
    that order per string, then by position (the per-block scan,
    _malformed, reads a refused image again to find it).
    """
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if len(strings) != 3:
        raise MalformedImageError("exactly three coordinate strings required")
    s0, s1, s2 = strings
    if s0.depth == s1.depth == s2.depth == 3 * blocks:
        v0, v1, v2 = s0.value, s1.value, s2.value
        tpart, label = _PAIR_T, _PAIR_LABEL
        t = b = 0
        weight = 1
        for shift in range(0, blocks, 2):
            v0, d0 = divmod(v0, 729)
            v1, d1 = divmod(v1, 729)
            v2, d2 = divmod(v2, 729)
            pair = label[d0]
            if pair < 0 or pair != label[d1] or pair != label[d2]:
                break
            t += (tpart[d0] * 81 + tpart[d1] * 9 + tpart[d2]) * weight
            b |= pair << shift
            weight *= 531441  # 3**12: two t blocks
        else:
            return TernaryString.from_int(t, 6 * blocks), BinaryString.from_int(b, blocks)
    raise _malformed(strings, blocks)


def _malformed(strings: Sequence[TernaryString], blocks: int) -> MalformedImageError:
    # The first defect of an image that decode refused, read block by block.
    columns = []
    for s in strings:
        if s.depth != 3 * blocks:
            return MalformedImageError(
                f"coordinate string must have {3 * blocks} digits, got {s.depth}"
            )
        columns.append(_reserved_digits(s, blocks))
        if 2 in columns[-1]:
            k = columns[-1].index(2)
            return MalformedImageError(
                f"digit 2 at reserved position {3 * k + 2}: not an image point"
            )
    k = next(k for k, shared in enumerate(zip(*columns)) if len(set(shared)) > 1)
    return MalformedImageError(f"coordinates disagree on shared digit {k}")


@dataclass(frozen=True)
class FactReport:
    """Exact evaluation of the four embedding inequalities on one pair.

    The booleans record, in order:
      fact1     |x_p - x_q| <= delta3(t_p, t_q)
      fact2     delta3(t_p, t_q) <= 9 * max_i delta3(coord_i)**2
      fact3     max_i |coord value gap| >= 3**-4 * max_i delta3(coord_i)
      fact4     (sup-norm gap)**2 <= (Euclidean gap)**2
      combined  (Euclidean gap)**2 >= 3**-10 * |x_p - x_q|

    combined is what the four facts chain to; it is computed independently
    here so the chain itself is testable.  First-difference positions are
    exposed because fact2's mechanism is positional: a t disagreement at
    index n surfaces in some coordinate by index n//2 + 1.  The fields are
    ints (|x_p - x_q| = x_num/x_den, value gaps over 3**(3*blocks)); the
    record (_JSON) writes the Fractions derived from them.
    """

    fact1: bool
    fact2: bool
    fact3: bool
    fact4: bool
    combined: bool
    t_first_diff: int | None
    coord_first_diffs: tuple[int | None, int | None, int | None]
    x_num: int
    x_den: int
    gaps: tuple[int, int, int]
    blocks: int

    _JSON = ("fact1", "fact2", "fact3", "fact4", "combined", "t_first_diff",
             "coord_first_diffs", "x_gap", "t_delta", "coord_deltas", "linf", "l2_sq")
    x_gap = property(lambda r: Fraction(r.x_num, r.x_den))
    t_delta = property(lambda r: delta3_at(r.t_first_diff))
    coord_deltas = property(lambda r: tuple(map(delta3_at, r.coord_first_diffs)))
    coord_gaps = property(lambda r: tuple(Fraction(g, 3 ** (3 * r.blocks)) for g in r.gaps))
    linf = property(lambda r: max(r.coord_gaps))
    l2_sq = property(lambda r: sum(g * g for g in r.coord_gaps))

    @property
    def all_hold(self) -> bool:
        return self.fact1 and self.fact2 and self.fact3 and self.fact4 and self.combined

    def to_json_dict(self) -> dict:
        return json_fields(self, self._JSON)


def check_facts(p: IManyPoint, q: IManyPoint, blocks: int) -> FactReport:
    """Evaluate the four inequalities and their combination, exactly.

    fact2 requires the truncation to cover all digit data, so both points
    must fit inside `blocks` (t.depth <= 6*blocks, y.depth <= blocks).  Each
    fact is an int inequality, denominators cleared; a None first difference
    is delta 0.  |x_p - x_q| is read from the t strings, over 3**(sum of
    their depths).
    """
    if p.digit_data_equals(q):
        raise DegeneratePairError("points have identical digit data")
    pt, qt = p.t, q.t
    if max(pt.depth, qt.depth) > 6 * blocks or max(p.y.depth, q.y.depth) > blocks:
        raise ValueError(f"digit data deeper than {blocks} blocks; facts would be vacuous")
    pd, qd = power(3, pt.depth), power(3, qt.depth)
    x_num, x_den = abs(pt.value * qd - qt.value * pd), pd * qd
    k = first_difference(pt, qt)
    a0, a1, a2 = _coordinate_values(pt, p.y, blocks)
    b0, b1, b2 = _coordinate_values(qt, q.y, blocks)
    depth = 3 * blocks  # every coordinate string has 3*blocks digits
    d0 = first_difference_packed(a0, b0, depth)
    d1 = first_difference_packed(a1, b1, depth)
    d2 = first_difference_packed(a2, b2, depth)
    m = min([d for d in (d0, d1, d2) if d is not None], default=None)
    den = power(3, depth)
    g0, g1, g2 = abs(a0 - b0), abs(a1 - b1), abs(a2 - b2)
    linf, l2 = max(g0, g1, g2), g0 * g0 + g1 * g1 + g2 * g2
    return FactReport(
        x_num == 0 if k is None else x_num * power(3, k) <= x_den,  # fact1
        k is None or m is not None and 2 * m <= k + 2,  # fact2
        m is None or linf * power(3, 4 + m) >= den,  # fact3
        linf * linf <= l2,  # fact4
        l2 * 3**10 * x_den >= x_num * den * den,  # combined
        k, (d0, d1, d2), x_num, x_den, (g0, g1, g2), blocks,
    )


def check_close_expanding(pairs, c: Fraction):
    """Check distB**2 >= c**2 * distA on every pair (squared form of the bound).

    Each pair is (pointA, pointB, distA, distB_squared); the points ride
    along only for reporting.  Returns (True, None) or (False, the first
    failing pair).  An empty list is vacuously true.
    """
    csq = c * c
    for pair in pairs:
        _, _, dist_a, dist_b_sq = pair
        if dist_a < 0 or dist_b_sq < 0:
            raise ValueError("distances must be nonnegative")
        if dist_b_sq < csq * dist_a:
            return False, pair
    return True, None


def estimate_equivalence(samples) -> tuple[Fraction, Fraction]:
    """Tightest empirical constants (c1, c2) with c1*d1 >= d2 >= c2*d1.

    Samples are (d1, d2) pairs of ints or Fractions with d1 > 0; a zero d1
    against a positive d2 is a witness that no such constants exist and
    raises ZeroDivisionError.  The ratios d2/d1 are compared as ints over
    their least common denominator.
    """
    ratios = []
    for d1, d2 in samples:
        if d1 == 0:
            if d2 > 0:
                raise ZeroDivisionError(
                    f"d1 = 0 with d2 = {d2} > 0: metrics not equivalent on sample"
                )
            raise ValueError("sample with d1 = 0 violates the precondition")
        ratios.append((d2.numerator * d1.denominator, d2.denominator * d1.numerator))
    if not ratios:
        raise ValueError("at least one sample required")
    den = lcm(*(d for _, d in ratios))  # den // d keeps the sign of d
    scaled = [n * (den // d) for n, d in ratios]
    return Fraction(max(scaled), den), Fraction(min(scaled), den)
