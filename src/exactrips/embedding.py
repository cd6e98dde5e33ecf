"""Digit-interleaving embedding of sheet-labeled interval points into [0,1]^3.

A point carries an x value in [0,1], its chosen base-3 expansion t, and a
binary sheet label y.  The three image coordinates interleave the digits

    coordinate i:  (t[2i], t[2i+1], y[0],  t[6+2i], t[6+2i+1], y[1],  ...)

so every t digit and every y digit lands somewhere in the image: the map
is injective and invertible by reading the digits back (on packed strings,
one pass over 6-digit t blocks split by a 729-entry table).  Because y digits
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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .digits import BinaryString, TernaryString, delta3_at, first_difference, json_fields
from .digits import delta3, ternary_value, to_ternary  # delta3: for perfbench --trace 1

__all__ = [
    "IManyPoint",
    "Point3",
    "FactReport",
    "MalformedImageError",
    "DegeneratePairError",
    "interleave",
    "embed_strings",
    "embed",
    "decode",
    "check_facts",
    "check_close_expanding",
    "estimate_equivalence",
]

# Squared close-expanding constant: (1/243)**2 = 3**-10.
CLOSE_EXPANDING_CONSTANT = Fraction(1, 243)
_CSQ = CLOSE_EXPANDING_CONSTANT**2
# Per-coordinate metric comparison constant of the image (3**-4).
COORD_METRIC_CONSTANT = Fraction(1, 81)


class MalformedImageError(ValueError):
    """Digit strings that cannot be the image of any domain point."""


class DegeneratePairError(ValueError):
    """Two points with identical digit data where distinct ones are required."""


@dataclass(frozen=True)
class IManyPoint:
    """A point (x, y) of the many-sheeted interval with its chosen expansion.

    Invariant: t is the greedy depth-limited expansion of x, so
    ternary_value(t) == x exactly whenever x terminates within t.depth
    (x = 1 is carried by the all-2s string, and a non-terminating x by its
    truncation; both are documented sampling conventions).
    """

    x: Fraction
    t: TernaryString
    y: BinaryString

    def __post_init__(self) -> None:
        if self.t.depth < 1:
            raise ValueError("expansion must have at least one digit")
        if self.t != to_ternary(self.x, self.t.depth):
            raise ValueError(
                f"t is not the chosen expansion of x: {self.t.text()!r} vs x={self.x}"
            )

    @classmethod
    def from_value(cls, x: Fraction, y: BinaryString, depth: int) -> "IManyPoint":
        return cls(x, to_ternary(Fraction(x), depth), y)

    @classmethod
    def from_digits(cls, t: TernaryString, y: BinaryString) -> "IManyPoint":
        return cls(ternary_value(t), t, y)

    def digit_data_equals(self, other: "IManyPoint") -> bool:
        """Equality of (t, y) under the zero-padding convention."""
        tdepth = max(self.t.depth, other.t.depth)
        ydepth = max(self.y.depth, other.y.depth)
        same_t = self.t.value_at(tdepth) == other.t.value_at(tdepth)
        return same_t and self.y.value_at(ydepth) == other.y.value_at(ydepth)


@dataclass(frozen=True)
class Point3:
    """Exact-rational point of the unit cube."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2)


# t block v = t[6k..6k+5] -> (3 * t[6k+2i..6k+2i+1] as a 2-digit value, i < 3).
_SPLIT = tuple((v // 81 * 3, v // 9 % 9 * 3, v % 9 * 3) for v in range(729))


def _coordinate_values(t: TernaryString, b: BinaryString, blocks: int):
    # Packed values of the three image coordinates, built lowest block first.
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    tv, bv = t.value_at(6 * blocks), b.value_at(blocks)
    weight, c0, c1, c2 = 1, 0, 0, 0
    for _ in range(blocks):
        tv, v = divmod(tv, 729)
        bit, bv = bv & 1, bv >> 1
        a0, a1, a2 = _SPLIT[v]
        c0 += (a0 + bit) * weight
        c1 += (a1 + bit) * weight
        c2 += (a2 + bit) * weight
        weight *= 27
    return c0, c1, c2


def interleave(i: int, t: TernaryString, b: BinaryString, blocks: int) -> TernaryString:
    """Digit string of image coordinate i, truncated to `blocks` 3-digit blocks.

    Block k is (t[6k+2i], t[6k+2i+1], b[k]); missing digits are zero-padded.
    Positions congruent to 2 mod 3 hold b digits and therefore never a 2.
    """
    if i not in (0, 1, 2):
        raise IndexError(f"coordinate index must be 0, 1 or 2, got {i}")
    return TernaryString.from_int(_coordinate_values(t, b, blocks)[i], 3 * blocks)


def embed_strings(
    p: IManyPoint, blocks: int
) -> tuple[TernaryString, TernaryString, TernaryString]:
    """The three coordinate digit strings of the embedding of p."""
    values = _coordinate_values(p.t, p.y, blocks)
    return tuple(TernaryString.from_int(c, 3 * blocks) for c in values)


def embed(p: IManyPoint, blocks: int) -> Point3:
    """Exact-rational image of p under the interleaving embedding."""
    s0, s1, s2 = embed_strings(p, blocks)
    return Point3(ternary_value(s0), ternary_value(s1), ternary_value(s2))


def decode(
    strings: Sequence[TernaryString], blocks: int
) -> tuple[TernaryString, BinaryString]:
    """Invert the interleaving: recover (t, b) from the three coordinate strings.

    Raises MalformedImageError if a reserved position (index 2 mod 3) holds
    the digit 2, if the three coordinates disagree on the shared b digits,
    or if a string does not have exactly 3*blocks digits.
    """
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if len(strings) != 3:
        raise MalformedImageError("exactly three coordinate strings required")
    columns = []
    for s in strings:
        if s.depth != 3 * blocks:
            raise MalformedImageError(
                f"coordinate string must have {3 * blocks} digits, got {s.depth}"
            )
        v, column = s.value, [0] * blocks  # 3-digit blocks, highest first
        for k in range(blocks - 1, -1, -1):
            v, column[k] = divmod(v, 27)
        columns.append(column)
        for k, w in enumerate(column):
            if w % 3 == 2:
                raise MalformedImageError(
                    f"digit 2 at reserved position {3 * k + 2}: not an image point"
                )
    t = b = 0
    for k, (w0, w1, w2) in enumerate(zip(*columns)):
        if not w0 % 3 == w1 % 3 == w2 % 3:
            raise MalformedImageError(f"coordinates disagree on shared digit {k}")
        t = t * 729 + w0 // 3 * 81 + w1 // 3 * 9 + w2 // 3
        b = 2 * b + w0 % 3
    return TernaryString.from_int(t, 6 * blocks), BinaryString.from_int(b, blocks)


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
    index n surfaces in some coordinate by index n//2 + 1.
    """

    fact1: bool
    fact2: bool
    fact3: bool
    fact4: bool
    combined: bool
    x_gap: Fraction
    t_delta: Fraction
    coord_deltas: tuple[Fraction, Fraction, Fraction]
    linf: Fraction
    l2_sq: Fraction
    t_first_diff: int | None
    coord_first_diffs: tuple[int | None, int | None, int | None]
    coord_gaps: tuple[Fraction, Fraction, Fraction]  # value gaps; not serialized

    @property
    def all_hold(self) -> bool:
        return self.fact1 and self.fact2 and self.fact3 and self.fact4 and self.combined

    def to_json_dict(self) -> dict:
        d = json_fields(self)
        del d["coord_gaps"]
        return d


def check_facts(p: IManyPoint, q: IManyPoint, blocks: int) -> FactReport:
    """Evaluate the four inequalities and their combination, exactly.

    Exactness of fact1 requires value-exact expansions, and fact2 requires
    the truncation to cover all digit data, so both points must fit inside
    `blocks` (t.depth <= 6*blocks, y.depth <= blocks).
    """
    if p.digit_data_equals(q):
        raise DegeneratePairError("points have identical digit data")
    for pt in (p, q):
        if pt.t.depth > 6 * blocks or pt.y.depth > blocks:
            raise ValueError(
                f"digit data deeper than {blocks} blocks; facts would be vacuous"
            )
    x_gap = abs(p.x - q.x)
    t_first_diff = first_difference(p.t, q.t)
    t_delta = delta3_at(t_first_diff)
    sp, sq = embed_strings(p, blocks), embed_strings(q, blocks)
    coord_first_diffs = tuple(first_difference(a, b) for a, b in zip(sp, sq))
    coord_deltas = tuple(map(delta3_at, coord_first_diffs))
    max_delta = max(coord_deltas)
    den = 3 ** (3 * blocks)  # every coordinate string has 3*blocks digits
    gaps = [abs(a.value - b.value) for a, b in zip(sp, sq)]
    linf, l2_sq = Fraction(max(gaps), den), Fraction(sum(g * g for g in gaps), den * den)
    return FactReport(
        fact1=x_gap <= t_delta,
        fact2=t_delta <= 9 * max_delta * max_delta,
        fact3=linf >= COORD_METRIC_CONSTANT * max_delta,
        fact4=linf * linf <= l2_sq,
        combined=l2_sq >= _CSQ * x_gap,
        x_gap=x_gap,
        t_delta=t_delta,
        coord_deltas=coord_deltas,
        linf=linf,
        l2_sq=l2_sq,
        t_first_diff=t_first_diff,
        coord_first_diffs=coord_first_diffs,
        coord_gaps=tuple(Fraction(g, den) for g in gaps),
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

    Samples are (d1, d2) pairs with d1 > 0; a zero d1 against a positive d2
    is a witness that no such constants exist and raises ZeroDivisionError.
    """
    ratios = []
    for d1, d2 in samples:
        if d1 == 0:
            if d2 > 0:
                raise ZeroDivisionError(
                    f"d1 = 0 with d2 = {d2} > 0: metrics not equivalent on sample"
                )
            raise ValueError("sample with d1 = 0 violates the precondition")
        ratios.append(Fraction(d2) / d1)
    if not ratios:
        raise ValueError("at least one sample required")
    return max(ratios), min(ratios)
