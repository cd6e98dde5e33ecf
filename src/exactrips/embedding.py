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
from math import lcm
from typing import Sequence

from .digits import BinaryString, TernaryString, delta3_at, first_difference, json_fields
from .digits import first_difference_packed, ternary_value, to_ternary
from .digits import delta3  # for perfbench --trace 1

__all__ = [
    "IManyPoint",
    "FactReport",
    "MalformedImageError",
    "DegeneratePairError",
    "interleave",
    "t_coordinates",
    "label_weight",
    "embed_strings",
    "embed",
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
        x, t = self.x, self.t
        if t.depth < 1:
            raise ValueError("expansion must have at least one digit")
        # A value-exact x (x * 3**depth == t.value) needs no round trip.
        exact = x.numerator * 3**t.depth == t.value * x.denominator
        if not exact and t != to_ternary(x, t.depth):
            raise ValueError(f"t is not the chosen expansion of x: {t.text()!r} vs x={x}")

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


# t block v = t[6k..6k+5] -> (3 * t[6k+2i..6k+2i+1] as a 2-digit value, i < 3).
_SPLIT = tuple((v // 81 * 3, v // 9 % 9 * 3, v % 9 * 3) for v in range(729))


def t_coordinates(t: TernaryString, blocks: int) -> tuple[int, int, int]:
    """Packed values of the three image coordinates of (t, empty label):
    block k of coordinate i holds (t[6k+2i], t[6k+2i+1], 0)."""
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    tv, split = t.value_at(6 * blocks), _SPLIT
    weight, c0, c1, c2 = 1, 0, 0, 0
    for _ in range(blocks):  # lowest block first
        tv, v = divmod(tv, 729)
        a0, a1, a2 = split[v]
        c0 += a0 * weight
        c1 += a1 * weight
        c2 += a2 * weight
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


def embed(p: IManyPoint, blocks: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact-rational image of p under the interleaving embedding: the
    three coordinates of a point of the unit cube."""
    return tuple(map(ternary_value, embed_strings(p, blocks)))


def _blocks27(s: TernaryString, blocks: int) -> list[int]:
    # The lowest `blocks` base-27 blocks of s, highest first: block k of a
    # 3*blocks-digit string is digits 3k..3k+2, so mod 3 it is digit 3k+2.
    v, column = s.value, [0] * blocks
    for k in range(blocks - 1, -1, -1):
        v, column[k] = divmod(v, 27)
    return column


def reserved_twos(s: TernaryString, blocks: int) -> int:
    """How many reserved digits 3k+2, k < blocks, of the 3*blocks-digit
    coordinate string s are 2 (none, for an image of embed_strings)."""
    return [w % 3 for w in _blocks27(s, blocks)].count(2)


def decode(
    strings: Sequence[TernaryString], blocks: int
) -> tuple[TernaryString, BinaryString]:
    """Invert the interleaving: recover (t, b) from the three coordinate strings.

    Raises MalformedImageError if a reserved position (index 2 mod 3, read
    off the base-27 blocks as in reserved_twos) holds the digit 2, if the
    coordinates disagree on the shared b digits, or if a string does not
    have exactly 3*blocks digits.
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
        columns.append(_blocks27(s, blocks))
        for k, w in enumerate(columns[-1]):
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

    Exactness of fact1 requires value-exact expansions, and fact2 requires
    the truncation to cover all digit data, so both points must fit inside
    `blocks` (t.depth <= 6*blocks, y.depth <= blocks).  Each fact is an int
    inequality, denominators cleared; a None first difference is delta 0.
    """
    if p.digit_data_equals(q):
        raise DegeneratePairError("points have identical digit data")
    if max(p.t.depth, q.t.depth) > 6 * blocks or max(p.y.depth, q.y.depth) > blocks:
        raise ValueError(f"digit data deeper than {blocks} blocks; facts would be vacuous")
    (pn, pd), (qn, qd) = p.x.as_integer_ratio(), q.x.as_integer_ratio()
    x_num, x_den = abs(pn * qd - qn * pd), pd * qd
    k = first_difference(p.t, q.t)
    cp, cq = _coordinate_values(p.t, p.y, blocks), _coordinate_values(q.t, q.y, blocks)
    depth = 3 * blocks  # every coordinate string has 3*blocks digits
    coord_first_diffs = tuple(first_difference_packed(a, b, depth) for a, b in zip(cp, cq))
    m = min((d for d in coord_first_diffs if d is not None), default=None)
    den = 3**depth
    gaps = tuple(abs(a - b) for a, b in zip(cp, cq))
    linf, l2 = max(gaps), sum(g * g for g in gaps)
    return FactReport(
        x_num == 0 if k is None else x_num * 3**k <= x_den,  # fact1
        k is None or m is not None and 2 * m <= k + 2,  # fact2
        m is None or linf * 3 ** (4 + m) >= den,  # fact3
        linf * linf <= l2,  # fact4
        l2 * 3**10 * x_den >= x_num * den * den,  # combined
        k, coord_first_diffs, x_num, x_den, gaps, blocks,
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
