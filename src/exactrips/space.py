"""Finite exact-rational samples of the 4-D counterexample space.

The space is the closure of the sheet set

    { (x / (2*243**2), embed(x, y)) :  x in [0,1], y a sheet label }

together with the two slabs {0} x [0,1]^3 and {1} x [0,1]^3.  The first
coordinate compresses [0,1] into [0, 1/118098], which is exactly the width
of the scale window: for every scale a in [1 - 1/118098, 1] the fiber
value x_a = (1-a) * 118098 names the sheet parameter whose points sit at
first coordinate 1-a, distance exactly a from their partners on the
{1}-slab.

Sampling policy: a sheet parameter x is carried by its greedy depth-
limited expansion.  When x terminates at the working depth the sampled
point lies exactly on a sheet; x = 1 (all-2s) and non-terminating x
(e.g. the fiber 1/2 of the default interior scale) are carried by their
truncations and stand in for the closure points they converge to.  All
downstream checks operate on the sampled coordinates exactly, so nothing
depends on the truncated tail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .digits import (
    BinaryString,
    format_rational,
    json_fields,
    json_text,
    parse_rational,
)
from .embedding import IManyPoint, embed

__all__ = [
    "SHEET_SCALE",
    "DEFAULT_BLOCKS",
    "DEFAULT_SCALES",
    "LabeledPoint4",
    "CloudConfig",
    "Cloud",
    "SheetPack",
    "NeighborViolation",
    "scale_window",
    "fiber_value",
    "lattice_bound",
    "sheet_point",
    "build_cloud",
    "circle_above_parabola",
    "second_neighbor_witness",
]

# First-coordinate compression factor 2 * 243**2.
SHEET_SCALE = 2 * 243**2  # 118098

DEFAULT_BLOCKS = 8

# Window endpoints plus an interior scale; fiber values 0, 1/2, 1.
DEFAULT_SCALES = (
    Fraction(1),
    Fraction(2 * SHEET_SCALE - 1, 2 * SHEET_SCALE),
    Fraction(SHEET_SCALE - 1, SHEET_SCALE),
)


def scale_window() -> tuple[Fraction, Fraction]:
    """The closed scale interval [1 - 1/(2*243**2), 1] of the main result."""
    return (Fraction(SHEET_SCALE - 1, SHEET_SCALE), Fraction(1))


def fiber_value(a: Fraction) -> Fraction:
    """The sheet parameter x_a = (1-a) * 2*243**2 sitting at first coordinate 1-a."""
    return (1 - a) * SHEET_SCALE


@dataclass(frozen=True)
class LabeledPoint4:
    """Exact-rational 4-D point tagged sheet / cube0 / cube1.

    Sheet points remember their parameter x and sheet label y; slab points
    carry only the tag.
    """

    coords: tuple[Fraction, Fraction, Fraction, Fraction]
    kind: str
    sheet_x: Fraction | None = None
    sheet_y: BinaryString | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sheet", "cube0", "cube1"):
            raise ValueError(f"unknown point kind {self.kind!r}")
        if len(self.coords) != 4:
            raise ValueError("points live in R^4")
        if self.kind == "sheet" and (self.sheet_x is None or self.sheet_y is None):
            raise ValueError("sheet points must carry their x and y labels")

    def label_text(self) -> str:
        if self.kind == "sheet":
            return f"sheet:x={format_rational(self.sheet_x)}:y={self.sheet_y.text()}"
        return self.kind


def lattice_bound(a: Fraction, L: int) -> tuple[int, bool]:
    """(floor(a**2 * L**2), whether that floor is exact), for a scale a >= 0.

    On the lattice (1/L) Z^4 a squared distance is D / L**2 with D an int,
    so D / L**2 <= a**2 iff D <= the bound, and D / L**2 == a**2 iff also
    the bound is exact and D equals it.
    """
    if a < 0:
        raise ValueError("scale must be nonnegative")
    q, r = divmod((a.numerator * L) ** 2, a.denominator ** 2)
    return q, r == 0


def _parse_label(text: str) -> tuple[str, Fraction | None, BinaryString | None]:
    if text in ("cube0", "cube1"):
        return text, None, None
    if text.startswith("sheet:x=") and ":y=" in text:
        body = text[len("sheet:x="):]
        x_text, y_text = body.split(":y=", 1)
        return "sheet", parse_rational(x_text), BinaryString.from_text(y_text)
    raise ValueError(f"unrecognised point label {text!r}")


@dataclass(frozen=True)
class CloudConfig:
    """Finite-sampling policy for the counterexample space.

    sheets            binary sheet labels to include; they must differ
                      in their first `blocks` digits (zero-padded), the
                      only ones the embedding reads, so n labels need
                      blocks >= ceil(log2 n)
    scale             the Rips scale the cloud is built for; must lie in
                      the window
    x_values          extra sheet parameters sampled on every sheet
    blocks            int truncation depth: 3*blocks digits per embedded
                      coordinate, consuming 6*blocks t digits
    cube_grid         int g > 0 adds the {1}-slab grid {0, 1/g, ..., 1}^3
    include_cube0     bool: also add the matching {0}-slab grid
    include_partners  bool: add the fiber points at x_a and their {1}-slab
                      partners (the rigid pairs)

    In JSON, `sheets` is a list of strings, `scale` and the `x_values`
    list hold rationals ("num/den" or ints), and the int and bool keys
    must have exactly those JSON types.
    """

    sheets: tuple[BinaryString, ...]
    scale: Fraction = Fraction(1)
    x_values: tuple[Fraction, ...] = ()
    blocks: int = DEFAULT_BLOCKS
    cube_grid: int = 0
    include_cube0: bool = False
    include_partners: bool = True

    def __post_init__(self) -> None:
        lo, hi = scale_window()
        if not lo <= self.scale <= hi:
            raise ValueError(f"scale {self.scale} outside window [{lo}, {hi}]")
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        if self.cube_grid < 0:
            raise ValueError("cube_grid must be nonnegative")
        n = len(self.sheets)
        if len({y.value_at(self.blocks) for y in self.sheets}) != n:
            raise ValueError(
                f"sheet labels must differ in their first blocks={self.blocks} digits "
                f"(telling {n} labels apart takes blocks >= {max(1, (n - 1).bit_length())})"
            )
        for x in self.x_values:
            if not 0 <= x <= 1:
                raise ValueError(f"x value out of [0, 1]: {x}")
        if len(set(self.x_values)) != len(self.x_values):
            raise ValueError("x values must be distinct")

    def to_json_dict(self) -> dict:
        return json_fields(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CloudConfig":
        if not isinstance(d, dict):
            raise ValueError("a cloud config must be a JSON object")

        def typed(key, default, kind):
            # Exact type, so a bool is not an int and nothing is coerced.
            value = d.get(key, default)
            if type(value) is not kind:
                raise ValueError(f"config key {key!r} must be {kind.__name__}: {value!r}")
            return value

        sheets = typed("sheets", None, list)
        if not all(isinstance(s, str) for s in sheets):
            raise ValueError(f"config key 'sheets' must list strings: {sheets!r}")
        return cls(
            sheets=tuple(BinaryString.from_text(s) for s in sheets),
            scale=parse_rational(str(d.get("scale", "1"))),
            x_values=tuple(parse_rational(str(x)) for x in typed("x_values", [], list)),
            blocks=typed("blocks", DEFAULT_BLOCKS, int),
            cube_grid=typed("cube_grid", 0, int),
            include_cube0=typed("include_cube0", False, bool),
            include_partners=typed("include_partners", True, bool),
        )

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "CloudConfig":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Cloud:
    """Immutable indexed point list; coordinate tuples are pairwise distinct
    when produced by build_cloud (hand-built clouds may violate that)."""

    points: tuple[LabeledPoint4, ...]
    config: CloudConfig | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> LabeledPoint4:
        return self.points[i]

    @cached_property
    def lattice(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(L, every point's coordinates times L), with L the lcm of all
        coordinate denominators: the cloud on the integer lattice, where
        distance tests are exact int arithmetic."""
        L = math.lcm(*{c.denominator for p in self.points for c in p.coords})
        return L, tuple(
            tuple(c.numerator * (L // c.denominator) for c in p.coords)
            for p in self.points
        )

    @cached_property
    def sheet_pack(self) -> SheetPack:
        """The sheet points' lattice rows, packed for the witness scan."""
        return SheetPack(self.points, self.lattice[1])

    def to_csv_text(self) -> str:
        lines = []
        for p in self.points:
            cells = [p.label_text()] + [format_rational(c) for c in p.coords]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "Cloud":
        points = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 5:
                raise ValueError(f"cloud row needs label + 4 coordinates: {line!r}")
            kind, x, y = _parse_label(cells[0])
            coords = tuple(parse_rational(c) for c in cells[1:])
            _check_label(kind, x, coords[0], line)
            points.append(LabeledPoint4(coords, kind, x, y))
        return cls(tuple(points), None)


def _check_label(kind: str, x: Fraction | None, first: Fraction, line: str) -> None:
    # A row's label fixes its first coordinate: 0 or 1 on the slabs,
    # x / 118098 on the sheet with parameter x in [0, 1].
    if kind == "sheet":
        if not 0 <= x <= 1:
            raise ValueError(f"sheet parameter out of [0, 1]: {line!r}")
        expected = x / SHEET_SCALE
    else:
        expected = Fraction(1 if kind == "cube1" else 0)
    if first != expected:
        raise ValueError(
            f"label {kind} needs first coordinate {format_rational(expected)}: {line!r}"
        )


def sheet_point(x: Fraction, y: BinaryString, blocks: int) -> LabeledPoint4:
    """The sampled sheet point (x/118098, embed(x, y)) at the working depth.

    Any x in [0, 1] is accepted; the expansion is the greedy truncation at
    depth 6*blocks, so the sample is exact precisely when x terminates
    there (see the module docstring for the closure convention).
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"sheet parameter out of [0, 1]: {x}")
    p = IManyPoint.from_value(x, y, 6 * blocks)
    e = embed(p, blocks)
    return LabeledPoint4(
        (x / SHEET_SCALE, e.c0, e.c1, e.c2), "sheet", sheet_x=x, sheet_y=y
    )


def build_cloud(cfg: CloudConfig) -> Cloud:
    """Deterministic point sample for a config; duplicate coordinates merge.

    Emission order is sheet points (x_values outer, sheets inner), fiber
    points and their {1}-slab partners per sheet, then the cube grids.
    First emission wins a merge, so partner labels survive grid overlaps.
    """
    if not cfg.sheets:
        raise ValueError("at least one sheet required")
    points: list[LabeledPoint4] = []
    seen: set[tuple] = set()

    def emit(p: LabeledPoint4) -> None:
        # Keyed on int pairs: hashing a Fraction with a 3**k denominator
        # takes a modular inverse, and Fraction does not cache its hash.
        key = tuple((c.numerator, c.denominator) for c in p.coords)
        if key not in seen:
            seen.add(key)
            points.append(p)

    for x in cfg.x_values:
        for y in cfg.sheets:
            emit(sheet_point(x, y, cfg.blocks))
    if cfg.include_partners:
        xa = fiber_value(cfg.scale)
        for y in cfg.sheets:
            sp = sheet_point(xa, y, cfg.blocks)
            emit(sp)
            emit(
                LabeledPoint4(
                    (Fraction(1), sp.coords[1], sp.coords[2], sp.coords[3]), "cube1"
                )
            )
    if cfg.cube_grid > 0:
        ticks = [Fraction(k, cfg.cube_grid) for k in range(cfg.cube_grid + 1)]
        for c0 in ticks:
            for c1 in ticks:
                for c2 in ticks:
                    emit(LabeledPoint4((Fraction(1), c0, c1, c2), "cube1"))
        if cfg.include_cube0:
            for c0 in ticks:
                for c1 in ticks:
                    for c2 in ticks:
                        emit(LabeledPoint4((Fraction(0), c0, c1, c2), "cube0"))
    return Cloud(tuple(points), cfg)


def circle_above_parabola(r: Fraction, x: Fraction) -> bool:
    """Exact witness that r - sqrt(r**2 - x**2) >= x**2 / (2r) on |x| <= r.

    Evaluated in the cleared form (r - x**2/(2r))**2 >= r**2 - x**2, valid
    because the left base is nonnegative on the domain; times 4 r**2 D**4,
    with r = R/D and x = X/D, it is (2R**2 - X**2)**2 >= 4R**2 (R**2 - X**2)
    in ints.  Always true; the comparison is executed rather than assumed.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    d = math.lcm(r.denominator, x.denominator)
    rr = (r.numerator * (d // r.denominator)) ** 2
    xx = (x.numerator * (d // x.denominator)) ** 2
    if xx > rr:
        raise ValueError(f"|x| = {abs(x)} exceeds radius {r}")
    return (2 * rr - xx) ** 2 >= 4 * rr * (rr - xx)


@dataclass(frozen=True)
class NeighborViolation:
    """A sheet point other than the rigid partner within the scale of a
    {1}-slab point, with the gap split the contradiction argument uses."""

    index: int
    eps: Fraction  # first-coordinate gap
    l_sq: Fraction  # squared gap of the 3-D projection
    dist_sq: Fraction


# The top byte of a slot, mapped to its guard bit.
_GUARD = bytes(128) + bytes((1,)) * 128


class SheetPack:
    """A cloud's sheet points on its lattice, packed into big ints.

    Each coordinate column is shifted by its minimum over the sheet
    points, so row j holds ints 0 <= u_j[k] <= span[k].  For a slot width
    w (a multiple of 8), packed(w) gives (cols, PS, ONES): cols[k] holds
    u_j[k] in bits [w*j, w*(j+1)), PS holds |u_j|**2 and ONES holds 1 in
    every slot.  Each width is packed once and kept in `packs`.
    """

    __slots__ = ("index", "low", "span", "top", "packs", "_cols", "_norms")

    def __init__(self, points, lattice) -> None:
        self.index = tuple(i for i, p in enumerate(points) if p.kind == "sheet")
        cols = list(zip(*(lattice[i] for i in self.index)))
        self.low = tuple(map(min, cols))
        self._cols = [tuple(v - m for v in c) for c, m in zip(cols, self.low)]
        self.span = tuple(map(max, self._cols))
        self._norms = [sum(v * v for v in row) for row in zip(*self._cols)]
        # The largest packed value: every u_j[k] <= |u_j|**2.
        self.top = max(self._norms, default=0)
        self.packs: dict[int, tuple] = {}

    def packed(self, w: int) -> tuple[tuple[int, ...], int, int]:
        pack = self.packs.get(w)
        if pack is None:
            size = w // 8

            def join(values) -> int:
                data = b"".join(v.to_bytes(size, "little") for v in values)
                return int.from_bytes(data, "little")

            pack = self.packs[w] = (
                tuple(join(c) for c in self._cols),
                join(self._norms),
                join([1] * len(self.index)),
            )
        return pack


def second_neighbor_witness(
    partner: LabeledPoint4, cloud: Cloud, a: Fraction
) -> list[NeighborViolation]:
    """Scan for sheet points within a of a rigid partner, other than its own.

    The construction predicts the empty list: a second neighbor would force
    eps > l**2 / 2 between the first-coordinate gap eps and the slab
    projection gap l, contradicting the close-expanding lower bound.  Any
    violation is returned with both gaps so the failed chain is inspectable.

    Distances are compared on the cloud's integer lattice, refined by the
    least factor s that puts the partner on it too (s = 1 for a partner
    in the cloud): the partner is the int target t = partner * L * s, and
    sheet point j is within a iff D_j = |s*p_j - t|**2 <= bound.  All
    sheet points are tested at once on the cloud's SheetPack, whose slot
    j holds point j (shifted by the column minima m, with t' = t - s*m):

        X = (bound + G - |t'|**2)*ONES - s**2*PS + 2s * sum_k t'[k]*cols[k]

    has bound + G - D_j in slot j.  The slot width w is the least multiple
    of 8 whose guard bit G = 2**(w-1) exceeds bound, every packed value
    and the largest D over the sheet points' bounding box, so each slot
    lies in (bound, 2G): none borrows from the next, and slot j has its
    guard bit set iff D_j <= bound.  The rigid-foot exclusion and the
    gaps of a violation are then computed exactly on the hits alone.
    """
    if partner.kind != "cube1":
        raise ValueError("witness scan expects a {1}-slab partner point")
    a = Fraction(a)
    L, _ = cloud.lattice
    s = math.lcm(*(c.denominator // math.gcd(L, c.denominator) for c in partner.coords))
    bound, _ = lattice_bound(a, L * s)
    pack = cloud.sheet_pack
    if not pack.index:
        return []
    t = [
        c.numerator * (L * s // c.denominator) - s * m
        for c, m in zip(partner.coords, pack.low)
    ]
    reach = sum(max(u * u, (s * span - u) ** 2) for u, span in zip(t, pack.span))
    w = 8 * ((max(bound, reach, pack.top).bit_length() + 8) // 8)
    cols, ps, ones = pack.packed(w)
    x = (bound + (1 << (w - 1)) - sum(u * u for u in t)) * ones - s * s * ps
    x += 2 * s * sum(u * col for u, col in zip(t, cols))
    size = w // 8
    guards = x.to_bytes(size * len(pack.index), "little")[size - 1::size]
    rigid_coords = (partner.coords[0] - a,) + partner.coords[1:]
    out = []
    for idx in compress(pack.index, guards.translate(_GUARD)):
        p = cloud.points[idx]
        if p.coords == rigid_coords:
            continue
        eps = abs(p.coords[0] - partner.coords[0])
        l_sq = sum(
            (p.coords[i] - partner.coords[i]) ** 2 for i in (1, 2, 3)
        )
        out.append(NeighborViolation(idx, eps, l_sq, eps * eps + l_sq))
    return out
