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

from .digits import (
    BinaryString,
    format_rational,
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
    """(floor(a**2 * L**2), whether that floor is exact).

    On the lattice (1/L) Z^4 a squared distance is D / L**2 with D an int,
    so D / L**2 <= a**2 iff D <= the bound, and D / L**2 == a**2 iff also
    the bound is exact and D equals it.
    """
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

    sheets            sheet labels to include (pairwise distinct under
                      zero-padding, since equal-padded labels embed alike)
    scale             the Rips scale the cloud is built for; must lie in
                      the window
    x_values          extra sheet parameters sampled on every sheet
    blocks            truncation depth: 3*blocks digits per embedded
                      coordinate, consuming 6*blocks t digits
    cube_grid         g > 0 adds the {1}-slab grid {0, 1/g, ..., 1}^3
    include_cube0     also add the matching {0}-slab grid
    include_partners  add the fiber points at x_a and their {1}-slab
                      partners (the rigid pairs)
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
        depth = max((y.depth for y in self.sheets), default=0)
        padded = [y.value_at(depth) for y in self.sheets]
        if len(set(padded)) != len(padded):
            raise ValueError("sheet labels must be pairwise distinct (zero-padded)")
        for x in self.x_values:
            if not 0 <= x <= 1:
                raise ValueError(f"x value out of [0, 1]: {x}")
        if len(set(self.x_values)) != len(self.x_values):
            raise ValueError("x values must be distinct")

    def to_json_dict(self) -> dict:
        return {
            "sheets": [y.text() for y in self.sheets],
            "scale": format_rational(self.scale),
            "x_values": [format_rational(x) for x in self.x_values],
            "blocks": self.blocks,
            "cube_grid": self.cube_grid,
            "include_cube0": self.include_cube0,
            "include_partners": self.include_partners,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CloudConfig":
        return cls(
            sheets=tuple(BinaryString.from_text(s) for s in d["sheets"]),
            scale=parse_rational(str(d.get("scale", "1"))),
            x_values=tuple(parse_rational(str(x)) for x in d.get("x_values", [])),
            blocks=int(d.get("blocks", DEFAULT_BLOCKS)),
            cube_grid=int(d.get("cube_grid", 0)),
            include_cube0=bool(d.get("include_cube0", False)),
            include_partners=bool(d.get("include_partners", True)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

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
        if p.coords not in seen:
            seen.add(p.coords)
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
    because the left base is nonnegative on the domain.  Always true; the
    comparison is executed rather than assumed.
    """
    r = Fraction(r)
    x = Fraction(x)
    if r <= 0:
        raise ValueError("radius must be positive")
    if abs(x) > r:
        raise ValueError(f"|x| = {abs(x)} exceeds radius {r}")
    lhs = r - x * x / (2 * r)
    return lhs * lhs >= r * r - x * x


@dataclass(frozen=True)
class NeighborViolation:
    """A sheet point other than the rigid partner within the scale of a
    {1}-slab point, with the gap split the contradiction argument uses."""

    index: int
    eps: Fraction  # first-coordinate gap
    l_sq: Fraction  # squared gap of the 3-D projection
    dist_sq: Fraction


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
    in the cloud); the gaps of a violation are then computed exactly.
    """
    if partner.kind != "cube1":
        raise ValueError("witness scan expects a {1}-slab partner point")
    a = Fraction(a)
    L, lattice = cloud.lattice
    scaled = [Fraction(c) * L for c in partner.coords]
    s = math.lcm(*(c.denominator for c in scaled))
    target = [c.numerator * (s // c.denominator) for c in scaled]
    bound, _ = lattice_bound(a, L * s)
    rigid_coords = (partner.coords[0] - a,) + partner.coords[1:]
    out = []
    for idx, p in enumerate(cloud.points):
        if p.kind != "sheet":
            continue
        d = sum((s * u - v) ** 2 for u, v in zip(lattice[idx], target))
        if d > bound or p.coords == rigid_coords:
            continue
        eps = abs(p.coords[0] - partner.coords[0])
        l_sq = sum(
            (p.coords[i] - partner.coords[i]) ** 2 for i in (1, 2, 3)
        )
        out.append(NeighborViolation(idx, eps, l_sq, eps * eps + l_sq))
    return out
