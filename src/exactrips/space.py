"""Finite exact-rational samples of the 4-D counterexample space.

The space is the closure of the sheet set

    { (x / (2*243**2), E(x, y)) :  x in [0,1], y a sheet label }

with E the digit-interleaving embedding (embedding.py), together with
the two slabs {0} x [0,1]^3 and {1} x [0,1]^3.  The first coordinate
compresses [0,1] into [0, 1/118098], which is exactly the width
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
depends on the truncated tail.  A cloud, built or read from CSV, is its
lattice rows and labels; Fractions are made only when its points are read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, product
from typing import NamedTuple

from .digits import (
    BinaryString,
    exact_type,
    format_rational,
    parse_rational,
    rational_parts,
    to_ternary,
)
from .embedding import label_weight, t_coordinates

__all__ = [
    "SHEET_SCALE",
    "DEFAULT_BLOCKS",
    "DEFAULT_SCALES",
    "LabeledPoint4",
    "CloudConfig",
    "Cloud",
    "KindMasks",
    "scale_window",
    "fiber_value",
    "lattice_bound",
    "build_cloud",
    "circle_above_parabola_cleared",
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


_WINDOW = (Fraction(SHEET_SCALE - 1, SHEET_SCALE), Fraction(1))


def scale_window() -> tuple[Fraction, Fraction]:
    """The closed scale interval [1 - 1/(2*243**2), 1] of the main result."""
    return _WINDOW


def fiber_value(a: Fraction) -> Fraction:
    """The sheet parameter x_a = (1-a) * 2*243**2 sitting at first coordinate 1-a."""
    return Fraction((a.denominator - a.numerator) * SHEET_SCALE, a.denominator)


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
        if self.kind not in KindMasks._fields:
            raise ValueError(f"unknown point kind {self.kind!r}")
        if len(self.coords) != 4:
            raise ValueError("points live in R^4")
        if self.kind == "sheet" and (self.sheet_x is None or self.sheet_y is None):
            raise ValueError("sheet points must carry their x and y labels")
        # Exact types, as CloudConfig takes them: a float would put a 2**k
        # denominator on the lattice, and a bool or str is not a number.
        for c in self.coords if self.sheet_x is None else (*self.coords, self.sheet_x):
            exact_type("point coordinates and sheet_x", c, Fraction, int)

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
    if exact_type("scale", a, Fraction, int) < 0:
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
    scale             the Rips scale the cloud is built for, a Fraction or
                      int; must lie in the window
    x_values          extra sheet parameters sampled on every sheet,
                      Fractions or ints
    blocks            int truncation depth: 3*blocks digits per embedded
                      coordinate, consuming 6*blocks t digits
    cube_grid         int g > 0 adds the {1}-slab grid {0, 1/g, ..., 1}^3
    include_cube0     bool: also add the matching {0}-slab grid
    include_partners  bool: add the fiber points at x_a and their {1}-slab
                      partners (the rigid pairs)

    In JSON, `sheets` is a list of strings, `scale` and the `x_values`
    list hold rationals ("num/den" or ints on input, stored as Fractions
    and written "num/den"), and the int and bool keys must be exactly so.
    """

    sheets: tuple[BinaryString, ...]
    scale: Fraction = Fraction(1)
    x_values: tuple[Fraction, ...] = ()
    blocks: int = DEFAULT_BLOCKS
    cube_grid: int = 0
    include_cube0: bool = False
    include_partners: bool = True

    def __post_init__(self) -> None:
        # Exact types: a float or bool would reach fiber_value or the slab
        # grids, or be written to JSON that from_json then refuses.
        for key, values, *kinds in (
            ("sheets", self.sheets, BinaryString),
            ("scale", [self.scale], Fraction, int),
            ("x_values", self.x_values, Fraction, int),
            ("blocks", [self.blocks], int),
            ("cube_grid", [self.cube_grid], int),
            ("include_cube0", [self.include_cube0], bool),
            ("include_partners", [self.include_partners], bool),
        ):
            for value in values:
                exact_type(f"config key {key!r}", value, *kinds)
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "x_values", tuple(map(Fraction, self.x_values)))
        # lo <= p/q <= 1 with lo = (S-1)/S, cleared of q > 0 and S.
        p, q, S = self.scale.numerator, self.scale.denominator, SHEET_SCALE
        if not (S - 1) * q <= S * p <= S * q:
            raise ValueError("scale {} outside window [{}, {}]".format(self.scale, *_WINDOW))
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "CloudConfig":
        if not isinstance(d, dict):
            raise ValueError("a cloud config must be a JSON object")
        # A misspelt key such as "cube-grid" would otherwise build the
        # cloud without it.
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; the keys are {', '.join(keys)}")
        # Only the JSON shapes are checked here; __post_init__ types the rest.
        sheets = exact_type("config key 'sheets'", d.get("sheets"), list)
        if not all(isinstance(s, str) for s in sheets):
            raise ValueError(f"config key 'sheets' must list strings: {sheets!r}")
        x_values = exact_type("config key 'x_values'", d.get("x_values", []), list)
        if not all(type(x) in (str, int) for x in x_values):
            raise ValueError(f"config key 'x_values' must list str or int: {x_values!r}")
        return cls(
            sheets=tuple(BinaryString.from_text(s) for s in sheets),
            scale=parse_rational(
                str(exact_type("config key 'scale'", d.get("scale", "1"), str, int))
            ),
            x_values=tuple(parse_rational(str(x)) for x in x_values),
            **{k: d[k] for k in ("blocks", "cube_grid", "include_cube0", "include_partners")
               if k in d},
        )

    @classmethod
    def from_json(cls, text: str) -> "CloudConfig":
        try:
            d = json.loads(text)
        except RecursionError:
            raise ValueError("config JSON is nested too deeply") from None
        return cls.from_json_dict(d)


class KindMasks(NamedTuple):
    """Per point kind, the int whose set bits are that kind's points."""

    sheet: int
    cube0: int
    cube1: int


@dataclass(frozen=True)
class Cloud:
    """Immutable indexed point cloud: `lattice` is (L, every point's
    coordinates times L), L the lcm of the reduced denominators, where
    distance tests are exact int arithmetic, and `labels` each point's
    (kind, sheet_x, sheet_y); it compares and hashes on these two only.
    on_lattice makes it, and the Fraction `points` are made on first read.
    Coordinate tuples are pairwise distinct when produced by build_cloud
    (hand-built clouds may violate that)."""

    lattice: tuple[int, tuple[tuple[int, ...], ...]]
    labels: tuple[tuple, ...]

    @classmethod
    def on_lattice(cls, den: int, rows, labels) -> "Cloud":
        """Points rows[i] / den (int rows) labelled labels[i]; L is den /
        gcd(den, every entry), the lcm of the reduced denominators."""
        g = math.gcd(den, *chain.from_iterable(rows))
        return cls((den // g, tuple([tuple([v // g for v in r]) for r in rows])), tuple(labels))

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def points(self) -> tuple[LabeledPoint4, ...]:
        """The labelled points, with Fraction coordinates row / L."""
        L, rows = self.lattice
        coord = cache(lambda v: Fraction(v, L))
        return tuple(LabeledPoint4(tuple(map(coord, r)), *k) for r, k in zip(rows, self.labels))

    @cached_property
    def kind_masks(self) -> KindMasks:
        masks = dict.fromkeys(KindMasks._fields, 0)
        for i, (kind, _, _) in enumerate(self.labels):
            masks[kind] |= 1 << i
        return KindMasks(**masks)

    def to_csv_text(self) -> str:
        rows = (",".join([p.label_text(), *map(format_rational, p.coords)]) for p in self.points)
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "Cloud":
        rows, labels = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 5:
                raise ValueError(f"cloud row needs label + 4 coordinates: {line!r}")
            kind, x, y = _parse_label(cells[0])
            rows.append([rational_parts(c) for c in cells[1:]])
            _check_label(kind, x, Fraction(*rows[-1][0]), line)
            labels.append((kind, x, y))
        # Unreduced cells are safe: on_lattice's gcd reduces L.
        L = math.lcm(*{d for r in rows for _, d in r})
        return cls.on_lattice(L, [[n * (L // d) for n, d in r] for r in rows], labels)


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


def _fiber_rows(x: Fraction, sheets, blocks: int, den: int):
    """(y, the sampled sheet point (x/118098, E(x, y)) times den) per
    label y of `sheets`, den a multiple of 27**blocks and of 118098 times
    x's denominator.  x is expanded once; a label adds only label_weight."""
    unit = den // 3 ** (3 * blocks)
    first = x.numerator * (den // (x.denominator * SHEET_SCALE))
    c0, c1, c2 = (c * unit for c in t_coordinates(to_ternary(x, 6 * blocks), blocks))
    for y in sheets:
        w = label_weight(y, blocks) * unit
        yield y, (first, c0 + w, c1 + w, c2 + w)


def build_cloud(cfg: CloudConfig) -> Cloud:
    """Deterministic point sample for a config; duplicate coordinates merge.

    Emission order is sheet points (x_values outer, sheets inner), fiber
    points and their {1}-slab partners per sheet, then the cube grids.
    First emission wins a merge, so partner labels survive grid overlaps.
    Points are emitted as int rows over one common denominator, merged on
    those, and the cloud is made on its lattice (Cloud.on_lattice).
    """
    if not cfg.sheets:
        raise ValueError("at least one sheet required")
    fibers = [(x, False) for x in cfg.x_values]
    if cfg.include_partners:
        fibers.append((fiber_value(cfg.scale), True))
    dens = [x.denominator * SHEET_SCALE for x, _ in fibers]
    den = math.lcm(3 ** (3 * cfg.blocks), cfg.cube_grid or 1, *dens)
    store: dict[tuple, tuple] = {}  # int row -> (kind, sheet_x, sheet_y)
    for x, partners in fibers:
        for y, row in _fiber_rows(x, cfg.sheets, cfg.blocks, den):
            store.setdefault(row, ("sheet", x, y))
            if partners:
                store.setdefault((den, *row[1:]), ("cube1", None, None))
    if cfg.cube_grid > 0:
        ticks = range(0, den + 1, den // cfg.cube_grid)
        for first, kind in ((den, "cube1"), (0, "cube0")):
            if kind == "cube1" or cfg.include_cube0:
                for c in product(ticks, repeat=3):
                    store.setdefault((first, *c), (kind, None, None))
    return Cloud.on_lattice(den, store, store.values())


def circle_above_parabola_cleared(rn: int, xn: int) -> bool:
    """Exact witness that r - sqrt(r**2 - x**2) >= x**2 / (2r) at r = rn/D,
    x = xn/D, for ints 0 <= |xn| <= rn, rn > 0, over any common
    denominator D > 0.

    Evaluated in the cleared form (r - x**2/(2r))**2 >= r**2 - x**2, valid
    because the left base is nonnegative on the domain; times 4 r**2 D**4
    it is (2 rn**2 - xn**2)**2 >= 4 rn**2 (rn**2 - xn**2) in ints, which is
    homogeneous in (rn, xn), so D drops out.  Always true; the comparison
    is executed rather than assumed.
    """
    rr, xx = rn * rn, xn * xn
    return (2 * rr - xx) ** 2 >= 4 * rr * (rr - xx)
