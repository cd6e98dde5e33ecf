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
from itertools import compress, product
from typing import NamedTuple

from .digits import (
    BinaryString,
    format_rational,
    json_fields,
    json_text,
    parse_rational,
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
    "NeighborViolation",
    "scale_window",
    "fiber_value",
    "lattice_bound",
    "pack_rows",
    "fiber_points",
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
        if self.kind not in KindMasks._fields:
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


def _typed(key: str, value, *kinds):
    # Exact type, so a bool is not an int and nothing is coerced.
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"config key {key!r} must be {names}: {value!r}")
    return value


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
                _typed(key, value, *kinds)
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "x_values", tuple(map(Fraction, self.x_values)))
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
        # Only the JSON shapes are checked here; __post_init__ types the rest.
        sheets = _typed("sheets", d.get("sheets"), list)
        if not all(isinstance(s, str) for s in sheets):
            raise ValueError(f"config key 'sheets' must list strings: {sheets!r}")
        x_values = _typed("x_values", d.get("x_values", []), list)
        if not all(type(x) in (str, int) for x in x_values):
            raise ValueError(f"config key 'x_values' must list str or int: {x_values!r}")
        return cls(
            sheets=tuple(BinaryString.from_text(s) for s in sheets),
            scale=parse_rational(str(_typed("scale", d.get("scale", "1"), str, int))),
            x_values=tuple(parse_rational(str(x)) for x in x_values),
            **{k: d[k] for k in ("blocks", "cube_grid", "include_cube0", "include_partners")
               if k in d},
        )

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

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
        ratios = [c.as_integer_ratio() for p in self.points for c in p.coords]
        dens = {d for _, d in ratios}
        L = math.lcm(*dens)
        times = {d: L // d for d in dens}
        flat = iter([n * times[d] for n, d in ratios])
        return L, tuple(zip(flat, flat, flat, flat))

    @cached_property
    def kind_masks(self) -> KindMasks:
        masks = dict.fromkeys(KindMasks._fields, 0)
        for i, p in enumerate(self.points):
            masks[p.kind] |= 1 << i
        return KindMasks(**masks)

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


def fiber_points(x: Fraction, sheets, blocks: int):
    """The sampled sheet points (x/118098, embed(x, y)) for each label y of
    `sheets` in turn, at the working depth.

    Any x in [0, 1] is accepted; the expansion is the greedy truncation at
    depth 6*blocks, so the sample is exact precisely when x terminates
    there (see the module docstring for the closure convention).  x is
    expanded once: every label shares its t part and first coordinate and
    adds only its label term (embedding.label_weight).
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"sheet parameter out of [0, 1]: {x}")
    t = to_ternary(x, 6 * blocks)
    base, den, first = t_coordinates(t, blocks), 3 ** (3 * blocks), x / SHEET_SCALE
    for y in sheets:
        w = label_weight(y, blocks)
        coords = (first, *(Fraction(c + w, den) for c in base))
        yield LabeledPoint4(coords, "sheet", sheet_x=x, sheet_y=y)


def sheet_point(x: Fraction, y: BinaryString, blocks: int) -> LabeledPoint4:
    """The sampled sheet point (x/118098, embed(x, y)); see fiber_points."""
    return next(fiber_points(x, (y,), blocks))


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
        for sp in fiber_points(x, cfg.sheets, cfg.blocks):
            emit(sp)
    if cfg.include_partners:
        for sp in fiber_points(fiber_value(cfg.scale), cfg.sheets, cfg.blocks):
            emit(sp)
            emit(LabeledPoint4((Fraction(1),) + sp.coords[1:], "cube1"))
    if cfg.cube_grid > 0:
        ticks = [Fraction(k, cfg.cube_grid) for k in range(cfg.cube_grid + 1)]
        for first, kind in ((Fraction(1), "cube1"), (Fraction(0), "cube0")):
            if kind == "cube1" or cfg.include_cube0:
                for c in product(ticks, repeat=3):
                    emit(LabeledPoint4((first, *c), kind))
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


def pack_rows(lattice, index, bound: int) -> tuple[int, tuple, tuple, int, int]:
    """The lattice rows `index`, packed into big ints for a slot scan:
    (w, low, cols, PS, ONES).

    Each column is shifted by its minimum low[k] over the *whole* lattice,
    so every shifted row u has 0 <= u[k] <= span[k], and diagonal =
    sum_k span[k]**2 bounds the squared distance D of any two rows.  w is
    the least multiple of 8 whose guard bit G = 2**(w-1) exceeds both bound
    and the diagonal.  cols[k] holds the j-th row's u[k] in bits
    [w*j, w*(j+1)), PS holds |u|**2 and ONES holds 1 in every slot.

    For any lattice row t, with t' = t - low,

        X = (bound + G - |t'|**2)*ONES - PS + 2 * sum_k t'[k]*cols[k]

    has bound + G - D_j in slot j.  As 0 <= D_j <= diagonal < G and
    bound < G, each slot lies in (bound, 2G): none borrows from the next,
    and slot j has its guard bit set iff D_j <= bound.
    """
    columns = list(zip(*lattice))
    low = tuple(map(min, columns))
    diagonal = sum((max(c) - m) ** 2 for c, m in zip(columns, low))
    w = 8 * ((max(bound, diagonal).bit_length() + 8) // 8)
    size = w // 8
    rows = [[v - m for v, m in zip(lattice[i], low)] for i in index]

    def join(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")

    cols = tuple(join(c) for c in zip(*rows))
    return w, low, cols, join(sum(u * u for u in r) for r in rows), join([1] * len(rows))


def second_neighbor_witness(
    cloud: Cloud, partners, a: Fraction
) -> list[list[NeighborViolation]]:
    """For each {1}-slab partner vertex, in input order, the sheet points
    within a of it other than its own rigid foot.

    The construction predicts only empty lists: a second neighbor would
    force eps > l**2 / 2 between the first-coordinate gap eps and the slab
    projection gap l, contradicting the close-expanding lower bound.  Any
    violation is returned with both gaps so the failed chain is inspectable.

    Distances are compared on the cloud's integer lattice: sheet point j
    is within a iff D_j = |p_j - t|**2 <= bound, with t the partner's
    lattice row.  The sheet rows are packed once per call (pack_rows), and
    one big-int expression per partner sets the guard bit of exactly the
    slots with D_j <= bound.  The rigid foot (partner - (a, 0, 0, 0)) is
    on the lattice iff a*L, so iff a**2 L**2, is an int (lattice_bound is
    exact); its row is then the partner's less isqrt(bound) = a*L in the
    first entry, and hits on it are excluded.  The gaps of a violation are
    exact Fractions, computed on the hits alone.
    """
    partners = list(partners)
    bad = [(i, cloud.points[i].kind) for i in partners if cloud.points[i].kind != "cube1"]
    if bad:
        raise ValueError("witness scan expects {1}-slab partners; vertex %d is %s" % bad[0])
    L, lattice = cloud.lattice
    bound, exact = lattice_bound(Fraction(a), L)
    index = tuple(i for i, p in enumerate(cloud.points) if p.kind == "sheet")
    if not index:
        return [[] for _ in partners]
    w, low, cols, ps, ones = pack_rows(lattice, index, bound)
    size, top = w // 8, bound + (1 << (w - 1))
    shift = math.isqrt(bound) if exact else None
    out = []
    for partner in partners:
        row = lattice[partner]
        t = [v - m for v, m in zip(row, low)]
        x = (top - sum(u * u for u in t)) * ones - ps
        x += 2 * sum(u * col for u, col in zip(t, cols))
        guards = x.to_bytes(size * len(index), "little")[size - 1::size]
        foot = (row[0] - shift,) + row[1:] if exact else None
        hits = []
        for idx in compress(index, guards.translate(_GUARD)):
            if lattice[idx] == foot:
                continue
            p, q = cloud.points[partner].coords, cloud.points[idx].coords
            eps = abs(q[0] - p[0])
            l_sq = sum((q[i] - p[i]) ** 2 for i in (1, 2, 3))
            hits.append(NeighborViolation(idx, eps, l_sq, eps * eps + l_sq))
        out.append(hits)
    return out
