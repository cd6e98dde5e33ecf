"""The integer-lattice distance kernel against plain Fraction scans.

Clouds mix denominators (powers of 2 and 3, and the 3**23 of embedded
sheet coordinates at the default depth), plant pairs at squared distance
exactly a**2 (perpendicular sheet-to-slab, diagonal, and slab-to-slab)
and use scales inside the window, so the inclusive threshold is hit
exactly rather than approximately.  The packed second-neighbor scan is
refereed by the per-point lattice loop and the Fraction scan, on random
clouds and on every rigid partner of sampled clouds.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips.digits import BinaryString
from exactrips.harness import (
    assert_rigid_free,
    default_sheets,
    find_rigid_edges,
    minimal_config,
)
from exactrips.homology import betti01
from exactrips.rips import build_complex, build_edges
from exactrips.space import (
    DEFAULT_BLOCKS,
    DEFAULT_SCALES,
    Cloud,
    CloudConfig,
    LabeledPoint4,
    build_cloud,
    lattice_bound,
    scale_window,
    second_neighbor_witness,
)

from oracles import (
    betti_bruteforce,
    edge_walk_scale_edges,
    fraction_edges,
    fraction_scale_edges,
    fraction_triangle_sides,
    fraction_witness,
    lattice_witness,
)

DENOMINATORS = (1, 2, 3, 4, 9, 6, 2**10, 3**5, 3**23, 2 * 3**23)
Y = BinaryString((0, 1))
LO, HI = scale_window()

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def coordinates(draw):
    den = draw(st.sampled_from(DENOMINATORS))
    return Fraction(draw(st.integers(-den, 2 * den)), den)


@st.composite
def window_scales(draw):
    m = draw(st.sampled_from((1, 2, 3, 2**7, 3**5)))
    return LO + (HI - LO) * Fraction(draw(st.integers(0, m)), m)


def _point(coords, kind):
    if kind == "sheet":
        return LabeledPoint4(tuple(coords), "sheet", Fraction(0), Y)
    return LabeledPoint4(tuple(coords), kind)


# Offsets of length exactly 1, to be scaled by a: perpendicular (rigid when
# sheet -> cube1), diagonal (3-4-5), and along a slab axis.
PLANTS = {
    "rigid": ((1, 0, 0, 0), "sheet", "cube1"),
    "diagonal": ((Fraction(3, 5), Fraction(4, 5), 0, 0), "sheet", "cube1"),
    "axis": ((0, 0, 1, 0), "cube1", "cube0"),
}


@st.composite
def clouds(draw, max_points):
    """(cloud, a): random points plus planted pairs at distance exactly a."""
    a = draw(window_scales())
    points = []
    for plant in draw(st.lists(st.sampled_from(sorted(PLANTS)), max_size=max_points // 2)):
        offset, k1, k2 = PLANTS[plant]
        base = [draw(coordinates()) for _ in range(4)]
        points.append(_point(base, k1))
        points.append(_point([b + a * o for b, o in zip(base, offset)], k2))
    kinds = st.sampled_from(("sheet", "cube0", "cube1"))
    while len(points) < max_points and draw(st.booleans()):
        points.append(_point([draw(coordinates()) for _ in range(4)], draw(kinds)))
    order = draw(st.permutations(range(len(points))))
    return Cloud(tuple(points[k] for k in order), None), a


def test_lattice_bound_is_floor_and_exactness():
    assert lattice_bound(Fraction(1), 6) == (36, True)
    assert lattice_bound(Fraction(1, 2), 3) == (2, False)  # 9/4
    assert lattice_bound(Fraction(2, 3), 3) == (4, True)
    assert lattice_bound(Fraction(0), 5) == (0, True)


@pytest.mark.parametrize("a", [Fraction(-1), Fraction(-1, 3**24)])
def test_lattice_bound_rejects_negative_scales(a):
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        lattice_bound(a, 6)


def test_lattice_scales_every_coordinate_to_an_int():
    cloud = Cloud(
        (
            _point([Fraction(1, 2), Fraction(1, 3), 0, 1], "cube1"),
            _point([Fraction(-5, 4), 0, Fraction(2, 9), 0], "cube0"),
        ),
        None,
    )
    L, lattice = cloud.lattice
    assert L == 36
    assert lattice == ((18, 12, 0, 36), (-45, 0, 8, 0))
    assert cloud.lattice is cloud.lattice  # built once


@SETTINGS
@given(clouds(max_points=16))
def test_build_edges_matches_fraction_scan(case):
    cloud, a = case
    assert build_edges(cloud, a) == fraction_edges(cloud, a)


@SETTINGS
@given(clouds(max_points=12))
def test_betti01_matches_bruteforce(case):
    cloud, a = case
    assert betti01(build_complex(cloud, a)) == betti_bruteforce(cloud, a)


@SETTINGS
@given(clouds(max_points=16))
def test_scale_edge_classification_matches_fraction_scans(case):
    cloud, a = case
    cx = build_complex(cloud, a)
    rigid, diagonal = fraction_scale_edges(cx)
    assert [
        (r.edge_index, r.sheet_vertex, r.partner_vertex, r.y, r.x_fiber)
        for r in cx.scale_edges.rigid
    ] == rigid
    assert list(cx.scale_edges.diagonal) == diagonal
    assert cx.scale_edges is cx.scale_edges  # classified once


@pytest.mark.parametrize("a", DEFAULT_SCALES)
@pytest.mark.parametrize("cube_grid", [0, 1, 3])
def test_scale_edge_census_matches_edge_walk_on_reordered_csv_clouds(cube_grid, a):
    # Shuffled rows put some {1}-slab partners before their sheet points, so
    # rigid edges come in both orientations (partner index below and above).
    cfg = dataclasses.replace(
        minimal_config(5, a), cube_grid=cube_grid, include_cube0=cube_grid > 0,
        x_values=(Fraction(1, 3),),
    )
    rows = build_cloud(cfg).to_csv_text().splitlines()
    random.Random(1).shuffle(rows)
    cx = build_complex(Cloud.from_csv_text("\n".join(rows)), a)
    walk = edge_walk_scale_edges(cx)
    assert cx.scale_edges.rigid == walk.rigid
    assert cx.scale_edges.diagonal == walk.diagonal
    assert 0 < sum(r.partner_vertex < r.sheet_vertex for r in walk.rigid) < len(walk.rigid) == 5


@SETTINGS
@given(clouds(max_points=12), st.sampled_from((1, 5, 7, 3**24)), st.data())
def test_witness_matches_fraction_scan_off_the_cloud(case, den, data):
    # The partner is at the perpendicular of a cloud point b, shifted by
    # shift = k/(4*den) in a slab coordinate, and is not added to the cloud;
    # for den 7 or 3**24 it is off the cloud's lattice.  Planted sheet points: b
    # itself (the rigid foot when shift = 0), one strictly within a, and
    # one at distance exactly a when shift = 0.
    cloud, a = case
    base = data.draw(st.sampled_from(cloud.points)) if cloud.points else _point([0] * 4, "sheet")
    shift = Fraction(data.draw(st.integers(-1, 1)), 4 * den)
    b = base.coords
    partner = _point([b[0] + a, b[1] + shift, b[2], b[3]], "cube1")
    planted = [
        _point(b, "sheet"),
        _point([b[0] + a / 2, b[1], b[2], b[3]], "sheet"),
        _point([b[0] + a * Fraction(2, 5), b[1] + a * Fraction(4, 5), b[2], b[3]], "sheet"),
    ]
    cloud = Cloud(cloud.points + tuple(planted), None)
    hits = second_neighbor_witness(partner, cloud, a)
    assert [(v.index, v.eps, v.l_sq, v.dist_sq) for v in hits] == fraction_witness(
        partner, cloud, a
    )
    assert hits  # the point at a / 2 is always within a


@SETTINGS
@given(clouds(max_points=14), st.data())
def test_sides_in_triangles_matches_a_triangle_scan(case, data):
    cloud, a = case
    cx = build_complex(cloud, a)
    edges = set(data.draw(st.lists(st.integers(0, max(len(cx.edges) - 1, 0)))))
    edges &= set(range(len(cx.edges)))
    assert cx.sides_in_triangles(edges) == fraction_triangle_sides(cx, edges)
    every = range(len(cx.edges))
    assert cx.sides_in_triangles(every) == fraction_triangle_sides(cx, every)


WITNESS_DENS = (1, 2, 3, 7, 2**10, 3**5, 3**23, 3**24)


@st.composite
def wide_rationals(draw):
    den = draw(st.sampled_from(WITNESS_DENS))
    return Fraction(draw(st.integers(-2 * den, 2 * den)), den)


@st.composite
def witness_cases(draw):
    """(cloud, partner, a): up to six random points, a partner from the
    cloud or off it, a scale of 0, a random one or one above every
    distance, and optionally the rigid foot and a sheet point at
    distance exactly a planted."""
    kinds = st.sampled_from(("sheet", "cube0", "cube1"))
    points = [
        _point([draw(wide_rationals()) for _ in range(4)], draw(kinds))
        for _ in range(draw(st.integers(0, 6)))
    ]
    on_cloud = [p for p in points if p.kind == "cube1"]
    if on_cloud and draw(st.booleans()):
        partner = draw(st.sampled_from(on_cloud))
    else:
        partner = _point([draw(wide_rationals()) for _ in range(4)], "cube1")
    a = draw(st.sampled_from((Fraction(0), Fraction(9))) | wide_rationals().map(abs))
    c = partner.coords
    if draw(st.booleans()):
        points.append(_point([c[0] - a, c[1], c[2], c[3]], "sheet"))
    if draw(st.booleans()):
        diagonal = [c[0] - a * Fraction(3, 5), c[1] + a * Fraction(4, 5), c[2], c[3]]
        points.append(_point(diagonal, "sheet"))
    order = draw(st.permutations(range(len(points))))
    return Cloud(tuple(points[k] for k in order), None), partner, a


def _witness_tuples(partner, cloud, a):
    hits = second_neighbor_witness(partner, cloud, a)
    return [(v.index, v.eps, v.l_sq, v.dist_sq) for v in hits]


def test_packed_witness_matches_referees():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(witness_cases())
    def check(case):
        cloud, partner, a = case
        # The coordinates lie in [-2, 2], so every D is below the bound at
        # a + 2**32, whose slots are wider than the bound at a: one cloud,
        # two widths.
        for scale in (a, a + 2**32):
            hits = _witness_tuples(partner, cloud, scale)
            assert hits == lattice_witness(partner, cloud, scale)
            assert hits == fraction_witness(partner, cloud, scale)
        hits = _witness_tuples(partner, cloud, a)
        sheets = [p for p in cloud.points if p.kind == "sheet"]
        assert len(cloud.sheet_pack.packs) == (2 if sheets else 0)
        L, _ = cloud.lattice
        coords = [c for p in sheets for c in p.coords]
        seen.update(
            name
            for name, occurs in (
                ("zero", a == 0),
                ("exact", any(h[3] == a * a for h in hits)),
                ("wide", sheets and len(hits) == len(sheets) and all(h[3] < a * a for h in hits)),
                ("off lattice", any((c * L).denominator > 1 for c in partner.coords)),
                ("negative", any(c < 0 for c in coords)),
                ("3**24", any(c.denominator == 3**24 for c in coords)),
                ("one point", len(cloud) == 1),
                ("no sheets", cloud.points and not sheets),
            )
            if occurs
        )

    check()
    assert seen == {
        "zero", "exact", "wide", "off lattice", "negative", "3**24", "one point", "no sheets"
    }


def test_sheet_pack_slots_hold_the_shifted_rows_at_every_width():
    cloud = Cloud(
        (
            _point([Fraction(-1, 3**24), 2, 0, Fraction(1, 7)], "sheet"),
            _point([5, 5, 5, 5], "cube0"),
            _point([Fraction(3, 2), -2, 1, 0], "sheet"),
        ),
        None,
    )
    pack = cloud.sheet_pack
    _, lattice = cloud.lattice
    rows = [[u - m for u, m in zip(lattice[i], pack.low)] for i in pack.index]
    assert pack.index == (0, 2) and min(min(r) for r in rows) == 0
    for w in (8 * ((pack.top.bit_length() + 8) // 8), 256):
        cols, ps, ones = pack.packed(w)

        def slots(x):
            return [x >> (w * j) & ((1 << w) - 1) for j in range(len(rows))]

        assert [slots(col) for col in cols] == [list(c) for c in zip(*rows)]
        assert slots(ps) == [sum(u * u for u in r) for r in rows]
        assert slots(ones) == [1, 1]
    assert len(pack.packs) == 2
    assert cloud.sheet_pack is pack


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 3**24), Fraction(1), Fraction(4)])
def test_witness_slots_cannot_borrow_from_far_points(a):
    # The partner sits off the lattice (s = 3**24) just outside a corner of
    # the sheet points' box, so the far corner's D, about 2**80, decides
    # the slot width and not the partner's own offset or the bound.
    cloud = Cloud(
        (
            _point([0, 0, 0, 0], "sheet"),
            _point([2, 2, 2, 2], "sheet"),
            _point([1, 0, 0, 0], "sheet"),
        ),
        None,
    )
    partner = _point([Fraction(-1, 3**24), 0, 0, 0], "cube1")
    hits = _witness_tuples(partner, cloud, a)
    assert hits == lattice_witness(partner, cloud, a) == fraction_witness(partner, cloud, a)
    assert min(cloud.sheet_pack.packs) > 80


@pytest.mark.parametrize("a", [Fraction(-1), Fraction(-2)])
def test_witness_rejects_negative_scales(a):
    # Read as |a|, a negative scale would move the excluded rigid foot to
    # partner - (a, 0, 0, 0) and report the real one as a violation.
    cloud = build_cloud(minimal_config(2, Fraction(1)))
    for partner in (p for p in cloud.points if p.kind == "cube1"):
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            second_neighbor_witness(partner, cloud, a)


def _sweep_style_config() -> CloudConfig:
    # One seeded x value on 8 sheets, built for the lower window end, with
    # the cube grid 2 on both slabs: first coordinates j / (2 * 3**58).
    j = random.Random(7).randrange(3**47, 3**48) | 1
    lo, _ = scale_window()
    return CloudConfig(
        sheets=default_sheets(8),
        scale=lo,
        x_values=(Fraction(j, 3 ** (6 * DEFAULT_BLOCKS)),),
        cube_grid=2,
        include_cube0=True,
    )


SAMPLED_CONFIGS = (
    [
        pytest.param(minimal_config(n, a), id=f"minimal-{n}-a{k}")
        for n in (1, 2, 3, 5, 8, 33)
        for k, a in enumerate(DEFAULT_SCALES)
    ]
    + [
        pytest.param(
            CloudConfig(sheets=default_sheets(4), scale=a, cube_grid=g, include_cube0=True),
            id=f"cube_grid-{g}-a{k}",
        )
        for g in (1, 2, 3)
        for k, a in enumerate(DEFAULT_SCALES)
    ]
    + [pytest.param(_sweep_style_config(), id="sweep-style")]
)


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS)
def test_rigid_free_witness_equals_the_referee_on_sampled_clouds(cfg):
    cloud = build_cloud(cfg)
    a = cfg.scale
    cx = build_complex(cloud, a)
    rigid = find_rigid_edges(cx)
    assert rigid
    expected = [
        (r.edge_index, hit[0])
        for r in rigid
        for hit in lattice_witness(cloud.points[r.partner_vertex], cloud, a)
    ]
    assert list(assert_rigid_free(cx, rigid).witness_violations) == expected
    # Slightly beyond the scale the sheet points next to each partner come
    # in: the packed scan still reports exactly the referee's hits.
    wider = a + Fraction(1, 2**20)
    for r in rigid:
        partner = cloud.points[r.partner_vertex]
        hits = _witness_tuples(partner, cloud, wider)
        assert hits == lattice_witness(partner, cloud, wider)


def test_sweep_style_cloud_takes_wide_slots():
    cloud = build_cloud(_sweep_style_config())
    den_bits = max(c.denominator.bit_length() for p in cloud.points for c in p.coords)
    assert den_bits == 93
    for p in cloud.points:
        if p.kind == "cube1":
            second_neighbor_witness(p, cloud, cloud.config.scale)
    assert min(cloud.sheet_pack.packs) > 128
