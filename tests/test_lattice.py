"""The integer-lattice distance kernel against plain Fraction scans.

Clouds mix denominators (powers of 2 and 3, and the 3**23 of embedded
sheet coordinates at the default depth), plant pairs at squared distance
exactly a**2 (perpendicular sheet-to-slab, diagonal, and slab-to-slab)
and use scales inside the window, so the inclusive threshold is hit
exactly rather than approximately.  The second-neighbor witness of
assert_rigid_free, read off the complex's masks for each census edge, is
refereed by a Fraction scan, on random clouds and on every rigid edge of
sampled clouds.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips.digits import BinaryString
from exactrips.harness import (
    assert_rigid_free,
    default_sheets,
    find_rigid_edges,
)
from exactrips.homology import betti01
from exactrips.rips import RipsComplex2, build_complex, build_edges
from exactrips.space import (
    DEFAULT_BLOCKS,
    DEFAULT_SCALES,
    Cloud,
    CloudConfig,
    LabeledPoint4,
    build_cloud,
    lattice_bound,
    scale_window,
)

from oracles import (
    betti_bruteforce,
    cloud_of,
    edge_walk_scale_edges,
    fraction_edges,
    fraction_scale_edges,
    fraction_triangle_sides,
    fraction_witness,
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
    return cloud_of(tuple(points[k] for k in order)), a


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
    cloud = cloud_of(
        (
            _point([Fraction(1, 2), Fraction(1, 3), 0, 1], "cube1"),
            _point([Fraction(-5, 4), 0, Fraction(2, 9), 0], "cube0"),
        ),
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
    cfg = CloudConfig(
        default_sheets(5), a, (Fraction(1, 3),), cube_grid=cube_grid, include_cube0=cube_grid > 0
    )
    rows = build_cloud(cfg).to_csv_text().splitlines()
    random.Random(1).shuffle(rows)
    cx = build_complex(Cloud.from_csv_text("\n".join(rows)), a)
    walk = edge_walk_scale_edges(cx)
    assert cx.scale_edges.rigid == walk.rigid
    assert cx.scale_edges.diagonal == walk.diagonal
    assert 0 < sum(r.partner_vertex < r.sheet_vertex for r in walk.rigid) < len(walk.rigid) == 5


def _witness(cx, rigid):
    return list(assert_rigid_free(cx, rigid).witness_violations)


@SETTINGS
@given(clouds(max_points=12), st.sampled_from((1, 5, 7, 3**24)), st.data())
def test_witness_matches_fraction_scan_on_a_shifted_partner(case, den, data):
    # The partner is at the perpendicular of a cloud point b, shifted by
    # shift = k/(4*den) in a slab coordinate, and appended to the cloud;
    # for den 7 or 3**24 it refines the cloud's lattice.  Planted sheet
    # points: b itself (the partner's census foot when shift = 0), one
    # strictly within a, and one at distance exactly a when shift = 0.
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
    cloud = cloud_of(cloud.points + tuple(planted) + (partner,))
    cx = build_complex(cloud, a)
    rigid = find_rigid_edges(cx)
    hits = _witness(cx, rigid)
    assert hits == fraction_witness(cloud, rigid, a)
    mine = [r.edge_index for r in rigid if r.partner_vertex == len(cloud) - 1]
    assert mine or shift
    # The point at a / 2 is always within a of the partner.
    assert all((e, len(cloud) - 3) in hits for e in mine)


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
    """(cloud, a): up to six random points, a partner drawn from them or
    appended as a new point, its foot at distance a planted (which makes
    the census edge), a scale of 0, a random one or one above every
    distance, and optionally a sheet point at distance exactly a planted
    on a diagonal."""
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
        points.append(partner)
    a = draw(st.sampled_from((Fraction(0), Fraction(9))) | wide_rationals().map(abs))
    c = partner.coords
    points.append(_point([c[0] - a, c[1], c[2], c[3]], "sheet"))
    if draw(st.booleans()):
        diagonal = [c[0] - a * Fraction(3, 5), c[1] + a * Fraction(4, 5), c[2], c[3]]
        points.append(_point(diagonal, "sheet"))
    order = draw(st.permutations(range(len(points))))
    return cloud_of(tuple(points[k] for k in order)), a


def test_witness_matches_referees():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(witness_cases())
    def check(case):
        cloud, a = case
        cx = build_complex(cloud, a)
        rigid = find_rigid_edges(cx)
        hits = _witness(cx, rigid)
        assert hits == fraction_witness(cloud, rigid, a)
        pts = cloud.points
        partner = {r.edge_index: pts[r.partner_vertex].coords for r in rigid}
        sq = [sum((u - v) ** 2 for u, v in zip(pts[i].coords, partner[e])) for e, i in hits]
        sheets = [p for p in pts if p.kind == "sheet"]
        coords = [c for p in sheets for c in p.coords]
        seen.update(
            name
            for name, occurs in (
                ("zero", a == 0),
                ("clean", a > 0 and not hits),
                ("exact", a * a in sq),
                ("wide", len(sheets) > 2 and len(hits) == len(rigid) * (len(sheets) - 1)),
                ("negative", any(c < 0 for c in coords)),
                ("3**24", any(c.denominator == 3**24 for c in coords)),
                ("two edges", len(rigid) > 1),
            )
            if occurs
        )

    check()
    assert seen == {"zero", "clean", "exact", "wide", "negative", "3**24", "two edges"}


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 3**24), Fraction(1), Fraction(4)])
def test_witness_hits_equal_the_referees_when_the_far_corner_is_farthest(a):
    # The partner sits just outside a corner of the sheet points' box, on
    # a lattice of step 3**-24, with its census foot at distance a on the
    # box's side (the origin itself at a = 3**-24, so the foot the census
    # settles can lie either side of the partner).  The partner and the far
    # sheet corner make the largest D in the cloud, about 2**80, and just
    # beyond a = 4 it stays out.
    eps = Fraction(1, 3**24)
    points = [
        _point([0, 0, 0, 0], "sheet"),
        _point([2, 2, 2, 2], "sheet"),
        _point([1, 0, 0, 0], "sheet"),
        _point([-eps, 0, 0, 0], "cube1"),
    ]
    if a != eps:
        points.append(_point([a - eps, 0, 0, 0], "sheet"))
    cloud = cloud_of(tuple(points))
    cx = build_complex(cloud, a)
    rigid = find_rigid_edges(cx)
    assert [(r.sheet_vertex, r.partner_vertex) for r in rigid] == [(0 if a == eps else 4, 3)]
    hits = _witness(cx, rigid)
    assert hits == fraction_witness(cloud, rigid, a)
    expected = {Fraction(0): [], eps: [], Fraction(1): [0], Fraction(4): [0, 2]}
    assert [v for _, v in hits] == expected[a]


@pytest.mark.parametrize("a", [Fraction(-1), Fraction(-2)])
def test_witness_rejects_negative_scales(a):
    # A negative scale would move the feet the census settles, and so the
    # sheet vertex the witness excludes.  build_complex refuses the scale,
    # and so does the census on a complex made by hand at it.
    cloud = build_cloud(CloudConfig(default_sheets(2), Fraction(1)))
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        build_complex(cloud, a)
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        find_rigid_edges(RipsComplex2(cloud, a, ()))


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
        pytest.param(CloudConfig(default_sheets(n), a), id=f"minimal-{n}-a{k}")
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


def _census_in(cx, rigid):
    # Census edges of a narrower complex of the cloud, indexed in cx.
    return [replace(r, edge_index=cx.edge_index(r.sheet_vertex, r.partner_vertex)) for r in rigid]


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS)
def test_rigid_free_witness_equals_the_referee_on_sampled_clouds(cfg):
    cloud = build_cloud(cfg)
    a = cfg.scale
    cx = build_complex(cloud, a)
    rigid = find_rigid_edges(cx)
    assert rigid
    assert _witness(cx, rigid) == fraction_witness(cloud, rigid, a)
    # Beyond the scale the census edges stay edges, and by a + 2**-8 the
    # sheet points next to each partner come in: the witness of the same
    # edges reports exactly the referee's hits.
    for wider in (a + Fraction(1, 2**20), a + Fraction(1, 2**8)):
        cx = build_complex(cloud, wider)
        wide = _census_in(cx, rigid)
        hits = _witness(cx, wide)
        assert hits == fraction_witness(cloud, wide, wider)
    assert bool(hits) == (len(rigid) > 1)


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS)
def test_one_witness_call_equals_the_referees_per_partner(cfg):
    # The census edges at the cloud's scale, read in the complexes at it,
    # at each wider default scale and at the scale + 2**-8, where other
    # sheet points come in: one call lists what one call per edge lists,
    # in the edges' order, as the referee does.
    cloud = build_cloud(cfg)
    census = find_rigid_edges(build_complex(cloud, cfg.scale))
    wider = {s for s in DEFAULT_SCALES if s > cfg.scale}
    found = []
    for a in sorted({cfg.scale, cfg.scale + Fraction(1, 2**8), *wider}):
        cx = build_complex(cloud, a)
        rigid = _census_in(cx, census)
        each = [_witness(cx, [r]) for r in rigid]
        hits = _witness(cx, rigid)
        assert hits == sum(each, []) == fraction_witness(cloud, rigid, a)
        assert _witness(cx, rigid[::-1]) == sum(each[::-1], [])
        found.append(hits)
    assert any(found) == (len(census) > 1)


def _two_partner_cloud() -> Cloud:
    # Partner 1 has its rigid foot (vertex 0) and a second sheet point
    # within 1 (vertex 2); partner 4, at the other corner, has its foot
    # (vertex 3) and vertex 5.
    return cloud_of(
        (
            _point([0, 0, 0, 0], "sheet"),
            _point([1, 0, 0, 0], "cube1"),
            _point([Fraction(1, 2), 0, 0, 0], "sheet"),
            _point([0, 1, 1, 1], "sheet"),
            _point([1, 1, 1, 1], "cube1"),
            _point([Fraction(1, 2), 1, 1, 1], "sheet"),
        ),
    )


def test_witness_hit_lists_follow_the_partner_order():
    cx = build_complex(_two_partner_cloud(), Fraction(1))
    r1, r4 = find_rigid_edges(cx)
    assert [(r.sheet_vertex, r.partner_vertex) for r in (r1, r4)] == [(0, 1), (3, 4)]
    forward = _witness(cx, [r1, r4])
    assert forward == [(r1.edge_index, 2), (r4.edge_index, 5)]
    assert _witness(cx, iter([r4, r1, r4])) == [forward[1], forward[0], forward[1]]
    assert _witness(cx, []) == []
