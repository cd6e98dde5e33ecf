"""The integer-lattice distance kernel against plain Fraction scans.

Clouds mix denominators (powers of 2 and 3, and the 3**23 of embedded
sheet coordinates at the default depth), plant pairs at squared distance
exactly a**2 (perpendicular sheet-to-slab, diagonal, and slab-to-slab)
and use scales inside the window, so the inclusive threshold is hit
exactly rather than approximately.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips.digits import BinaryString
from exactrips.homology import betti01, betti_bruteforce
from exactrips.rips import build_complex, build_edges
from exactrips.space import (
    Cloud,
    LabeledPoint4,
    lattice_bound,
    scale_window,
    second_neighbor_witness,
)

from oracles import (
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
    return Cloud(tuple(points[k] for k in order), None), a


def test_lattice_bound_is_floor_and_exactness():
    assert lattice_bound(Fraction(1), 6) == (36, True)
    assert lattice_bound(Fraction(1, 2), 3) == (2, False)  # 9/4
    assert lattice_bound(Fraction(2, 3), 3) == (4, True)


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
    assert cx.triangle_sides == {e for e, _ in fraction_triangle_sides(cx, range(len(cx.edges)))}
    assert cx.triangle_sides is cx.triangle_sides  # one pass per complex
