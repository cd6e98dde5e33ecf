"""F2 homology engine against independent oracles."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips.harness import default_sheets
from exactrips.homology import (
    Cycle,
    betti01,
    boundary1,
    boundary2,
    cycle_is_closed,
    rank_f2,
    rigid_rank_lower_bound,
)
from exactrips.rips import bits, build_complex
from exactrips.space import DEFAULT_SCALES, CloudConfig, LabeledPoint4, build_cloud

from oracles import (
    betti_bruteforce,
    cloud_of,
    component_count,
    dense_rank_f2,
    random_cloud,
    triangle_columns,
)


def _pt(*coords):
    return LabeledPoint4(tuple(Fraction(c) for c in coords), "cube1")


UNIT_SQUARE = cloud_of((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0), _pt(1, 1, 0, 0)))


def test_boundary1_single_edge():
    cx = build_complex(cloud_of((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0))), Fraction(1))
    assert boundary1(cx) == (0b11,)


def test_boundary1_empty_edge_set():
    cx = build_complex(cloud_of((_pt(0, 0, 0, 0), _pt(9, 0, 0, 0))), Fraction(1))
    assert boundary1(cx) == ()


def test_boundary1_triangle_column_weights():
    tri = cloud_of((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0)))
    cx = build_complex(tri, Fraction(2))
    assert all(col.bit_count() == 2 for col in boundary1(cx))


def test_boundary2_filled_triangle():
    tri = cloud_of((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0)))
    cx = build_complex(tri, Fraction(2))
    assert boundary2(cx) == (0b111,)


def test_boundary2_no_triangles():
    cx = build_complex(UNIT_SQUARE, Fraction(1))
    assert boundary2(cx) == ()


def test_boundary2_shared_edge():
    cx = build_complex(UNIT_SQUARE, Fraction(3, 2))
    hit = [0] * len(cx.edges)
    for col in boundary2(cx):
        for r in bits(col):
            hit[r] += 1
    # every edge of the square lies in exactly 2 of the 4 triangles,
    # each diagonal in 2 as well
    assert sorted(hit) == [2, 2, 2, 2, 2, 2]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 14), st.fractions(0, 10, max_denominator=4)
)
def test_boundary2_matches_oracle_columns_on_random_clouds(seed, points, a):
    # The oracle lists triangles by merging neighbor lists and finds each
    # side's position in a dict; boundary2 reads the apex masks.
    cx = build_complex(random_cloud(random.Random(seed), points), a)
    assert boundary2(cx) == triangle_columns(cx)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4),
    st.integers(2, 3),  # grid 1 is the cube's edges alone, with no triangle
    st.booleans(),
    st.sampled_from(DEFAULT_SCALES),
    st.lists(st.fractions(0, 1, max_denominator=5), max_size=2, unique=True),
)
def test_boundary2_matches_oracle_columns_on_cube_grid_clouds(n, cube_grid, cube0, a, xs):
    cfg = CloudConfig(
        default_sheets(n), a, tuple(xs), cube_grid=cube_grid, include_cube0=cube0
    )
    cx = build_complex(build_cloud(cfg), a)
    assert cx.n_triangles > 0
    assert boundary2(cx) == triangle_columns(cx)


def test_d1_compose_d2_is_zero():
    rng = random.Random(29)
    for _ in range(20):
        cloud = random_cloud(rng, 8)
        cx = build_complex(cloud, Fraction(rng.randint(1, 5), rng.randint(1, 2)))
        d1 = boundary1(cx)
        for col in boundary2(cx):
            acc = 0
            for edge_row in bits(col):
                acc ^= d1[edge_row]
            assert acc == 0


def test_rank_f2_examples():
    assert rank_f2((0b11, 0b11)) == 1
    assert rank_f2((0b001, 0b010, 0b100)) == 3
    assert rank_f2(iter((0b110, 0b011, 0b101))) == 2  # any iterable of masks
    assert rank_f2(()) == 0


def test_boundary_mask_columns_on_random_clouds():
    # d1 columns have exactly 2 bits, all below V; d2 columns exactly 3,
    # all below E; zero columns add no rank.
    rng = random.Random(37)
    for _ in range(40):
        cx = build_complex(random_cloud(rng, 9), Fraction(rng.randint(1, 16), 2))
        d1, d2 = boundary1(cx), boundary2(cx)
        assert len(d1) == len(cx.edges) and len(d2) == len(cx.triangles)
        assert all(col.bit_count() == 2 and col >> cx.n_vertices == 0 for col in d1)
        assert all(col.bit_count() == 3 and col >> len(cx.edges) == 0 for col in d2)
        for d, nrows in ((d1, cx.n_vertices), (d2, len(cx.edges))):
            dense = [[col >> r & 1 for col in d] for r in range(nrows)]
            assert rank_f2(d) == dense_rank_f2(dense)
            padded = [0, *d, 0, 0]
            rng.shuffle(padded)
            assert rank_f2(padded) == rank_f2(d)


def test_rank_f2_matches_dense_oracle_random():
    rng = random.Random(31)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 20), rng.randint(1, 20)
        dense = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        cols = [sum(dense[r][c] << r for r in range(nrows)) for c in range(ncols)]
        assert rank_f2(cols) == dense_rank_f2(dense)


def test_rank_f2_permutation_invariant():
    rng = random.Random(41)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        cols = [
            sum(1 << r for r in rng.sample(range(nrows), rng.randint(0, nrows)))
            for _ in range(ncols)
        ]
        base = rank_f2(cols)
        rng.shuffle(cols)
        assert rank_f2(cols) == base


def test_betti_unit_square():
    assert betti01(build_complex(UNIT_SQUARE, Fraction(1))) == (1, 1)
    assert betti01(build_complex(UNIT_SQUARE, Fraction(3, 2))) == (1, 0)


def test_betti_two_distant_points():
    cloud = cloud_of((_pt(0, 0, 0, 0), _pt(9, 0, 0, 0)))
    assert betti01(build_complex(cloud, Fraction(1))) == (2, 0)


def test_betti_single_point():
    cloud = cloud_of((_pt(0, 0, 0, 0),))
    assert betti_bruteforce(cloud, Fraction(1)) == (1, 0)
    assert betti01(build_complex(cloud, Fraction(1))) == (1, 0)


def test_bruteforce_unit_square():
    assert betti_bruteforce(UNIT_SQUARE, Fraction(1)) == (1, 1)


def test_bruteforce_size_cap():
    big = cloud_of(tuple(_pt(i, 0, 0, 0) for i in range(13)))
    with pytest.raises(ValueError):
        betti_bruteforce(big, Fraction(1))


def test_engine_matches_bruteforce_and_union_find():
    rng = random.Random(43)
    for _ in range(100):
        cloud = random_cloud(rng, 10)
        a = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        cx = build_complex(cloud, a)
        fast = betti01(cx)
        assert fast == betti_bruteforce(cloud, a)
        assert fast[0] == component_count(len(cloud.points), cx.edges)


def test_cycle_validation():
    with pytest.raises(ValueError):
        Cycle((2, 1))
    cx = build_complex(UNIT_SQUARE, Fraction(1))
    assert cycle_is_closed(cx, Cycle((0, 1, 2, 3)))
    assert not cycle_is_closed(cx, Cycle((0, 1, 2)))


def test_rigid_rank_lower_bound_pairing_pattern():
    # n parallel edges between two filled cliques; cycles pair edge 0 with
    # edge i, giving rank n-1 on the rigid coordinates.
    n = 5
    a = Fraction(1)
    pts = []
    for k in range(n):
        off = Fraction(k, 100)
        pts.append(_pt(0, off, 0, 0))
    for k in range(n):
        off = Fraction(k, 100)
        pts.append(_pt(1, off, 0, 0))
    cloud = cloud_of(tuple(pts))
    cx = build_complex(cloud, a)
    eidx = {e: k for k, e in enumerate(cx.edges)}
    rigid = [eidx[(k, n + k)] for k in range(n)]
    cycles = []
    for k in range(1, n):
        chain = {
            rigid[0],
            rigid[k],
            eidx[(0, k)],
            eidx[(n, n + k)],
        }
        cycles.append(Cycle(tuple(sorted(chain))))
    assert rigid_rank_lower_bound(cx, rigid, cycles) == n - 1
    _, b1 = betti01(cx)
    assert n - 1 <= b1


def test_rigid_rank_lower_bound_trivial_cases():
    cx = build_complex(UNIT_SQUARE, Fraction(1))
    assert rigid_rank_lower_bound(cx, [0, 1], []) == 0
    square = Cycle((0, 1, 2, 3))
    one = rigid_rank_lower_bound(cx, [0, 1], [square])
    assert rigid_rank_lower_bound(cx, [0, 1], [square, square]) == one == 1


def test_rigid_rank_lower_bound_preconditions():
    cx = build_complex(UNIT_SQUARE, Fraction(3, 2))  # all triangles filled
    with pytest.raises(ValueError):
        rigid_rank_lower_bound(cx, [0], [])
    # The first triangle side, by triangle order, that is a given edge.
    for rigid, message in (
        ([5, 3], "edge (1, 2) is rigid but occurs in triangle (0,1,2)"),
        ([4], "edge (1, 3) is rigid but occurs in triangle (0,1,3)"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            rigid_rank_lower_bound(cx, rigid, [])
    cx1 = build_complex(UNIT_SQUARE, Fraction(1))
    with pytest.raises(ValueError):
        rigid_rank_lower_bound(cx1, [0], [Cycle((0, 1, 2))])  # open chain
    with pytest.raises(ValueError):
        rigid_rank_lower_bound(cx1, [0, 0], [])


@pytest.mark.parametrize("past", [0, 1, 7])
def test_rigid_rank_lower_bound_refuses_indices_past_the_edges(past):
    cx = build_complex(UNIT_SQUARE, Fraction(1))
    e = len(cx.edges) + past
    with pytest.raises(ValueError, match=f"rigid edge index out of range: {e}$"):
        rigid_rank_lower_bound(cx, [0, e], [])
