"""F2 homology engine against independent oracles."""

import random
import re
from fractions import Fraction

import pytest

from exactrips.homology import (
    Cycle,
    SparseF2Matrix,
    betti01,
    boundary1,
    boundary2,
    cycle_is_closed,
    rank_f2,
    rigid_rank_lower_bound,
)
from exactrips.rips import build_complex
from exactrips.space import Cloud, LabeledPoint4

from oracles import betti_bruteforce, component_count, dense_rank_f2, random_cloud


def _pt(*coords):
    return LabeledPoint4(tuple(Fraction(c) for c in coords), "cube1")


UNIT_SQUARE = Cloud((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0), _pt(1, 1, 0, 0)), None)


def test_boundary1_single_edge():
    cx = build_complex(Cloud((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0)), None), Fraction(1))
    m = boundary1(cx)
    assert (m.nrows, m.ncols) == (2, 1)
    assert m.columns == ((0, 1),)


def test_boundary1_empty_edge_set():
    cx = build_complex(Cloud((_pt(0, 0, 0, 0), _pt(9, 0, 0, 0)), None), Fraction(1))
    assert boundary1(cx).ncols == 0


def test_boundary1_triangle_column_weights():
    tri = Cloud((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0)), None)
    cx = build_complex(tri, Fraction(2))
    m = boundary1(cx)
    assert all(len(col) == 2 for col in m.columns)


def test_boundary2_filled_triangle():
    tri = Cloud((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0)), None)
    cx = build_complex(tri, Fraction(2))
    m = boundary2(cx)
    assert (m.nrows, m.ncols) == (3, 1)
    assert m.columns == ((0, 1, 2),)


def test_boundary2_no_triangles():
    cx = build_complex(UNIT_SQUARE, Fraction(1))
    assert boundary2(cx).ncols == 0


def test_boundary2_shared_edge():
    cx = build_complex(UNIT_SQUARE, Fraction(3, 2))
    m = boundary2(cx)
    hit = [0] * m.nrows
    for col in m.columns:
        for r in col:
            hit[r] += 1
    # every edge of the square lies in exactly 2 of the 4 triangles,
    # each diagonal in 2 as well
    assert sorted(hit) == [2, 2, 2, 2, 2, 2]


def test_d1_compose_d2_is_zero():
    rng = random.Random(29)
    for _ in range(20):
        cloud = random_cloud(rng, 8)
        cx = build_complex(cloud, Fraction(rng.randint(1, 5), rng.randint(1, 2)))
        d1 = boundary1(cx)
        d2 = boundary2(cx)
        for col in d2.columns:
            acc: set[int] = set()
            for edge_row in col:
                acc ^= set(d1.columns[edge_row])
            assert acc == set()


def test_rank_f2_examples():
    all_ones = SparseF2Matrix(nrows=2, ncols=2, columns=((0, 1), (0, 1)))
    assert rank_f2(all_ones) == 1
    identity = SparseF2Matrix(nrows=3, ncols=3, columns=((0,), (1,), (2,)))
    assert rank_f2(identity) == 3


def test_rank_f2_malformed_columns_rejected():
    with pytest.raises(ValueError):
        SparseF2Matrix(nrows=3, ncols=1, columns=((1, 1),))
    with pytest.raises(ValueError):
        SparseF2Matrix(nrows=3, ncols=1, columns=((2, 0),))
    with pytest.raises(ValueError):
        SparseF2Matrix(nrows=3, ncols=1, columns=((5,),))
    # Every column is checked, not only the first ones.
    good = ((0, 1), (1, 2), (0, 2))
    for bad in ((2, 2), (2, 1), (-1, 0), (1, 3), (0, 1, 1)):
        with pytest.raises(ValueError):
            SparseF2Matrix(nrows=3, ncols=4, columns=good + (bad,))
    assert SparseF2Matrix(nrows=3, ncols=4, columns=good + ((),)).ncols == 4


def test_rank_f2_matches_dense_oracle_random():
    rng = random.Random(31)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 20), rng.randint(1, 20)
        dense = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        cols = tuple(
            tuple(r for r in range(nrows) if dense[r][c]) for c in range(ncols)
        )
        sparse = SparseF2Matrix(nrows=nrows, ncols=ncols, columns=cols)
        assert rank_f2(sparse) == dense_rank_f2(dense)


def test_rank_f2_permutation_invariant():
    rng = random.Random(41)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        cols = [
            tuple(sorted(rng.sample(range(nrows), rng.randint(0, nrows))))
            for _ in range(ncols)
        ]
        base = rank_f2(SparseF2Matrix(nrows=nrows, ncols=ncols, columns=tuple(cols)))
        rng.shuffle(cols)
        assert rank_f2(SparseF2Matrix(nrows=nrows, ncols=ncols, columns=tuple(cols))) == base


def test_betti_unit_square():
    assert betti01(build_complex(UNIT_SQUARE, Fraction(1))) == (1, 1)
    assert betti01(build_complex(UNIT_SQUARE, Fraction(3, 2))) == (1, 0)


def test_betti_two_distant_points():
    cloud = Cloud((_pt(0, 0, 0, 0), _pt(9, 0, 0, 0)), None)
    assert betti01(build_complex(cloud, Fraction(1))) == (2, 0)


def test_betti_single_point():
    cloud = Cloud((_pt(0, 0, 0, 0),), None)
    assert betti_bruteforce(cloud, Fraction(1)) == (1, 0)
    assert betti01(build_complex(cloud, Fraction(1))) == (1, 0)


def test_bruteforce_unit_square():
    assert betti_bruteforce(UNIT_SQUARE, Fraction(1)) == (1, 1)


def test_bruteforce_size_cap():
    big = Cloud(tuple(_pt(i, 0, 0, 0) for i in range(13)), None)
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
    cloud = Cloud(tuple(pts), None)
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
