"""Exact-threshold Rips 2-skeleton: inclusivity, nesting, clique property."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips import rips
from exactrips.harness import default_sheets
from exactrips.rips import MonotonicityError, build_complex, build_edges, sq_dist, sweep
from exactrips.space import CloudConfig, LabeledPoint4, build_cloud
from exactrips.digits import BinaryString

from oracles import cloud_of, fraction_edges, neighbor_lists, random_cloud


def _pt(*coords):
    return LabeledPoint4(tuple(Fraction(c) for c in coords), "cube1")


UNIT_SQUARE = cloud_of((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0), _pt(1, 1, 0, 0)))


def test_sq_dist_examples():
    assert sq_dist((0, 0, 0, 0), (1, 0, 0, 0)) == 1
    p = _pt(Fraction(1, 7), 2, 3, Fraction(-1, 3)).coords
    assert sq_dist(p, p) == 0
    assert sq_dist((0, Fraction(1, 3), 0, 0), (Fraction(1, 2), 0, 0, 0)) == Fraction(13, 36)
    assert sq_dist((3, -1, 0, 2), (0, 3, 0, 2)) == 25  # lattice rows give an int


def _rows(values):
    return st.tuples(*[st.tuples(*[values] * 4)] * 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        _rows(st.integers(-(2**80), 2**80)),
        _rows(st.fractions(max_denominator=3**23)),
    )
)
def test_sq_dist_is_the_sum_of_squared_differences(rows):
    u, v = rows
    expected = sum((a - b) ** 2 for a, b in zip(u, v))
    d = sq_dist(u, v)
    assert d == expected and type(d) is type(expected)


@pytest.mark.parametrize(
    "cloud",
    [
        cloud_of(()),
        cloud_of(UNIT_SQUARE.points[:1]),
        UNIT_SQUARE,
        random_cloud(random.Random(3), 10),
        build_cloud(CloudConfig(default_sheets(8), Fraction(236195, 236196))),
    ],
    ids=["empty", "one", "square", "random", "minimal8"],
)
def test_build_edges_calls_the_module_sq_dist_once_per_pair(monkeypatch, cloud):
    # The benchmark's traced rips.pairs counts these calls, V(V-1)/2 per build.
    _, lattice = cloud.lattice
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return sq_dist(u, v)

    monkeypatch.setattr(rips, "sq_dist", counted)
    a = Fraction(236195, 236196)
    assert build_edges(cloud, a) == fraction_edges(cloud, a)
    assert calls == [(lattice[i], lattice[j]) for i, j in combinations(range(len(lattice)), 2)]


def test_edge_at_exactly_the_scale_is_included():
    two = cloud_of((_pt(0, 0, 0, 0), _pt(Fraction(3, 5), 0, 0, 0)))
    assert build_edges(two, Fraction(3, 5)) == [(0, 1)]
    assert build_edges(two, Fraction(3, 5) - Fraction(1, 10**12)) == []


def test_edges_empty_below_minimum_distance():
    assert build_edges(UNIT_SQUARE, Fraction(1, 2)) == []


def test_unit_square_edges_exclude_diagonals():
    assert build_edges(UNIT_SQUARE, Fraction(1)) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_triangle_cloud():
    tri = cloud_of((_pt(0, 0, 0, 0), _pt(1, 0, 0, 0), _pt(0, 1, 0, 0)))
    cx = build_complex(tri, Fraction(2))
    assert len(cx.edges) == 3
    assert cx.triangles == ((0, 1, 2),)


def test_unit_square_complexes():
    cx1 = build_complex(UNIT_SQUARE, Fraction(1))
    assert len(cx1.edges) == 4 and len(cx1.triangles) == 0
    cx2 = build_complex(UNIT_SQUARE, Fraction(3, 2))
    assert len(cx2.edges) == 6 and len(cx2.triangles) == 4


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        build_edges(UNIT_SQUARE, Fraction(-1))


def test_canonical_ordering():
    rng = random.Random(7)
    cloud = random_cloud(rng, 9)
    cx = build_complex(cloud, Fraction(3))
    assert list(cx.edges) == sorted(set(cx.edges))
    assert all(i < j for i, j in cx.edges)
    assert list(cx.triangles) == sorted(set(cx.triangles))
    assert all(i < j < k for i, j, k in cx.triangles)
    # The masks are derived from the edges and agree with a set scan of them.
    for v, mask in enumerate(cx.neighbor_masks):
        nbrs = {j for i, j in cx.edges if i == v} | {i for i, j in cx.edges if j == v}
        assert {u for u in range(cx.n_vertices) if mask >> u & 1} == nbrs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 20), st.sets(st.tuples(st.integers(0, 19), st.integers(0, 19))))
def test_neighbor_masks_match_the_neighbor_lists(V, pairs):
    # Any sorted edge list, as betti01's collapsed complexes take them, on
    # V vertices from none to 20, isolated ones among them.
    edges = tuple(sorted((i, j) for i, j in pairs if i < j < V))
    cx = rips.RipsComplex2(cloud_of([_pt(v, 0, 0, 0) for v in range(V)]), Fraction(1), edges)
    assert [list(rips.bits(m)) for m in cx.neighbor_masks] == neighbor_lists(V, edges)


def test_clique_property_matches_brute_force():
    rng = random.Random(17)
    for _ in range(20):
        cloud = random_cloud(rng, 9)
        a = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        cx = build_complex(cloud, a)
        edge_set = set(cx.edges)
        expected = [
            t
            for t in combinations(range(len(cloud.points)), 3)
            if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= edge_set
        ]
        assert list(cx.triangles) == expected


def test_sweep_unit_square_scales():
    out = sweep(UNIT_SQUARE, [Fraction(1, 2), Fraction(1)])
    assert [len(c.edges) for c in out] == [0, 4]


def test_sweep_single_scale():
    out = sweep(UNIT_SQUARE, [Fraction(1)])
    assert len(out) == 1 and len(out[0].edges) == 4


def test_sweep_requires_ascending_scales():
    with pytest.raises(ValueError):
        sweep(UNIT_SQUARE, [Fraction(1), Fraction(1)])


def test_sweep_requires_a_scale():
    with pytest.raises(ValueError, match="no scales given"):
        sweep(UNIT_SQUARE, [])


def test_sweep_rejects_a_complex_that_loses_edges(monkeypatch):
    # Scale a is built at 1/a, so the second complex of [1, 2] has no edges.
    monkeypatch.setattr(rips, "build_complex", lambda cloud, a: build_complex(cloud, 1 / a))
    with pytest.raises(MonotonicityError) as info:
        sweep(UNIT_SQUARE, [Fraction(1), Fraction(2)])
    assert str(info.value) == "edges at 1 not nested in 2"


def test_sweep_window_nesting_on_theorem_cloud():
    cfg = CloudConfig(
        sheets=(BinaryString((0,)), BinaryString((1,))),
        scale=Fraction(118097, 118098),
        cube_grid=1,
    )
    cloud = build_cloud(cfg)
    lo = Fraction(118097, 118098)
    scales = [lo + (1 - lo) * Fraction(k, 4) for k in range(5)]
    out = sweep(cloud, scales)
    for prev, nxt in zip(out, out[1:]):
        assert set(prev.edges) <= set(nxt.edges)
        assert set(prev.triangles) <= set(nxt.triangles)
    # the rigid pair built at the window's lower endpoint is an edge at
    # every swept scale
    rigid_pair = next(
        (i, j)
        for (i, j) in out[0].edges
        if sq_dist(cloud.points[i].coords, cloud.points[j].coords) == lo * lo
    )
    for cx in out:
        assert rigid_pair in cx.edges


def test_threshold_perturbation_removes_exactly_threshold_edges():
    cfg = CloudConfig(sheets=(BinaryString((0,)), BinaryString((1,))), scale=Fraction(1))
    cloud = build_cloud(cfg)
    a = Fraction(1)
    at = set(build_edges(cloud, a))
    just_below = set(build_edges(cloud, a - Fraction(1, 10**30)))
    removed = at - just_below
    assert removed == {
        (i, j)
        for (i, j) in at
        if sq_dist(cloud.points[i].coords, cloud.points[j].coords) == a * a
    }
    assert len(removed) == 2  # the two rigid pairs


@pytest.mark.parametrize(
    "cloud, a",
    [
        *[(random_cloud(random.Random(seed), 12), Fraction(seed % 4 + 3)) for seed in range(8)],
        (
            build_cloud(CloudConfig(default_sheets(16), Fraction(236195, 236196))),
            Fraction(236195, 236196),
        ),
        (
            build_cloud(
                CloudConfig(
                    default_sheets(4), Fraction(1), (Fraction(1, 3),), cube_grid=2,
                    include_cube0=True,
                )
            ),
            Fraction(1),
        ),
    ],
    ids=[*(f"random-{seed}" for seed in range(8)), "minimal-16", "grid-2-cube0"],
)
def test_edge_index_is_the_position_in_either_order(cloud, a):
    cx = build_complex(cloud, a)
    for r, (i, j) in enumerate(cx.edges):
        assert cx.edge_index(i, j) == cx.edge_index(j, i) == r
