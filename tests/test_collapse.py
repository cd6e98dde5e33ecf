"""The edge-collapse Betti engine against the full flag route.

`betti01` ranks the 2-skeleton left after dominated edges are collapsed;
its referees are the full flag route (every triangle, full boundary
ranks), the dense brute-force oracle, a set-based domination test for
the fixpoint, and the collapse that tries every candidate dominator,
which the hinted search must match edge for edge.  The paper's
mechanism is checked as an invariant: a rigid edge lies in no triangle,
so no vertex dominates it and it survives every collapse.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips.harness import default_sheets, find_rigid_edges
from exactrips.homology import betti01, collapse_edges
from exactrips.rips import RipsComplex2, build_complex
from exactrips.space import DEFAULT_SCALES, CloudConfig, LabeledPoint4, build_cloud

from oracles import (
    betti_bruteforce,
    cloud_of,
    collapse_referee,
    dominated_edges,
    full_flag_betti01,
    merge_intersect_triangles,
    triangles_on_edges,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _cloud(coords):
    return cloud_of(tuple(LabeledPoint4(tuple(map(Fraction, c)), "cube1") for c in coords))


@st.composite
def clouds(draw, max_points):
    """(cloud, a): either points on a coarse rational grid, so many pairs
    sit at equal distances and the complexes have cliques and ties, or a
    random subset of the integer grid {0..m}^2 or {0..m}^3, whose
    complexes have holes and triangles that no collapse removes."""
    if draw(st.booleans()):
        den = draw(st.sampled_from((1, 2, 3)))
        coord = st.integers(-2 * den, 2 * den).map(lambda k: Fraction(k, den))
        dims = draw(st.integers(1, 4))
        n = draw(st.integers(0, max_points))
        coords = [[draw(coord) if d < dims else 0 for d in range(4)] for _ in range(n)]
        return _cloud(coords), Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    dims = draw(st.integers(2, 3))
    grid = list(product(range(draw(st.integers(1, 4 if dims == 2 else 2)) + 1), repeat=dims))
    coords = [p + (0,) * (4 - dims) for p in grid if draw(st.integers(0, 9)) < 7]
    a = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(2))))
    return _cloud(coords[:max_points]), a


def test_octahedron_keeps_every_edge():
    # The flag 2-sphere: each edge's two common neighbors are antipodal, so
    # none dominates it, and the triangle rank alone fills the 1-cycles.
    axes = [[0] * 4 for _ in range(6)]
    for k in range(3):
        axes[2 * k][k], axes[2 * k + 1][k] = 1, -1
    cx = build_complex(_cloud(axes), Fraction(3, 2))
    assert (len(cx.edges), cx.n_triangles) == (12, 8)
    assert collapse_edges(cx).edges == cx.edges
    assert betti01(cx) == full_flag_betti01(cx) == (1, 0)


@SETTINGS
@given(clouds(max_points=12))
def test_betti01_matches_full_flag_route_and_bruteforce(case):
    cloud, a = case
    cx = build_complex(cloud, a)
    assert betti01(cx) == full_flag_betti01(cx) == betti_bruteforce(cloud, a)


@SETTINGS
@given(clouds(max_points=40))
def test_betti01_matches_full_flag_route_on_larger_clouds(case):
    cloud, a = case
    cx = build_complex(cloud, a)
    assert betti01(cx) == full_flag_betti01(cx)


@SETTINGS
@given(clouds(max_points=30))
def test_collapse_stops_at_a_fixpoint(case):
    cloud, a = case
    cx = build_complex(cloud, a)
    kept = list(collapse_edges(cx).edges)
    assert kept == [e for e in cx.edges if e in set(kept)]  # a subsequence
    assert dominated_edges(cx.n_vertices, kept) == []
    assert list(collapse_edges(cx).edges) == kept
    # An edge in no triangle has no common neighbor to dominate it.
    in_triangles = {e for e, _ in triangles_on_edges(cx, range(len(cx.edges)))}
    assert {cx.edges[e] for e in range(len(cx.edges)) if e not in in_triangles} <= set(kept)


@SETTINGS
@given(clouds(max_points=30))
def test_betti01_ranks_a_complex_whose_masks_are_its_edges(case):
    # collapse_edges sets its complex's masks from collapse's closed masks;
    # they must be exactly the masks that complex's own edge list builds.
    cx = build_complex(*case)
    cc = collapse_edges(cx)
    assert (cc.cloud, cc.scale, list(cc.edges)) == (cx.cloud, cx.scale, collapse_referee(cx))
    assert cc.neighbor_masks == RipsComplex2(cc.cloud, cc.scale, cc.edges).neighbor_masks


# Pass 1 deletes (1, 4) and then (1, 5), each found by the fallback, so the
# hint at 1 ends as 0.  Pass 2 deletes (0, 1), dominated by 3, and then
# tries (1, 3) with that hint: 0 has lost its edge to 1, and 1 and 3 have
# no other common neighbor, so a hint test that skipped u's own bit would
# find N[1] & N[3] - {1} = {3} inside N[0] and delete an edge in no triangle.
# Pass 3, the last, meets the same stale hint at (1, 3) again.
STALE_HINT_EDGES = ((0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4))


def test_a_hint_that_lost_its_edge_to_u_is_refused():
    cx = RipsComplex2(range(6), Fraction(1), STALE_HINT_EDGES)
    kept = list(collapse_edges(cx).edges)
    assert kept == collapse_referee(cx) == [(0, 2), (0, 3), (0, 5), (1, 3), (3, 4)]
    replayed, cases = _search_cases(cx)
    assert replayed == kept
    assert cases["hint lost its edge to u"] == 2


@SETTINGS
@given(clouds(max_points=30))
def test_triangles_count_order_and_merge_intersection_agree(case):
    cloud, a = case
    cx = build_complex(cloud, a)
    assert list(cx.triangles) == merge_intersect_triangles(cx)
    assert cx.n_triangles == len(cx.triangles)


def _assert_rigid_edges_survive(cloud, a):
    cx = build_complex(cloud, a)
    rigid = find_rigid_edges(cx)
    assert rigid
    kept = set(collapse_edges(cx).edges)
    assert {cx.edges[r.edge_index] for r in rigid} <= kept
    return cx


@pytest.mark.parametrize("a", DEFAULT_SCALES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rigid_edges_survive_collapse_on_minimal_clouds(n, a):
    cx = _assert_rigid_edges_survive(build_cloud(CloudConfig(default_sheets(n), a)), a)
    assert betti01(cx) == full_flag_betti01(cx) == (1, n - 1)


@pytest.mark.parametrize("cube_grid", [1, 2, 3])
def test_rigid_edges_survive_collapse_on_cube_grid_clouds(cube_grid):
    for n in (2, 4):
        a = DEFAULT_SCALES[cube_grid % len(DEFAULT_SCALES)]
        cfg = CloudConfig(default_sheets(n), a, cube_grid=cube_grid, include_cube0=True)
        cx = _assert_rigid_edges_survive(build_cloud(cfg), a)
        assert betti01(cx) == full_flag_betti01(cx)


SEARCH_CASES = {
    "hint hit",
    "hint miss rescued",
    "fallback passed a non-dominator",
    "survivor with a candidate",
    "hint lost its edge to u",
}


def _search_cases(cx) -> tuple[list[tuple[int, int]], Counter]:
    """Replay the hinted dominator search on Python sets: the survivors, and
    how often each of SEARCH_CASES decided an edge.  The hint at u is the
    dominator last found at u; the fallback takes the lowest dominator."""
    closed = [{v} for v in range(cx.n_vertices)]
    for u, v in cx.edges:
        closed[u].add(v)
        closed[v].add(u)
    last, seen = {}, Counter()
    alive, removed = list(cx.edges), True
    while removed:
        kept = []
        for u, v in alive:
            common = closed[u] & closed[v]
            rest = sorted(common - {u, v})
            dominators = [w for w in rest if common <= closed[w]]
            hint = last.get(u)
            seen["hint lost its edge to u"] += hint is not None and u not in closed[hint]
            if hint in dominators:
                seen["hint hit"] += 1
            elif dominators:
                seen["hint miss rescued"] += hint in rest
                seen["fallback passed a non-dominator"] += dominators[0] != rest[0]
                last[u] = dominators[0]
            else:
                seen["survivor with a candidate"] += bool(rest)
                kept.append((u, v))
                continue
            closed[u].remove(v)
            closed[v].remove(u)
        alive, removed = kept, len(kept) < len(alive)
    return alive, seen


def _fixed_referee_complexes():
    for a in DEFAULT_SCALES:
        for n in (1, 2, 3, 5, 8, 33):
            yield build_complex(build_cloud(CloudConfig(default_sheets(n), a)), a)
        for cube_grid in (1, 2, 3, 4):
            cfg = CloudConfig(default_sheets(2), a, cube_grid=cube_grid, include_cube0=True)
            yield build_complex(build_cloud(cfg), a)
    yield RipsComplex2(range(6), Fraction(1), STALE_HINT_EDGES)


def test_collapse_matches_referee_and_meets_every_search_case():
    seen = Counter()

    def check(cx):
        kept = list(collapse_edges(cx).edges)
        assert kept == collapse_referee(cx)
        replayed, cases = _search_cases(cx)
        assert replayed == kept
        seen.update(cases)

    @SETTINGS
    @given(clouds(max_points=30))
    def check_random(case):
        check(build_complex(*case))

    check_random()
    for cx in _fixed_referee_complexes():
        check(cx)
    assert {case for case, k in seen.items() if k} == SEARCH_CASES
