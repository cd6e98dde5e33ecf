"""Cycle completion on neighbor masks against the adjacency-list referee.

`complete_to_cycle` runs its breadth-first searches over int neighbor
masks with the rigid neighbors cleared, and locates path edges by
bisection; `oracles.bfs_cycle_completion` walks ascending adjacency lists
and an edge dict, skipping the rigid edge indices of a Fraction scan.
Both must return the same chain, or both raise DisconnectionError.  A
path that comes back one edge short must raise OpenChainError.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips import harness
from exactrips.cli import main
from exactrips.digits import BinaryString
from exactrips.harness import (
    DisconnectionError,
    OpenChainError,
    complete_to_cycle,
    default_sheets,
    find_rigid_edges,
)
from exactrips.rips import build_complex
from exactrips.space import DEFAULT_SCALES, CloudConfig, LabeledPoint4, build_cloud

from oracles import bfs_cycle_completion, cloud_of, fraction_scale_edges, neighbor_lists

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def _sample_complex(n, scale, cube_grid):
    cfg = CloudConfig(default_sheets(n), scale, cube_grid=cube_grid, include_cube0=cube_grid > 0)
    return build_complex(build_cloud(cfg), cfg.scale)


def _layers(keep, m, a):
    # Kept points of the grid {0..m}^2 on a sheet layer at first coordinate
    # 0 and on a {1}-slab layer at first coordinate a: a kept point above a
    # kept point is a rigid pair at scale a, and paths in a layer are walks
    # on the grid (with diagonals when a >= sqrt 2).
    slots = product(((0, "sheet"), (a, "cube1")), product(range(m + 1), repeat=2))
    pts = tuple(
        LabeledPoint4(
            (Fraction(layer), Fraction(u), Fraction(v), Fraction(0)),
            kind,
            *((Fraction(0), BinaryString((0,))) if kind == "sheet" else ()),
        )
        for ((layer, kind), (u, v)), kept in zip(slots, keep)
        if kept
    )
    return build_complex(cloud_of(pts), a)


@st.composite
def cases(draw):
    """(kind, complex, two distinct rigid edges of it)."""
    kind = draw(st.sampled_from(("minimal", "grid", "layers")))
    if kind == "minimal":
        cx = _sample_complex(draw(st.integers(2, 6)), draw(st.sampled_from(DEFAULT_SCALES)), 0)
    elif kind == "grid":
        cx = _sample_complex(
            draw(st.integers(2, 8)), draw(st.sampled_from(DEFAULT_SCALES)), draw(st.integers(1, 3))
        )
    else:
        m = draw(st.integers(1, 4))
        size = 2 * (m + 1) ** 2
        keep = draw(st.lists(st.integers(0, 9).map(lambda k: k < 8), min_size=size, max_size=size))
        a = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
        cx = _layers(keep, m, a)
    rigid = find_rigid_edges(cx)
    if len(rigid) < 2:
        return kind, cx, None, None
    i, j = draw(st.lists(st.integers(0, len(rigid) - 1), min_size=2, max_size=2, unique=True))
    return kind, cx, rigid[i], rigid[j]


def _shortest_paths(nbrs, banned_pairs, start, goal):
    # (length, number) of shortest paths from start to goal.
    dist, ways, frontier = {start: 0}, Counter({start: 1}), [start]
    while frontier and goal not in dist:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if (min(u, v), max(u, v)) in banned_pairs:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
                if dist[v] == dist[u] + 1:
                    ways[v] += ways[u]
        frontier = nxt
    return dist.get(goal), ways[goal]


def test_complete_to_cycle_matches_adjacency_list_referee():
    seen = Counter()

    @SETTINGS
    @given(cases())
    def check(case):
        kind, cx, e1, e2 = case
        if e1 is None:
            return
        banned = {r[0] for r in fraction_scale_edges(cx)[0]}
        try:
            expected = bfs_cycle_completion(cx, e1, e2, banned)
        except DisconnectionError:
            expected = DisconnectionError
        try:
            got = complete_to_cycle(e1, e2, cx).edge_indices
        except DisconnectionError:
            got = DisconnectionError
        assert got == expected
        seen[kind, "disconnected" if got is DisconnectionError else "closed"] += 1
        nbrs = neighbor_lists(cx.n_vertices, cx.edges)
        banned_pairs = {cx.edges[e] for e in banned}
        for start, goal in ((e1.partner_vertex, e2.partner_vertex), (e2.sheet_vertex, e1.sheet_vertex)):
            length, ways = _shortest_paths(nbrs, banned_pairs, start, goal)
            if length is not None and length > 1 and ways > 1:
                seen[kind, "long path with ties"] += 1

    check()
    for kind in ("minimal", "grid", "layers"):
        assert seen[kind, "closed"] > 0, seen
    assert seen["layers", "disconnected"] > 0, seen
    assert seen["layers", "long path with ties"] > 0, seen


def test_direct_edges_give_the_referee_chains():
    # Rows where each pair of rigid edges closes through two direct edges,
    # a 4-cycle; the chains must still be the breadth-first referee's.
    lengths = Counter()
    for n, cube_grid in ((2, 0), (5, 0), (33, 0), (8, 2)):
        for scale in DEFAULT_SCALES:
            cx = _sample_complex(n, scale, cube_grid)
            rigid = find_rigid_edges(cx)
            banned = {r[0] for r in fraction_scale_edges(cx)[0]}
            if n <= 8:
                pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            else:
                pairs = [(0, j) for j in range(1, n)] + [(j, j - 1) for j in range(1, n)]
            for i, j in pairs:
                got = complete_to_cycle(rigid[i], rigid[j], cx).edge_indices
                assert got == bfs_cycle_completion(cx, rigid[i], rigid[j], banned)
                lengths[cube_grid, len(got)] += 1
    assert lengths == {(0, 4): 3 * (2 + 20 + 64), (2, 4): 3 * 56}


def _one_path_short(monkeypatch):
    # The first shortest path cycle completion asks for comes back one edge
    # short, so the chain it closes has two odd vertices.
    bfs, calls = harness._bfs_path, []

    def short(*args):
        calls.append(bfs(*args))
        return calls[-1][:-1] if len(calls) == 1 else calls[-1]

    monkeypatch.setattr(harness, "_bfs_path", short)
    return calls


def test_a_path_one_edge_short_raises_open_chain(monkeypatch):
    cx = _sample_complex(2, DEFAULT_SCALES[1], 0)
    e1, e2 = find_rigid_edges(cx)
    calls = _one_path_short(monkeypatch)
    with pytest.raises(OpenChainError, match=r"^cycle completion produced an open chain \(bug\)$"):
        complete_to_cycle(e1, e2, cx)
    assert len(calls) == 2 and len(calls[0]) == 1
    assert complete_to_cycle(e1, e2, cx).edge_indices  # the next call closes


def test_open_chain_exits_2_from_experiment(monkeypatch, tmp_path, capsys):
    _one_path_short(monkeypatch)
    out = tmp_path / "exp.csv"
    assert main(["experiment", "--sheets", "2", "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OpenChainError: cycle completion produced an open chain (bug)\n"
