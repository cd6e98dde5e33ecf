"""The two-clique certificate against collapse and rank.

On every minimal row the tests build, the certificate must hold and give
what betti01, n_triangles and (for small n) the brute-force oracle give.
Mutants with one clique edge dropped, or one cross edge added or
dropped, must fail it, name the first vertex whose neighborhood is wrong
and the neighbor it lacks or should not have, and send
theorem_experiment to betti01.  (The cliques are complete, so no clique
edge can be added.)
"""

from math import comb

import pytest

from exactrips import harness
from exactrips.harness import find_rigid_edges, minimal_config, theorem_experiment
from exactrips.homology import betti01, two_cliques
from exactrips.rips import RipsComplex2, build_complex
from exactrips.space import DEFAULT_SCALES, build_cloud

from oracles import betti_bruteforce

INTERIOR = DEFAULT_SCALES[1]


def _minimal(n, a=INTERIOR):
    cloud = build_cloud(minimal_config(n, a))
    cx = build_complex(cloud, a)
    return cloud, cx, find_rigid_edges(cx)


@pytest.mark.parametrize("a", DEFAULT_SCALES, ids=["hi", "interior", "lo"])
def test_certificate_holds_on_every_minimal_row(a):
    for n in range(1, 33):
        cloud, cx, rigid = _minimal(n, a)
        counts, defect = two_cliques(cx, rigid)
        assert defect is None and len(rigid) == n
        assert counts == (*betti01(cx), cx.n_triangles) == (1, n - 1, 2 * comb(n, 3))
        if n <= 4:
            assert counts[:2] == betti_bruteforce(cloud, a)


def _mutant(cx, add=(), drop=()):
    edges = (set(cx.edges) | set(add)) - set(drop)
    return RipsComplex2(cx.cloud, cx.scale, tuple(sorted(edges)))


def _mutants(n=5):
    """(name, mutant, its first wrong vertex, the neighbor named, has it)."""
    _, cx, rigid = _minimal(n)
    sheets = sorted(r.sheet_vertex for r in rigid)
    partners = sorted(r.partner_vertex for r in rigid)
    r0, r1 = rigid[0], rigid[-1]
    cases = []
    for side in (sheets, partners):
        u, v = side[1], side[3]
        cases.append(("drop clique", _mutant(cx, drop=[(u, v)]), u, v, False))
    s, p = r0.sheet_vertex, r1.partner_vertex
    u, v = min(s, p), max(s, p)
    cases.append(("add cross", _mutant(cx, add=[(u, v)]), u, v, True))
    s, p = r1.sheet_vertex, r1.partner_vertex
    u, v = min(s, p), max(s, p)
    cases.append(("drop cross", _mutant(cx, drop=[(u, v)]), u, v, False))
    return cx, rigid, cases


def test_mutants_fail_and_name_the_vertex_and_neighbor():
    cx, rigid, cases = _mutants()
    for name, mutant, v, w, has in cases:
        assert len(mutant.edges) == len(cx.edges) + (1 if has else -1), name
        counts, defect = two_cliques(mutant, rigid)
        assert counts is None and defect == (v, w), name
        assert (mutant.neighbor_masks[v] >> w & 1) == has, name


def test_dropped_rigid_edge_leaves_its_ends_uncovered():
    # The mutant's own census no longer finds the dropped rigid edge, so
    # its lower end is the first vertex on no rigid edge.
    _, rigid, cases = _mutants()
    ((_, mutant, v, _, _),) = [c for c in cases if c[0] == "drop cross"]
    own = find_rigid_edges(mutant)
    assert len(own) == len(rigid) - 1
    assert two_cliques(mutant, own) == (None, (v, None))


@pytest.mark.parametrize("n,skip", [(1, 0), (3, 0), (3, 2)])
def test_vertex_on_no_rigid_edge_is_named(n, skip):
    _, cx, rigid = _minimal(n)
    r = rigid[skip]
    rest = rigid[:skip] + rigid[skip + 1 :]
    assert two_cliques(cx, rest) == (None, (min(r.sheet_vertex, r.partner_vertex), None))


def test_rigid_edges_sharing_an_end_are_rejected():
    _, cx, rigid = _minimal(3)
    with pytest.raises(ValueError, match="distinct endpoints"):
        two_cliques(cx, [rigid[0], rigid[0]])


def _routed(monkeypatch, complex_for=None):
    """Record the two_cliques verdicts and betti01 calls theorem_experiment makes."""
    verdicts, bettis = [], []
    certify, betti = harness.two_cliques, harness.betti01

    def certified(cx, rigid):
        verdicts.append(certify(cx, rigid))
        return verdicts[-1]

    def ranked(cx):
        bettis.append((betti(cx), cx.n_triangles))
        return bettis[-1][0]

    monkeypatch.setattr(harness, "two_cliques", certified)
    monkeypatch.setattr(harness, "betti01", ranked)
    if complex_for is not None:
        monkeypatch.setattr(harness, "build_complex", lambda cloud, a: complex_for)
    return verdicts, bettis


def test_minimal_rows_take_the_certificate(monkeypatch):
    verdicts, bettis = _routed(monkeypatch)
    report = theorem_experiment(range(1, 9), DEFAULT_SCALES)
    assert report.all_pass and len(verdicts) == len(report.rows) and not bettis
    assert all(defect is None for _, defect in verdicts)


def test_mutant_rows_take_the_betti01_route(monkeypatch):
    for name, mutant, *_ in _mutants()[2]:
        monkeypatch.undo()
        verdicts, bettis = _routed(monkeypatch, complex_for=mutant)
        if name == "add cross":
            # The added edge puts a rigid edge in a triangle, which the
            # lower bound refuses after the Betti numbers are ranked.
            with pytest.raises(ValueError, match="is rigid but occurs in triangle"):
                theorem_experiment([5], [INTERIOR])
        else:
            (row,) = theorem_experiment([5], [INTERIOR]).rows
            assert (row.betti0, row.betti1, row.triangles) == (*bettis[0][0], bettis[0][1])
            assert (row.edges, row.triangles) == (len(mutant.edges), mutant.n_triangles)
        assert len(verdicts) == 1 and verdicts[0][0] is None, name
        assert len(bettis) == 1, name


@pytest.mark.parametrize("cube_grid,include_cube0", [(2, False), (0, True), (2, True)])
def test_grid_rows_never_take_the_certificate(monkeypatch, cube_grid, include_cube0):
    verdicts, bettis = _routed(monkeypatch)
    report = theorem_experiment([2, 3], [INTERIOR], 8, cube_grid, include_cube0)
    assert not verdicts and len(bettis) == len(report.rows) == 2
    for row, ((b0, b1), triangles) in zip(report.rows, bettis):
        assert (row.betti0, row.betti1, row.triangles) == (b0, b1, triangles)
