"""Rigid-edge census, cycle completion, experiments and the lemma suite."""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips import cli, harness
from exactrips.digits import BinaryString, TernaryString
from exactrips.harness import (
    DisconnectionError,
    assert_rigid_free,
    complete_to_cycle,
    default_sheets,
    find_rigid_edges,
    run_lemma_suite,
    theorem_experiment,
)
from exactrips.homology import Cycle, betti01, cycle_is_closed, rigid_rank_lower_bound
from exactrips.rips import build_complex
from exactrips.space import DEFAULT_SCALES, Cloud, CloudConfig, LabeledPoint4, build_cloud

from oracles import betti_bruteforce, cloud_of, triangles_on_edges

WINDOW_LO = Fraction(118097, 118098)
INTERIOR = Fraction(236195, 236196)


def _minimal_complex(n, a, blocks=8):
    cloud = build_cloud(CloudConfig(default_sheets(n), a, blocks=blocks))
    return build_complex(cloud, a)


def test_default_sheets_distinct():
    for n in (1, 2, 3, 7, 16):
        sheets = default_sheets(n)
        assert len(sheets) == n
        assert len({s.digits for s in sheets}) == n


def test_find_rigid_edges_minimal_n4():
    cx = _minimal_complex(4, Fraction(1))
    rigid = find_rigid_edges(cx)
    assert len(rigid) == 4
    assert all(r.x_fiber == 0 for r in rigid)
    for r in rigid:
        s = cx.cloud.points[r.sheet_vertex]
        p = cx.cloud.points[r.partner_vertex]
        assert s.kind == "sheet" and p.kind == "cube1"
        assert p.coords[1:] == s.coords[1:]


def test_find_rigid_edges_none_without_partners():
    cfg = CloudConfig(
        sheets=default_sheets(2),
        scale=Fraction(1),
        x_values=(Fraction(1, 3),),
        include_partners=False,
        cube_grid=1,
    )
    cx = build_complex(build_cloud(cfg), Fraction(1))
    assert find_rigid_edges(cx) == []


def test_find_rigid_edges_all_twos_fiber():
    cx = _minimal_complex(2, WINDOW_LO)
    rigid = find_rigid_edges(cx)
    assert len(rigid) == 2
    assert all(r.x_fiber == 1 for r in rigid)


def test_diagonal_scale_edge_reported_not_rigid():
    # Two sheet points and one slab point at the scale distance from the
    # second sheet point diagonally.
    y = BinaryString((0,))
    sheet_a = LabeledPoint4((Fraction(0),) * 4, "sheet", Fraction(0), y)
    # diagonal endpoint: gap (3/5, 4/5, 0, 0) has length exactly 1
    diag = LabeledPoint4(
        (Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0)), "cube1"
    )
    cloud = cloud_of((sheet_a, diag))
    cx = build_complex(cloud, Fraction(1))
    assert find_rigid_edges(cx) == []
    assert cx.scale_edges.diagonal == (0,)


def test_assert_rigid_free_minimal():
    for a in (Fraction(1), INTERIOR, WINDOW_LO):
        cx = _minimal_complex(3, a)
        report = assert_rigid_free(cx, find_rigid_edges(cx))
        assert report.ok and report.checked == 3


def test_assert_rigid_free_refuses_an_edge_of_another_complex():
    small, big = _minimal_complex(3, INTERIOR), _minimal_complex(4, INTERIOR)
    census = find_rigid_edges(big)
    # Its partner vertices reach past the small complex's V = 6 vertices.
    assert max(r.partner_vertex for r in census) >= len(small.cloud)
    with pytest.raises(ValueError, match="of this complex does not join"):
        assert_rigid_free(small, census)
    # The small complex's own census edge, altered: another edge at its
    # index, an index out of range, or a partner that is not an end.
    r = find_rigid_edges(small)[0]
    for foreign in (
        replace(r, edge_index=r.edge_index + 1),
        replace(r, edge_index=-1),
        replace(r, edge_index=len(small.edges)),
        replace(r, partner_vertex=r.sheet_vertex),
    ):
        with pytest.raises(ValueError, match=f"edge {foreign.edge_index} of this complex"):
            assert_rigid_free(small, [r, foreign])
    assert assert_rigid_free(small, [r, r]).checked == 2


def test_assert_rigid_free_detects_violation():
    y = BinaryString((0,))
    sheet = LabeledPoint4((Fraction(0),) * 4, "sheet", Fraction(0), y)
    partner = LabeledPoint4(
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), "cube1"
    )
    intruder = LabeledPoint4(
        (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
        "sheet",
        Fraction(1, 2),
        y,
    )
    cloud = cloud_of((sheet, partner, intruder))
    cx = build_complex(cloud, Fraction(1))
    rigid = find_rigid_edges(cx)
    assert len(rigid) == 1
    report = assert_rigid_free(cx, rigid)
    assert not report.ok
    assert report.triangle_violations == ((0, (0, 1, 2)),)
    assert report.witness_violations == ((0, 2),)


def test_complete_to_cycle_minimal_is_a_square():
    cx = _minimal_complex(2, Fraction(1))
    e1, e2 = find_rigid_edges(cx)
    cycle = complete_to_cycle(e1, e2, cx)
    assert cycle.edge_indices == (0, 1, 2, 3)
    assert cycle_is_closed(cx, cycle)


def test_complete_to_cycle_identity_rejected():
    cx = _minimal_complex(2, Fraction(1))
    e1, _ = find_rigid_edges(cx)
    with pytest.raises(ValueError, match="^two distinct rigid edges required$"):
        complete_to_cycle(e1, e1, cx)


def test_complete_to_cycle_refuses_edges_of_another_complex():
    cx = _minimal_complex(3, INTERIOR)
    e1, e2, e3 = find_rigid_edges(cx)
    foreign = find_rigid_edges(_minimal_complex(4, Fraction(1)))
    # e2's edge index with e3's partner, and another complex's rigid edges,
    # at indices below, between, on and past those of cx.
    moved = replace(e2, partner_vertex=e3.partner_vertex)
    assert {e.edge_index for e in foreign} & {e.edge_index for e in (e1, e2, e3)}
    for other in (moved, *foreign):
        for pair in ((e3, other), (other, e3)):
            with pytest.raises(ValueError, match="is not a rigid edge of this complex$"):
                complete_to_cycle(*pair, cx)
    assert complete_to_cycle(e1, e2, cx).edge_indices


def test_theorem_experiment_reads_the_census_once_per_row_and_cycle(monkeypatch):
    # The benchmark's traced harness.rigid_scans counts these calls: one per
    # row, then one per complete_to_cycle call (n - 1 on a row of n rigid edges).
    calls = []

    def counted(cx):
        calls.append(cx)
        return find_rigid_edges(cx)

    monkeypatch.setattr(harness, "find_rigid_edges", counted)
    theorem_experiment([1, 2, 5, 9], [WINDOW_LO, INTERIOR])
    assert len(calls) == sum(2 * (1 + (n - 1)) for n in (1, 2, 5, 9))
    calls.clear()
    report = theorem_experiment([3, 4], [INTERIOR, Fraction(1)], cube_grid=2, include_cube0=True)
    assert [r.rigid_count for r in report.rows] == [3, 3, 4, 4]
    assert len(calls) == sum(1 + (r.rigid_count - 1) for r in report.rows)


def _with_a_midpoint(cfg):
    return _add_a_midpoint(build_cloud(cfg))


def _add_a_midpoint(cloud):
    # The cloud plus the midpoint of the first sheet point and its
    # {1}-slab partner (labelled cube0), which puts that rigid edge in a
    # triangle: the midpoint is at half the scale from both ends.
    L, rows = cloud.lattice
    s = next(i for i, (kind, _, _) in enumerate(cloud.labels) if kind == "sheet")
    p = next(i for i, r in enumerate(rows) if r != rows[s] and r[1:] == rows[s][1:])
    mid = [a + b for a, b in zip(rows[s], rows[p])]
    rows = [[2 * v for v in r] for r in rows] + [mid]
    return Cloud.on_lattice(2 * L, rows, [*cloud.labels, ("cube0", None, None)])


def test_a_rigid_edge_in_a_triangle_fails_its_row_without_a_lower_bound(monkeypatch):
    # rigid_rank_lower_bound refuses such a complex (its premise is that no
    # rigid edge has a triangle), so the row must fail on freeness instead.
    monkeypatch.setattr(harness, "build_cloud", _with_a_midpoint)
    cx = build_complex(_with_a_midpoint(CloudConfig(default_sheets(3), INTERIOR)), INTERIOR)
    rigid = find_rigid_edges(cx)
    assert assert_rigid_free(cx, rigid).triangle_violations
    with pytest.raises(ValueError, match="is rigid but occurs in triangle"):
        rigid_rank_lower_bound(cx, [r.edge_index for r in rigid], [])
    (row,) = theorem_experiment([3], [INTERIOR]).rows
    assert (row.vertices, row.rigid_count, row.rigid_free) == (7, 3, False)
    assert (row.lower_bound, row.verdict) == (0, False)


def test_cli_experiment_exits_1_on_a_rigid_edge_in_a_triangle(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "build_cloud", _with_a_midpoint)
    out = tmp_path / "rows.csv"
    argv = ["experiment", "--sheets", "3", "--scales", "236195/236196", "--out", str(out)]
    assert cli.main(argv) == 1
    assert "FAIL" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "3,236195/236196,7,15,11,1,0,3,false,0,fail"


def _cloud_with_a_repeated_row(kind):
    # default_sheets(2) at scale 1 read from CSV, with the first `kind`
    # row repeated at the end as vertex 4.
    rows = build_cloud(CloudConfig(default_sheets(2), Fraction(1))).to_csv_text().splitlines()
    first = next(r for r in rows if r.startswith(kind))
    return Cloud.from_csv_text("\n".join([*rows, first]) + "\n")


def test_a_repeated_partner_row_closes_a_cycle_through_a_shared_sheet_vertex():
    cx = build_complex(_cloud_with_a_repeated_row("cube1"), Fraction(1))
    rigid = find_rigid_edges(cx)
    assert [(r.sheet_vertex, r.partner_vertex) for r in rigid] == [(0, 1), (0, 4), (2, 3)]
    # The sheet-to-sheet path starts at its goal, vertex 0, and is empty:
    # the cycle is the two rigid edges and the partners' edge (1, 4).
    assert complete_to_cycle(rigid[0], rigid[1], cx) == Cycle((0, 2, 4))
    assert cx.edges[4] == (1, 4)


def test_a_repeated_sheet_row_is_a_witness_violation_of_the_other_copy():
    # Each copy is within the scale of the partner of the other copy's
    # rigid edge; the triangle (0, 1, 4) fails freeness as well.
    cx = build_complex(_cloud_with_a_repeated_row("sheet"), Fraction(1))
    rigid = find_rigid_edges(cx)
    assert [(r.edge_index, r.sheet_vertex, r.partner_vertex) for r in rigid[:2]] == [
        (0, 0, 1),
        (4, 4, 1),
    ]
    report = assert_rigid_free(cx, rigid)
    assert report.witness_violations == ((0, 4), (4, 0))
    assert report.triangle_violations == ((0, (0, 1, 4)), (4, (0, 1, 4)))
    assert not report.ok


@cache
def _rigid_in_triangles(kind, n=2, a=Fraction(1)):
    # A complex whose rigid edges lie in triangles, and its census; the
    # repeated sheet row is n = 2 at scale 1.
    if kind == "midpoint":
        cloud = _with_a_midpoint(CloudConfig(default_sheets(n), a))
    else:
        cloud = _cloud_with_a_repeated_row("sheet")
        if kind == "repeated sheet row and midpoint":  # edges in two triangles
            cloud = _add_a_midpoint(cloud)
    cx = build_complex(cloud, a)
    return cx, find_rigid_edges(cx)


RIGID_IN_TRIANGLES = [
    *(("midpoint", n, a) for n in (1, 2, 3, 4) for a in DEFAULT_SCALES),
    ("repeated sheet row",),
    ("repeated sheet row and midpoint",),
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(RIGID_IN_TRIANGLES), st.data())
def test_triangle_violations_are_each_given_edges_triangles_in_order(case, data):
    cx, census = _rigid_in_triangles(*case)
    assert triangles_on_edges(cx, [r.edge_index for r in census])
    rigid = data.draw(st.lists(st.sampled_from(census), max_size=2 * len(census)))
    report = assert_rigid_free(cx, rigid)
    assert report.triangle_violations == tuple(triangles_on_edges(cx, [r.edge_index for r in rigid]))


def test_a_rigid_edge_given_twice_is_listed_twice():
    # Edges 0 = (0, 1) and 5 = (1, 4) join the two copies of a sheet point
    # to their partner; the midpoint, vertex 5, is the apex of one more
    # triangle on each.
    cx, (r0, r5, _) = _rigid_in_triangles("repeated sheet row and midpoint")
    assert [cx.edges[r.edge_index] for r in (r0, r5)] == [(0, 1), (1, 4)]
    report = assert_rigid_free(cx, [r5, r0, r5])
    assert report.checked == 3
    assert report.triangle_violations == (
        (5, (0, 1, 4)),
        (5, (1, 4, 5)),
        (0, (0, 1, 4)),
        (0, (0, 1, 5)),
        (5, (0, 1, 4)),
        (5, (1, 4, 5)),
    )
    assert report.witness_violations == ((5, 0), (0, 4), (5, 0))


def test_complete_to_cycle_closed_on_bigger_configs():
    cx = _minimal_complex(6, INTERIOR)
    rigid = find_rigid_edges(cx)
    for k in range(1, 6):
        cycle = complete_to_cycle(rigid[0], rigid[k], cx)
        assert cycle_is_closed(cx, cycle)
        assert rigid[0].edge_index in cycle.edge_indices
        assert rigid[k].edge_index in cycle.edge_indices


def test_complete_to_cycle_disconnection():
    # Hand-built cloud: two rigid pairs in columns too far apart for any
    # non-rigid connecting path at scale 1.
    y0, y1 = BinaryString((0,)), BinaryString((1,))
    far = Fraction(3)
    pts = (
        LabeledPoint4((Fraction(0), Fraction(0), Fraction(0), Fraction(0)), "sheet", Fraction(0), y0),
        LabeledPoint4((Fraction(1), Fraction(0), Fraction(0), Fraction(0)), "cube1"),
        LabeledPoint4((Fraction(0), far, far, far), "sheet", Fraction(0), y1),
        LabeledPoint4((Fraction(1), far, far, far), "cube1"),
    )
    cloud = cloud_of(pts)
    cx = build_complex(cloud, Fraction(1))
    rigid = find_rigid_edges(cx)
    assert len(rigid) == 2
    with pytest.raises(DisconnectionError):
        complete_to_cycle(rigid[0], rigid[1], cx)


def test_theorem_experiment_minimal_betti_law():
    report = theorem_experiment([1, 2, 3, 5, 8], [Fraction(1)])
    assert report.all_pass
    by_n = {r.n: r for r in report.rows}
    assert [by_n[n].betti1 for n in (2, 3, 5, 8)] == [1, 2, 4, 7]
    assert by_n[1].betti1 == 0
    # brute-force cross-check where the oracle applies
    for n in (2, 3, 5):
        cloud = build_cloud(CloudConfig(default_sheets(n), Fraction(1)))
        assert betti_bruteforce(cloud, Fraction(1)) == (1, n - 1)


def test_theorem_experiment_full_config_lower_bound():
    report = theorem_experiment(
        [4], [INTERIOR], cube_grid=2, include_cube0=True
    )
    row = report.rows[0]
    assert row.verdict
    assert row.betti1 >= 3
    assert row.lower_bound == 3
    assert row.rigid_count == 4 and row.rigid_free


def test_theorem_experiment_rejects_unsorted_counts():
    with pytest.raises(ValueError):
        theorem_experiment([3, 2], [Fraction(1)])


def test_theorem_experiment_rejects_empty_lists():
    # An empty list would give a header-only report that passes vacuously.
    for counts, scales in (([], [Fraction(1)]), ([2], []), ([], [])):
        with pytest.raises(ValueError, match="at least one sheet count and one scale"):
            theorem_experiment(counts, scales)


def test_window_scale_grid_rigid_and_betti():
    # >= 5 scales across the window with assorted fiber values.
    lo = WINDOW_LO
    scales = [lo + (1 - lo) * Fraction(k, 5) for k in range(6)]
    report = theorem_experiment([3], scales)
    assert report.all_pass
    for row in report.rows:
        assert row.rigid_count == 3 and row.rigid_free
        assert row.betti1 == 2 and row.lower_bound == 2


def test_single_cycle_has_nonzero_class():
    from exactrips.homology import rigid_rank_lower_bound

    cx = _minimal_complex(2, Fraction(1))
    rigid = find_rigid_edges(cx)
    cycle = complete_to_cycle(rigid[0], rigid[1], cx)
    assert (
        rigid_rank_lower_bound(cx, [r.edge_index for r in rigid], [cycle]) == 1
    )


def test_lemma_suite_passes_and_is_deterministic():
    rep1 = run_lemma_suite(seed=7, samples=200, blocks=6)
    rep2 = run_lemma_suite(seed=7, samples=200, blocks=6)
    assert rep1.passed
    assert rep1 == rep2
    assert rep1.to_json() == rep2.to_json()
    assert rep1.parabola_checks == 128
    assert rep1.equivalence_c2 >= Fraction(1, 81)
    assert rep1.equivalence_c1 <= 1


def test_lemma_suite_rejects_zero_samples():
    with pytest.raises(ValueError):
        run_lemma_suite(seed=1, samples=0, blocks=4)


def test_close_expanding_negative_control():
    from exactrips.embedding import check_close_expanding

    ok, cex = check_close_expanding(
        [("p", "q", Fraction(1), Fraction(0))], Fraction(1, 243)
    )
    assert not ok and cex is not None


def test_experiment_report_csv_shape():
    report = theorem_experiment([2], [Fraction(1)])
    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == (
        "n,scale,vertices,edges,triangles,betti0,betti1,"
        "rigid_count,rigid_free,lower_bound,verdict"
    )
    assert lines[1] == "2,1/1,4,4,0,1,1,2,true,1,pass"


def test_experiment_deterministic():
    kwargs = dict(sheet_counts=[2, 3], scales=[Fraction(1), INTERIOR])
    assert theorem_experiment(**kwargs) == theorem_experiment(**kwargs)
    assert (
        theorem_experiment(**kwargs).to_csv_text()
        == theorem_experiment(**kwargs).to_csv_text()
    )


@pytest.mark.parametrize("scale", [0.99999999, 1.0, True, False])
def test_float_and_bool_scales_are_refused(scale):
    # A float used to run at its binary expansion, and True at scale 1.
    with pytest.raises(ValueError, match="config key 'scale' must be Fraction or int"):
        theorem_experiment([2], [scale])


# Taken before theorem_experiment passed scales through unchanged.
SMALL_EXPERIMENT_CSV = (
    "n,scale,vertices,edges,triangles,betti0,betti1,rigid_count,rigid_free,lower_bound,verdict\n"
    "2,1/1,4,4,0,1,1,2,true,1,pass\n"
    "2,236195/236196,4,4,0,1,1,2,true,1,pass\n"
    "3,1/1,6,9,2,1,2,3,true,2,pass\n"
    "3,236195/236196,6,9,2,1,2,3,true,2,pass\n"
)


@pytest.mark.parametrize("top", [1, Fraction(1)])
def test_int_and_fraction_scales_keep_csv_bytes(top):
    report = theorem_experiment([2, 3], [top, INTERIOR])
    assert report.to_csv_text() == SMALL_EXPERIMENT_CSV
    assert all(type(row.scale) is Fraction for row in report.rows)
    assert CloudConfig(default_sheets(2), top) == CloudConfig(default_sheets(2), Fraction(1))


def test_parabola_failure_records_the_grid_point(monkeypatch):
    # The grid is checked in ints over 31 den(r); a failure is written with
    # r and x as Fractions, x = r (2k - 31)/31.
    import exactrips.harness as harness

    seen = []

    def refuse_k5(rn, xn):
        seen.append((rn, xn))
        return xn != rn * (2 * 5 - 31) // 31

    monkeypatch.setattr(harness, "circle_above_parabola_cleared", refuse_k5)
    rep = run_lemma_suite(seed=1, samples=1, blocks=1)
    assert rep.parabola_checks == len(seen) == 128
    assert not rep.passed
    assert rep.parabola_failures == tuple(
        {"r": r, "x": x}
        for r, x in (("1/4", "-21/124"), ("1/2", "-21/62"), ("1/1", "-21/31"), ("2/1", "-42/31"))
    )


def test_roundtrip_mismatch_records_the_decoded_digits(monkeypatch):
    # A decode that returns t one step off: every round trip fails, and
    # each record carries the digits decode returned.
    real = harness.decode

    def off_by_one(strings, blocks):
        t, y = real(strings, blocks)
        return TernaryString.from_int((t.value + 1) % 3**t.depth, t.depth), y

    monkeypatch.setattr(harness, "decode", off_by_one)
    rep = run_lemma_suite(seed=1, samples=3, blocks=1)
    assert rep.passed is False
    assert len(rep.roundtrip_failures) == rep.roundtrips == 3
    for record in rep.roundtrip_failures:
        assert list(record) == ["t", "y", "t_back", "y_back"]
        t_back = TernaryString.from_text(record["t_back"])
        assert t_back.depth == 6
        assert t_back.value != TernaryString.from_text(record["t"]).value_at(6)
        assert len(record["y_back"]) == 1
    assert not rep.reserved_failures


def test_ultrametric_failure_records_the_triple(monkeypatch):
    # An asymmetric delta3 (delta3(s, t) != delta3(t, s) for s != t) fails
    # every triple whose first two strings differ, recorded as s, t, u.
    real = harness.delta3

    def lopsided(s, t):
        return real(s, t) * 2 if s.value < t.value else real(s, t)

    monkeypatch.setattr(harness, "delta3", lopsided)
    rep = run_lemma_suite(seed=1, samples=20, blocks=1)
    assert rep.passed is False
    assert rep.ultrametric_failures
    for record in rep.ultrametric_failures:
        assert list(record) == ["s", "t", "u"]
        s, t = (TernaryString.from_text(record[k]) for k in "st")
        assert len(record["u"]) == s.depth == t.depth and s != t
