"""Records written from their own fields, and the lemma suite's folded
close-expanding verdict, against the hand-listed builders in
tests/oracles.py and against check_close_expanding.

The golden digests pin only passing reports; these tests also cover
reports with false facts, close-expanding counterexamples and a
malformed image.
"""

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from exactrips import harness
from exactrips.cli import main
from exactrips.digits import BinaryString, TernaryString, json_fields
from exactrips.embedding import check_close_expanding, check_facts
from exactrips.harness import default_sheets, find_rigid_edges, run_lemma_suite
from exactrips.rips import build_complex
from exactrips.space import DEFAULT_SCALES, CloudConfig, build_cloud, scale_window

from oracles import (
    close_expanding_record,
    cloud_config_dict,
    fact_report_dict,
    lemma_suite_dict,
    rigid_edge_row,
)

C = Fraction(1, 243)  # the close-expanding constant; the bound is squared


@dataclass(frozen=True)
class _Record:
    q: Fraction
    s: TernaryString
    b: BinaryString
    nested: tuple
    d: dict | None
    n: int
    ok: bool


def test_json_fields_values():
    r = _Record(
        q=Fraction(-3, 6),
        s=TernaryString.from_text("0120"),
        b=BinaryString.from_text(""),
        nested=(Fraction(2), (None, BinaryString.from_text("01")), ({"k": 1},)),
        d=None,
        n=7,
        ok=False,
    )
    assert json_fields(r) == {
        "q": "-1/2",
        "s": "0120",
        "b": "",
        "nested": ["2/1", [None, "01"], [{"k": 1}]],
        "d": None,
        "n": 7,
        "ok": False,
    }


def _seeded_pairs(seed: int, count: int, blocks: int):
    rng = random.Random(seed)
    return [harness._random_pair(rng, blocks) for _ in range(count)]


@pytest.mark.parametrize("seed,blocks", [(1, 1), (2, 3), (3, 12)])
def test_fact_report_dict_matches_referee(seed, blocks):
    for p, q in _seeded_pairs(seed, 40, blocks):
        r = check_facts(p, q, blocks)
        assert r.to_json_dict() == fact_report_dict(r)
        false_facts = replace(r, fact2=False, fact4=False, combined=False)
        assert not false_facts.all_hold
        assert false_facts.to_json_dict() == fact_report_dict(false_facts)


def _seeded_configs():
    lo, hi = scale_window()
    for seed in range(6):
        rng = random.Random(seed)
        yield CloudConfig(
            sheets=default_sheets(rng.randint(1, 5)),
            scale=rng.choice([lo, hi, *DEFAULT_SCALES]),
            x_values=tuple(Fraction(v, 3**5) for v in rng.sample(range(3**5 + 1), 2)),
            blocks=rng.randint(3, 8),
            cube_grid=rng.randint(0, 2),
            include_cube0=rng.random() < 0.5,
            include_partners=rng.random() < 0.8,
        )
    # Int-valued rationals, stored and written as Fractions.
    yield CloudConfig(sheets=default_sheets(2), scale=1, x_values=(0, 1))
    yield CloudConfig(sheets=default_sheets(3), scale=1, x_values=(1, Fraction(1, 3), 0),
                      blocks=3, cube_grid=1, include_cube0=True)


def test_cloud_config_dict_matches_referee():
    for cfg in _seeded_configs():
        assert cfg.to_json_dict() == cloud_config_dict(cfg)
        assert CloudConfig.from_json(cfg.to_json()) == cfg
        assert CloudConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()


def test_rigid_edge_rows_match_referee():
    rows = 0
    for cfg in _seeded_configs():
        cloud = build_cloud(cfg)
        for r in find_rigid_edges(build_complex(cloud, cfg.scale)):
            assert json_fields(r) == rigid_edge_row(r)
            rows += 1
    assert rows > 10


def _recording_check_facts(monkeypatch, edit=lambda k, r: r):
    """Patch the suite's check_facts so the k-th report is edit(k, report),
    and return the (p, q, x_gap, l2_sq) pairs it hands back, in order."""
    pairs = []

    def recorded(p, q, blocks):
        r = edit(len(pairs), check_facts(p, q, blocks))
        pairs.append((p, q, r.x_gap, r.l2_sq))
        return r

    monkeypatch.setattr(harness, "check_facts", recorded)
    return pairs


def _expected_close_expanding(pairs):
    ok, cex = check_close_expanding(pairs, C)
    return ok, None if cex is None else close_expanding_record(*cex)


def _shrunk_from(k0):
    # From the k0-th pair on, the images coincide, so the bound fails on
    # every later pair whose x values differ.
    def edit(k, r):
        if k < k0:
            return r
        return replace(r, gaps=(0, 0, 0), combined=0 >= C * C * r.x_gap)

    return edit


@pytest.mark.parametrize("seed,samples,blocks", [(7, 60, 12), (1, 80, 1), (4, 50, 3)])
@pytest.mark.parametrize("k0", [None, 0, 17])
def test_close_expanding_verdict_matches_check_close_expanding(
    monkeypatch, seed, samples, blocks, k0
):
    edit = (lambda k, r: r) if k0 is None else _shrunk_from(k0)
    pairs = _recording_check_facts(monkeypatch, edit)
    report = run_lemma_suite(seed, samples, blocks)
    assert len(pairs) == samples
    ok, cex = _expected_close_expanding(pairs)
    assert (report.close_expanding_ok, report.close_expanding_counterexample) == (ok, cex)
    assert ok == (k0 is None)
    assert report.to_json_dict() == lemma_suite_dict(report)


@pytest.mark.parametrize("cleared", [(0,), (23,), (23, 5), (41, 42, 99)])
def test_counterexample_names_first_cleared_pair(monkeypatch, cleared):
    pairs = _recording_check_facts(
        monkeypatch, lambda k, r: replace(r, combined=False) if k in cleared else r
    )
    report = run_lemma_suite(seed=3, samples=100, blocks=4)
    p, q, x_gap, l2_sq = pairs[min(cleared)]
    assert not report.close_expanding_ok and not report.passed
    assert report.close_expanding_counterexample == close_expanding_record(p, q, x_gap, l2_sq)
    assert len(report.fact_failures) == len(cleared)
    assert report.to_json_dict() == lemma_suite_dict(report)


def test_other_false_facts_leave_the_bound_alone(monkeypatch):
    _recording_check_facts(
        monkeypatch, lambda k, r: replace(r, fact1=False) if k % 7 == 3 else r
    )
    report = run_lemma_suite(seed=3, samples=50, blocks=4)
    assert report.close_expanding_ok and report.close_expanding_counterexample is None
    assert len(report.fact_failures) == 7
    assert report.fact_failures[0]["report"]["fact1"] is False
    assert not report.passed
    assert report.to_json_dict() == lemma_suite_dict(report)


@pytest.mark.parametrize(
    "seed,samples,blocks,flip", [(7, 60, 12, 0), (1, 80, 1, 41), (4, 50, 3, 17)]
)
def test_mechanism_failure_is_a_false_fact2(monkeypatch, seed, samples, blocks, flip):
    # The mechanism check reads fact2 itself: flipping it on one pair whose
    # t strings differ gives exactly one mechanism failure, for that pair.
    reports = []

    def edit(k, r):
        r = replace(r, fact2=False) if k == flip else r
        reports.append(r)
        return r

    pairs = _recording_check_facts(monkeypatch, edit)
    report = run_lemma_suite(seed, samples, blocks)
    p, q, _, _ = pairs[flip]
    r = reports[flip]
    assert r.t_first_diff is not None
    assert report.mechanism_failures == (
        {
            "p": {"t": p.t.text(), "y": p.y.text()},
            "q": {"t": q.t.text(), "y": q.y.text()},
            "t_first_diff": r.t_first_diff,
            "coord_first_diffs": list(r.coord_first_diffs),
        },
    )
    assert report.mechanism_checks == sum(r.t_first_diff is not None for r in reports)
    assert len(report.fact_failures) == 1 and not report.passed
    assert report.to_json_dict() == lemma_suite_dict(report)


def test_passed_reads_every_failure_list_and_verdict():
    base = run_lemma_suite(seed=2, samples=20, blocks=3)
    assert base.passed and lemma_suite_dict(base)["passed"]
    names = [k for k in base.to_json_dict() if k.endswith(("_failures", "_ok"))]
    assert len(names) == 8
    for name in names:
        broken = replace(base, **{name: False if name.endswith("_ok") else ({"x": 1},)})
        assert not broken.passed, name
        assert broken.to_json_dict() == lemma_suite_dict(broken)


def _plant_reserved_two(monkeypatch, at_call: int):
    """Patch the suite's embed_strings so its at_call-th image carries a 2
    at reserved position 11 of coordinate 0 (blocks must be at least 4)."""
    real, calls = harness.embed_strings, []

    def planted(p, blocks):
        strings = real(p, blocks)
        calls.append(p)
        if len(calls) - 1 != at_call:
            return strings
        s, depth = strings[0], 3 * blocks
        bad = TernaryString.from_int(s.value + (2 - s.digit(11)) * 3 ** (depth - 12), depth)
        return (bad, *strings[1:])

    monkeypatch.setattr(harness, "embed_strings", planted)
    return calls


def test_malformed_image_is_a_roundtrip_failure(monkeypatch):
    calls = _plant_reserved_two(monkeypatch, at_call=9)
    report = run_lemma_suite(seed=5, samples=30, blocks=4)
    p = calls[9]
    assert not report.passed
    assert report.roundtrips == 30
    assert report.roundtrip_failures == (
        {
            "t": p.t.text(),
            "y": p.y.text(),
            "error": "digit 2 at reserved position 11: not an image point",
        },
    )
    assert len(report.reserved_failures) == 1
    assert report.reserved_failures[0]["coord_digits"][11] == "2"
    assert report.to_json_dict() == lemma_suite_dict(report)


def test_verify_lemmas_reports_malformed_image_and_exits_1(monkeypatch, tmp_path, capsys):
    _plant_reserved_two(monkeypatch, at_call=0)
    out = tmp_path / "report.json"
    argv = ["verify-lemmas", "--blocks", "4", "--samples", "20", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 1
    written = json.loads(out.read_text())
    assert written["passed"] is False
    assert written["reserved_failures"] and written["roundtrip_failures"]
    assert "reserved position 11" in written["roundtrip_failures"][0]["error"]
    assert "error" not in capsys.readouterr().err
