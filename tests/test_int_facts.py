"""The lemma facts as int comparisons, against the Fraction evaluation.

check_facts compares ints over powers of 3 and FactReport derives its
Fraction fields when they are read; estimate_equivalence compares ratios
as ints over a common denominator.  fraction_check_facts and
ratio_estimate_equivalence in tests/oracles.py are the Fraction
evaluations they replaced, on digit tuples.  The pairs below are
derandomized and reach both depth extremes, equal t strings, 1 and 50
blocks, and planted images that make each fact false, so failing records
are compared too.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips import embedding, harness
from exactrips.digits import BinaryString, TernaryString, json_text, to_ternary
from exactrips.embedding import IManyPoint, check_facts, estimate_equivalence
from exactrips.harness import run_lemma_suite

from oracles import (
    close_expanding_record,
    fact_report_dict,
    fraction_check_facts,
    json_text_reference,
    positional_bound_fails,
    ratio_estimate_equivalence,
)

FIELDS = (
    "fact1", "fact2", "fact3", "fact4", "combined", "x_gap", "t_delta",
    "coord_deltas", "linf", "l2_sq", "t_first_diff", "coord_first_diffs",
    "coord_gaps",
)
FACTS = FIELDS[:5]


def _assert_matches(r, ref):
    for name in FIELDS:
        assert getattr(r, name) == getattr(ref, name), name
    assert r.all_hold == all(getattr(ref, f) for f in FACTS)
    assert r.to_json_dict() == fact_report_dict(ref)
    assert json_text(r.to_json_dict()) == json_text_reference(fact_report_dict(ref))


def _string(rng, cls, depth):
    return cls.from_int(rng.randrange(cls.base**depth), depth)


def _digits(rng, blocks):
    tdepth = rng.choice([1, 6 * blocks, rng.randint(1, 6 * blocks)])
    ydepth = rng.choice([0, blocks, rng.randint(0, blocks)])
    return _string(rng, TernaryString, tdepth), _string(rng, BinaryString, ydepth)


def _partner(rng, blocks, t, y):
    """A second point: independent, or t kept (zero-padded) with another y,
    or t changed in one digit."""
    kind = rng.randrange(3)
    if kind == 0:
        return _digits(rng, blocks)
    if kind == 1:
        depth = rng.randint(t.depth, 6 * blocks)
        padded = TernaryString.from_int(t.value_at(depth), depth)
        return padded, _string(rng, BinaryString, rng.randint(1, blocks))
    k = rng.randrange(t.depth)
    step = 3 ** (t.depth - 1 - k)
    digit = t.value // step % 3
    return TernaryString.from_int(t.value + ((digit + 1) % 3 - digit) * step, t.depth), y


def _pairs(seed, blocks, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t, y = _digits(rng, blocks)
        p = IManyPoint(t, y)
        q = IManyPoint(*_partner(rng, blocks, t, y))
        if not p.digit_data_equals(q):
            out.append((p, q))
    return out


@pytest.mark.parametrize("seed,blocks,count", [(1, 1, 300), (2, 2, 300), (3, 12, 200), (4, 50, 40)])
def test_facts_match_the_fraction_referee(seed, blocks, count):
    kinds = set()
    for p, q in _pairs(seed, blocks, count):
        r = check_facts(p, q, blocks)
        _assert_matches(r, fraction_check_facts(p, q, blocks))
        assert r.all_hold
        kinds.add(r.t_first_diff is None)
        kinds.add(("depth", max(p.t.depth, q.t.depth) == 6 * blocks))
        kinds.add(("shallow", min(p.t.depth, q.t.depth) == 1))
    assert kinds == {True, False, ("depth", True), ("depth", False), ("shallow", True),
                     ("shallow", False)}


def _image(blocks, *values):
    return tuple(TernaryString.from_int(v, 3 * blocks) for v in values)


def _planted_report(monkeypatch, p, q, blocks, images):
    # check_facts sees the packed coordinates of `images`, p's then q's.
    calls = iter([tuple(s.value for s in i) for i in images])
    monkeypatch.setattr(embedding, "_coordinate_values", lambda t, y, blocks: next(calls))
    r = check_facts(p, q, blocks)
    ref = fraction_check_facts(p, q, blocks, [tuple(s.digits for s in i) for i in images])
    _assert_matches(r, ref)
    return r


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_late_image_difference_fails_fact2(monkeypatch, blocks):
    # t differs at index 0 while the images differ only in their last digit;
    # at 1 block that gap, 3**-3, still keeps the bound.
    p = IManyPoint(TernaryString.from_text("0"), BinaryString.from_text(""))
    q = IManyPoint(TernaryString.from_text("2"), BinaryString.from_text(""))
    images = (_image(blocks, 0, 0, 0), _image(blocks, 1, 0, 0))
    r = _planted_report(monkeypatch, p, q, blocks, images)
    assert not r.fact2 and r.fact3 and r.combined == (blocks == 1)


@pytest.mark.parametrize("blocks", [2, 3, 50])
def test_reserved_twos_fail_fact3(monkeypatch, blocks):
    # "1000..." against "0222...": first difference at 0, gap 3**-(3*blocks).
    top = 3 ** (3 * blocks - 1)
    p = IManyPoint(TernaryString.from_text("1"), BinaryString.from_text("1"))
    q = IManyPoint(TernaryString.from_text("1"), BinaryString.from_text("0"))
    images = (_image(blocks, top, 0, 0), _image(blocks, top - 1, 0, 0))
    r = _planted_report(monkeypatch, p, q, blocks, images)
    assert r.fact1 and r.fact2 and not r.fact3 and r.fact4 and r.combined


@pytest.mark.parametrize("k,holds", [(4, True), (3, False), (0, False)])
def test_fact2_threshold(monkeypatch, k, holds):
    # t first differs at k and the images at m = 3: fact2 is 2m <= k + 2.
    p = IManyPoint(TernaryString.from_int(0, k + 1), BinaryString.from_text(""))
    q = IManyPoint(TernaryString.from_int(1, k + 1), BinaryString.from_text(""))
    images = (_image(4, 0, 0, 0), _image(4, 3**8, 0, 0))
    assert _planted_report(monkeypatch, p, q, 4, images).fact2 == holds


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda blocks: st.tuples(
    st.just(blocks),
    st.integers(0, 6 * blocks - 1),
    st.none() | st.integers(0, 3 * blocks - 1),
    st.integers(0, 2),
)))
@example((1, 0, None, 0))
@example((1, 0, 1, 2))
@example((1, 0, 2, 0))
@example((4, 4, 3, 1))
@example((4, 3, 3, 1))
@example((12, 71, 35, 2))
def test_fact2_is_the_old_positional_bound(case):
    # t first differs at k and image coordinate i first differs at m (the
    # other two coordinates agree), or no coordinate differs when m is None.
    blocks, k, m, i = case
    p = IManyPoint(TernaryString.from_int(0, 6 * blocks), BinaryString.from_text(""))
    q = IManyPoint(
        TernaryString.from_int(3 ** (6 * blocks - 1 - k), 6 * blocks), BinaryString.from_text("")
    )
    moved = [0, 0, 0]
    if m is not None:
        moved[i] = 3 ** (3 * blocks - 1 - m)
    calls = iter([(0, 0, 0), tuple(moved)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_coordinate_values", lambda t, y, blocks: next(calls))
        r = check_facts(p, q, blocks)
    assert r.t_first_diff == k
    assert min((d for d in r.coord_first_diffs if d is not None), default=None) == m
    assert r.fact2 != positional_bound_fails(k, r.coord_first_diffs)


@pytest.mark.parametrize("blocks", [2, 3, 50])
@pytest.mark.parametrize("below", [0, 1])
def test_fact3_threshold(monkeypatch, blocks, below):
    # Images first differ at 0 with gap 3**-4, or one unit less.
    top = 3 ** (3 * blocks - 1)
    p = IManyPoint(TernaryString.from_text("1"), BinaryString.from_text("1"))
    q = IManyPoint(TernaryString.from_text("1"), BinaryString.from_text("0"))
    images = (_image(blocks, top, 0, 0), _image(blocks, top - 3 ** (3 * blocks - 4) + below, 0, 0))
    assert _planted_report(monkeypatch, p, q, blocks, images).fact3 == (below == 0)


@pytest.mark.parametrize("below", [0, 1])
def test_combined_threshold(monkeypatch, below):
    # x gap 3**-2 and one coordinate gap 3**-6 at 3 blocks: the squared
    # gap 3**-12 meets 3**-10 * 3**-2 exactly.
    p = IManyPoint(TernaryString.from_text("00"), BinaryString.from_text(""))
    q = IManyPoint(TernaryString.from_text("01"), BinaryString.from_text(""))
    images = (_image(3, 0, 0, 0), _image(3, 27 - below, 0, 0))
    assert _planted_report(monkeypatch, p, q, 3, images).combined == (below == 0)


def test_fact1_threshold():
    # x = 0 against x = 1, carried by the all-2s string "22": with finite
    # strings the gap is 1 - 3**-2, below delta3 = 3**0.
    y = BinaryString.from_text("")
    p, q = IManyPoint(to_ternary(Fraction(0), 2), y), IManyPoint(to_ternary(Fraction(1), 2), y)
    r = check_facts(p, q, 1)
    _assert_matches(r, fraction_check_facts(p, q, 1))
    assert r.fact1 and r.t_delta == 1 and r.x_gap == 1 - Fraction(1, 9) < r.t_delta


def test_fact4_holds_for_every_gap_triple():
    # max(g)**2 <= sum(g*g) for nonnegative gaps, so no pair makes fact4
    # false; its failing record is written from the same fields.
    p, q = _pairs(8, 3, 1)[0]
    r = replace(check_facts(p, q, 3), fact4=False)
    ref = fraction_check_facts(p, q, 3)
    ref.fact4 = False
    _assert_matches(r, ref)


def _nudged(s):
    # s with its last digit raised from 0, else lowered.
    return TernaryString.from_int(s.value + (1 if s.value % 3 == 0 else -1), s.depth)


@pytest.mark.parametrize("seed,samples,blocks", [(7, 60, 12), (1, 80, 1), (4, 50, 3)])
def test_suite_failure_records_match_the_fraction_referee(monkeypatch, seed, samples, blocks):
    # check_facts sees q's image as p's with the last digit of coordinate 0
    # nudged, so facts fail; every record must read as the referee's.  The
    # round trips read the real images.
    real, images, reports = embedding._coordinate_values, [], []
    check, checking = harness.check_facts, [False]

    def planted(t, y, blocks):
        if not checking[0]:
            return real(t, y, blocks)
        if len(images) % 2 == 0:
            images.append(_image(blocks, *real(t, y, blocks)))
        else:
            s0, s1, s2 = images[-1]
            images.append((_nudged(s0), s1, s2))
        return tuple(s.value for s in images[-1])

    def recorded(p, q, blocks):
        checking[0] = True
        try:
            reports.append((p, q, check(p, q, blocks)))
        finally:
            checking[0] = False
        return reports[-1][2]

    monkeypatch.setattr(embedding, "_coordinate_values", planted)
    monkeypatch.setattr(harness, "check_facts", recorded)
    report = run_lemma_suite(seed, samples, blocks)
    assert len(reports) == samples and len(images) == 2 * samples
    expected, cex = [], None
    for k, (p, q, r) in enumerate(reports):
        digits = [tuple(s.digits for s in images[i]) for i in (2 * k, 2 * k + 1)]
        ref = fraction_check_facts(p, q, blocks, digits)
        _assert_matches(r, ref)
        pair = {"p": {"t": p.t.text(), "y": p.y.text()}, "q": {"t": q.t.text(), "y": q.y.text()}}
        if not all(getattr(ref, f) for f in FACTS):
            expected.append({**pair, "report": fact_report_dict(ref)})
        if not ref.combined and cex is None:
            cex = close_expanding_record(p, q, ref.x_gap, ref.l2_sq)
    assert expected and list(report.fact_failures) == expected
    assert json_text(report.to_json_dict()["fact_failures"]) == json_text_reference(expected)
    assert report.close_expanding_counterexample == cex
    assert report.close_expanding_ok == (cex is None) == (blocks == 1)


def test_suite_equivalence_matches_the_ratio_referee(monkeypatch):
    # The suite's int samples (3**(3*blocks - k), gap) give the constants
    # the Fraction samples (3**-k, gap / 3**(3*blocks)) give.
    reports, seen = [], []
    check, estimate = harness.check_facts, harness.estimate_equivalence

    def recorded(p, q, blocks):
        reports.append(check(p, q, blocks))
        return reports[-1]

    def estimated(samples):
        seen.append(samples)
        return estimate(samples)

    monkeypatch.setattr(harness, "check_facts", recorded)
    monkeypatch.setattr(harness, "estimate_equivalence", estimated)
    for seed, samples, blocks in [(7, 100, 12), (1, 200, 1), (5, 20, 50)]:
        reports.clear()
        report = run_lemma_suite(seed, samples, blocks)
        fraction_samples = [
            (d1, d2)
            for r in reports
            for d1, d2 in zip(r.coord_deltas, r.coord_gaps)
            if d1 > 0
        ]
        assert len(seen[-1]) == len(fraction_samples) == report.equivalence_samples
        assert all(type(v) is int for sample in seen[-1] for v in sample)
        assert (report.equivalence_c1, report.equivalence_c2) == ratio_estimate_equivalence(
            fraction_samples
        )


def _rational(rng):
    if rng.random() < 0.3:
        return rng.randint(-20, 20)
    return Fraction(rng.randint(-50, 50), rng.randint(1, 30))


def test_estimate_equivalence_matches_the_ratio_referee():
    rng = random.Random(11)
    for size in [1, 2, 3, 10, 200]:
        for _ in range(40):
            samples = []
            while len(samples) < size:
                d1, d2 = _rational(rng), _rational(rng)
                if d1 != 0:
                    samples.append((d1, d2))
            c1, c2 = estimate_equivalence(samples)
            assert (c1, c2) == ratio_estimate_equivalence(samples)
            assert type(c1) is type(c2) is Fraction
            assert estimate_equivalence(iter(samples)) == (c1, c2)
