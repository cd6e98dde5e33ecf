"""Interleaving embedding: injectivity, the four facts, equivalence bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exactrips.digits import BinaryString, TernaryString, delta3, ternary_value, to_ternary
from exactrips.embedding import (
    DegeneratePairError,
    IManyPoint,
    MalformedImageError,
    check_close_expanding,
    check_facts,
    decode,
    embed_strings,
    estimate_equivalence,
)

# The three-coordinate interleave example uses the periodic digit string
# 0,1,2,0,1,2,... long enough to cover three blocks (18 t digits).
T_PERIODIC = TernaryString(tuple([0, 1, 2] * 6))
B_101 = BinaryString((1, 0, 1))


def _point(t_digits, y_digits):
    return IManyPoint(TernaryString(tuple(t_digits)), BinaryString(tuple(y_digits)))


def _valued(x, y, depth):
    # The point (x, y) whose t is the chosen depth-digit expansion of x.
    return IManyPoint(to_ternary(x, depth), y)


def _interleave(i, t, b, blocks):
    return embed_strings(IManyPoint(t, b), blocks)[i]


def _image(p, blocks):
    # The exact-rational image of p: a point of the unit cube.
    return tuple(map(ternary_value, embed_strings(p, blocks)))


def _random_point(rng, blocks):
    tdepth = rng.randint(1, 6 * blocks)
    ydepth = rng.randint(0, blocks)
    return _point(
        [rng.randrange(3) for _ in range(tdepth)],
        [rng.randrange(2) for _ in range(ydepth)],
    )


def test_interleave_coordinate_0():
    assert _interleave(0, T_PERIODIC, B_101, 3).digits == (0, 1, 1, 0, 1, 0, 0, 1, 1)


def test_interleave_coordinate_1():
    assert _interleave(1, T_PERIODIC, B_101, 3).digits == (2, 0, 1, 2, 0, 0, 2, 0, 1)


def test_interleave_coordinate_2():
    assert _interleave(2, T_PERIODIC, B_101, 3).digits == (1, 2, 1, 1, 2, 0, 1, 2, 1)


def test_interleave_rejects_bad_args():
    with pytest.raises(ValueError, match="blocks must be at least 1"):
        _interleave(0, T_PERIODIC, B_101, 0)


def test_interleave_prefix_stability():
    # Increasing blocks never rewrites already-emitted digits.
    rng = random.Random(11)
    for _ in range(100):
        t = TernaryString(tuple(rng.randrange(3) for _ in range(rng.randint(1, 40))))
        b = BinaryString(tuple(rng.randrange(2) for _ in range(rng.randint(0, 8))))
        for i in range(3):
            short = _interleave(i, t, b, 4).digits
            long = _interleave(i, t, b, 7).digits
            assert long[: len(short)] == short


def test_embed_third_of_unit_interval():
    p = _valued(Fraction(1, 3), BinaryString((0,)), 18)
    assert _image(p, 3) == (Fraction(1, 3), Fraction(0), Fraction(0))


def test_embed_pure_sheet_digits():
    p = _valued(Fraction(0), BinaryString((1, 1)), 12)
    v = Fraction(28, 729)
    assert _image(p, 2) == (v, v, v)


def test_embed_origin():
    p = _valued(Fraction(0), BinaryString((0,)), 6)
    assert _image(p, 1) == (Fraction(0), Fraction(0), Fraction(0))


def test_reserved_positions_never_hold_two():
    rng = random.Random(23)
    for _ in range(300):
        p = _random_point(rng, 6)
        for s in embed_strings(p, 6):
            assert all(s.digits[3 * k + 2] != 2 for k in range(6))


def test_decode_inverts_embed():
    p = _point([1, 0, 2, 1], [1, 0])
    blocks = 4
    t_back, y_back = decode(embed_strings(p, blocks), blocks)
    assert t_back == TernaryString.from_int(p.t.value_at(6 * blocks), 6 * blocks)
    assert y_back.digits == tuple(p.y.digit(k) for k in range(blocks))


def test_decode_distinguishes_distinct_points():
    blocks = 3
    p = _point([1, 0], [1])
    q = _point([1, 0], [0, 1])
    assert decode(embed_strings(p, blocks), blocks) != decode(
        embed_strings(q, blocks), blocks
    )


def test_decode_random_round_trips():
    rng = random.Random(37)
    blocks = 8
    for _ in range(1000):
        p = _random_point(rng, blocks)
        t_back, y_back = decode(embed_strings(p, blocks), blocks)
        assert t_back == TernaryString.from_int(p.t.value_at(6 * blocks), 6 * blocks)
        assert y_back.digits == tuple(p.y.digit(k) for k in range(blocks))


def test_decode_rejects_reserved_two():
    bad = TernaryString((0, 0, 2, 0, 0, 0))
    ok = TernaryString((0, 0, 0, 0, 0, 0))
    with pytest.raises(MalformedImageError):
        decode((bad, ok, ok), 2)


def test_decode_rejects_disagreeing_shared_digits():
    a = TernaryString((0, 0, 1, 0, 0, 1))
    b = TernaryString((0, 0, 0, 0, 0, 1))
    with pytest.raises(MalformedImageError):
        decode((a, b, a), 2)


def test_decode_rejects_wrong_depth():
    s = TernaryString((0, 0, 0))
    with pytest.raises(MalformedImageError):
        decode((s, s, s), 2)


@pytest.mark.parametrize("blocks", [0, -1])
def test_decode_refuses_blocks_below_one(blocks):
    s = TernaryString(())
    with pytest.raises(ValueError, match="blocks must be at least 1") as refused:
        decode((s, s, s), blocks)
    assert refused.type is ValueError  # refused before any image is read


def test_check_facts_hand_example_distinct_x():
    p = _valued(Fraction(0), BinaryString((0,)), 6)
    q = _valued(Fraction(1, 3), BinaryString((0,)), 6)
    r = check_facts(p, q, 1)
    assert r.l2_sq == Fraction(1, 9)
    assert r.x_gap == Fraction(1, 3)
    # 1/9 >= (1/3) / 3**10 = 1/177147
    assert r.combined and Fraction(1, 9) >= Fraction(1, 177147)
    assert r.all_hold


def test_check_facts_same_x_different_sheet():
    p = _point([1, 0], [0])
    q = _point([1, 0], [1])
    r = check_facts(p, q, 2)
    assert r.x_gap == 0
    assert r.combined and r.all_hold


def test_check_facts_fact2_hand_example():
    # t digit index 3 sits in coordinate 1 at output index 1.
    p = _point([0, 0, 0, 1], [0])
    q = _point([0, 0, 0, 2], [0])
    r = check_facts(p, q, 1)
    assert r.t_delta == Fraction(1, 27)
    assert max(r.coord_deltas) == Fraction(1, 3)
    assert r.coord_deltas[1] == Fraction(1, 3)
    assert r.fact2
    assert r.all_hold


def test_check_facts_degenerate_pair_rejected():
    p = _point([1, 0], [1])
    q = _point([1, 0, 0], [1, 0])  # same digit data after zero-padding
    with pytest.raises(DegeneratePairError):
        check_facts(p, q, 2)


def test_check_facts_rejects_uncovered_digit_data():
    p = _point([0] * 12 + [1], [0])
    q = _point([0], [0])
    with pytest.raises(ValueError):
        check_facts(p, q, 2)


@st.composite
def _shifted_pairs(draw):
    # Digits of a pair at blocks 1-4, and 1-3 shared blocks to prepend to
    # both: 6 t digits and 1 label digit each.
    blocks = draw(st.integers(1, 4))
    t = st.lists(st.integers(0, 2), min_size=1, max_size=6 * blocks)
    y = st.lists(st.integers(0, 1), max_size=blocks)
    block = st.tuples(st.lists(st.integers(0, 2), min_size=6, max_size=6), st.integers(0, 1))
    pair = draw(t), draw(y), draw(t), draw(y)
    return blocks, pair, draw(st.lists(block, min_size=1, max_size=3))


FACTS = ("fact1", "fact2", "fact3", "fact4", "combined")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shifted_pairs())
@example((1, ([0], [], [1], []), [([0] * 6, 0)]))
@example((1, ([1, 0, 0], [0], [0, 2, 2], [1]), [([2] * 6, 1)] * 3))  # a borrow chain
@example((2, ([2, 1], [0, 1], [2, 1, 0], [0, 0]), [([1, 0, 2, 0, 1, 2], 1)]))  # t equal padded
@example((4, ([0] * 24, [], [0] * 23 + [1], []), [([0] * 6, 0)] * 2))
def test_check_facts_invariant_under_a_shared_leading_block(case):
    # A shared prefix cancels from every gap: prepending j blocks scales
    # |x_p - x_q| by 3**(-6j) and the coordinate gaps by 3**(-3j), so no
    # fact changes, and every first difference moves by 6j (t) or 3j
    # (coordinates).  check_facts is its own referee.
    blocks, (pt, py, qt, qy), prefix = case
    assume(not _point(pt, py).digit_data_equals(_point(qt, qy)))
    j = len(prefix)
    shared_t = [d for digits, _ in prefix for d in digits]
    shared_y = [label for _, label in prefix]
    r = check_facts(_point(pt, py), _point(qt, qy), blocks)
    s = check_facts(
        _point(shared_t + pt, shared_y + py), _point(shared_t + qt, shared_y + qy), blocks + j
    )
    assert [getattr(s, f) for f in FACTS] == [getattr(r, f) for f in FACTS]

    def moved(k, by):
        return None if k is None else k + by

    assert s.t_first_diff == moved(r.t_first_diff, 6 * j)
    assert s.coord_first_diffs == tuple(moved(k, 3 * j) for k in r.coord_first_diffs)


def test_check_facts_random_pairs_all_exact():
    rng = random.Random(53)
    blocks = 8
    for _ in range(500):
        p = _random_point(rng, blocks)
        q = _random_point(rng, blocks)
        if p.digit_data_equals(q):
            continue
        r = check_facts(p, q, blocks)
        assert r.fact1 and r.fact2 and r.fact3 and r.fact4 and r.combined


def test_fact_mechanism_digit_positions():
    # A t disagreement at index n surfaces in some coordinate by n//2 + 1.
    rng = random.Random(59)
    for _ in range(300):
        p = _random_point(rng, 6)
        q = _random_point(rng, 6)
        if p.digit_data_equals(q):
            continue
        r = check_facts(p, q, 6)
        if r.t_first_diff is None:
            continue
        diffs = [d for d in r.coord_first_diffs if d is not None]
        assert diffs and min(diffs) <= r.t_first_diff // 2 + 1


def test_combined_follows_from_facts():
    rng = random.Random(61)
    for _ in range(300):
        p = _random_point(rng, 5)
        q = _random_point(rng, 5)
        if p.digit_data_equals(q):
            continue
        r = check_facts(p, q, 5)
        if r.fact1 and r.fact2 and r.fact3 and r.fact4:
            assert r.combined


def test_check_close_expanding_vacuous_and_counterexample():
    ok, cex = check_close_expanding([], Fraction(1, 243))
    assert ok and cex is None
    bad = ("a", "b", Fraction(1), Fraction(0))
    ok, cex = check_close_expanding([bad], Fraction(1, 243))
    assert not ok and cex == bad


@pytest.mark.parametrize("dist_a, dist_b_sq", [(-1, 0), (0, -1), (Fraction(-1, 3), 1)])
def test_check_close_expanding_refuses_negative_distances(dist_a, dist_b_sq):
    with pytest.raises(ValueError, match="distances must be nonnegative"):
        check_close_expanding([("p", "q", dist_a, dist_b_sq)], Fraction(1, 243))


def test_check_close_expanding_on_embedded_pairs():
    rng = random.Random(67)
    pairs = []
    for _ in range(500):
        p = _random_point(rng, 8)
        q = _random_point(rng, 8)
        if p.digit_data_equals(q):
            continue
        ep = _image(p, 8)
        eq = _image(q, 8)
        dist_sq = sum((a - b) ** 2 for a, b in zip(ep, eq))
        pairs.append((p, q, abs(ternary_value(p.t) - ternary_value(q.t)), dist_sq))
    ok, cex = check_close_expanding(pairs, Fraction(1, 243))
    assert ok, cex


def test_estimate_equivalence_identical_metrics():
    assert estimate_equivalence([(Fraction(1), Fraction(1))] * 3) == (1, 1)


def test_estimate_equivalence_two_samples():
    assert estimate_equivalence([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))]) == (3, 2)


def test_estimate_equivalence_zero_d1_witness():
    with pytest.raises(ZeroDivisionError):
        estimate_equivalence([(Fraction(0), Fraction(1))])
    with pytest.raises(ValueError, match="at least one sample required"):
        estimate_equivalence([])
    with pytest.raises(ValueError, match="sample with d1 = 0 violates the precondition"):
        estimate_equivalence([(0, 0)])


def test_image_metric_equivalence_constants():
    # Per coordinate, |u - v| <= delta3(u, v) and >= delta3(u, v) / 81.
    rng = random.Random(71)
    samples = []
    for _ in range(300):
        p = _random_point(rng, 8)
        q = _random_point(rng, 8)
        for a, b in zip(embed_strings(p, 8), embed_strings(q, 8)):
            d1 = delta3(a, b)
            if d1 > 0:
                samples.append((d1, abs(ternary_value(a) - ternary_value(b))))
    c1, c2 = estimate_equivalence(samples)
    assert 0 < c2 <= c1
    assert c2 >= Fraction(1, 81)
    assert c1 <= 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(*[st.lists(st.integers(0, base - 1), min_size=size, max_size=12).map(tuple)
         for base, size in ((3, 1), (2, 0), (3, 1), (2, 0))])
@example((1,), (1,), (1, 0), (1,))
@example((2, 2), (), (2, 2), ())
def test_imany_point_is_its_digits(pt, py, qt, qy):
    # Equal and hashed as (t, y): "1" and "10" are unequal points of one x.
    p = IManyPoint(TernaryString(pt), BinaryString(py))
    q = IManyPoint(TernaryString(qt), BinaryString(qy))
    assert (p == q) == ((pt, py) == (qt, qy)) and hash(p) == hash((p.t, p.y))
    if p.digit_data_equals(q):
        return
    # |x_p - x_q| is read from the t strings alone.
    r = check_facts(p, q, max(2, len(py), len(qy)))
    pd, qd = 3 ** len(pt), 3 ** len(qt)
    assert (r.x_num, r.x_den) == (abs(p.t.value * qd - q.t.value * pd), pd * qd)
    assert r.x_gap == abs(ternary_value(p.t) - ternary_value(q.t))


def test_imany_point_refuses_an_empty_expansion():
    with pytest.raises(ValueError, match="expansion must have at least one digit"):
        IManyPoint(TernaryString(()), BinaryString((1,)))


def test_imany_point_is_unequal_to_other_types():
    p = IManyPoint(TernaryString.from_text("10"), BinaryString((1,)))
    assert p.__eq__((p.t, p.y)) is NotImplemented
    assert p != (p.t, p.y) and p != "p"
