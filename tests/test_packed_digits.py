"""Packed (int value, depth) digit strings against digit-by-digit oracles.

Every operation on packed strings is compared with the tuple version in
oracles.py: construction and the public accessors, the greedy expansion,
values, first differences and delta3 (with zero padding of unequal
depths), interleave (with t deeper than 6*blocks and empty sheet labels),
decode (results, and the message and precedence of every
MalformedImageError), digit-data equality and the check_facts fields the
lemma suite reads.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips.digits import (
    BinaryString,
    TernaryString,
    delta3,
    first_difference,
    ternary_value,
    to_ternary,
)
from exactrips.embedding import (
    IManyPoint,
    MalformedImageError,
    check_facts,
    decode,
    embed_strings,
    interleave,
)

from oracles import (
    tuple_decode,
    tuple_delta3,
    tuple_digit_data_equals,
    tuple_first_difference,
    tuple_interleave,
    tuple_ternary_value,
    tuple_to_ternary,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

ternary = st.lists(st.integers(0, 2), max_size=80).map(tuple)
binary = st.lists(st.integers(0, 1), max_size=16).map(tuple)
blocks_st = st.integers(1, 8)


@st.composite
def unit_rationals(draw):
    den = draw(st.sampled_from((1, 2, 3, 7, 9, 10, 27, 1000, 3**20, 2 * 3**40)))
    return Fraction(draw(st.integers(0, den)), den)


@st.composite
def points(draw, blocks):
    t = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6 * blocks).map(tuple))
    y = draw(st.lists(st.integers(0, 1), max_size=blocks).map(tuple))
    return IManyPoint.from_digits(TernaryString(t), BinaryString(y))


@SETTINGS
@given(ternary, binary)
@example((), ())
def test_packing_round_trips_the_public_surface(t, b):
    for cls, digits in ((TernaryString, t), (BinaryString, b)):
        s = cls(digits)
        assert s.digits == digits and s.depth == len(digits)
        assert [s.digit(k) for k in range(-2, len(digits) + 3)] == (
            [0, 0] + list(digits) + [0, 0, 0]
        )
        assert s.text() == "".join(map(str, digits))
        assert cls.from_text(s.text()) == s == cls.from_int(s.value, s.depth)
        assert s.padded(len(digits) + 3).digits == digits + (0, 0, 0)
        assert s.padded(len(digits) - 1) is s
        for depth in range(len(digits) + 3):
            assert s.value_at(depth) == cls((digits + (0,) * depth)[:depth]).value


@SETTINGS
@given(ternary, ternary)
def test_equality_and_hash_are_tuple_equality(s, t):
    a, b = TernaryString(s), TernaryString(t)
    assert (a == b) == (s == t)
    if s == t:
        assert hash(a) == hash(b)


def test_depth_is_part_of_identity_and_strings_are_immutable():
    assert TernaryString((1,)) != TernaryString((1, 0))
    assert len({TernaryString((1,)), TernaryString((1, 0)), TernaryString((1,))}) == 2
    assert TernaryString((1, 0)) != BinaryString((1, 0))
    s = TernaryString((2, 0, 1))
    with pytest.raises(FrozenInstanceError):
        s.value = 0
    assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)


def test_from_int_rejects_values_outside_the_depth():
    with pytest.raises(ValueError):
        TernaryString.from_int(27, 3)
    with pytest.raises(ValueError):
        BinaryString.from_int(-1, 2)
    with pytest.raises(ValueError):
        TernaryString.from_int(0, -1)
    assert BinaryString.from_int(0, 0) == BinaryString(())


@SETTINGS
@given(unit_rationals(), st.integers(1, 60))
@example(Fraction(1), 5)
@example(Fraction(1), 1)
@example(Fraction(0), 3)
def test_to_ternary_matches_long_division(q, depth):
    s = to_ternary(q, depth)
    assert s.digits == tuple_to_ternary(q, depth)
    assert s.value == (3**depth - 1 if q == 1 else q.numerator * 3**depth // q.denominator)


@SETTINGS
@given(ternary)
def test_ternary_value_matches_digit_sum(t):
    assert ternary_value(TernaryString(t)) == tuple_ternary_value(t)


@SETTINGS
@given(ternary, ternary)
@example((1,), (1, 0, 0))
@example((1,), (1, 0, 2))
@example((1, 0, 0), (0, 2, 2))
@example((), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
@example((1,) + (0,) * 79, (0,) + (2,) * 79)  # values 1 apart, first difference 0
def test_first_difference_and_delta3_zero_pad_unequal_depths(s, t):
    a, b = TernaryString(s), TernaryString(t)
    assert first_difference(a, b) == tuple_first_difference(s, t)
    assert delta3(a, b) == tuple_delta3(s, t)


@pytest.mark.parametrize("depth", [255, 256, 257, 3000])
def test_first_difference_on_deep_strings(depth):
    # Borrow chains (1 0 0 ... against 0 2 2 ...) of many lengths, where the
    # value gap says little about the first difference, around and far past
    # the depths covered by the precomputed powers of 3.
    head = ((1, 0, 2) * depth)[:depth]
    for k in (0, 1, 2, 5, 100, depth // 2, depth - 2):
        for chain in (1, 2, 50, depth - 1 - k):
            chain = min(chain, depth - 1 - k)
            s = head[:k] + (1,) + (0,) * chain + head[k + chain + 1 :]
            t = head[:k] + (0,) + (2,) * chain + head[k + chain + 1 :]
            assert first_difference(TernaryString(s), TernaryString(t)) == k
            assert first_difference(TernaryString(s[:-1]), TernaryString(t)) == k


@SETTINGS
@given(ternary, ternary, ternary)
def test_delta3_is_an_ultrametric(s, t, u):
    a, b, c = TernaryString(s), TernaryString(t), TernaryString(u)
    assert delta3(a, c) <= max(delta3(a, b), delta3(b, c))
    assert delta3(a, b) == delta3(b, a)
    assert delta3(a, a) == 0


@SETTINGS
@given(ternary, binary, blocks_st)
@example(tuple(range(3)) * 20, (), 2)  # t deeper than 6*blocks, empty label
@example((), (), 1)
def test_interleave_and_embed_strings_match_the_oracle(t, b, blocks):
    ts, bs = TernaryString(t), BinaryString(b)
    expected = [tuple_interleave(i, t, b, blocks) for i in range(3)]
    assert [interleave(i, ts, bs, blocks).digits for i in range(3)] == expected
    if t:
        p = IManyPoint.from_digits(ts, bs)
        assert [s.digits for s in embed_strings(p, blocks)] == expected


@SETTINGS
@given(blocks_st, st.data())
def test_decode_round_trips_embed(blocks, data):
    p = data.draw(points(blocks))
    t_back, y_back = decode(embed_strings(p, blocks), blocks)
    assert t_back == p.t.padded(6 * blocks)
    assert y_back == p.y.padded(blocks)
    assert IManyPoint.from_digits(t_back, y_back).digit_data_equals(p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MalformedImageError as exc:
        return ("MalformedImageError", str(exc))


@SETTINGS
@given(blocks_st, st.data())
def test_decode_matches_the_oracle_on_any_strings(blocks, data):
    lengths = st.sampled_from((3 * blocks,) * 4 + (3 * blocks - 1, 3 * blocks + 3))
    # Mostly 0s and 1s, so that the checks after the reserved-2 scan are reached.
    digit = st.sampled_from((0, 1, 2, 0, 1, 0, 1, 0, 1))
    count = data.draw(st.sampled_from((3, 3, 3, 2)))
    strings = [
        tuple(data.draw(st.lists(digit, min_size=n, max_size=n)))
        for n in (data.draw(lengths) for _ in range(count))
    ]
    packed = _outcome(decode, [TernaryString(s) for s in strings], blocks)
    if isinstance(packed, tuple) and isinstance(packed[0], TernaryString):
        packed = (packed[0].digits, packed[1].digits)
    assert packed == _outcome(tuple_decode, strings, blocks)


def test_decode_error_precedence():
    ok = (0,) * 6
    two = (0, 0, 2, 0, 0, 0)
    short = (0,) * 3
    cases = [
        ((two, ok, short), "digit 2 at reserved position 2"),
        ((ok, short, two), "coordinate string must have 6 digits, got 3"),
        (((0, 0, 1, 0, 0, 0), ok, (0, 0, 0, 0, 0, 2)), "digit 2 at reserved position 5"),
        (((0, 0, 0, 0, 0, 1), ok, ok), "coordinates disagree on shared digit 1"),
    ]
    for strings, message in cases:
        with pytest.raises(MalformedImageError) as exc:
            decode([TernaryString(s) for s in strings], 2)
        assert str(exc.value).startswith(message)
        with pytest.raises(MalformedImageError) as oracle:
            tuple_decode(strings, 2)
        assert str(exc.value) == str(oracle.value)


@SETTINGS
@given(ternary.filter(bool), binary, ternary.filter(bool), binary)
@example((1, 0), (1,), (1, 0, 0), (1, 0))
def test_digit_data_equals_matches_the_oracle(pt, py, qt, qy):
    p = IManyPoint.from_digits(TernaryString(pt), BinaryString(py))
    q = IManyPoint.from_digits(TernaryString(qt), BinaryString(qy))
    assert p.digit_data_equals(q) == tuple_digit_data_equals(pt, py, qt, qy)


@SETTINGS
@given(blocks_st, st.data())
def test_check_facts_fields_match_the_oracle(blocks, data):
    p, q = data.draw(points(blocks)), data.draw(points(blocks))
    if p.digit_data_equals(q):
        return
    r = check_facts(p, q, blocks)
    sp = [s.digits for s in embed_strings(p, blocks)]
    sq = [s.digits for s in embed_strings(q, blocks)]
    assert r.t_first_diff == tuple_first_difference(p.t.digits, q.t.digits)
    assert r.t_delta == tuple_delta3(p.t.digits, q.t.digits)
    assert r.coord_first_diffs == tuple(map(tuple_first_difference, sp, sq))
    assert r.coord_deltas == tuple(map(tuple_delta3, sp, sq))
    gaps = tuple(abs(tuple_ternary_value(a) - tuple_ternary_value(b)) for a, b in zip(sp, sq))
    assert r.coord_gaps == gaps
    assert r.linf == max(gaps) and r.l2_sq == sum(g * g for g in gaps)
    assert "coord_gaps" not in r.to_json_dict()
