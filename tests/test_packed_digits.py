"""Packed (int value, depth) digit strings against digit-by-digit oracles.

Every operation on packed strings is compared with the tuple version in
oracles.py: construction and the public accessors, the greedy expansion,
values, first differences and delta3 (with zero padding of unequal
depths), embed_strings (with t deeper than 6*blocks and empty sheet labels),
decode (results, and the message and precedence of every
MalformedImageError, with defects in either half of a two-block step and
at odd blocks), digit-data equality and the check_facts fields the lemma
suite reads.
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
    first_difference_packed,
    power,
    ternary_value,
    to_ternary,
)
from exactrips.embedding import (
    IManyPoint,
    MalformedImageError,
    check_facts,
    decode,
    embed_strings,
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
    return IManyPoint(TernaryString(t), BinaryString(y))


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


@pytest.mark.parametrize("k", [255, 256, 257])
@pytest.mark.parametrize("cls", [TernaryString, BinaryString])
def test_powers_at_the_table_edge(cls, k):
    # Exponent k, the last tabled power and the first two past the table,
    # in each use, against base ** k (first_difference_packed's probes at
    # these exponents are examples of its per-digit test below).
    base = cls.base
    assert power(base, k) == base**k
    assert cls.from_int(base**k - 1, k).digits == (base - 1,) * k
    with pytest.raises(ValueError):
        cls.from_int(base**k, k)
    assert cls.from_int(1, 1).value_at(k + 1) == base**k
    assert cls.from_int(base ** (k + 1) - 1, k + 1).value_at(1) == base - 1


def _base3(v: int, depth: int) -> tuple:
    digits = []
    for _ in range(depth):
        v, d = divmod(v, 3)
        digits.append(d)
    assert v == 0
    return tuple(reversed(digits))


@st.composite
def packed_pairs(draw):
    depth = draw(st.one_of(st.integers(1, 40), st.integers(250, 400)))
    a = draw(st.integers(0, 3**depth - 1))
    near = st.integers(max(0, a - 3**5), min(3**depth - 1, a + 3**5))
    return a, draw(st.one_of(st.integers(0, 3**depth - 1), near)), depth


@SETTINGS
@given(packed_pairs())
@example((3**5 - 1, 3**5, 9))  # a carry chain: 000022222 against 000100000
@example((3**5, 3**5 - 1, 6))
@example((3**30 - 1, 3**30, 31))  # the chain runs up to the first digit
@example((2 * 3**7 - 1, 2 * 3**7 + 3**6, 12))
@example((0, 0, 1))  # equal values
@example((12345, 12345, 20))
@example((0, 3**4, 9))  # |a - b| a power of 3
@example((3**4 - 1, 2 * 3**4 - 1, 9))
@example((2 * 3**8, 3**8, 9))  # |a - b| = 3**(depth - 1)
@example((2, 1, 1))
@example((0, 1, 256))  # depths past the precomputed powers of 3
@example((3**255, 3**255 - 1, 256))
@example((0, 3**255, 256))  # the probes at exponents 255, 256 and 257
@example((3**256, 3**256 - 1, 257))
@example((2 * 3**257, 3**257 + 5, 258))
@example((3**200 - 1, 3**200, 300))
@example((3**299, 2 * 3**299, 300))
@example((7, 7, 400))
def test_first_difference_packed_matches_per_digit_scan(case):
    a, b, depth = case
    expected = tuple_first_difference(_base3(a, depth), _base3(b, depth))
    assert first_difference_packed(a, b, depth) == expected


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
    # A point holds at least one t digit; zero-padded, () reads as (0,).
    p = IManyPoint(TernaryString(t or (0,)), BinaryString(b))
    expected = [tuple_interleave(i, t, b, blocks) for i in range(3)]
    assert [s.digits for s in embed_strings(p, blocks)] == expected


@SETTINGS
@given(blocks_st, st.data())
def test_decode_round_trips_embed(blocks, data):
    p = data.draw(points(blocks))
    t_back, y_back = decode(embed_strings(p, blocks), blocks)
    assert t_back == TernaryString.from_int(p.t.value_at(6 * blocks), 6 * blocks)
    assert y_back == BinaryString.from_int(p.y.value_at(blocks), blocks)
    assert IManyPoint(t_back, y_back).digit_data_equals(p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MalformedImageError as exc:
        return ("MalformedImageError", str(exc))


@st.composite
def coordinate_strings(draw):
    blocks = draw(st.one_of(blocks_st, st.just(13)))
    lengths = st.sampled_from((3 * blocks,) * 4 + (3 * blocks - 1, 3 * blocks + 3))
    # Mostly 0s and 1s, so that the checks after the reserved-2 scan are reached.
    digit = st.sampled_from((0, 1, 2, 0, 1, 0, 1, 0, 1))
    count = draw(st.sampled_from((3, 3, 3, 2)))
    return blocks, [
        tuple(draw(st.lists(digit, min_size=n, max_size=n)))
        for n in (draw(lengths) for _ in range(count))
    ]


def _image(blocks, *edits):
    # Three all-zero coordinate strings with digit k of string i set to d
    # for each (i, k, d).
    strings = [[0] * (3 * blocks) for _ in range(3)]
    for i, k, d in edits:
        strings[i][k] = d
    return blocks, [tuple(s) for s in strings]


# decode reads blocks in pairs, lowest first: at blocks 2 block 0 (digits
# 0-2) is the high and block 1 the low half of one pair; at odd blocks
# block 0 is the high half of a pair whose low half lies past the string.
@SETTINGS
@given(coordinate_strings())
@example(_image(2, (0, 2, 2), (0, 5, 2)))  # reserved 2s in both halves of a pair
@example(_image(2, (1, 2, 2), (1, 5, 2)))
@example(_image(2, (0, 2, 1), (1, 2, 1), (2, 2, 1), (2, 5, 2)))
@example(_image(4, (0, 8, 2), (0, 11, 2), (1, 2, 1)))
@example(_image(2, (0, 2, 2), (1, 2, 2), (2, 2, 2)))  # the same 2 in every coordinate
@example(_image(2, (0, 5, 2), (1, 5, 2), (2, 5, 2)))
@example(_image(3, (0, 2, 2), (1, 2, 2), (2, 2, 2)))
@example(_image(3, (0, 2, 1)))  # labels disagree only in the top half-pair
@example(_image(3, (2, 2, 1), (0, 5, 1), (1, 5, 1), (2, 5, 1)))
@example(_image(5, (1, 2, 1)))
@example(_image(5, (0, 2, 1), (1, 2, 1), (2, 0, 2), (2, 1, 2)))
@example(_image(3, (0, 2, 1), (1, 2, 1), (2, 2, 1), (0, 0, 2)))  # top half-pair agrees
@example(_image(13, (0, 38, 1), (1, 38, 1), (2, 38, 1), (0, 36, 2), (2, 37, 2)))
@example(_image(13, (0, 38, 1), (1, 38, 1)))
@example(_image(13, (2, 2, 2), (2, 38, 2)))
@example((13, [(0, 1, 1) * 13, (2, 2, 1) * 13, (1, 0, 1) * 13]))
def test_decode_matches_the_oracle_on_any_strings(case):
    blocks, strings = case
    packed = _outcome(decode, [TernaryString(s) for s in strings], blocks)
    if isinstance(packed, tuple) and isinstance(packed[0], TernaryString):
        packed = (packed[0].digits, packed[1].digits)
    assert packed == _outcome(tuple_decode, strings, blocks)


def test_decode_error_precedence():
    ok = (0,) * 6
    two = (0, 0, 2, 0, 0, 0)
    short = (0,) * 3
    cases = [
        ((2, (two, ok, short)), "digit 2 at reserved position 2"),
        ((2, (ok, short, two)), "coordinate string must have 6 digits, got 3"),
        ((2, ((0, 0, 1, 0, 0, 0), ok, (0, 0, 0, 0, 0, 2))), "digit 2 at reserved position 5"),
        ((2, ((0, 0, 0, 0, 0, 1), ok, ok)), "coordinates disagree on shared digit 1"),
        # Reserved 2s in both halves of one pair: the first string holding
        # one is named, at its earliest position.
        (_image(2, (1, 2, 2), (1, 5, 2)), "digit 2 at reserved position 2"),
        (_image(2, (0, 5, 2), (2, 2, 2)), "digit 2 at reserved position 5"),
        (_image(4, (1, 8, 2), (1, 11, 2), (0, 2, 1)), "digit 2 at reserved position 8"),
        (_image(3, (0, 2, 2), (1, 2, 2), (2, 2, 2)), "digit 2 at reserved position 2"),
        # Labels that disagree only in the top half-pair, at odd blocks.
        (_image(3, (2, 2, 1)), "coordinates disagree on shared digit 0"),
        (_image(5, (0, 2, 1), (1, 2, 1)), "coordinates disagree on shared digit 0"),
        (_image(5, (1, 2, 1), (0, 14, 1)), "coordinates disagree on shared digit 0"),
        (_image(13, (0, 35, 1), (1, 38, 1)), "coordinates disagree on shared digit 11"),
        (_image(13, (2, 38, 2), (0, 2, 1)), "digit 2 at reserved position 38"),
    ]
    for (blocks, strings), message in cases:
        with pytest.raises(MalformedImageError) as exc:
            decode([TernaryString(s) for s in strings], blocks)
        assert str(exc.value).startswith(message)
        with pytest.raises(MalformedImageError) as oracle:
            tuple_decode(strings, blocks)
        assert str(exc.value) == str(oracle.value)


@SETTINGS
@given(ternary.filter(bool), binary, ternary.filter(bool), binary)
@example((1, 0), (1,), (1, 0, 0), (1, 0))
def test_digit_data_equals_matches_the_oracle(pt, py, qt, qy):
    p = IManyPoint(TernaryString(pt), BinaryString(py))
    q = IManyPoint(TernaryString(qt), BinaryString(qy))
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
    assert r.x_gap == abs(tuple_ternary_value(p.t.digits) - tuple_ternary_value(q.t.digits))
    assert r.coord_first_diffs == tuple(map(tuple_first_difference, sp, sq))
    assert r.coord_deltas == tuple(map(tuple_delta3, sp, sq))
    gaps = tuple(abs(tuple_ternary_value(a) - tuple_ternary_value(b)) for a, b in zip(sp, sq))
    assert r.coord_gaps == gaps
    assert r.linf == max(gaps) and r.l2_sq == sum(g * g for g in gaps)
    assert "coord_gaps" not in r.to_json_dict()
