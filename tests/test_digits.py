"""Digit strings, greedy expansions and the ternary ultrametric."""

import random
import re
from fractions import Fraction

import pytest

from exactrips.digits import (
    BinaryString,
    TernaryString,
    delta3,
    format_rational,
    parse_int,
    parse_rational,
    rational_parts,
    ternary_value,
    to_ternary,
)


def test_to_ternary_terminating_representation():
    assert to_ternary(Fraction(1, 3), 4).digits == (1, 0, 0, 0)


def test_to_ternary_zero():
    assert to_ternary(Fraction(0), 4).digits == (0, 0, 0, 0)


def test_to_ternary_13_27():
    assert to_ternary(Fraction(13, 27), 4).digits == (1, 1, 1, 0)


def test_to_ternary_one_is_all_twos():
    assert to_ternary(Fraction(1), 5).digits == (2, 2, 2, 2, 2)


def test_to_ternary_domain_errors():
    with pytest.raises(ValueError):
        to_ternary(Fraction(3, 2), 4)
    with pytest.raises(ValueError):
        to_ternary(Fraction(-1, 2), 4)
    with pytest.raises(ValueError):
        to_ternary(Fraction(1, 2), 0)


def test_ternary_value_examples():
    assert ternary_value(TernaryString((1, 0, 0))) == Fraction(1, 3)
    assert ternary_value(TernaryString((0, 1, 1))) == Fraction(4, 27)
    assert ternary_value(TernaryString((2, 2, 2))) == Fraction(26, 27)


def test_delta3_examples():
    assert delta3(TernaryString((0, 1, 2)), TernaryString((0, 1, 0))) == Fraction(1, 9)
    assert delta3(TernaryString((1, 2)), TernaryString((1, 2))) == 0
    assert delta3(TernaryString((2, 0)), TernaryString((0, 0))) == 1


def test_delta3_zero_pads_shorter_string():
    assert delta3(TernaryString((1,)), TernaryString((1, 0, 0))) == 0
    assert delta3(TernaryString((1,)), TernaryString((1, 0, 2))) == Fraction(1, 9)


def test_digit_validation():
    with pytest.raises(ValueError):
        TernaryString((0, 3))
    with pytest.raises(ValueError):
        BinaryString((0, 2))


def test_string_text_round_trip():
    s = TernaryString((1, 1, 0, 2))
    assert TernaryString.from_text(s.text()) == s
    b = BinaryString((1, 0, 1))
    assert BinaryString.from_text(b.text()) == b


def test_string_text_takes_ascii_digits_only():
    assert BinaryString.from_text("") == BinaryString(())
    assert TernaryString.from_text("0012") == TernaryString((0, 0, 1, 2))
    # int() would read the Arabic-Indic, full-width and superscript digits.
    binary = ("\u0661\u0660", "\uff11", "\u00b9", "2", "01a", " 1", "1_0", "-1")
    cases = [(BinaryString, t) for t in binary] + [(TernaryString, t) for t in "\u06623x"]
    for cls, text in cases:
        with pytest.raises(ValueError) as err:
            cls.from_text(text)
        assert str(err.value) == f"{cls._digit_error}, got {text!r}"


def test_rational_text_forms():
    assert parse_rational("13/27") == Fraction(13, 27)
    assert parse_rational("5") == 5
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(13, 27)) == "13/27"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1/2/3")
    # Outer whitespace is stripped and a sign may lead the numerator.
    assert parse_rational(" +3/4\n") == Fraction(3, 4)
    assert parse_rational("007/010") == Fraction(7, 10)
    assert parse_rational("-0") == 0
    # int() would take the underscores, the full-width and Arabic-Indic
    # digits, the inner spaces and the sign after the slash.
    bad = ("1_0", "1_0/1_0", "\uff11/\uff12", "\u0661/\u0662", " 1 /2", "1/ 2", "1/+2")
    for text in bad + ("", "/2", "1/", "1/-2", "1.5", "0x10", "\u00bd", "2e3", "--1"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)


@pytest.mark.parametrize(
    "text, parts",
    [("2/4", (2, 4)), (" -0/5\n", (0, 5)), ("+6", (6, 1)), ("007/010", (7, 10)),
     ("1/0", None), ("1/2/3", None), ("1_0", None), ("", None)],
)
def test_rational_parts_are_parse_rational_unreduced(text, parts):
    # One rule: the pair parse_rational reads as a Fraction, or its error.
    if parts is None:
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(err.value))}$"):
            rational_parts(text)
    else:
        assert rational_parts(text) == parts
        assert parse_rational(text) == Fraction(*parts)


def test_int_text_forms():
    assert parse_int("12") == 12
    assert parse_int(" -007\n") == -7
    assert parse_int("+0") == 0
    bad = ("1_0", "\uff14", "\u0664", "1 0", "", "+", "1/1", "1.0", "0x10", "2e3", "--1")
    for text in bad:
        with pytest.raises(ValueError, match="not an integer"):
            parse_int(text)


def test_ultrametric_inequality_random_triples():
    rng = random.Random(101)
    for _ in range(500):
        depth = rng.randint(1, 30)
        s, t, u = (
            TernaryString(tuple(rng.randrange(3) for _ in range(depth)))
            for _ in range(3)
        )
        assert delta3(s, u) <= max(delta3(s, t), delta3(t, u))
        assert delta3(s, t) == delta3(t, s)
        assert delta3(s, s) == 0


def test_value_gap_bounded_by_delta3_with_truncation_slack():
    # |x - y| <= delta3 of the depth-d expansions plus the 3**-d slack,
    # for arbitrary rationals (not only terminating ones).
    rng = random.Random(202)
    for _ in range(500):
        d = rng.randint(1, 20)
        x = Fraction(rng.randint(0, 1000), 1000)
        y = Fraction(rng.randint(0, 997), 997)
        gap = abs(x - y)
        dist = delta3(to_ternary(x, d), to_ternary(y, d))
        assert gap <= dist + Fraction(1, 3**d)


def test_round_trip_error_below_resolution():
    rng = random.Random(303)
    for _ in range(500):
        d = rng.randint(1, 20)
        x = Fraction(rng.randint(0, 999), 1000)
        back = ternary_value(to_ternary(x, d))
        assert abs(back - x) < Fraction(1, 3**d)
        assert back <= x


def test_round_trip_exact_for_terminating_values():
    rng = random.Random(404)
    for _ in range(200):
        d = rng.randint(1, 15)
        num = rng.randint(0, 3**d)
        x = Fraction(num, 3**d)
        if x == 1:
            continue
        assert ternary_value(to_ternary(x, d)) == x


def test_finite_string_is_its_own_greedy_expansion():
    rng = random.Random(505)
    for _ in range(200):
        d = rng.randint(1, 15)
        s = TernaryString(tuple(rng.randrange(3) for _ in range(d)))
        assert to_ternary(ternary_value(s), d) == s
