"""Fiber points: one expansion of x shared by every sheet label.

space.fiber_points expands x once and adds each label's term to the
shared t part; these tests referee it against the per-label route
embed(IManyPoint.from_value(x, y, 6*blocks), blocks) and the digit-tuple
interleave of tests/oracles.py.  The build/ pins in tests/test_golden.py
hold the bytes the per-label route wrote.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrips import space
from exactrips.digits import BinaryString, TernaryString
from exactrips.embedding import IManyPoint, embed, label_weight, t_coordinates
from exactrips.space import (
    SHEET_SCALE,
    CloudConfig,
    build_cloud,
    fiber_points,
    sheet_point,
)
from oracles import tuple_interleave, tuple_ternary_value, tuple_to_ternary

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

BLOCKS = (1, 2, 8, 12)


@st.composite
def fiber_values(draw):
    """x in [0, 1]: the fixed values 0, 1 and 1/2, a terminating j/3**k,
    or a non-terminating p/q (q not a power of 3)."""
    kind = draw(st.sampled_from(("fixed", "terminating", "other")))
    if kind == "fixed":
        return draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(1, 2))))
    if kind == "terminating":
        k = draw(st.integers(1, 80))
        return Fraction(draw(st.integers(0, 3**k)), 3**k)
    q = draw(st.integers(2, 10**6))  # below 3**13
    return draw(st.integers(0, q).map(lambda p: Fraction(p, q)).filter(
        lambda x: 3**13 % x.denominator != 0
    ))


@st.composite
def fiber_cases(draw):
    """(x, labels, blocks), with labels shorter than, as long as and
    longer than `blocks` digits."""
    blocks = draw(st.sampled_from(BLOCKS))
    depths = st.integers(0, 2 * blocks + 1)
    labels = draw(
        st.lists(
            depths.flatmap(lambda d: st.lists(st.integers(0, 1), min_size=d, max_size=d)),
            max_size=5,
        )
    )
    return draw(fiber_values()), [BinaryString(tuple(y)) for y in labels], blocks


@SETTINGS
@given(fiber_cases())
def test_fiber_points_equal_the_per_label_route(case):
    x, labels, blocks = case
    points = list(fiber_points(x, labels, blocks))
    assert len(points) == len(labels)
    t = tuple_to_ternary(x, 6 * blocks)
    for p, y in zip(points, labels):
        assert (p.kind, p.sheet_x, p.sheet_y) == ("sheet", x, y)
        assert p.coords[0] == x / SHEET_SCALE
        assert p.coords[1:] == embed(IManyPoint.from_value(x, y, 6 * blocks), blocks)
        assert p.coords[1:] == tuple(
            tuple_ternary_value(tuple_interleave(i, t, y.digits, blocks)) for i in range(3)
        )
        assert p == sheet_point(x, y, blocks)


@SETTINGS
@given(fiber_cases())
def test_label_weight_is_the_bit_sum_of_the_digit_tuple(case):
    x, labels, blocks = case
    t = TernaryString(tuple_to_ternary(x, 6 * blocks))
    base = t_coordinates(t, blocks)
    for y in labels:
        # Label digit k (zero-padded, cut at `blocks`) closes block k, the
        # (blocks-1-k)-th block counted from the least significant.
        digits = [y.digit(k) for k in range(blocks)]
        term = sum(bit * 27 ** (blocks - 1 - k) for k, bit in enumerate(digits))
        assert label_weight(y, blocks) == term
        expected = [tuple_interleave(i, t.digits, tuple(digits), blocks) for i in range(3)]
        den = 3 ** (3 * blocks)
        assert [Fraction(c + term, den) for c in base] == list(map(tuple_ternary_value, expected))


def test_fiber_points_shares_one_expansion(monkeypatch):
    calls = []
    real = space.to_ternary

    def counted(q, depth):
        calls.append(q)
        return real(q, depth)

    # The name fiber_points looks up, so a route around it is not counted
    # as zero calls.
    monkeypatch.setattr(space, "to_ternary", counted)
    labels = [BinaryString.from_int(v, 6) for v in range(64)]
    points = list(fiber_points(Fraction(1, 2), labels, 8))
    assert len(points) == 64
    assert calls == [Fraction(1, 2)]  # non-terminating, yet expanded once
    assert len({id(p.coords[0]) for p in points}) == 1
    calls.clear()
    cfg = CloudConfig(
        sheets=tuple(labels[:8]),
        scale=Fraction(236195, 236196),
        x_values=(Fraction(1, 3), Fraction(5, 7)),
    )
    build_cloud(cfg)
    assert calls == [Fraction(1, 3), Fraction(5, 7), Fraction(1, 2)]  # once per fiber


def test_fiber_points_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of"):
        list(fiber_points(Fraction(3, 2), [BinaryString((0,))], 2))
    with pytest.raises(ValueError, match="out of"):
        list(fiber_points(Fraction(-1, 3), [], 2))


def _labels(*texts):
    return tuple(BinaryString.from_text(s) for s in texts)


CONFIG_KINDS = {
    "sheets": "BinaryString",
    "scale": "Fraction or int",
    "x_values": "Fraction or int",
    "blocks": "int",
    "cube_grid": "int",
    "include_cube0": "bool",
    "include_partners": "bool",
}


@pytest.mark.parametrize(
    "fields",
    [
        {"scale": 0.999995},
        {"scale": True},
        {"scale": "1"},
        {"x_values": (0.5,)},
        {"x_values": (Fraction(1, 2), False)},
        {"blocks": True},
        {"cube_grid": 2.0},
        {"include_cube0": "false"},
        {"include_partners": 0},
        {"sheets": ("01",)},
    ],
)
def test_config_rejects_non_rational_scale_and_x_values(fields):
    # Before the check a float or bool was accepted and written to JSON,
    # which from_json then refused; a "false" flag built cube0 points, and
    # a str label or float grid failed later inside build_cloud.
    key = next(iter(fields))
    with pytest.raises(ValueError, match=f"config key '{key}' must be {CONFIG_KINDS[key]}: "):
        CloudConfig(**{"sheets": _labels("0"), "cube_grid": 1, **fields})


def test_config_with_int_scale_and_x_values_round_trips():
    cfg = CloudConfig(sheets=_labels("0", "1"), scale=1, x_values=(0, Fraction(1, 3), 1))
    assert CloudConfig.from_json(cfg.to_json()) == cfg
    # Stored as Fractions, so the text is "num/den" and a byte fixed point.
    assert type(cfg.scale) is Fraction and {type(x) for x in cfg.x_values} == {Fraction}
    assert CloudConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()
    assert build_cloud(cfg).to_csv_text() == build_cloud(
        CloudConfig.from_json(cfg.to_json())
    ).to_csv_text()
