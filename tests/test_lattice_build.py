"""build_cloud on the integer lattice, refereed by the Fraction route.

build_cloud emits every point as an int row over one common denominator
and makes the cloud on its lattice; the Fraction points are made only
when read.  fraction_build_cloud in tests/oracles.py samples the same
config with Fraction coordinates from digit tuples and derives its
lattice from the points, and the two must agree on the points, the
lattice, the kind masks and the CSV bytes.  Each fiber x is expanded
once, and a sheet label adds only its label_weight to the shared t part.
The hot path of an experiment row must make no points at all, and
neither must a cloud read from CSV and ranked; that cloud is the built
one.  The config checks (exact types, int values) are here too.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips import space
from exactrips.cli import main
from exactrips.digits import BinaryString, TernaryString, json_fields, json_text
from exactrips.embedding import label_weight, t_coordinates
from exactrips.harness import (
    assert_rigid_free,
    default_sheets,
    find_rigid_edges,
    theorem_experiment,
)
from exactrips.homology import betti01
from exactrips.rips import build_complex
from exactrips.space import (
    DEFAULT_SCALES,
    SHEET_SCALE,
    Cloud,
    CloudConfig,
    LabeledPoint4,
    build_cloud,
    scale_window,
)
from oracles import (
    cloud_of,
    fraction_build_cloud,
    tuple_interleave,
    tuple_ternary_value,
    tuple_to_ternary,
)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

LO, HI = scale_window()


@st.composite
def sheet_parameters(draw):
    """x in [0, 1]: 0, 1 (the all-2s expansion), 1/2 (non-terminating), a
    terminating j/3**k or a non-terminating p/q (q not a power of 3)."""
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
def configs(draw):
    """1-8 sheets at 1-4 blocks, up to three x values, cube grid 0-3 with
    cube0 and partners either way, at a window end or an interior scale."""
    blocks = draw(st.integers(1, 4))
    values = draw(st.sets(st.integers(0, 2**blocks - 1), min_size=1, max_size=8))
    width = draw(st.integers(blocks, blocks + 2))
    sheets = tuple(BinaryString.from_int(v << (width - blocks), width) for v in sorted(values))
    m = draw(st.sampled_from((1, 2, 3, 7, 3**5)))
    scale = draw(st.sampled_from((LO, HI, DEFAULT_SCALES[1], LO + (HI - LO) * Fraction(1, m))))
    return CloudConfig(
        sheets=sheets,
        scale=scale,
        x_values=tuple(draw(st.sets(sheet_parameters(), max_size=3))),
        blocks=blocks,
        cube_grid=draw(st.integers(0, 3)),
        include_cube0=draw(st.booleans()),
        include_partners=draw(st.booleans()),
    )


# Sheet x=0, y=0 is the origin: its scale-1 partner is the grid point
# cube1,1,0,0,0 and the sheet point itself the cube0 grid corner, so
# both merge with a grid point and keep their first (sheet-side) labels.
MERGING = CloudConfig(
    sheets=(BinaryString((0,)), BinaryString((1,))),
    scale=Fraction(1),
    x_values=(Fraction(0),),
    blocks=2,
    cube_grid=2,
    include_cube0=True,
)


@SETTINGS
@given(configs())
@example(MERGING)
def test_int_build_matches_the_fraction_route(cfg):
    cloud, ref = build_cloud(cfg), fraction_build_cloud(cfg)
    assert cloud.lattice == ref.lattice
    assert cloud.kind_masks == ref.kind_masks
    assert cloud.points == ref.points
    assert cloud.to_csv_text().encode() == ref.to_csv_text().encode()
    # The lattice the cloud was made on is the one its points give.
    assert cloud_of(cloud.points).lattice == cloud.lattice
    assert cloud == ref


def test_partner_on_a_grid_point_merges():
    cloud = build_cloud(MERGING)
    labels = [p.label_text() for p in cloud.points]
    rows = [",".join(line.split(",")[1:]) for line in cloud.to_csv_text().splitlines()]
    assert len(set(rows)) == len(rows)
    assert labels[rows.index("1/1,0/1,0/1,0/1")] == "cube1"
    assert labels[rows.index("0/1,0/1,0/1,0/1")] == "sheet:x=0/1:y=0"
    # 2 sheet points (the scale-1 fiber is the x value 0, so its points
    # merge), 2 partners, then the 2 * 27 grid points less the partner and
    # the origin already emitted.
    assert len(cloud) == 2 + 2 + 54 - 2


@SETTINGS
@given(configs())
@example(MERGING)
def test_csv_round_trip_gives_the_built_cloud(cfg):
    cloud = build_cloud(cfg)
    back = Cloud.from_csv_text(cloud.to_csv_text())
    assert back == cloud and hash(back) == hash(cloud)


def _made_points(monkeypatch):
    """The kinds of the LabeledPoint4s made from here on."""
    made = []
    post_init = LabeledPoint4.__post_init__

    def counted(self):
        made.append(self.kind)
        post_init(self)

    monkeypatch.setattr(LabeledPoint4, "__post_init__", counted)
    return made


def test_experiment_rows_make_no_points(monkeypatch):
    made = _made_points(monkeypatch)
    minimal = theorem_experiment([5], [DEFAULT_SCALES[1]])
    grid = theorem_experiment([3], [LO], cube_grid=2, include_cube0=True)
    assert minimal.all_pass and grid.all_pass
    assert made == []
    # The count is live: reading the points of a built cloud makes them.
    assert len(build_cloud(CloudConfig(sheets=(BinaryString((0,)),))).points) == 2
    assert made == ["sheet", "cube1"]


def test_a_csv_cloud_is_ranked_without_points(monkeypatch, tmp_path):
    # What betti, rigid and sweep do with a cloud file, in the API and
    # through the CLI.
    cfg = CloudConfig(default_sheets(3), LO, x_values=(Fraction(1, 3),), cube_grid=2)

    def ranked(cloud):
        cx = build_complex(cloud, LO)
        rigid = find_rigid_edges(cx)
        return betti01(cx), cx.scale_edges, assert_rigid_free(cx, rigid).ok

    built = build_cloud(cfg)
    expected = ranked(built)
    assert len(expected[1].rigid) == 3 and expected[2]
    text = built.to_csv_text()
    cloud_path = tmp_path / "cloud.csv"
    cloud_path.write_text(text)
    made = _made_points(monkeypatch)
    cloud = Cloud.from_csv_text(text)
    assert ranked(cloud) == expected
    assert "points" not in cloud.__dict__
    for command, scale in (("betti", "--scale"), ("rigid", "--scale"), ("sweep", "--scales")):
        argv = [command, "--cloud", str(cloud_path), scale, "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
    assert made == []


@st.composite
def fibers(draw):
    """(x, labels, blocks) at blocks 1, 2, 8 or 12, with 1-5 labels
    shorter than, as long as and longer than `blocks` digits, distinct in
    their first `blocks` digits as CloudConfig requires."""
    blocks = draw(st.sampled_from((1, 2, 8, 12)))
    label = st.integers(0, 2 * blocks + 1).flatmap(
        lambda d: st.lists(st.integers(0, 1), min_size=d, max_size=d)
    ).map(lambda y: BinaryString(tuple(y)))
    labels = draw(st.lists(label, min_size=1, max_size=5, unique_by=lambda y: y.value_at(blocks)))
    return draw(sheet_parameters()), labels, blocks


ALL_TWOS = (Fraction(1), [BinaryString.from_text("1" * 25), BinaryString(())], 12)
HALF = (Fraction(1, 2), [BinaryString.from_text("0110"), BinaryString.from_text("1")], 2)


@SETTINGS
@given(fibers())
@example(ALL_TWOS)
@example(HALF)
@example((Fraction(5, 3**80), [BinaryString.from_text("1")], 8))
@example((Fraction(1, 7), [BinaryString.from_text("0" * 9)], 8))
def test_sheet_points_match_the_digit_tuples(case):
    x, labels, blocks = case
    cfg = CloudConfig(tuple(labels), x_values=(x,), blocks=blocks, include_partners=False)
    cloud = build_cloud(cfg)
    assert cloud == fraction_build_cloud(cfg)
    # One point per label, in label order, at (x / 118098, its interleaving).
    t = tuple_to_ternary(x, 6 * blocks)
    for p, y in zip(cloud.points, labels, strict=True):
        image = (tuple_ternary_value(tuple_interleave(i, t, y.digits, blocks)) for i in range(3))
        assert p == LabeledPoint4((x / SHEET_SCALE, *image), "sheet", x, y)


@SETTINGS
@given(fibers())
@example(ALL_TWOS)
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


def test_each_fiber_is_expanded_once(monkeypatch):
    calls = []
    real = space.to_ternary

    def counted(q, depth):
        calls.append(q)
        return real(q, depth)

    # The name build_cloud looks up, so a route around it is not counted
    # as zero calls.
    monkeypatch.setattr(space, "to_ternary", counted)
    labels = [BinaryString.from_int(v, 6) for v in range(64)]
    cfg = CloudConfig(tuple(labels), x_values=(Fraction(1, 2),), include_partners=False)
    cloud = build_cloud(cfg)
    assert len(cloud) == 64
    assert calls == [Fraction(1, 2)]  # non-terminating, yet expanded once
    calls.clear()
    cfg = CloudConfig(
        sheets=tuple(labels[:8]),
        scale=Fraction(236195, 236196),
        x_values=(Fraction(1, 3), Fraction(5, 7)),
    )
    build_cloud(cfg)
    assert calls == [Fraction(1, 3), Fraction(5, 7), Fraction(1, 2)]  # once per fiber


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
    text = json_text(json_fields(cfg))
    assert CloudConfig.from_json(text) == cfg
    # Stored as Fractions, so the text is "num/den" and a byte fixed point.
    assert type(cfg.scale) is Fraction and {type(x) for x in cfg.x_values} == {Fraction}
    assert json_text(json_fields(CloudConfig.from_json(text))) == text
    assert build_cloud(cfg).to_csv_text() == build_cloud(CloudConfig.from_json(text)).to_csv_text()
