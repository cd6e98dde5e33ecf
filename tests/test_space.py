"""Cloud sampling, the scale window, and the circle/parabola predicate."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from exactrips.digits import BinaryString
from exactrips.harness import default_sheets
from exactrips.rips import build_complex, second_neighbor_witness
from exactrips.space import (
    DEFAULT_SCALES,
    SHEET_SCALE,
    Cloud,
    CloudConfig,
    LabeledPoint4,
    build_cloud,
    circle_above_parabola_cleared,
    fiber_value,
    scale_window,
)

from oracles import cloud_of

Y0 = BinaryString((0,))
Y1 = BinaryString((1,))


def test_scale_window_exact():
    lo, hi = scale_window()
    assert (lo, hi) == (Fraction(118097, 118098), Fraction(1))
    assert lo < hi
    assert hi - lo == Fraction(1, 118098)
    assert SHEET_SCALE == 2 * 243**2 == 118098


def _sheet_points(x_values, y, blocks):
    # The sheet points of label y at each x, from a cloud of those alone.
    cfg = CloudConfig((y,), x_values=tuple(x_values), blocks=blocks, include_partners=False)
    return build_cloud(cfg).points


def test_sheet_point_origin():
    (p,) = _sheet_points([Fraction(0)], Y0, 2)
    assert p.coords == (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    assert p.kind == "sheet"


def test_sheet_point_one_third():
    (p,) = _sheet_points([Fraction(1, 3)], Y0, 8)
    assert p.coords == (Fraction(1, 354294), Fraction(1, 3), Fraction(0), Fraction(0))


def test_sheet_point_pure_sheet_digits():
    (p,) = _sheet_points([Fraction(0)], BinaryString((1, 1)), 2)
    v = Fraction(28, 729)
    assert p.coords == (Fraction(0), v, v, v)


def test_sheet_point_rejects_out_of_range():
    for x in (Fraction(3, 2), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="x value out of"):
            CloudConfig(sheets=(Y0,), x_values=(x,))


def test_sheet_first_coordinate_range():
    rng = random.Random(13)
    xs = {Fraction(rng.randint(0, 3**6), 3**6) for _ in range(100)}
    for p in _sheet_points(sorted(xs), Y1, 4):
        assert 0 <= p.coords[0] <= Fraction(1, 118098)


def test_fiber_values_at_default_scales():
    assert fiber_value(Fraction(1)) == 0
    assert fiber_value(Fraction(118097, 118098)) == 1
    assert fiber_value(Fraction(236195, 236196)) == Fraction(1, 2)


def test_build_cloud_minimal_count():
    cfg = CloudConfig(
        sheets=(Y0, Y1, BinaryString((1, 1))),
        scale=Fraction(1),
        x_values=(Fraction(0),),  # coincides with the fiber: merged
    )
    cloud = build_cloud(cfg)
    assert len(cloud) == 6
    kinds = [p.kind for p in cloud.points]
    assert kinds.count("sheet") == 3 and kinds.count("cube1") == 3


def test_build_cloud_with_corner_grid():
    cfg = CloudConfig(
        sheets=(Y1, BinaryString((0, 1)), BinaryString((1, 1))),
        scale=Fraction(1),
        x_values=(Fraction(0),),
        cube_grid=1,
    )
    cloud = build_cloud(cfg)
    # 3 sheet/fiber + 3 partners + 8 corners, no coincidences for these sheets
    assert len(cloud) == 14


def test_build_cloud_merges_partner_into_corner():
    # The all-zero sheet at fiber 0 embeds to the origin, so its partner
    # IS the corner (1,0,0,0); first emission keeps the cube1 label.
    cfg = CloudConfig(sheets=(Y0,), scale=Fraction(1), cube_grid=1)
    cloud = build_cloud(cfg)
    assert len(cloud) == 1 + 1 + 8 - 1


def test_build_cloud_all_twos_fiber():
    a = Fraction(118097, 118098)
    cfg = CloudConfig(sheets=(Y0, Y1), scale=a, blocks=2)
    cloud = build_cloud(cfg)
    assert len(cloud) == 4
    fiber = [p for p in cloud.points if p.kind == "sheet"]
    assert all(p.coords[0] == 1 - a for p in fiber)
    assert all(p.sheet_x == 1 for p in fiber)
    # all-2s truncation: every embedded coordinate shares the 2,2,b pattern
    v00 = Fraction(2, 3) + Fraction(2, 9)  # first block of (2,2,0)
    assert fiber[0].coords[1] == v00 + v00 / 27


def test_build_cloud_nonterminating_fiber_accepted():
    a = Fraction(236195, 236196)
    cloud = build_cloud(CloudConfig(sheets=(Y0,), scale=a, blocks=2))
    sheetp = next(p for p in cloud.points if p.kind == "sheet")
    assert sheetp.coords[0] == 1 - a
    assert sheetp.sheet_x == Fraction(1, 2)


def test_build_cloud_deterministic():
    cfg = CloudConfig(sheets=(Y0, Y1), scale=Fraction(1), cube_grid=2, include_cube0=True)
    assert build_cloud(cfg) == build_cloud(cfg)


def test_build_cloud_rejects_empty_sheets():
    with pytest.raises(ValueError):
        build_cloud(CloudConfig(sheets=(), scale=Fraction(1)))


def test_config_validation():
    with pytest.raises(ValueError):
        CloudConfig(sheets=(Y0,), scale=Fraction(1, 2))  # outside the window
    with pytest.raises(ValueError):
        CloudConfig(sheets=(Y0, BinaryString((0, 0))))  # equal after padding
    with pytest.raises(ValueError):
        CloudConfig(sheets=(Y0,), x_values=(Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(ValueError):
        CloudConfig(sheets=(Y0,), blocks=0)


def test_config_labels_must_differ_within_blocks():
    # The embedding reads only the first `blocks` digits of a label.
    with pytest.raises(ValueError, match="first blocks=1 digits"):
        CloudConfig(sheets=tuple(map(BinaryString.from_text, ("00", "01", "10"))), blocks=1)
    with pytest.raises(ValueError, match="takes blocks >= 9"):
        CloudConfig(sheets=tuple(BinaryString.from_int(j, 9) for j in range(257)))
    CloudConfig(sheets=tuple(map(BinaryString.from_text, ("00", "1"))), blocks=1)
    CloudConfig(sheets=tuple(BinaryString.from_int(j, 8) for j in range(256)))


def test_config_json_round_trip():
    cfg = CloudConfig(
        sheets=(Y0, Y1),
        scale=Fraction(236195, 236196),
        x_values=(Fraction(1, 3),),
        blocks=4,
        cube_grid=2,
        include_cube0=True,
        include_partners=False,
    )
    assert CloudConfig.from_json(cfg.to_json()) == cfg


def test_cloud_csv_round_trip():
    cfg = CloudConfig(sheets=(Y0, Y1), scale=Fraction(1), cube_grid=1)
    cloud = build_cloud(cfg)
    back = Cloud.from_csv_text(cloud.to_csv_text())
    assert back.points == cloud.points


@pytest.mark.parametrize(
    "row",
    [
        "cube1,0,0,0,0",
        "cube0,1,0,0,0",
        "sheet:x=1/2:y=0,1,0,0,0",
        "sheet:x=1/2:y=0,1/118098,0,0,0",
        "sheet:x=2:y=0,1/59049,0,0,0",
        "sheet:x=-1:y=0,-1/118098,0,0,0",
    ],
)
def test_cloud_csv_rejects_label_coordinate_mismatch(row):
    with pytest.raises(ValueError):
        Cloud.from_csv_text(row + "\n")


def test_cloud_csv_accepts_consistent_labels():
    text = "cube0,0,1/2,0,0\ncube1,1,0,0,1\nsheet:x=1/2:y=01,1/236196,1/3,0,0\n"
    kinds = [p.kind for p in Cloud.from_csv_text(text).points]
    assert kinds == ["cube0", "cube1", "sheet"]


def test_cloud_csv_unreduced_cells_give_the_reduced_cloud():
    reduced = "cube0,0,1/2,0,0\ncube1,1,0,0,1\nsheet:x=1/2:y=01,1/236196,1/3,0,0\n"
    unreduced = "cube0,0/5,2/4,0,0/5\ncube1,3/3,0/5,0,2/2\nsheet:x=1/2:y=01,2/472392,2/6,0/5,0\n"
    cloud = Cloud.from_csv_text(unreduced)
    assert cloud == Cloud.from_csv_text(reduced)
    assert cloud.lattice[0] == 236196  # the lcm of the reduced denominators 2, 3, 236196


def _kind_scan(cloud) -> dict[str, int]:
    # One pass per kind over the points, by kind name.
    return {
        kind: sum(1 << i for i, p in enumerate(cloud.points) if p.kind == kind)
        for kind in ("sheet", "cube0", "cube1")
    }


@pytest.mark.parametrize(
    "cloud",
    [
        *(
            build_cloud(CloudConfig(default_sheets(n), a, blocks=4))
            for n in (1, 3, 8)
            for a in DEFAULT_SCALES
        ),
        *(
            build_cloud(CloudConfig(
                (Y0, Y1), DEFAULT_SCALES[1], (Fraction(1, 3),), 4, g, True, partners
            ))
            for g in (1, 3)
            for partners in (True, False)
        ),
        Cloud.from_csv_text(
            "cube0,0,1/2,0,0\ncube1,1,0,0,1\nsheet:x=1/2:y=01,1/236196,1/3,0,0\n"
            "cube1,1,1/3,0,0\ncube0,0,0,0,0\n"
        ),
        cloud_of(()),
    ],
)
def test_kind_masks_match_per_point_scan(cloud):
    masks = cloud.kind_masks
    assert masks._asdict() == _kind_scan(cloud)
    assert cloud.kind_masks is masks  # computed once


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/2", Decimal("0.5"), None])
def test_points_refuse_inexact_coordinates(bad):
    # A float would enter the lattice with a 2**k denominator and decide
    # edges; a bool or str is not a number.
    with pytest.raises(ValueError, match="must be Fraction or int"):
        LabeledPoint4((Fraction(0), bad, Fraction(0), Fraction(0)), "cube1")
    with pytest.raises(ValueError, match="must be Fraction or int"):
        LabeledPoint4((bad, 0, 0, 0), "cube0")
    if bad is not None:  # a sheet point without x is refused as such
        with pytest.raises(ValueError, match="must be Fraction or int"):
            LabeledPoint4((Fraction(0),) * 4, "sheet", bad, Y0)


def test_points_take_int_coordinates():
    p = LabeledPoint4((1, 0, Fraction(1, 3), 0), "sheet", 0, Y0)
    assert cloud_of((p,)).lattice == (3, ((3, 0, 1, 0),))
    assert cloud_of((p,)).to_csv_text() == "sheet:x=0/1:y=0,1/1,0/1,1/3,0/1\n"


def test_hand_built_cloud_labels_are_not_checked():
    p = LabeledPoint4((Fraction(0),) * 4, "cube1")
    assert cloud_of((p,)).points == (p,)


def test_rigid_pair_squared_distance_is_scale_squared():
    for a in (Fraction(1), Fraction(236195, 236196), Fraction(118097, 118098)):
        cloud = build_cloud(CloudConfig(sheets=(Y0, Y1), scale=a))
        sheets = [p for p in cloud.points if p.kind == "sheet"]
        partners = [p for p in cloud.points if p.kind == "cube1"]
        for s in sheets:
            partner = next(p for p in partners if p.coords[1:] == s.coords[1:])
            gap = partner.coords[0] - s.coords[0]
            assert gap == a
            assert sum((x - y) ** 2 for x, y in zip(s.coords, partner.coords)) == a * a


def test_circle_above_parabola_examples():
    # (r, x) over a common denominator: (1, 1), (1, 0) and (1/2, 1/4).
    assert circle_above_parabola_cleared(1, 1)
    assert circle_above_parabola_cleared(1, 0)
    assert circle_above_parabola_cleared(2, 1)


def test_circle_above_parabola_grid():
    # Each (r, x) over the common denominator r.denominator * x.denominator.
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        for k in range(32):
            x = -r + 2 * r * Fraction(k, 31)
            rn, xn = r.numerator * x.denominator, x.numerator * r.denominator
            assert circle_above_parabola_cleared(rn, xn)


def test_second_neighbor_witness_empty_on_minimal_cloud():
    a = Fraction(1)
    cloud = build_cloud(CloudConfig(sheets=(Y0, Y1), scale=a))
    cx = build_complex(cloud, a)
    for i, p in enumerate(cloud.points):
        if p.kind == "cube1":
            assert second_neighbor_witness(cx, [i])[0] == []


def test_second_neighbor_witness_requires_cube1():
    cloud = build_cloud(CloudConfig(sheets=(Y0,), scale=Fraction(1)))
    sheet = next(i for i, p in enumerate(cloud.points) if p.kind == "sheet")
    with pytest.raises(ValueError):
        second_neighbor_witness(build_complex(cloud, Fraction(1)), [sheet])


def test_second_neighbor_witness_reports_adversarial_point():
    # A hand-built non-sample cloud with a sheet point halfway up the rigid
    # segment: within the scale of the partner, and not excluded.
    y = Y0
    sheet = LabeledPoint4(
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0)), "sheet", Fraction(0), y
    )
    partner = LabeledPoint4((Fraction(1), Fraction(0), Fraction(0), Fraction(0)), "cube1")
    intruder = LabeledPoint4(
        (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
        "sheet",
        Fraction(1, 2),
        y,
    )
    cloud = cloud_of((sheet, partner, intruder))
    hits = second_neighbor_witness(build_complex(cloud, Fraction(1)), [1])[0]
    assert len(hits) == 1
    assert hits[0].index == 2
    assert hits[0].eps == Fraction(1, 2)
    assert hits[0].l_sq == 0
