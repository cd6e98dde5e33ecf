"""build_cloud on the integer lattice, refereed by the Fraction route.

build_cloud emits every point as an int row over one common denominator
and makes the cloud on its lattice; the Fraction points are made only
when read.  fraction_build_cloud in tests/oracles.py samples the same
config with Fraction coordinates from digit tuples and derives its
lattice from the points, and the two must agree on the points, the
lattice, the kind masks and the CSV bytes.  The hot path of an
experiment row must make no points at all.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips.digits import BinaryString
from exactrips.harness import theorem_experiment
from exactrips.space import (
    DEFAULT_SCALES,
    Cloud,
    CloudConfig,
    LabeledPoint4,
    build_cloud,
    scale_window,
)
from oracles import fraction_build_cloud

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

LO, HI = scale_window()


@st.composite
def sheet_parameters(draw):
    """x in [0, 1]: 0, 1 (the all-2s expansion), 1/2 (non-terminating), a
    terminating j/3**k or some other p/q."""
    kind = draw(st.sampled_from(("fixed", "terminating", "other")))
    if kind == "fixed":
        return draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(1, 2))))
    if kind == "terminating":
        k = draw(st.integers(1, 30))
        return Fraction(draw(st.integers(0, 3**k)), 3**k)
    q = draw(st.integers(2, 1000))
    return Fraction(draw(st.integers(0, q)), q)


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
    assert Cloud(cloud.points, cfg).lattice == cloud.lattice
    assert cloud == ref


def test_partner_on_a_grid_point_merges():
    cloud = build_cloud(MERGING)
    labels = [p.label_text() for p in cloud]
    rows = [",".join(line.split(",")[1:]) for line in cloud.to_csv_text().splitlines()]
    assert len(set(rows)) == len(rows)
    assert labels[rows.index("1/1,0/1,0/1,0/1")] == "cube1"
    assert labels[rows.index("0/1,0/1,0/1,0/1")] == "sheet:x=0/1:y=0"
    # 2 sheet points (the scale-1 fiber is the x value 0, so its points
    # merge), 2 partners, then the 2 * 27 grid points less the partner and
    # the origin already emitted.
    assert len(cloud) == 2 + 2 + 54 - 2


def test_experiment_rows_make_no_points(monkeypatch):
    made = []
    post_init = LabeledPoint4.__post_init__

    def counted(self):
        made.append(self.kind)
        post_init(self)

    monkeypatch.setattr(LabeledPoint4, "__post_init__", counted)
    minimal = theorem_experiment([5], [DEFAULT_SCALES[1]])
    grid = theorem_experiment([3], [LO], cube_grid=2, include_cube0=True)
    assert minimal.all_pass and grid.all_pass
    assert made == []
    # The count is live: reading the points of a built cloud makes them.
    assert len(build_cloud(CloudConfig(sheets=(BinaryString((0,)),))).points) == 2
    assert made == ["sheet", "cube1"]
