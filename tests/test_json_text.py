"""The shared JSON writer against the stdlib's indented encoder."""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips.digits import format_rational, json_text
from exactrips.harness import default_sheets
from exactrips.rips import RipsComplex2, sweep
from exactrips.space import DEFAULT_SCALES, CloudConfig, build_cloud, scale_window

from oracles import json_text_reference

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

ints = st.one_of(
    st.integers(-5, 50), st.integers(-(10**40), 10**40), st.integers(10**300, 10**301)
)
scalars = st.one_of(
    ints,
    st.booleans(),
    st.none(),
    st.floats(),  # inf, -inf and nan included
    st.text(max_size=6),  # control characters, quotes, non-ASCII
)
int_rows = st.lists(
    st.one_of(
        st.lists(st.one_of(ints, ints, ints, st.booleans()), max_size=4),
        st.tuples(ints, ints),
        st.tuples(ints, ints, ints),
    ),
    max_size=6,
)
documents = st.recursive(
    st.one_of(scalars, int_rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@SETTINGS
@given(documents)
@example([[0, 1], [0, 2], [1, 2]])
@example({"edges": [(0, 1)], "triangles": [], "rows": [[True, 1]], "mixed": [[1], []]})
@example([[-(10**30)], (7, -1, 0)])
def test_json_text_matches_indented_stdlib_encoder(obj):
    assert json_text(obj) == json_text_reference(obj)


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
def test_json_text_rejects_non_str_keys(key):
    with pytest.raises(TypeError, match="keys must be str"):
        json_text({"ok": [[1, 2]], "nested": {key: 0}})


@st.composite
def graphs(draw):
    """(V, sorted edges): edges among a few vertices drawn from range(V), so
    triangles are common, the other vertices isolated, and indices reach
    two, three and four digits."""
    V = draw(st.one_of(st.integers(0, 12), st.integers(10, 120), st.integers(100, 1100)))
    hot = sorted(draw(st.sets(st.integers(0, max(V - 1, 0)), max_size=9))) if V else []
    pairs = list(combinations(hot, 2))
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return V, tuple(e for e, keep in zip(pairs, picked) if keep)


def _complex(V, edges, scale=Fraction(1)):
    # A stand-in cloud: the complex reads only its length.
    return RipsComplex2(range(V), scale, edges)


def _plain_dict(V, edges, scale=Fraction(1)):
    """The report with tuple rows; triangles found from the edge set alone."""
    present = set(edges)
    ends = sorted({v for e in edges for v in e})
    return {
        "scale": f"{scale.numerator}/{scale.denominator}",
        "vertices": V,
        "edges": list(edges),
        "triangles": [
            (i, j, k) for i, j, k in combinations(ends, 3)
            if {(i, j), (i, k), (j, k)} <= present
        ],
    }


@SETTINGS
@given(graphs(), graphs())
@example((0, ()), (1, ()))
@example((3, ((0, 1), (1, 2))), (12, ((0, 11), (10, 11))))
@example(
    (1005, ((9, 10), (9, 99), (10, 99), (99, 100), (100, 999), (100, 1000), (999, 1000))),
    (120, ((0, 1), (0, 2), (1, 2), (100, 101), (100, 119), (101, 119))),
)
def test_complex_rows_written_from_masks(g1, g2):
    (V1, e1), (V2, e2) = g1, g2
    c1, c2 = _complex(V1, e1), _complex(V2, e2, Fraction(3, 2))
    d1, d2 = c1.to_json_dict(), c2.to_json_dict()
    ref1, ref2 = _plain_dict(V1, e1), _plain_dict(V2, e2, Fraction(3, 2))
    assert json_text(d1) == json_text_reference(ref1)
    payload = {
        "scales": ["1/1", "3/2"],
        "complexes": [d1, d2],
        "betti": [{"vertices": V1}, {"vertices": V2}],
    }
    expected = dict(payload, complexes=[ref1, ref2])
    assert json_text(payload) == json_text_reference(expected)
    assert "triangles" not in c1.__dict__ and "triangles" not in c2.__dict__


@st.composite
def nested_graphs(draw):
    """(V, edges, more): a graph drawn by `graphs` and a supergraph of it on
    the same vertices, so most of their row runs are equal."""
    V, more = draw(graphs())
    kept = draw(st.lists(st.booleans(), min_size=len(more), max_size=len(more)))
    return V, tuple(e for e, keep in zip(more, kept) if keep), more


@SETTINGS
@given(nested_graphs())
@example((0, (), ()))
@example((3, ((0, 1),), ((0, 1), (0, 2), (1, 2))))
@example((4, ((0, 1), (0, 2), (1, 2)), ((0, 1), (0, 2), (1, 2), (2, 3))))
@example(
    (1005, ((9, 10), (9, 99), (10, 99), (100, 999)),
     ((9, 10), (9, 99), (10, 99), (99, 100), (100, 999), (100, 1000), (999, 1000))),
)
def test_repeated_row_runs_are_written_alike(g):
    """Row runs that repeat within one document: one MaskRows object at two
    depths (its text differs by indentation), a complex listed twice, and
    a graph next to a supergraph of it (the runs they share)."""
    V, sub, sup = g
    c1, c2 = _complex(V, sub), _complex(V, sup, Fraction(3, 2))
    d1, d2 = c1.to_json_dict(), c2.to_json_dict()
    ref1, ref2 = _plain_dict(V, sub), _plain_dict(V, sup, Fraction(3, 2))
    payload = {
        "depths": {"edges": d2["edges"], "deeper": [{"edges": d2["edges"]}]},
        "twice": [d1, d1],
        "nested": [d1, d2],
    }
    expected = {
        "depths": {"edges": ref2["edges"], "deeper": [{"edges": ref2["edges"]}]},
        "twice": [ref1, ref1],
        "nested": [ref1, ref2],
    }
    assert json_text(payload) == json_text_reference(expected)


def test_json_text_peak_memory_stays_within_twice_its_output():
    """The writer's tracemalloc peak on a sweep report, against the length
    of the text it returns.  The report: 8 sheets on cube grid 2 plus cube0
    (70 vertices), swept at the window's ends and its interior default
    scale, about 0.52 MB of text.  Joined once from one list of pieces, the
    peak is the text plus the distinct row runs, 1.64 times the text; a
    writer that joins each nested level into its own string, copied again
    by its parent, peaks at 2.66 times."""
    lo, hi = scale_window()
    cloud = build_cloud(CloudConfig(default_sheets(8), lo, cube_grid=2, include_cube0=True))
    complexes = sweep(cloud, [lo, DEFAULT_SCALES[1], hi])
    doc = {
        "scales": [format_rational(c.scale) for c in complexes],
        "complexes": [c.to_json_dict() for c in complexes],
    }
    json_text(doc)  # warm: the neighbor masks are cached, the encoder loaded
    tracemalloc.start()
    try:
        text = json_text(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    assert peak <= 2.0 * len(text)
