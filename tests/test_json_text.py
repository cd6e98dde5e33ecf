"""The shared JSON writer against the stdlib's indented encoder."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips.digits import json_text

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
# Bools are rare in rows, so most rows take the int-row path.
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
