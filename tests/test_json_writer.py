"""``schemas.dumps`` writes exactly what ``json.dumps(value, indent=2)`` writes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon import schemas

#: Strings with non-ASCII and control characters, integers past 2**64, bools and None.
scalars = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x2FF)),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
)
#: Nested objects and arrays, empty ones at every depth; arrays of ints take the joined path.
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.lists(st.integers(-(2**70), 2**70), max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=300)
@given(values)
def test_matches_the_standard_library(value):
    assert schemas.dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [1, True, 0, False],  # a bool among ints prints as true/false
        [True, False],
        [[], {}, [[]], {"": {}}],
        {"a\x00é \U0001f600": [-(2**64) - 1, 2**64]},
        1.5,  # not written by bredon: json's own text
        {"x": [1.0, float("inf")], "y": (1, 2)},
        {1: "a", None: [1]},  # non-str keys: json's own text, re-indented
        [[{1: [2, {"k": None}]}]],
    ],
)
def test_matches_the_standard_library_on_edge_cases(value):
    assert schemas.dumps(value) == json.dumps(value, indent=2)
