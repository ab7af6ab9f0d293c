"""``schemas.dumps`` writes exactly what ``json.dumps(value, indent=2)`` writes,
and an ``IntegerMatrix``, written from its nonzeros, exactly what its dense
rows would."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon import gcw, schemas, wallpaper
from bredon.homology import compute_homology, report_to_json, report_to_json_dict
from bredon.intlinalg import IntegerMatrix
from subdivision import subdivided_group

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


@st.composite
def sparse_rows(draw, max_dim=7):
    """(cols, rows) of a matrix from 0x0 to max_dim x max_dim, mostly zeros,
    with entries up to +-2**70; all-zero rows and nonzeros in the first and
    last column come up often at these sizes."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-(2**70), 2**70))
    return n, draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))


def assert_matrix_text(cols: int, rows: list) -> None:
    """The matrix writes as its dense rows would: alone, and where a report writes a differential."""
    m = IntegerMatrix.from_rows(rows, cols=cols)
    assert schemas.dumps(m) == json.dumps(rows, indent=2)
    doc = {"differentials": {"d1": {"rows": m.rows, "cols": m.cols, "entries": m}}}
    dense = {"differentials": {"d1": {"rows": m.rows, "cols": m.cols, "entries": rows}}}
    assert schemas.dumps(doc) == json.dumps(dense, indent=2)


@settings(max_examples=300)
@given(sparse_rows())
def test_matrix_writer_matches_the_standard_library(shaped):
    assert_matrix_text(*shaped)


@pytest.mark.parametrize(
    "cols, rows",
    [
        (0, [[], [], []]),  # m x 0
        (4, []),  # 0 x n
        (0, []),
        (3, [[0, 0, 0], [0, 0, 0]]),  # all-zero rows
        (4, [[0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 0, 0]]),
        (4, [[5, 0, 0, -7], [0, 0, 0, 2**70]]),  # first and last column
        (1, [[-(2**70)], [0], [1]]),
        (5, [[1, -1, 1, -1, 1]]),  # no zeros
    ],
)
def test_matrix_writer_on_edge_shapes(cols, rows):
    assert_matrix_text(cols, rows)


@pytest.mark.parametrize("name, steps", [(name, 0) for name in wallpaper.list_groups()] + [("p4g", 80), ("cm", 60)])
def test_report_writer_matches_the_dense_report(name, steps):
    report = compute_homology(gcw.from_json_dict(subdivided_group(name, steps)))
    assert report_to_json(report) == json.dumps(report_to_json_dict(report), indent=2)
