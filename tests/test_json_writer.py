"""``schemas.dumps`` writes exactly what ``json.dumps(value, indent=2)`` writes,
and an ``IntegerMatrix``, written from its nonzeros, exactly what its dense
rows would, at any depth."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon import gcw, schemas, wallpaper
from bredon.cli import main
from bredon.homology import compute_homology, report_to_json, report_to_json_dict
from bredon.intlinalg import IntegerMatrix
from subdivision import subdivided_group


@st.composite
def sparse_rows(draw, max_dim=7):
    """(cols, rows) of a matrix from 0x0 to max_dim x max_dim, mostly zeros,
    with entries up to +-2**70; all-zero rows and nonzeros in the first and
    last column come up often at these sizes."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-(2**70), 2**70))
    return n, draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))


#: Strings with non-ASCII and control characters, integers past 2**64, bools and None.
scalars = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x2FF)),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
)
#: Small matrices, m x 0 and 0 x n among them.
matrices = sparse_rows(max_dim=4).map(lambda shaped: IntegerMatrix.from_rows(shaped[1], cols=shaped[0]))
#: Nested objects and arrays, empty ones at every depth, with scalar and matrix leaves.
values = st.recursive(
    st.one_of(scalars, matrices),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.lists(st.integers(-(2**70), 2**70), max_size=6),
    ),
    max_leaves=40,
)


def dense(value):
    """``value`` with each ``IntegerMatrix`` in it replaced by its list of rows."""
    if type(value) is IntegerMatrix:
        return value.to_rows()
    if type(value) is list:
        return [dense(item) for item in value]
    if type(value) is dict:
        return {key: dense(item) for key, item in value.items()}
    return value


@settings(max_examples=300)
@given(values)
def test_matches_the_standard_library(value):
    assert schemas.dumps(value) == json.dumps(dense(value), indent=2)


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


def assert_matrix_text(cols: int, rows: list) -> None:
    """The matrix writes as its dense rows would: alone, where a report writes
    a differential, and where ``compute --all`` does, in a list of reports."""
    m = IntegerMatrix.from_rows(rows, cols=cols)

    def report(entries, group: str) -> dict:
        return {"group": group, "differentials": {"d1": {"rows": m.rows, "cols": m.cols, "entries": entries}}}

    for place in (lambda e: e, lambda e: report(e, "p1"), lambda e: [report(e, "p1"), report(e, "p2")]):
        assert schemas.dumps(place(m)) == json.dumps(place(rows), indent=2)


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


@pytest.mark.parametrize(
    "name, steps", [(name, 0) for name in wallpaper.list_groups()] + [("p4g", 80), ("cm", 60), ("p6m", 240)]
)
def test_report_writer_matches_the_dense_report(name, steps):
    report = compute_homology(gcw.from_json_dict(subdivided_group(name, steps)))
    assert report_to_json(report) == json.dumps(report_to_json_dict(report), indent=2)


@pytest.mark.parametrize("argv", [["compute", "--all", "--format", "json"], ["dump", "--dump-tables"]])
def test_cli_output_is_what_the_standard_library_writes(capsys, argv):
    # as ``python -m json.tool --indent 2`` would rewrite it
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("name", wallpaper.list_groups())
def test_deferred_coordinates_are_written_as_their_rows(name):
    report = compute_homology(wallpaper.get_group(name)[0]._replace())  # coordinates not yet built
    for degree in (0, 1, 2):
        coordinates = report.group(degree).coordinates
        assert schemas.dumps(coordinates) == json.dumps(coordinates.to_rows(), indent=2)
        assert schemas.dumps({"coordinates": [coordinates]}) == json.dumps({"coordinates": [coordinates.to_rows()]}, indent=2)
