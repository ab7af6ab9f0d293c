"""Fuzzed user input: ``dump --from-file`` and ``snf`` end in exit 0 or 3, never a traceback.

Fuzzed argvs: the hand parser of the CLI returns argparse's namespace or
leaves the argv to argparse, and never takes one that argparse exits on.

Arbitrary JSON documents of bounded size, small integer matrices (ragged
ones too) and seeded mutations of the built-in complexes go through
``cli.main`` unguarded, so any exception fails the test.  Exit 0 must
come with an empty stderr and exit 3 with a message on it.  The same
documents check that the compiled predicate of ``schemas.check`` accepts
exactly what its level walk finds no violation in.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_argv
from bredon import chartab, cli, gcw, schemas, wallpaper
from bredon.cli import main

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)
MATRICES = st.lists(st.lists(st.integers(-99, 99), max_size=5), max_size=5)
#: Near-matrices: ragged rows, non-list rows, bools and floats among the entries.
ODD_MATRICES = st.lists(
    st.lists(st.integers(-9, 9) | st.booleans() | st.floats(), max_size=3) | st.integers(-9, 9) | st.none(),
    max_size=4,
)
COMPLEXES = [gcw.to_json_dict(wallpaper.get_group(name)[0]) for name in wallpaper.list_groups()]
#: Replacement values besides those already in the document.
ODD_VALUES = [None, True, 1.0, -1, 0, 2, 3, "", "C5", [], {}, *chartab.GROUP_IDS]


def _run(command: list[str], document: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(document, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
    assert code in (0, 3)
    assert (err.getvalue() == "") == (code == 0), err.getvalue()
    return code


def _slots(node, found: list) -> list:
    """Every (container, key) pair in the document, depth first."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
    for key in keys:
        found.append((node, key))
        _slots(node[key], found)
    return found


def _leaves(node) -> list:
    if isinstance(node, dict):
        return [leaf for value in node.values() for leaf in _leaves(value)]
    if isinstance(node, list):
        return [leaf for item in node for leaf in _leaves(item)]
    return [node]


def _mutate(document: dict, rnd) -> dict:
    """One to three random deletions, replacements or duplications."""
    document = copy.deepcopy(document)
    pool = _leaves(document) + ODD_VALUES
    for _ in range(rnd.randint(1, 3)):
        container, key = rnd.choice(_slots(document, []))
        action = rnd.choice(("delete", "replace", "replace", "duplicate"))
        if action == "delete":
            del container[key]
        elif action == "replace":
            container[key] = copy.deepcopy(rnd.choice(pool))
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key + "_copy"] = copy.deepcopy(container[key])
    return document


@settings(max_examples=150, deadline=None)
@given(JSON)
def test_arbitrary_json(document):
    text = json.dumps(document)
    _run(["dump", "--from-file"], text)
    _run(["snf"], text)


@settings(max_examples=100, deadline=None)
@given(MATRICES)
def test_small_matrices(rows):
    ragged = any(len(row) != len(rows[0]) for row in rows)
    assert _run(["snf"], json.dumps(rows)) == (3 if ragged else 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMPLEXES), st.randoms(use_true_random=False))
def test_mutated_complexes(document, rnd):
    _run(["dump", "--from-file"], json.dumps(_mutate(document, rnd)))


def test_unmutated_complexes_pass():
    for document in COMPLEXES:
        assert _run(["dump", "--from-file"], json.dumps(document)) == 0


def _agree(document, what: str) -> bool:
    """The compiled predicate accepts ``document`` exactly when the walk finds no violation."""
    try:
        schemas._explain(document, what)
        walked = True
    except schemas.SchemaError:
        walked = False
    assert schemas._accepts(schemas._FORMATS[what])([document]) is walked  # a column of one, as ``check`` calls it
    return walked


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMPLEXES), st.randoms(use_true_random=False))
def test_predicate_agrees_with_walk_on_mutated_complexes(document, rnd):
    _agree(_mutate(document, rnd), "complex")


@settings(max_examples=300, deadline=None)
@given(JSON)
def test_predicate_agrees_with_walk_on_arbitrary_json(document):
    _agree(document, "complex")
    _agree(document, "matrix")


@settings(max_examples=300, deadline=None)
@given(MATRICES | ODD_MATRICES)
def test_predicate_agrees_with_walk_on_small_matrices(rows):
    _agree(rows, "matrix")


def _deep(levels: int) -> list:
    value: list = []
    for _ in range(levels):
        value = [value]
    return value


_ODD = ([], {}, [1], {"C1": 1}, 1.0, True, _deep(100_000))
_MISSING = object()


def _on_last(part: str, key: str, value) -> dict:
    """The first built-in complex with ``key`` set to ``value`` (or deleted) on the last of its orbits or
    terms only: a column predicate must find a fault that follows valid items in the same column."""
    document = copy.deepcopy(COMPLEXES[0])
    last = document[part][-1]
    if value is _MISSING:
        del last[key]
    else:
        last[key] = value
    return document


@pytest.mark.parametrize(
    "document, what, valid",
    [
        *[(matrix, "matrix", True) for matrix in ([], [[]], [[], []], [[1, -2], [3, 4]])],
        *[(matrix, "matrix", False) for matrix in ([[1], 2], [[1], []], [[True]], [[1.0]], [[1, 2], [3]], [2], {})],
        *[
            ({**COMPLEXES[0], part: [{**COMPLEXES[0][part][0], key: odd}]}, "complex", False)
            for part, key in (("orbits", "dim"), ("orbits", "stabilizer"), ("boundary", "sign"))
            for odd in _ODD
        ],
        ([[1, _deep(100_000)]], "matrix", False),
        ({**COMPLEXES[0], "group": _deep(100_000)}, "complex", False),
        # a fault on the last item of a column, after valid ones
        *[
            (_on_last(part, key, odd), "complex", False)
            for part, key in (("orbits", "dim"), ("orbits", "stabilizer"), ("boundary", "sign"))
            for odd in _ODD
        ],
        *[(_on_last(part, "extra", 1), "complex", False) for part in ("orbits", "boundary")],
        *[(_on_last(part, key, _MISSING), "complex", False) for part, key in (("orbits", "label"), ("boundary", "embedding"))],
        (_on_last("boundary", "sign", 1), "complex", True),
        ({**COMPLEXES[0], "orbits": []}, "complex", False),
        *[([[1, 2]] * 50 + [row], "matrix", False) for row in ([3], [3, 4, 5], [True, 4], [3, 4.0])],
        ([[1, 2]] * 50 + [[3, 4]], "matrix", True),
    ],
)
def test_predicate_agrees_with_walk_on_edge_cases(document, what, valid):
    # unhashable values in enum and range slots are never hashed, and nesting
    # past the depth of the spec is never walked
    assert _agree(document, what) is valid


@settings(max_examples=1000, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hand_parser_agrees_with_argparse(rnd):
    cli_argv.parity(cli_argv.draw(rnd))


@pytest.mark.parametrize(
    "argv, taken",
    [
        (["compute", "--all", "p4m"], True),  # a positional after an option
        (["compute", "--format", "json", "p4m"], True),
        (["compute", "", "--all"], True),  # argparse takes an empty token as the group
        (("compute", "--all", "--format", "json"), True),
        (("snf", "m.json"), True),
        (["compute", "-5"], False),  # argparse takes a negative number as the group
        (["snf", "-"], False),  # and a lone dash as the matrix or a value
        (["dump", "--from-file", "-"], False),
        (["compute", "--form", "json"], False),
        (["compute", "--format=json"], False),
        (["compute", "--", "p1"], False),
        (["compute", "--all", "--all"], False),
        (["verify", "p1"], False),
        (["verify", "--all"], False),
        (["snf"], False),
        (["snf", "a.json", "b.json"], False),
        (["compute", "--format"], False),
        (["compute", "--format", "yaml"], False),
        (["compute", "-h"], False),
        (["--help"], False),
        ([], False),
    ],
)
def test_hand_parser_examples(argv, taken):
    assert cli_argv.parity(argv) in (("same",) if taken else ("deferred", "exits"))
    assert (cli._parse(argv) is not None) is taken
