import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import bredon
from bredon import chartab, gcw, schemas, wallpaper
from bredon.cli import main
from bredon.cyclotomic import Cyclotomic
from report_schema import REPORT_SCHEMA

ALL_GROUPS = wallpaper.list_groups()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_single_group_text(capsys):
    code, out, _ = run(capsys, "compute", "p6")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("p6"))
    assert "Z^9" in row and " Z " in f" {row} "


def test_compute_unknown_group(capsys):
    code, _, err = run(capsys, "compute", "nosuch")
    assert code == 2
    assert "p4m" in err and "nosuch" in err


def test_compute_requires_group_or_all(capsys):
    code, _, err = run(capsys, "compute")
    assert code == 2 and "--all" in err


def test_compute_group_and_all_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "p4m", "--all")
    assert (code, out) == (2, "") and "'p4m'" in err and "--all" in err


def test_compute_all_json_is_schema_valid_and_deterministic(capsys):
    code, out1, _ = run(capsys, "compute", "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out1)
    assert [rep["group"] for rep in payload] == ALL_GROUPS
    for rep in payload:
        jsonschema.validate(rep, REPORT_SCHEMA)
    code, out2, _ = run(capsys, "compute", "--all", "--format", "json")
    assert code == 0 and out1 == out2


def test_compute_show_flags(capsys):
    code, out, _ = run(capsys, "compute", "pg", "--show-differentials", "--show-snf")
    assert code == 0
    assert "matrix of d_2" in out
    assert "invariant factors [2]" in out


def test_verify_table3_and_table4_pass(capsys):
    code, out, _ = run(capsys, "verify", "--table3")
    assert code == 0 and "17/17 PASS" in out
    code, out, _ = run(capsys, "verify", "--table4")
    assert code == 0 and "17/17 PASS" in out


def test_verify_bases_reports_known_defect(capsys):
    # one recorded degree-1 generator list (cm) is not a lattice basis; the
    # verifier must say so and exit nonzero rather than wave it through
    code, out, _ = run(capsys, "verify", "--bases")
    assert code == 1
    assert "33/34 PASS" in out
    assert "cm H_1" in out


def test_verify_default_runs_everything(capsys):
    code, out, _ = run(capsys, "verify")
    assert "induced characters" in out and "homology" in out and "bases" in out
    assert code == 1


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_dump_roundtrip_matches_direct_compute(capsys, tmp_path, name):
    code, dumped, _ = run(capsys, "dump", "--dump-complex", name)
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(dumped, encoding="utf-8")
    code, via_file, _ = run(capsys, "dump", "--from-file", str(path), "--format", "json")
    assert code == 0
    code, direct, _ = run(capsys, "compute", name, "--format", "json")
    assert code == 0
    assert via_file == direct


@pytest.mark.parametrize("argv", (["compute", "p1"], ["dump", "--from-file", "{path}"]))
def test_euler_violation_exits_1_with_a_message(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "p1.json"
    path.write_text(gcw.to_json(wallpaper.get_group("p1")[0]), encoding="utf-8")
    monkeypatch.setattr(bredon.homology.HomologyReport, "euler_identity_holds", lambda self: False)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))  # returns, so no traceback
    assert code == 1 and out == ""
    assert err == "Euler identity violated for p1: chain ranks [1, 2, 1], free ranks of H_0, H_1, H_2 [1, 2, 1]\n"


def test_dump_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "dump")
    assert code == 2
    code, _, err = run(capsys, "dump", "--dump-tables", "--dump-complex", "p1")
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize(
    "argv, mode",
    [
        (["compute", "p1", "--format", "json", "--show-snf"], "--show-snf"),
        (["compute", "--all", "--format", "json", "--show-differentials"], "--show-differentials"),
        (["dump", "--dump-complex", "p1", "--format", "text"], "--dump-complex"),
        (["dump", "--dump-complex", "p1", "--format", "json"], "--dump-complex"),
        (["dump", "--dump-tables", "--format", "json"], "--dump-tables"),
    ],
)
def test_an_option_the_mode_would_ignore_is_a_usage_error(capsys, argv, mode):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and mode in err and "--format" in err


def test_dump_from_file_without_format_writes_text(capsys, tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(gcw.to_json(wallpaper.get_group("p1")[0]), encoding="utf-8")
    text = run(capsys, "dump", "--from-file", str(path), "--format", "text")
    assert text[0] == 0 and run(capsys, "dump", "--from-file", str(path)) == text
    code, out, _ = run(capsys, "compute", "p1", "--format", "text", "--show-snf")
    assert code == 0 and "invariant factors" in out


def test_dump_tables_reload_orthogonally(capsys):
    code, out, _ = run(capsys, "dump", "--dump-tables")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["tables"]) == 9
    for table_data in payload["tables"]:
        table = chartab.build_table(table_data["group"])
        for chi_data, chi in zip(table_data["irreducibles"], table.irreducibles):
            values = [Cyclotomic(tuple(map(int, coeffs))) for coeffs in chi_data["values"]]
            assert tuple(values) == chi.values
            assert chartab.inner_product(values, values, table) == 1


# not one of the built-ins: a single loop edge on a D4-stabilized vertex,
# glued so both differentials vanish
CUSTOM_COMPLEX = {
    "group": "custom",
    "orbits": [
        {"id": "f", "dim": 2, "stabilizer": "C1", "label": "gamma"},
        {"id": "e", "dim": 1, "stabilizer": "C2", "label": "beta"},
        {"id": "v", "dim": 0, "stabilizer": "D4", "label": "alpha"},
    ],
    "boundary": [
        {"source": "f", "target": "e", "sign": 1, "embedding": "C1->C2"},
        {"source": "f", "target": "e", "sign": -1, "embedding": "C1->C2"},
        {"source": "e", "target": "v", "sign": 1, "embedding": "C2->D4[C2^2]"},
        {"source": "e", "target": "v", "sign": -1, "embedding": "C2->D4[C2^2]"},
    ],
}


def test_from_file_accepts_custom_complex(capsys, tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(CUSTOM_COMPLEX), encoding="utf-8")
    code, out, _ = run(capsys, "dump", "--from-file", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["group"] == "custom"
    assert report["chain_ranks"] == [5, 2, 1]
    by_degree = {g["degree"]: g for g in report["homology"]}
    assert by_degree[0]["free_rank"] == 5 and by_degree[0]["torsion"] == []
    assert by_degree[1]["free_rank"] == 2
    assert by_degree[2]["free_rank"] == 1


def test_from_file_rejects_mismatched_embedding(capsys, tmp_path):
    data = {
        "group": "custom",
        "orbits": [
            {"id": "f", "dim": 2, "stabilizer": "C1", "label": "gamma"},
            {"id": "e", "dim": 1, "stabilizer": "C2", "label": "beta"},
            {"id": "v", "dim": 0, "stabilizer": "D4", "label": "alpha"},
        ],
        "boundary": [
            {"source": "e", "target": "v", "sign": 1, "embedding": "C2->D3"},
        ],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "dump", "--from-file", str(path))
    assert code == 3 and "C2->D3" in err


def test_from_file_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "dump", "--from-file", str(path))
    assert code == 3 and "1:" in err


def test_from_file_schema_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "x", "orbits": [], "boundary": []}), encoding="utf-8")
    code, _, err = run(capsys, "dump", "--from-file", str(path))
    assert code == 3 and "orbits" in err


def test_from_file_semantic_violation(capsys, tmp_path):
    data = {
        "group": "x",
        "orbits": [
            {"id": "f", "dim": 2, "stabilizer": "C1", "label": "gamma"},
            {"id": "v", "dim": 0, "stabilizer": "C1", "label": "alpha"},
        ],
        "boundary": [{"source": "f", "target": "v", "sign": 1, "embedding": "C1->C1"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "dump", "--from-file", str(path))
    assert code == 3 and "consecutive" in err


def test_from_file_missing(capsys):
    code, _, err = run(capsys, "dump", "--from-file", "/nonexistent/x.json")
    assert code == 3


def test_snf_subcommand(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[2, 4], [6, 8]]", encoding="utf-8")
    code, out, _ = run(capsys, "snf", str(path))
    assert code == 0 and "invariant factors: [2, 4]" in out
    code, out, _ = run(capsys, "snf", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload["invariant_factors"] == [2, 4]
    # a matrix with no entries prints as (empty), whatever its number of rows
    for matrix, p in (("[]", "(empty)"), ("[[]]", "1"), ("[[], []]", "1 0\n0 1")):
        path.write_text(matrix, encoding="utf-8")
        code, out, _ = run(capsys, "snf", str(path))
        assert (code, out) == (0, f"invariant factors: []\nD =\n(empty)\nP =\n{p}\nQ =\n(empty)\n")


def test_snf_rejects_ragged_matrix(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1, 2], [3]]", encoding="utf-8")
    code, _, err = run(capsys, "snf", str(path))
    assert code == 3


def test_snf_rejects_non_integer(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1.5]]", encoding="utf-8")
    code, _, err = run(capsys, "snf", str(path))
    assert code == 3


def test_from_file_differentials_not_composing(capsys, tmp_path):
    data = gcw.to_json_dict(wallpaper.get_group("pmm")[0])
    term = next(t for t in data["boundary"] if t["source"] == "e2")
    term["sign"] = -term["sign"]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "dump", "--from-file", str(path))
    assert (code, out) == (3, "")
    assert err == f"{path}: differentials do not compose to zero\n"


def test_from_file_reports_every_violation_in_order(capsys, tmp_path):
    data = {
        "group": "x",
        "orbits": [
            {"id": "f", "dim": 2, "stabilizer": "C1", "label": "gamma"},
            {"id": "e", "dim": 1, "stabilizer": "C1", "label": "beta"},
            {"id": "v", "dim": 0, "stabilizer": "C1", "label": "alpha"},
        ],
        "boundary": [
            {"source": "f", "target": "v", "sign": 1, "embedding": "C1->C1"},
            {"source": "e", "target": "zz", "sign": 1, "embedding": "C1->C1"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "dump", "--from-file", str(path))
    assert code == 3
    assert err == (
        f"{path}: boundary term f->v: dimensions 2->0 are not consecutive\n"
        f"{path}: boundary term e->zz: references a missing orbit\n"
    )


@pytest.mark.parametrize("command", [["dump", "--from-file"], ["snf"]])
def test_non_utf8_file_is_invalid_input(capsys, tmp_path, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe[[1]]")
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"cannot read {path}: ") and "utf-8" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_label_utf8_cannot_encode_is_invalid_input(tmp_path, fmt):
    # JSON's "\ud800" escape parses to a lone surrogate, which the text report could not print
    data = gcw.to_json_dict(wallpaper.get_group("p1")[0])
    alpha = next(i for i, orbit in enumerate(data["orbits"]) if orbit["label"] == "alpha")
    data["orbits"][alpha]["label"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bredon", "dump", "--from-file", str(path), "--format", fmt],
        capture_output=True, text=True, env=env, timeout=120,
    )
    where = f"orbits/{alpha}/label"
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"{path}: invalid complex at {where}: '\\ud800' cannot be encoded as UTF-8\n"


def test_snf_closes_its_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[2, 4], [6, 8]]", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["snf", str(path)]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_snf_reads_stdin_but_dump_does_not(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("[[3, 0], [0, 6]]"))
    code, out, _ = run(capsys, "snf", "-")
    assert code == 0 and "invariant factors: [3, 6]" in out
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "snf", "-")
    assert code == 3 and err.startswith("-:1:2: ")
    code, _, err = run(capsys, "dump", "--from-file", "-")
    assert code == 3 and err.startswith("cannot read -: ")


_MISSING = object()


def _custom_complex_with(keys, value):
    """CUSTOM_COMPLEX with ``value`` at ``keys`` (the key deleted for _MISSING)."""
    if not keys:
        return value
    data = copy.deepcopy(CUSTOM_COMPLEX)
    node = data
    for key in keys[:-1]:
        node = node[key]
    if value is _MISSING:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return data


# One violation each; the paths are those jsonschema reported before the
# standard-library check replaced it.
@pytest.mark.parametrize(
    "keys, value, where",
    [
        (("boundary",), _MISSING, "(root)"),
        (("orbits", 1, "label"), _MISSING, "orbits/1"),
        (("boundary", 2, "sign"), _MISSING, "boundary/2"),
        (("x",), 1, "(root)"),
        (("orbits", 0, "x"), 1, "orbits/0"),
        (("boundary", 0, "x"), 1, "boundary/0"),
        ((), [], "(root)"),
        (("group",), 5, "group"),
        (("orbits",), {}, "orbits"),
        (("boundary",), "e", "boundary"),
        (("orbits", 1), "e", "orbits/1"),
        (("boundary", 3), [], "boundary/3"),
        (("orbits", 0, "id"), 1, "orbits/0/id"),
        (("orbits", 0, "dim"), "2", "orbits/0/dim"),
        (("orbits", 2, "label"), None, "orbits/2/label"),
        (("boundary", 0, "source"), 0, "boundary/0/source"),
        (("boundary", 1, "embedding"), ["C1->C2"], "boundary/1/embedding"),
        (("orbits", 0, "dim"), 3, "orbits/0/dim"),
        (("orbits", 1, "stabilizer"), "C5", "orbits/1/stabilizer"),
        (("boundary", 1, "sign"), 0, "boundary/1/sign"),
        (("orbits",), [], "orbits"),
        # JSON integers only: jsonschema accepted the first two
        (("orbits", 0, "dim"), 2.0, "orbits/0/dim"),
        (("boundary", 0, "sign"), 1.0, "boundary/0/sign"),
        (("boundary", 0, "sign"), True, "boundary/0/sign"),
        (("boundary", 3, "sign"), True, "boundary/3/sign"),  # the last term: a check of the whole column misses it
    ],
)
def test_from_file_names_the_violation_path(capsys, tmp_path, keys, value, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_custom_complex_with(keys, value)), encoding="utf-8")
    code, out, err = run(capsys, "dump", "--from-file", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"{path}: invalid complex at {where}: ")


@pytest.mark.parametrize(
    "matrix, where",
    [
        ({"a": 1}, "(root)"),
        ([[1], 2], "1"),
        ([[1, "x"]], "0/1"),
        ([[2.0, 4]], "0/0"),
        ([[True]], "0/0"),
        # ragged rows: a row's length is checked before its entries
        ([[1, 2], [3]], "1"),
        ([[1], [2, "x"]], "1"),
        ([[1, 2], [3, 4], [5, 6, 7]], "2"),
    ],
)
def test_snf_names_the_violation_path(capsys, tmp_path, matrix, where):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix), encoding="utf-8")
    code, out, err = run(capsys, "snf", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"invalid matrix at {where}: ")


def test_shallowest_violation_is_reported():
    data = _custom_complex_with(("orbits", 0, "dim"), 3)
    del data["boundary"][2]["sign"]
    with pytest.raises(schemas.SchemaError, match="^invalid complex at boundary/2: 'sign' is a required"):
        schemas.check(data, "complex")
    with pytest.raises(schemas.SchemaError, match="^invalid matrix at 1: 3 is not of type 'array'$"):
        schemas.check([[1.5], 3], "matrix")
    with pytest.raises(schemas.SchemaError, match=r"^invalid matrix at 1: \[3\] is too short \(row 0 has length 2\)$"):
        schemas.check([[1, 2], [3]], "matrix")
    with pytest.raises(schemas.SchemaError, match=r"^invalid matrix at 2: \[5, 6, 7\] is too long \(row 0 has length 2\)$"):
        schemas.check([[1, 2], [3, 4], [5, 6, 7]], "matrix")


@pytest.mark.parametrize(
    "extra, listed",
    [
        (["x"], "'x' was"),
        (["y", "x", "z"], "'x', 'y', 'z' were"),
        ([f"k{i}" for i in range(7)], "'k0', 'k1', 'k2', 'k3', 'k4' and 2 more were"),
    ],
)
def test_unexpected_keys_are_listed_up_to_five(extra, listed):
    data = {**CUSTOM_COMPLEX, **{key: 1 for key in extra}}
    message = f"invalid complex at (root): Additional properties are not allowed ({listed} unexpected)"
    with pytest.raises(schemas.SchemaError, match=f"^{re.escape(message)}$"):
        schemas.check(data, "complex")


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("command", [["dump", "--from-file"], ["snf"]])
@pytest.mark.parametrize(
    "text, reason",
    [
        pytest.param("[" * 100000 + "]" * 100000, "recursion", id="deeply-nested"),
        pytest.param(
            f"[[{'9' * (_DIGIT_LIMIT + 1)}]]",
            "digits",
            id="long-integer",
            marks=pytest.mark.skipif(not _DIGIT_LIMIT, reason="no integer digit limit"),
        ),
    ],
)
def test_unparseable_json_is_invalid_input(capsys, tmp_path, command, text, reason):
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"{path}: ") and reason in err


@pytest.mark.parametrize(
    "command, text, where",
    [
        pytest.param(["snf"], "[" * 980 + "1" + "]" * 980, "0/0", id="deep-matrix"),
        pytest.param(
            ["dump", "--from-file"],
            json.dumps({**CUSTOM_COMPLEX, "orbits": {str(i): i for i in range(5000)}}),
            "orbits",
            id="large-orbits-object",
        ),
        pytest.param(
            ["dump", "--from-file"],
            json.dumps(_custom_complex_with(("orbits", 0, "dim"), 10**4000)),
            "orbits/0/dim",
            id="long-dim",
        ),
        pytest.param(
            ["dump", "--from-file"],
            json.dumps({**CUSTOM_COMPLEX, **{f"k{i}": i for i in range(3000)}}),
            "(root)",
            id="many-extra-keys",
        ),
    ],
)
def test_schema_messages_abbreviate_the_offending_value(tmp_path, command, text, where):
    # A fresh interpreter: under pytest's deeper stack the 980-deep array would not parse.
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    argv = [sys.executable, "-m", "bredon", *command, str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    message = proc.stderr.removeprefix(f"{path}: ")
    what = "matrix" if command == ["snf"] else "complex"
    assert message.startswith(f"invalid {what} at {where}: ") and len(message) < 200


def test_snf_prints_results_over_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(f"[[{10**3000}, 1], [0, {10**3000}]]", encoding="utf-8")
    code, out, err = run(capsys, "snf", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == _DIGIT_LIMIT  # restored
    if _DIGIT_LIMIT:
        sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["invariant_factors"] == [1, 10**6000]
    finally:
        if _DIGIT_LIMIT:
            sys.set_int_max_str_digits(_DIGIT_LIMIT)
    code, out, err = run(capsys, "snf", str(path))
    assert (code, err) == (0, "") and out.startswith("invariant factors: [1, 1000")


def _user_files(directory: Path) -> None:
    """The input files of ``STANDARD_LIBRARY_ONLY``, written to ``directory``."""
    cm = gcw.to_json_dict(wallpaper.get_group("cm")[0])
    files = {
        "p4m.json": json.loads(gcw.to_json(wallpaper.get_group("p4m")[0])),
        "m.json": [[2, 4], [6, 8]],
        "ragged.json": [[1, 2], [3]],
        "dim.json": {"group": "g", "orbits": [{"id": "e2", "dim": 2.0, "stabilizer": "C1", "label": "gamma"}], "boundary": []},
        # True in the sign column, on the last term only: a check of a whole column never takes True for 1
        "cm-true.json": {**cm, "boundary": cm["boundary"][:-1] + [{**cm["boundary"][-1], "sign": True}]},
        # schema-valid, but the embedding does not fit the stabilizers of its term
        "cm-bad.json": {
            **cm,
            "boundary": [
                {**t, "embedding": "C2->C2"} if (t["source"], t["target"], t["sign"]) == ("e1^0", "e0", 1) else t
                for t in cm["boundary"]
            ],
        },
        "compose.json": {
            "group": "g",
            "orbits": [
                {"id": "v", "dim": 0, "stabilizer": "C1", "label": "alpha"},
                {"id": "e", "dim": 1, "stabilizer": "C1", "label": "beta"},
                {"id": "f", "dim": 2, "stabilizer": "C1", "label": "gamma"},
            ],
            "boundary": [
                {"source": "e", "target": "v", "sign": 1, "embedding": "C1->C1"},
                {"source": "f", "target": "e", "sign": 1, "embedding": "C1->C1"},
            ],
        },
    }
    p1 = gcw.to_json_dict(wallpaper.get_group("p1")[0])  # with a second 2-cell gamma_b on the boundary of gamma
    p1["orbits"].append({"id": "e2b", "dim": 2, "stabilizer": "C1", "label": "gamma_b"})
    p1["boundary"] += [{**t, "source": "e2b"} for t in p1["boundary"] if t["source"] == "e2"]
    files["p1-two.json"] = p1
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    (directory / "latin.json").write_bytes(b"\xff\xfe[[1]]")
    (directory / "bad.json").write_text("{not json", encoding="utf-8")


#: (argv, stdin, exit code, stderr or None): each command's success paths, then help,
#: usage errors, format violations, invalid complexes and unreadable input.
STANDARD_LIBRARY_ONLY = [
    (["compute", "p1"], "", 0, ""),
    (["compute", "--all", "--format", "json"], "", 0, ""),
    (["compute", "pg", "--show-differentials", "--show-snf"], "", 0, ""),
    (["compute", "--form", "json", "p1"], "", 0, ""),  # argparse parses the abbreviation
    (["verify"], "", 1, ""),  # the known cm basis
    (["verify", "--table3", "--table4"], "", 0, ""),
    (["dump", "--dump-complex", "p4m"], "", 0, ""),
    (["dump", "--dump-tables"], "", 0, ""),
    (["dump", "--from-file", "p4m.json"], "", 0, ""),
    (["dump", "--from-file", "p1-two.json"], "", 0, ""),
    (["dump", "--from-file", "p1-two.json", "--format", "json"], "", 0, ""),
    (["snf", "m.json", "--format", "json"], "", 0, ""),
    (["snf", "-"], "[[2, 4], [6, 8]]", 0, ""),
    (["--help"], "", 0, ""),
    (["dump", "--help"], "", 0, ""),
    ([], "", 2, None),
    (["compute", "--bogus"], "", 2, None),
    (["compute", "nosuch"], "", 2, None),
    (["dump", "--dump-tables", "--format", "json"], "", 2, None),
    (["dump", "--from-file", "dim.json"], "", 3, "dim.json: invalid complex at orbits/0/dim: 2.0 is not of type 'integer'\n"),
    (["dump", "--from-file", "cm-true.json"], "", 3, "cm-true.json: invalid complex at boundary/6/sign: True is not one of [1, -1]\n"),
    (["snf", "ragged.json"], "", 3, "invalid matrix at 1: [3] is too short (row 0 has length 2)\n"),
    (["dump", "--from-file", "cm-bad.json"], "", 3, "cm-bad.json: boundary term e1^0->e0: embedding C2->C2 has sub C2, stabilizer is C1\n"),
    (["dump", "--from-file", "compose.json"], "", 3, "compose.json: differentials do not compose to zero\n"),
    (["dump", "--from-file", "missing.json"], "", 3, "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'\n"),
    (["dump", "--from-file", "-"], "[[1]]", 3, "cannot read -: [Errno 2] No such file or directory: '-'\n"),
    (["snf", "latin.json"], "", 3, None),
    (["snf", "bad.json"], "", 3, "bad.json:1:2: Expecting property name enclosed in double quotes\n"),
]


def test_no_command_needs_jsonschema(capsys, monkeypatch, tmp_path):
    # A ``python -S`` child, with only src on its path: no site-packages, so no jsonschema,
    # runs every case with the bytes, exit code and stderr of main in this process.
    _user_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal width
    probe = (
        "import contextlib, importlib.util, io, json, sys\n"
        "from bredon.cli import main\n"
        "results = [importlib.util.find_spec('jsonschema') is None]\n"
        "for argv, stdin, _, _ in json.loads(sys.argv[1]):\n"
        "    sys.stdin, out, err = io.StringIO(stdin), io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    argv = [sys.executable, "-S", "-c", probe, json.dumps(STANDARD_LIBRARY_ONLY)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    no_jsonschema, *results = json.loads(proc.stdout)
    assert no_jsonschema
    for (argv, stdin, code, err), child in zip(STANDARD_LIBRARY_ONLY, results, strict=True):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            expected = main(argv)
        except SystemExit as exc:
            expected = exc.code
        assert child == [expected, *capsys.readouterr()], argv
        assert child[0] == code and err in (None, child[2]), argv
    by_argv = {" ".join(argv): child for (argv, *_), child in zip(STANDARD_LIBRARY_ONLY, results)}
    assert by_argv["dump --from-file p1-two.json"][1] == (
        "group  H_2  H_1  basis H_1          H_0  basis H_0\np1     Z^2  Z^2  [beta_1] [beta_2]  Z    [alpha]\n"
    )
    h2 = json.loads(by_argv["dump --from-file p1-two.json --format json"][1])["homology"][2]
    assert h2["basis"] == [[["gamma", 1]], [["gamma_b", 1]]]



def test_main_calls_in_sequence_match_fresh_processes(capsys, monkeypatch, tmp_path):
    # one parser serves every call in a process: no option value may leak from one call to the next
    complex_path = tmp_path / "p4m.json"
    complex_path.write_text(gcw.to_json(wallpaper.get_group("p4m")[0]), encoding="utf-8")
    calls = [
        (["dump", "--from-file", str(complex_path), "--format", "json"], "", 0),
        (["dump", "--from-file", str(complex_path)], "", 0),
        (["snf", "-"], "[[2, 4], [6, 8]]", 0),
        (["snf", "-", "--format", "yaml"], "[[2]]", 2),  # argparse's usage error
        (["dump"], "", 2),  # the command's own usage error
        (["compute", "p1", "--format", "json"], "", 0),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    for argv, stdin, expected in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = (code, *capsys.readouterr())
        proc = subprocess.run(
            [sys.executable, "-m", "bredon", *argv], input=stdin, capture_output=True, text=True, env=env, timeout=120
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr) and code == expected, argv


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], 2),
        (["--help"], 0),
        (["compute", "--help"], 0),
        (["compute", "--bogus"], 2),
        (["compute", "--form", "json", "p1"], 0),  # an abbreviation: argparse parses it, and the command runs
        (["snf", "-", "--format", "yaml"], 2),
    ],
)
def test_argvs_left_to_argparse_match_fresh_processes(capsys, monkeypatch, argv, expected):
    # help, usage errors and abbreviations go to argparse, in process as in a fresh one
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal width
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "bredon", *argv], input="", capture_output=True, text=True, env=env, timeout=120)
    assert (code, *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr) and code == expected


@pytest.mark.parametrize(
    "argv, written_out",
    [
        (["compute", "--form", "json", "p1"], ["compute", "p1", "--format", "json"]),
        (["compute", "--format=json", "--al"], ["compute", "--all", "--format", "json"]),
        (["dump", "--dump-c", "p2"], ["dump", "--dump-complex", "p2"]),
    ],
)
def test_an_argv_left_to_argparse_writes_the_bytes_of_its_full_spelling(capsys, argv, written_out):
    assert run(capsys, *argv) == run(capsys, *written_out)


def test_main_looks_up_the_command_function_on_each_call(capsys, monkeypatch):
    from bredon import cli

    assert main(["compute", "p1"]) == 0 and cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_compute", lambda args: 42)
    assert main(["compute", "p1"]) == 42


def test_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path):
    # the result is several pipe buffers long, so the process still writes after the reader closes
    matrix = tmp_path / "identity.json"
    matrix.write_text(json.dumps([[int(i == j) for j in range(200)] for i in range(200)]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    argv = [sys.executable, "-m", "bredon", "snf", str(matrix)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b"invariant "
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["compute", "p1"], 1, ""),  # the output went nowhere, so no success
        (["compute", "nope"], 2, "unknown group 'nope'; valid names: " + ", ".join(ALL_GROUPS) + "\n"),
        (["snf", "ragged.json"], 3, "invalid matrix at 1: [3] is too short (row 0 has length 2)\n"),
        (["--help"], 1, ""),  # help went nowhere too, and argparse's fallback to stderr is not taken
        (["compute", "--help"], 1, ""),
        (["compute", "--bogus"], 2, "usage: bredon [-h] {compute,verify,dump,snf} ...\nbredon: error: unrecognized arguments: --bogus\n"),
    ],
    ids=["compute", "usage-error", "invalid-input", "help", "command-help", "argparse-usage-error"],
)
def test_closed_stdout_at_start_exits_without_a_traceback(tmp_path, argv, code, err):
    # with fd 1 closed, sys.stdout is None: all output goes nowhere, and an error keeps its code and message
    (tmp_path / "ragged.json").write_text("[[1, 2], [3]]", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1]), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "bredon", *argv],
        stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path, preexec_fn=lambda: os.close(1), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (code, err)


def test_closed_stdin_at_start_is_invalid_input(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bredon", "snf", "-"],
        capture_output=True, text=True, env=env, preexec_fn=lambda: os.close(0), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "cannot read -: standard input is closed\n")


def test_entry_returns_the_status_of_main_and_freezes_the_heap():
    probe = (
        "import contextlib, gc, io, sys\n"
        "from bredon.__main__ import run\n"
        "before = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        code = run()\n"
        "    except SystemExit as exc:\n"
        "        code = f'SystemExit({exc.code})'\n"
        "print(code, before, gc.get_freeze_count() > 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    for argv, code in ((["compute", "p1"], "0"), (["verify"], "1"), (["compute", "--bogus"], "SystemExit(2)")):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout.split(), proc.stderr) == (0, [code, "0", "True"], ""), argv


def test_main_never_freezes_the_heap(capsys):
    before = gc.get_freeze_count()
    assert main(["compute", "p1"]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_the_entry():
    # read without tomllib, which 3.10 lacks: the table's lines up to the next table
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert table.split() == ["bredon", "=", '"bredon.__main__:run"']


def test_closed_pipe_leaves_a_redirected_stdout_alone():
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    with contextlib.redirect_stdout(ClosedPipe()):
        assert main(["compute", "p1"]) == 1
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
