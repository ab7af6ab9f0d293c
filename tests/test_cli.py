import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
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
    assert json.loads(via_file) == json.loads(direct)


def test_dump_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "dump")
    assert code == 2
    code, _, err = run(capsys, "dump", "--dump-tables", "--dump-complex", "p1")
    assert code == 2 and "exactly one" in err


def test_dump_tables_reload_orthogonally(capsys):
    code, out, _ = run(capsys, "dump", "--dump-tables")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["tables"]) == 9
    for table_data in payload["tables"]:
        table = chartab.build_table(table_data["group"])
        for chi_data, chi in zip(table_data["irreducibles"], table.irreducibles):
            values = [
                Cyclotomic(tuple(Fraction(c) for c in coeffs)) for coeffs in chi_data["values"]
            ]
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


def test_no_command_needs_jsonschema(tmp_path):
    complex_path = tmp_path / "p4m.json"
    complex_path.write_text(gcw.to_json(wallpaper.get_group("p4m")[0]), encoding="utf-8")
    matrix = tmp_path / "m.json"
    matrix.write_text("[[2]]", encoding="utf-8")
    probe = (
        "import contextlib, io, sys\n"
        "sys.modules['jsonschema'] = None  # any import of it raises ImportError\n"
        "from bredon.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}
    for argv, expected in (
        (["compute", "p1"], 0),
        (["verify"], 1),
        (["dump", "--dump-tables"], 0),
        (["dump", "--from-file", str(complex_path)], 0),
        (["snf", str(matrix)], 0),
    ):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, str(expected), ""), argv

