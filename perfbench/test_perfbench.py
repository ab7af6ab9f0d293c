"""Tests of the benchmark itself: generators, oracles, tracer and spec.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import checks
import importtime
import inputs
import run
import tracer as tracing
import workloads
from checkout import ROOT, use_source_tree

use_source_tree()

from bredon import cli, gcw, homology, reference, wallpaper  # noqa: E402
from bredon.intlinalg import IntegerMatrix, smith_normal_form  # noqa: E402

DEFAULT_SEED = 1


def builtins() -> dict[str, dict]:
    return {g: gcw.to_json_dict(wallpaper.get_group(g)[0]) for g in wallpaper.list_groups()}


def test_subdivisions_validate_and_keep_homology_for_every_group():
    base = builtins()
    generated = inputs.subdivided_complexes(base, DEFAULT_SEED)
    assert sorted(g for g, _, _ in generated) == sorted(base)
    assert sorted(k for _, k, _ in generated) == sorted(inputs.SUBDIVISION_DEPTHS)
    for group, depth, data in generated:
        complex_ = gcw.from_json_dict(data)
        assert gcw.validate(complex_) == [], group
        added = len(complex_.orbits_of_dimension(1)) - sum(o["dim"] == 1 for o in base[group]["orbits"])
        assert added == depth
        doc = homology.report_to_json_dict(homology.compute_homology(complex_))
        assert checks.iso_type_problems(doc, group, reference.HOMOLOGY_ROWS) == []


def test_subdivision_is_seeded():
    base = builtins()
    assert inputs.subdivided_complexes(base, 7) == inputs.subdivided_complexes(base, 7)
    assert inputs.subdivided_complexes(base, 7) != inputs.subdivided_complexes(base, 8)


def test_dense_generator_is_reproducible_from_its_seed():
    a, b, c = inputs.dense_matrices(3), inputs.dense_matrices(3), inputs.dense_matrices(4)
    assert a == b
    assert a != c
    shapes = sorted((len(m), len(m[0])) for m in a)
    grid = [(r, k) for r in inputs.DENSE_SIDES for k in inputs.DENSE_SIDES]
    assert shapes == sorted(grid * inputs.DENSE_PER_SHAPE)
    assert all(abs(v) <= inputs.DENSE_ENTRY_BOUND for m in a for row in m for v in row)


def test_snf_certificate_accepts_program_output_and_rejects_a_corrupted_one():
    rows = inputs.dense_matrices(DEFAULT_SEED)[0]
    path = ROOT / ".perfbench-out" / "test-matrix.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(rows), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["snf", str(path), "--format", "json"]) == 0
    path.unlink()
    out = json.loads(buf.getvalue())
    witness = smith_normal_form(IntegerMatrix.from_rows(rows))
    p_inv, q_inv = witness.P_inv.to_rows(), witness.Q_inv.to_rows()
    assert checks.snf_problems(rows, out, p_inv, q_inv) == []
    out["P"][0][0] += 1
    assert "D != P A Q" in checks.snf_problems(rows, out, p_inv, q_inv)


def _descendants(t: tracing.Tracer, root_name: str, name: str) -> list[int]:
    """For each span called ``root_name``: how many ``name`` spans lie below it."""
    ids = {n: i for i, n in enumerate(t.names)}
    parent_of = {i: span[3] for i, span in enumerate(t.spans)}
    counts = {i: 0 for i, span in enumerate(t.spans) if span[0] == ids[root_name]}
    for i, span in enumerate(t.spans):
        if span[0] != ids[name]:
            continue
        p = parent_of[i]
        while p != -1:
            if p in counts:
                counts[p] += 1
            p = parent_of[p]
    return list(counts.values())


def test_traced_counts_match_a_hand_count_and_repeat_exactly():
    # compute_homology: cokernel(d1), kernel_basis(d2), kernel_basis(d1),
    # solve_integer, cokernel(x), and one SNF each for the two factor lists.
    summaries = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install()
        try:
            for g in wallpaper.list_groups():
                homology.compute_homology(wallpaper.get_group(g)[0])
        finally:
            t.uninstall()
        assert _descendants(t, "homology.compute_homology", "intlinalg.smith_normal_form") == [7] * 17
        summaries.append(t.summary())
    counts = [{k: v[0] for k, v in s["agg"].items()} for s in summaries]
    assert counts[0] == counts[1]
    assert summaries[0]["counts"] == summaries[1]["counts"]


def test_dump_from_file_assembles_six_differentials():
    # cli validates (d1, d2), then compute_homology validates again and assembles both.
    data = inputs.subdivided_complexes(builtins(), DEFAULT_SEED)[0][2]
    path = ROOT / ".perfbench-out" / "test-complex.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data), encoding="utf-8")
    t = tracing.Tracer()
    t.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["dump", "--from-file", str(path), "--format", "json"]) == 0
    finally:
        t.uninstall()
        path.unlink()
    assert _descendants(t, "cli.main", "gcw.assemble_differential") == [6]
    metrics = tracing.layer_metrics(t.summary(), ops=1)
    assert metrics["gcw.assemble_calls"] == 6
    assert metrics["intlinalg.snf_calls_per_op"] == 7
    assert metrics["schemas.check_calls"] == 1


def test_tracer_wraps_every_binding_and_restores_them():
    from bredon import intlinalg

    original, original_matmul = intlinalg.smith_normal_form, IntegerMatrix.__matmul__
    t = tracing.Tracer()
    t.install()
    try:
        assert homology.smith_normal_form is intlinalg.smith_normal_form
        assert homology.smith_normal_form is not original
        assert cli.smith_normal_form is intlinalg.smith_normal_form
    finally:
        t.uninstall()
    assert intlinalg.smith_normal_form is original
    assert homology.smith_normal_form is original
    assert IntegerMatrix.__matmul__ is original_matmul


def test_importtime_parse():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1500 |       2500 |     bredon.cyclotomic\n"
        "import time:     90000 |     110000 |   bredon.chartab\n"
        "import time:      3000 |     130000 | bredon\n"
        "import time:     95000 |      96000 |   bredon.schemas\n"
        "import time:      1000 |     200000 | bredon.cli\n"
    )
    assert importtime.metrics_from(importtime.parse(text)) == {
        "import.bredon_ms": 130.0,
        "import.chartab_self_ms": 90.0,
        "import.schemas_ms": 96.0,
        "import.cli_ms": 200.0,
    }


@pytest.mark.parametrize("n, rank", [(1, 1), (20, 10), (33, 23), (99, 89), (100, 90), (250, 225)])
def test_tail_rank_leaves_ten_samples_above_below_one_hundred(n, rank):
    assert run.tail_rank(n) == rank


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_checkout_uses_the_source_tree():
    assert sys.modules["bredon"].__file__.startswith(str(ROOT / "src"))
