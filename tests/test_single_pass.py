"""The engine reduces each differential once and assembles it once.

Counts are taken by patching ``intlinalg._Worker`` (one per Smith normal
form) and every binding of ``gcw.assemble_differential``.  The verdicts of
``verify_basis`` are checked against the kernel-coordinate algorithm it
replaced, rebuilt here from the public ``kernel_basis``, ``solve_integer``
and ``cokernel``.
"""

import io
import random
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

from bredon import cli, gcw, intlinalg, wallpaper
from bredon.homology import chain_vector, compute_homology, verify_basis
from bredon.intlinalg import IntegerMatrix, cokernel, kernel_basis, smith_normal_form, solve_integer

ALL_GROUPS = wallpaper.list_groups()


@pytest.fixture
def tally(monkeypatch):
    counts = Counter()
    worker = intlinalg._Worker

    class CountingWorker(worker):
        def __init__(self, a):
            counts["snf"] += 1
            super().__init__(a)

    monkeypatch.setattr(intlinalg, "_Worker", CountingWorker)
    assemble = gcw.assemble_differential

    def counting_assemble(*args):
        counts["assemble"] += 1
        return assemble(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bredon" and getattr(module, "assemble_differential", None) is assemble:
            monkeypatch.setattr(module, "assemble_differential", counting_assemble)
    return counts


@pytest.fixture(scope="module")
def reports():
    return {name: compute_homology(wallpaper.get_group(name)[0]) for name in ALL_GROUPS}


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_compute_homology_runs_three_snfs_and_two_assemblies(tally, name):
    compute_homology(wallpaper.get_group(name)[0])
    assert tally == {"snf": 3, "assemble": 2}


def test_dump_from_file_assembles_each_differential_once(tally, tmp_path):
    path = tmp_path / "pmm.json"
    path.write_text(gcw.to_json(wallpaper.get_group("pmm")[0]), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["dump", "--from-file", str(path), "--format", "json"]) == 0
    assert tally == {"snf": 3, "assemble": 2}


def test_verify_computes_each_group_once(tally):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 1
    # 3 SNFs and 2 assemblies per group, plus one SNF per checked H_1 and H_0 basis
    groups = len(ALL_GROUPS)
    assert tally == {"snf": 3 * groups + 2 * groups, "assemble": 2 * groups}


def test_verify_table3_computes_no_homology(tally):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--table3"]) == 0
    assert tally == {}


def test_show_snf_reads_the_report(tally):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["compute", "p4m", "--show-differentials", "--show-snf"]) == 0
    assert tally == {"snf": 3, "assemble": 2}


@pytest.mark.parametrize("degree", (0, 1, 2))
def test_verify_basis_runs_one_snf_and_no_assembly(reports, tally, degree):
    for name in ALL_GROUPS:
        group = reports[name].group(degree)
        tally.clear()
        assert verify_basis(reports[name], degree, list(group.torsion_basis) + list(group.basis))
        assert tally == {"snf": 1}, name


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_image_of_d2_in_kernel_coordinates_is_a_row_slice(reports, name):
    d1, d2 = reports[name].d1, reports[name].d2
    snf = smith_normal_form(d1)
    n, k = d1.cols, snf.rank
    sliced = IntegerMatrix(n - k, n, snf.Q_inv.entries[k * n :]) @ d2
    assert sliced == solve_integer(kernel_basis(d1), d2)


def kernel_coordinate_verdict(report, degree, candidates) -> tuple[bool, str]:
    """The quotient (span + boundaries) in a kernel lattice basis of the cycles."""
    vectors = [chain_vector(report, degree, c) for c in candidates]
    cand = IntegerMatrix.from_rows(vectors, cols=len(report.labels[degree])).transpose()
    differential = {1: report.d1, 2: report.d2}.get(degree)
    if differential is not None:
        image = differential @ cand
        for j in range(cand.cols):
            if any(image.col(j)):
                return False, f"candidate {j + 1} is not a cycle"
    if degree == 0:
        stacked = cand.hstack(report.d1)
    else:
        kernel = kernel_basis(differential)
        stacked = solve_integer(kernel, cand)
        if degree == 1:
            stacked = stacked.hstack(solve_integer(kernel, report.d2))
    cok = cokernel(stacked)
    missing = []
    if cok.free_rank:
        missing.append(f"free rank {cok.free_rank}")
    if cok.torsion:
        missing.append(f"torsion {list(cok.torsion)}")
    if missing:
        return False, "candidates do not generate: quotient has " + ", ".join(missing)
    return True, "candidates are cycles and generate the group"


def _combine(target: dict, source: dict, factor: int) -> None:
    for label, coeff in source.items():
        target[label] = target.get(label, 0) + factor * coeff


def random_families(report, degree, rng, count):
    """Computed bases with generators dropped, scaled, combined, or non-cycles and boundaries added."""
    labels = report.labels[degree]
    group = report.group(degree)
    boundaries = {0: report.d1, 1: report.d2}.get(degree)
    for trial in range(count):
        family = [dict(c) for c in group.torsion_basis + group.basis]
        mode = trial % 5
        if mode == 0 and family:
            family.pop(rng.randrange(len(family)))
        elif mode == 1 and family:
            j = rng.randrange(len(family))
            family[j] = {lab: c * rng.choice((-1, 2, 3)) for lab, c in family[j].items()}
        elif mode == 2 and len(family) > 1:
            for _ in range(4):
                i, j = rng.sample(range(len(family)), 2)
                _combine(family[i], family[j], rng.choice((-2, -1, 1, 2)))
        elif mode == 3:
            family.append({lab: rng.randint(-3, 3) for lab in rng.sample(labels, min(3, len(labels)))})
        elif boundaries is not None and boundaries.cols:
            for chain in family:
                column = boundaries.col(rng.randrange(boundaries.cols))
                _combine(chain, dict(zip(labels, column)), rng.randint(-2, 2))
        yield [{lab: c for lab, c in chain.items() if c} for chain in family]


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_verdicts_match_the_kernel_coordinate_algorithm(reports, name):
    rng = random.Random(f"verdicts-{name}")
    report = reports[name]
    details = Counter()
    for degree in (0, 1, 2):
        for family in random_families(report, degree, rng, 25):
            verdict = verify_basis(report, degree, family)
            assert (verdict.accepted, verdict.detail) == kernel_coordinate_verdict(report, degree, family)
            details[verdict.detail.split(":")[0]] += 1
    # every kind of verdict shows up; with zero differentials (p1) every chain is a cycle
    assert details["candidates are cycles and generate the group"]
    assert details["candidates do not generate"]
    has_non_cycles = not (report.d1.is_zero() and report.d2.is_zero())
    assert any(d.endswith("is not a cycle") for d in details) == has_non_cycles
