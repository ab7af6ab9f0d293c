"""The engine reduces each differential once, assembles it once and
derives each complex's chain layout once.

Counts are taken by patching ``intlinalg._reduce`` (one call per Smith
normal form, on either row storage), every binding of
``gcw.assemble_differential`` and ``chartab.build_table`` (the lookups
made from ``gcw``); the transforms
P, P_inv, Q and Q_inv built from a decomposition's operation logs are
counted by patching ``intlinalg._replay``, keyed by the transform and the
first column it keeps.  ``compute_homology`` replays only the columns it
reads, ``bredon snf`` the full P and Q, and ``verify_basis`` none.  The
verdicts of ``verify_basis`` are checked against the kernel-coordinate
algorithm it replaced, rebuilt here from ``kernel_basis``,
``solve_integer`` and ``cokernel`` of the tests' ``snf_helpers``.
"""

import io
import random
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon import chartab, cli, gcw, intlinalg, wallpaper
from bredon.homology import chain_vector, compute_homology, verify_basis
from bredon.intlinalg import IntegerMatrix, smith_normal_form
from snf_helpers import cokernel, col, hstack, identity, kernel_basis, solve_integer

ALL_GROUPS = wallpaper.list_groups()


@pytest.fixture
def tally(monkeypatch):
    counts = Counter()
    reduce = intlinalg._reduce

    def counting_reduce(a, storage):
        counts["snf"] += 1
        return reduce(a, storage)

    monkeypatch.setattr(intlinalg, "_reduce", counting_reduce)
    assemble = gcw.assemble_differential

    def counting_assemble(*args):
        counts["assemble"] += 1
        return assemble(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bredon" and getattr(module, "assemble_differential", None) is assemble:
            monkeypatch.setattr(module, "assemble_differential", counting_assemble)
    return counts


#: The transform each (inverse, transposed) replay of ``intlinalg._replay`` builds.
TRANSFORMS = {(False, True): "P", (True, False): "P_inv", (False, False): "Q", (True, True): "Q_inv"}


@pytest.fixture
def built(monkeypatch):
    """Counts replays by (transform, first column kept); first 0 builds the whole transform."""
    counts = Counter()
    replay = intlinalg._replay

    def counting_replay(log, size, inverse, transposed, first=0):
        counts[TRANSFORMS[inverse, transposed], first] += 1
        return replay(log, size, inverse, transposed, first)

    monkeypatch.setattr(intlinalg, "_replay", counting_replay)
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
def test_compute_homology_derives_the_layout_once(monkeypatch, name):
    # one character-table lookup per orbit gives the labels and offsets of every degree
    calls = Counter()
    build_table = chartab.build_table

    def counting_build_table(group_id):
        calls[sys._getframe(1).f_globals["__name__"]] += 1
        return build_table(group_id)

    monkeypatch.setattr(chartab, "build_table", counting_build_table)
    complex = wallpaper.get_group(name)[0]._replace()  # a fresh, unread layout
    compute_homology(complex)
    assert calls["bredon.gcw"] == len(complex.orbits)
    compute_homology(complex)
    assert calls["bredon.gcw"] == len(complex.orbits)


def restricted_replays(report) -> Counter:
    """The (transform, first) replays ``compute_homology`` makes for ``report``.

    d1 of rank k1: P_inv from k1 - t0 for the torsion and free generators of
    H_0, Q from k1 for its kernel, Q_inv's rows from k1 for d2 in kernel
    coordinates; d2 of rank k2: Q from k2 for its kernel; the H_1 matrix of
    rank k: P_inv from k - t1 for its cokernel.
    """
    k1, k2 = len(report.invariant_factors_d1), len(report.invariant_factors_d2)
    h0, h1 = report.group(0), report.group(1)
    k = report.d1.cols - k1 - h1.free_rank
    return Counter(
        [("P_inv", k1 - len(h0.torsion)), ("Q", k1), ("Q_inv", k1), ("Q", k2), ("P_inv", k - len(h1.torsion))]
    )


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_compute_homology_builds_five_transforms(built, reports, name):
    compute_homology(wallpaper.get_group(name)[0])
    # a replay from first 0 builds a full transform, only where every column is read
    assert built == restricted_replays(reports[name])


def test_verify_basis_builds_no_transform(reports, built):
    for name in ALL_GROUPS:
        for degree in (0, 1, 2):
            group = reports[name].group(degree)
            assert verify_basis(reports[name], degree, list(group.torsion_basis) + list(group.basis))
    assert built == {}
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 1  # the cm reference basis is rejected
    assert built == sum((restricted_replays(reports[name]) for name in ALL_GROUPS), Counter())


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_snf_builds_p_and_q(built, tmp_path, fmt):
    path = tmp_path / "m.json"
    path.write_text("[[2, 4, 4], [-6, 6, 12], [10, -4, -16]]", encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["snf", str(path), "--format", fmt]) == 0
    assert built == {("P", 0): 1, ("Q", 0): 1}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.permutations(sorted(TRANSFORMS.values())))
def test_transforms_hold_and_are_cached_in_any_read_order(data, order):
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=m, max_size=m))
    a = IntegerMatrix.from_rows(rows, cols=n)
    snf = smith_normal_form(a)
    first = {name: getattr(snf, name) for name in order}
    assert first["P"] @ a @ first["Q"] == snf.D
    assert first["P"] @ first["P_inv"] == identity(m)
    assert first["Q"] @ first["Q_inv"] == identity(n)
    assert all(getattr(snf, name) is first[name] for name in order)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_image_of_d2_in_kernel_coordinates_is_a_row_slice(reports, name):
    d1, d2 = reports[name].d1, reports[name].d2
    snf = smith_normal_form(d1)
    n, k = d1.cols, snf.rank
    assert snf.kernel_coordinates() == IntegerMatrix(n - k, n, snf.Q_inv.nonzeros[k:])
    assert snf.kernel_coordinates() @ d2 == solve_integer(kernel_basis(d1), d2)


def kernel_coordinate_verdict(report, degree, candidates) -> tuple[bool, str]:
    """The quotient (span + boundaries) in a kernel lattice basis of the cycles."""
    vectors = [chain_vector(report, degree, c) for c in candidates]
    cand = IntegerMatrix.from_rows(vectors, cols=len(report.labels[degree])).transpose()
    differential = {1: report.d1, 2: report.d2}.get(degree)
    if differential is not None:
        image = differential @ cand
        for j in range(cand.cols):
            if any(col(image, j)):
                return False, f"candidate {j + 1} is not a cycle"
    if degree == 0:
        stacked = hstack(cand, report.d1)
    else:
        kernel = kernel_basis(differential)
        stacked = solve_integer(kernel, cand)
        if degree == 1:
            stacked = hstack(stacked, solve_integer(kernel, report.d2))
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
                column = col(boundaries, rng.randrange(boundaries.cols))
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
