"""The engine makes two reductions per complex, of d1 and of d2 in the
coordinates of d1's kernel, and assembles each differential once in the
lifetime of its complex, in the one pass that derives the complex's chain
layout: ``compute_homology`` keeps its report beside the layout, and a
later call on the same object reduces nothing.

Counts are taken by patching ``intlinalg._reduce`` (one call per Smith
normal form, on either row storage), ``gcw.IntegerMatrix`` (the layout
pass builds one per differential it assembles), and ``chartab.induction_matrix``
and ``chartab.build_table`` (the lookups made from ``gcw``: one induction
matrix per distinct embedding id of a complex, not one per boundary term,
and one table per orbit); the transforms
P, P_inv, Q and Q_inv built from a decomposition's operation logs are
counted by patching ``intlinalg._replay``, one walk of a log per transform,
keyed by that transform and the first column it keeps.  ``compute_homology``
replays only the columns and rows it reads, in seven walks (each cokernel's
P_inv columns, each kernel's Q columns and Q_inv rows, and the P rows of the
H_1 matrix's cokernel, which H_1's coordinates need), ``bredon snf`` the full
P and Q, and the first ``verify_basis`` of degree 0 H_0's coordinates, the
rows of d1's P, in one more walk; degrees 1 and 2 make none.  The coordinates
each homology group keeps are checked against slices of the full
transforms, read in any order, and against its own basis and boundaries,
and the verdicts that ``verify_basis`` reads off them are
checked against the kernel-coordinate algorithm, rebuilt here from
``kernel_basis``, ``solve_integer`` and ``cokernel`` of the tests'
``snf_helpers``, on the built-in complexes, seeded subdivisions and a
complex with torsion in H_0.
"""

import io
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon import chartab, cli, gcw, homology, intlinalg, wallpaper
from bredon.gcw import validate
from bredon.homology import (
    EulerIdentityError,
    HomologyReport,
    InvalidComplexError,
    compute_homology,
    report_doc,
    report_to_json_dict,
    verify_basis,
)
from bredon.intlinalg import IntegerMatrix, smith_normal_form, smith_normal_form_as_given
from snf_helpers import cokernel, col, hstack, identity, kernel_basis, solve_integer
from subdivision import subdivided_group, torus_grid

ALL_GROUPS = wallpaper.list_groups()


def torsion_in_degree_zero() -> gcw.EquivariantComplex:
    """One vertex, one edge with two +1 terms on it and a bare 2-cell: H_0 = Z/2, H_1 = 0, H_2 = Z."""
    return gcw.EquivariantComplex(
        "h0-torsion",
        (gcw.CellOrbit("v", 0, "C1", "alpha"), gcw.CellOrbit("e", 1, "C1", "beta"), gcw.CellOrbit("f", 2, "C1", "gamma")),
        (gcw.BoundaryTerm("e", "v", 1, "C1->C1"), gcw.BoundaryTerm("e", "v", 1, "C1->C1")),
    )


#: Complexes beyond the built-ins: subdivisions with torsion in H_1 (pg, pgg) or a long
#: operation log (p6m), and the one complex here with torsion in H_0.
MORE_COMPLEXES = {
    "pg-sub20": lambda: gcw.from_json_dict(subdivided_group("pg", 20)),
    "pgg-sub20": lambda: gcw.from_json_dict(subdivided_group("pgg", 20)),
    "p6m-sub40": lambda: gcw.from_json_dict(subdivided_group("p6m", 40)),
    "h0-torsion": torsion_in_degree_zero,
}


@pytest.fixture
def tally(monkeypatch):
    """Counts SNFs, differentials assembled ("assemble") and induction matrices looked up by ``gcw``."""
    counts = Counter()
    reduce = intlinalg._reduce

    def counting_reduce(a, storage):
        counts["snf"] += 1
        return reduce(a, storage)

    def counting_matrix(*args):
        counts["assemble"] += 1
        return IntegerMatrix(*args)

    induction_matrix = chartab.induction_matrix

    def counting_induction(emb):
        if sys._getframe(1).f_globals["__name__"] == "bredon.gcw":  # not the cli's table checks
            counts["induction"] += 1
        return induction_matrix(emb)

    monkeypatch.setattr(intlinalg, "_reduce", counting_reduce)
    monkeypatch.setattr(gcw, "IntegerMatrix", counting_matrix)
    monkeypatch.setattr(chartab, "induction_matrix", counting_induction)
    return counts


@pytest.fixture
def fresh_builtins(monkeypatch):
    """``wallpaper.get_group`` with a cache of its own: each built-in complex is built anew, its layout unread."""
    monkeypatch.setattr(wallpaper, "get_group", lru_cache(wallpaper.get_group.__wrapped__))


def embeddings(*names: str) -> int:
    """The induction matrices the layouts of these built-in groups look up: one per distinct embedding id of each."""
    return sum(len({term.embedding for term in wallpaper.get_group(name)[0].boundary}) for name in names)


#: The transform each (inverse, transposed) replay of ``intlinalg._replay`` builds.
TRANSFORMS = {(False, True): "P", (True, False): "P_inv", (False, False): "Q", (True, True): "Q_inv"}


def count_replays(monkeypatch) -> Counter:
    """Counts walks of a log by (transform built, first column kept); first 0 builds a whole transform."""
    counts = Counter()
    replay = intlinalg._replay

    def counting_replay(log, size, inverse, transposed, first=0):
        counts[TRANSFORMS[inverse, transposed], first] += 1
        return replay(log, size, inverse, transposed, first)

    monkeypatch.setattr(intlinalg, "_replay", counting_replay)
    return counts


@pytest.fixture
def built(monkeypatch):
    return count_replays(monkeypatch)


@pytest.fixture(scope="module")
def reports():
    """The report of each built-in group, and of each of ``MORE_COMPLEXES``."""
    built_ins = {name: compute_homology(wallpaper.get_group(name)[0]) for name in ALL_GROUPS}
    return built_ins | {name: compute_homology(build()) for name, build in MORE_COMPLEXES.items()}


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_compute_homology_runs_three_snfs_and_two_assemblies(tally, name):
    complex = wallpaper.get_group(name)[0]._replace()  # a fresh, unread layout
    for _ in range(2):
        assert validate(complex) == []
        compute_homology(complex)
        # the first call reduces d1 and the H_1 matrix, which also gives H_2, and the first read of the
        # layout assembles d1 and d2, looking up each embedding's induction matrix once; the second reuses both
        assert tally == {"snf": 2, "assemble": 2, "induction": embeddings(name)}


def test_dump_from_file_assembles_each_differential_once(tally, tmp_path):
    path = tmp_path / "pmm.json"
    path.write_text(gcw.to_json(wallpaper.get_group("pmm")[0]), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["dump", "--from-file", str(path), "--format", "json"]) == 0
    assert tally == {"snf": 2, "assemble": 2, "induction": embeddings("pmm")}


def test_verify_computes_each_group_once(tally, fresh_builtins):
    for _ in range(2):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 1
    # the first run reduces each group (2 SNFs) and assembles its d1 and d2, and the second
    # reuses its report; each run checks an H_1 and an H_0 basis per group, with one SNF each
    groups = len(ALL_GROUPS)
    assert embeddings(*ALL_GROUPS) == 56  # of 154 boundary terms
    assert tally == {"snf": 2 * groups + 2 * (2 * groups), "assemble": 2 * groups, "induction": embeddings(*ALL_GROUPS)}
    assert tally["snf"] == 102


def test_verify_table3_computes_no_homology(tally):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--table3"]) == 0
    assert tally == {}


def test_show_snf_reads_the_report(tally, fresh_builtins):
    for _ in range(2):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["compute", "p4m", "--show-differentials", "--show-snf"]) == 0
        assert tally == {"snf": 2, "assemble": 2, "induction": embeddings("p4m")}


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


# ---------------------------------------------------------------------------
# The report is kept by its complex object, not by value


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_a_second_call_returns_the_same_report(name):
    complex = wallpaper.get_group(name)[0]._replace()
    assert compute_homology(complex) is compute_homology(complex)


def test_a_copy_and_a_second_parse_are_reduced_again(tally):
    complex = wallpaper.get_group("p4g")[0]
    report = compute_homology(complex)
    data = gcw.to_json_dict(complex)
    compute_homology(gcw.from_json_dict(data))
    for copy in (complex._replace(), gcw.from_json_dict(data)):
        tally.clear()
        assert compute_homology(copy) == report and compute_homology(copy) is not report
        assert tally["snf"] == 2


def test_an_invalid_complex_raises_on_every_call_and_keeps_nothing(tally):
    cm = wallpaper.get_group("cm")[0]
    bad_term = ("e1^0", "e0", 1)
    invalid = (
        gcw.EquivariantComplex("broken", (gcw.CellOrbit("f", 2, "C1", "gamma"), gcw.CellOrbit("f2", 2, "C1", "gamma")), ()),
        cm._replace(
            boundary=tuple(
                t._replace(embedding="C2->C2") if (t.source, t.target, t.sign) == bad_term else t for t in cm.boundary
            )
        ),
    )
    for complex in invalid:
        for _ in range(2):
            with pytest.raises(InvalidComplexError):
                compute_homology(complex)
        assert list(vars(complex)) == ["layout"]
    assert "snf" not in tally


def test_the_euler_identity_is_checked_on_every_call(monkeypatch):
    complex = wallpaper.get_group("p1")[0]._replace()
    report = compute_homology(complex)
    monkeypatch.setattr(HomologyReport, "euler_identity_holds", lambda self: False)
    with pytest.raises(EulerIdentityError) as excinfo:
        compute_homology(complex)
    assert excinfo.value.chain_ranks == (1, 2, 1) and excinfo.value.free_ranks == (1, 2, 1)
    monkeypatch.undo()
    assert compute_homology(complex) is report


def test_readers_leave_each_shared_report_as_computed():
    complexes = [wallpaper.get_group(name)[0] for name in ALL_GROUPS]
    for report in map(compute_homology, complexes):
        report_doc(report)
        report_to_json_dict(report)
        for degree in (0, 1, 2):
            group = report.group(degree)
            assert verify_basis(report, degree, list(group.torsion_basis) + list(group.basis))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["compute", "--all", "--format", "json"]) == 0
        assert cli.main(["compute", "--all", "--show-differentials", "--show-snf"]) == 0
        assert cli.main(["verify"]) == 1
    for complex in complexes:
        assert compute_homology(complex) == compute_homology(complex._replace()), complex.group_name


def restricted_replays(report) -> Counter:
    """The (transform, first) walks ``compute_homology`` makes for ``report``.

    d1 of rank k1: P_inv's columns from k1 - t0 for the generators of H_0,
    then Q's columns and Q_inv's rows from k1, for its kernel and d2 in
    kernel coordinates; the H_1 matrix of rank k, which is d2's rank k2:
    P_inv's columns and P's rows from k - t1 for its cokernel, the rows for
    H_1's coordinates, and Q's columns and Q_inv's rows from k2 for H_2.
    Every group's coordinates are built but H_0's.
    """
    k1, k2 = len(report.invariant_factors_d1), len(report.invariant_factors_d2)
    h0, h1 = report.group(0), report.group(1)
    first = report.d1.cols - k1 - h1.free_rank - len(h1.torsion)  # k - t1
    cokernels = [("P_inv", k1 - len(h0.torsion)), ("P_inv", first), ("P", first)]
    return Counter(cokernels + [("Q", k1), ("Q_inv", k1), ("Q", k2), ("Q_inv", k2)])


def coordinate_replays(report, degree: int) -> Counter:
    """The walks the first read of H_degree's coordinates makes: one for H_0, d1's P rows from
    k1 - t0, and none for H_1 and H_2, whose coordinates are built with the report."""
    k1, t0 = len(report.invariant_factors_d1), len(report.group(0).torsion)
    return Counter([("P", k1 - t0)] if degree == 0 else [])


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_compute_homology_builds_five_transforms(built, reports, name):
    complex = wallpaper.get_group(name)[0]._replace()  # a fresh copy, not yet reduced
    compute_homology(complex)
    # seven walks, each building one restricted transform; a replay from first 0 builds a full
    # transform, only where every column is read
    assert built == restricted_replays(reports[name])
    built.clear()
    compute_homology(complex)
    assert built == {}


def test_verify_basis_builds_each_groups_coordinates_once(built, fresh_builtins):
    for name in ALL_GROUPS:
        report = compute_homology(wallpaper.get_group(name)[0])
        for degree in (0, 1, 2):
            group = report.group(degree)
            for replays in (coordinate_replays(report, degree), Counter()):
                built.clear()
                assert verify_basis(report, degree, list(group.torsion_basis) + list(group.basis))
                assert built == replays, (name, degree)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 1  # the cm reference basis is rejected
    assert built == {}  # every built-in complex keeps its report, coordinates read


def test_verify_builds_each_groups_transforms_once(reports, built, fresh_builtins):
    for _ in range(2):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 1
    # each group's reduction, and the coordinates of the H_0 basis it checks (the H_1 ones are built already)
    expected = Counter()
    for report in map(reports.get, ALL_GROUPS):
        expected += restricted_replays(report) + coordinate_replays(report, 0)
    assert built == expected


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


def rows_from(m: IntegerMatrix, first: int) -> IntegerMatrix:
    return IntegerMatrix(m.rows - first, m.cols, m.nonzeros[first:])


#: A fresh complex to reduce: a seeded subdivision, a torus grid or the one with torsion in H_0.
fresh_complexes = st.one_of(
    st.tuples(st.just("subdivided"), st.sampled_from(ALL_GROUPS), st.integers(0, 60), st.integers(0, 2**32)),
    st.tuples(st.just("torus"), st.integers(2, 4)),
    st.just(("h0-torsion",)),
)


def build_complex(drawn: tuple) -> gcw.EquivariantComplex:
    kind, *args = drawn
    if kind == "subdivided":
        return gcw.from_json_dict(subdivided_group(*args))
    return gcw.from_json_dict(torus_grid(*args)) if kind == "torus" else torsion_in_degree_zero()


@settings(max_examples=60, deadline=None)
@given(fresh_complexes, st.permutations([(d, read) for d in (0, 1, 2) for read in ("generators", "coordinates")]))
def test_coordinates_are_built_on_first_read_as_slices_of_the_full_transforms(drawn, reads):
    report = compute_homology(build_complex(drawn))
    # the engine's coordinates, from the full transforms: rows of P1, of P_K times Q1^-1's kernel rows, of Q_K^-1
    snf1 = smith_normal_form_as_given(report.d1)
    kernel_rows = rows_from(snf1.Q_inv, snf1.rank)
    snf_k = smith_normal_form_as_given(kernel_rows @ report.d2)
    h0, h1 = report.group(0), report.group(1)
    expected = (
        rows_from(snf1.P, snf1.rank - len(h0.torsion)),
        rows_from(snf_k.P, snf_k.rank - len(h1.torsion)) @ kernel_rows,
        rows_from(snf_k.Q_inv, snf_k.rank),
    )
    generators, coordinates = {}, {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = count_replays(monkeypatch)
        for degree, read in reads:
            group = report.group(degree)
            if read == "generators":
                vectors = homology._chain_vectors(report, degree, group.torsion_basis + group.basis)
                generators[degree] = IntegerMatrix.from_rows(vectors, cols=len(report.labels[degree])).transpose()
                assert built == {}
            else:
                coordinates[degree] = group.coordinates.nonzeros
                assert built == coordinate_replays(report, degree), degree
                built.clear()
                assert group.coordinates.nonzeros is coordinates[degree] and built == {}
    for degree in (0, 1, 2):
        group = report.group(degree)
        assert group.coordinates == expected[degree], degree
        assert group.coordinates @ generators[degree] == identity(generators[degree].cols), degree


def test_h1_and_h2_coordinates_are_built_with_the_report_and_h0s_wait():
    fresh = [wallpaper.get_group(name)[0]._replace() for name in ALL_GROUPS] + [b() for b in MORE_COMPLEXES.values()]
    for report in map(compute_homology, fresh):
        h0, h1, h2 = report.groups
        assert type(h0.coordinates) is intlinalg.DeferredMatrix, report.group_name
        assert type(h1.coordinates) is IntegerMatrix and type(h2.coordinates) is IntegerMatrix, report.group_name
        snf1 = smith_normal_form_as_given(report.d1)
        kernel_rows = rows_from(snf1.Q_inv, snf1.rank)
        snf_k = smith_normal_form_as_given(kernel_rows @ report.d2)
        assert h1.coordinates == rows_from(snf_k.P, snf_k.rank - len(h1.torsion)) @ kernel_rows
        assert h2.coordinates == rows_from(snf_k.Q_inv, snf_k.rank)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_image_of_d2_in_kernel_coordinates_is_a_row_slice(reports, name):
    d1, d2 = reports[name].d1, reports[name].d2
    snf = smith_normal_form(d1)
    n, k = d1.cols, snf.rank
    coordinates = snf.kernel().coordinates
    assert coordinates == IntegerMatrix(n - k, n, snf.Q_inv.nonzeros[k:])
    assert coordinates @ d2 == solve_integer(kernel_basis(d1), d2)


def kernel_coordinate_verdict(report, degree, candidates) -> tuple[bool, str]:
    """The quotient (span + boundaries) in a kernel lattice basis of the cycles."""
    vectors = homology._chain_vectors(report, degree, candidates)
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


@pytest.mark.parametrize("name", ALL_GROUPS + list(MORE_COMPLEXES))
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


def test_a_torsion_class_in_degree_zero_needs_an_odd_multiple(reports):
    report = reports["h0-torsion"]
    assert [g.iso_type() for g in report.groups] == [(0, (2,)), (0, ()), (1, ())]
    twice = verify_basis(report, 0, [{"alpha": 2}])
    assert (twice.verdict, twice.detail) == ("REJECT", "candidates do not generate: quotient has torsion [2]")
    assert verify_basis(report, 0, [{"alpha": 3}]).verdict == "ACCEPT"


@pytest.mark.parametrize("name", ALL_GROUPS + list(MORE_COMPLEXES))
def test_coordinates_invert_the_basis_and_kill_the_boundaries(reports, name):
    report = reports[name]
    for degree, boundaries in ((0, report.d1), (1, report.d2), (2, None)):
        group = report.group(degree)
        vectors = homology._chain_vectors(report, degree, group.torsion_basis + group.basis)
        generators = IntegerMatrix.from_rows(vectors, cols=len(report.labels[degree])).transpose()
        assert group.coordinates @ generators == identity(len(vectors)), (name, degree)
        if boundaries is not None:  # a boundary is zero in every free coordinate and 0 mod d_i in torsion row i
            image = group.coordinates @ boundaries
            assert all(v % d == 0 for d, line in zip(group.torsion, image.nonzeros) for v in line.values())
            assert not any(image.nonzeros[len(group.torsion) :]), (name, degree)
