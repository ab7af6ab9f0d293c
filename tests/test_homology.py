import copy
import pickle
from fractions import Fraction

import jsonschema
import pytest

from bredon import gcw, homology, reference, schemas, wallpaper
from bredon.cyclotomic import Cyclotomic
from bredon.gcw import BoundaryTerm, CellOrbit, EquivariantComplex
from bredon.homology import (
    UnknownGeneratorError,
    compute_homology,
    format_chain,
    report_doc,
    report_to_json_dict,
    verify_basis,
)
from bredon.intlinalg import DeferredMatrix, IntegerMatrix, smith_normal_form
from report_schema import REPORT_SCHEMA
from snf_helpers import column
from subdivision import subdivided_group, torus_grid

ALL_GROUPS = wallpaper.list_groups()


@pytest.fixture(scope="module")
def reports():
    return {name: compute_homology(wallpaper.get_group(name)[0]) for name in ALL_GROUPS}


def iso(rep, degree):
    return rep.group(degree).iso_type()


def test_p1_recovers_torus_homology(reports):
    rep = reports["p1"]
    assert iso(rep, 2) == (1, ())
    assert iso(rep, 1) == (2, ())
    assert iso(rep, 0) == (1, ())
    assert rep.group(2).basis == ((("gamma", 1),),)


def test_pg_recovers_klein_bottle_homology(reports):
    rep = reports["pg"]
    assert iso(rep, 2) == (0, ())
    assert iso(rep, 1) == (1, (2,))
    assert iso(rep, 0) == (1, ())
    assert rep.group(1).torsion_basis == ((("beta_0", 1),),)


def test_pmm_is_all_in_degree_zero(reports):
    rep = reports["pmm"]
    assert (iso(rep, 2), iso(rep, 1), iso(rep, 0)) == ((0, ()), (0, ()), (9, ()))


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_reference_isomorphism_types(reports, name):
    h2, h1, _, h0, _ = reference.HOMOLOGY_ROWS[name]
    rep = reports[name]
    assert (iso(rep, 2), iso(rep, 1), iso(rep, 0)) == (h2, h1, h0)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_euler_identity(reports, name):
    assert reports[name].euler_identity_holds()


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_positive_degree_basis_elements_are_cycles(reports, name):
    rep = reports[name]
    for degree, diff in ((1, rep.d1), (2, rep.d2)):
        group = rep.group(degree)
        for chain in group.basis + group.torsion_basis:
            vec = homology._chain_vectors(rep, degree, [chain])[0]
            image = diff @ column(vec)
            assert image.is_zero()


def test_zero_differential_complex_is_free_on_generators():
    complex = EquivariantComplex(
        "synthetic",
        (
            CellOrbit("f", 2, "C1", "gamma"),
            CellOrbit("e", 1, "C2", "beta"),
            CellOrbit("v", 0, "D3", "alpha"),
        ),
        (
            BoundaryTerm("f", "e", 1, "C1->C2"),
            BoundaryTerm("f", "e", -1, "C1->C2"),
            BoundaryTerm("e", "v", 1, "C2->D3"),
            BoundaryTerm("e", "v", -1, "C2->D3"),
        ),
    )
    rep = compute_homology(complex)
    assert iso(rep, 0) == (3, ()) and iso(rep, 1) == (2, ()) and iso(rep, 2) == (1, ())


def test_invalid_complex_rejected():
    complex = EquivariantComplex(
        "broken",
        (CellOrbit("f", 2, "C1", "gamma"), CellOrbit("f2", 2, "C1", "gamma")),
        (),
    )
    with pytest.raises(homology.InvalidComplexError):
        compute_homology(complex)


def test_euler_violation_raises_a_named_error(monkeypatch):
    monkeypatch.setattr(homology.HomologyReport, "euler_identity_holds", lambda self: False)
    with pytest.raises(homology.EulerIdentityError) as excinfo:
        compute_homology(wallpaper.get_group("p1")[0])
    assert excinfo.value.chain_ranks == (1, 2, 1) and excinfo.value.free_ranks == (1, 2, 1)
    assert str(excinfo.value) == "Euler identity violated for p1: chain ranks [1, 2, 1], free ranks of H_0, H_1, H_2 [1, 2, 1]"


# ---------------------------------------------------------------------------
# One reduction of d2 in d1's kernel coordinates, checked against a reduction of d2 alone


#: The built-ins (one 2-cell), their 240-step subdivisions, and torus grids of n^2 2-cells.
REFERENCE_COMPLEXES = {
    **{name: lambda name=name: wallpaper.get_group(name)[0] for name in ALL_GROUPS},
    **{f"{name}-sub240": lambda name=name: gcw.from_json_dict(subdivided_group(name, 240)) for name in ALL_GROUPS},
    **{f"torus-{n}": lambda n=n: gcw.from_json_dict(torus_grid(n)) for n in range(2, 7)},
}


@pytest.mark.parametrize("build", REFERENCE_COMPLEXES.values(), ids=REFERENCE_COMPLEXES)
def test_h2_and_d2_invariants_match_a_reduction_of_d2_alone(build):
    report = compute_homology(build())
    reference_snf = smith_normal_form(report.d2)
    assert report.invariant_factors_d2 == reference_snf.invariant_factors
    generators = reference_snf.kernel().generators
    reference_basis = [
        [(label, row[j]) for label, row in zip(report.labels[2], generators.nonzeros) if j in row]
        for j in range(generators.cols)
    ]
    h2 = report.group(2)
    assert h2.torsion == () and h2.free_rank == generators.cols
    assert verify_basis(report, 2, h2.basis)
    assert verify_basis(report, 2, reference_basis)


# ---------------------------------------------------------------------------
# Copies and pickles hold values: a matrix built on first read comes back built


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_matrices_cyclotomics_and_reports_copy_and_pickle_by_value(round_trip):
    matrix = IntegerMatrix.from_rows([[1, 0, 0], [0, -2, 2**70]])
    deferred = DeferredMatrix(2, 3, lambda: matrix)  # a lambda does not pickle, its matrix does
    for value in (matrix, deferred, Cyclotomic((1, 2, 0, 0)), Cyclotomic((0, -1, 0, 2**70))):
        copied = round_trip(value)
        assert copied == value and type(copied) is (Cyclotomic if type(value) is Cyclotomic else IntegerMatrix)
    complexes = [wallpaper.get_group(name)[0]._replace() for name in ALL_GROUPS]  # reports with nothing read
    for report in map(compute_homology, complexes + [gcw.from_json_dict(subdivided_group("p6m", 240))]):
        copied = round_trip(report)
        assert copied == report and schemas.dumps(report_doc(copied)) == schemas.dumps(report_doc(report))
        for degree in (0, 1, 2):
            group = copied.group(degree)
            verdict = verify_basis(copied, degree, group.torsion_basis + group.basis)
            assert verdict.verdict == "ACCEPT", (report.group_name, degree, verdict.detail)


# ---------------------------------------------------------------------------
# basis verification


def test_p2_reference_basis_accepted(reports):
    basis = [{"alpha_0^1": 1}, {"alpha_0^2": 1}, {"alpha_1^2": 1}, {"alpha_2^2": 1}, {"alpha_3^2": 1}]
    assert verify_basis(reports["p2"], 0, basis).accepted


def test_pmg_degree1_combination_accepted(reports):
    assert verify_basis(reports["pmg"], 1, [{"beta_1^1": 1, "beta_2^1": 1}]).accepted


def test_repeated_generator_rejected(reports):
    basis = [{"alpha_0^1": 1}, {"alpha_0^1": 1}, {"alpha_1^2": 1}, {"alpha_2^2": 1}, {"alpha_3^2": 1}]
    verdict = verify_basis(reports["p2"], 0, basis)
    assert not verdict.accepted


def test_non_cycle_rejected(reports):
    verdict = verify_basis(reports["p2"], 1, [{"beta_0": 1}])
    assert not verdict.accepted
    assert "not a cycle" in verdict.detail


def test_undergeneration_rejected(reports):
    # dropping the torsion generator of pg leaves an index-2 subgroup
    verdict = verify_basis(reports["pg"], 1, [{"beta_1": 1}])
    assert not verdict.accepted


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_computed_basis_verifies_against_itself(reports, name):
    rep = reports[name]
    for degree in (0, 1, 2):
        group = rep.group(degree)
        candidates = list(group.torsion_basis) + list(group.basis)
        assert verify_basis(rep, degree, candidates).accepted


def _add_chain(target: dict, source: dict, factor: int) -> None:
    for lab, c in source.items():
        target[lab] = target.get(lab, 0) + factor * c
        if not target[lab]:
            del target[lab]


@pytest.mark.parametrize("name", ALL_GROUPS)
@pytest.mark.parametrize("degree", (0, 1, 2))
def test_verdict_invariant_under_unimodular_change(reports, name, degree):
    import random

    rep = reports[name]
    group = rep.group(degree)
    candidates = [dict(c) for c in group.torsion_basis + group.basis]
    rng = random.Random(f"{name}:{degree}")  # str seeds hash the same in every process
    for _ in range(6 * len(candidates)):
        i, j = rng.randrange(len(candidates) or 1), rng.randrange(len(candidates) or 1)
        if not candidates or i == j:
            continue
        _add_chain(candidates[i], candidates[j], rng.choice((-2, -1, 1, 2)))
    assert verify_basis(rep, degree, candidates).accepted


@pytest.mark.parametrize("name", ALL_GROUPS)
@pytest.mark.parametrize("degree", (0, 1, 2))
def test_every_computed_generator_is_needed(reports, name, degree):
    rep = reports[name]
    group = rep.group(degree)
    candidates = list(group.torsion_basis) + list(group.basis)
    for drop in range(len(candidates)):
        rest = candidates[:drop] + candidates[drop + 1 :]
        assert not verify_basis(rep, degree, rest).accepted


def test_unknown_label_raises(reports):
    with pytest.raises(UnknownGeneratorError):
        verify_basis(reports["p2"], 0, [{"alpha_9^9": 1}])
    with pytest.raises(UnknownGeneratorError):  # an unhashable label names no generator either
        verify_basis(reports["p2"], 0, [((["alpha_0^1"], 1),)])


@pytest.mark.parametrize(
    "candidates",
    [
        [{"beta_0": 1.5}, {"beta_1": 1}],  # once truncated to 1 and accepted
        [{"beta_0": 0.9}, {"beta_1": 1}],  # once read as 0
        [{"beta_0": Fraction(1)}, {"beta_1": 1}],
        [(("beta_0", 1.0),), (("beta_1", 1),)],
        [{"beta_0": True}, {"beta_1": 1}],
    ],
)
def test_non_int_coefficients_raise(reports, candidates):
    with pytest.raises(TypeError, match="not int"):
        verify_basis(reports["pg"], 1, candidates)
    assert verify_basis(reports["pg"], 1, [{"beta_0": 1}, {"beta_1": 1}]).accepted


def test_empty_candidates_accept_exactly_for_trivial_group(reports):
    assert verify_basis(reports["p2"], 1, []).accepted  # H_1(p2) = 0
    assert not verify_basis(reports["p2"], 0, []).accepted  # H_0(p2) = Z^5


def test_corrected_cm_basis_accepted(reports):
    assert verify_basis(reports["cm"], 1, reference.CORRECTED_BASES[("cm", 1)]).accepted


def test_cm_reference_basis_is_index_two():
    # the recorded degree-1 generator list for cm spans an index-2 sublattice;
    # the quotient check must report torsion [2] rather than accept
    rep = compute_homology(wallpaper.get_group("cm")[0])
    verdict = verify_basis(rep, 1, reference.HOMOLOGY_ROWS["cm"][2])
    assert not verdict.accepted
    assert "torsion [2]" in verdict.detail


# ---------------------------------------------------------------------------
# rendering


def test_format_chain():
    assert format_chain((("alpha_0^1", 1), ("alpha_0^2", -1), ("beta_0", 2))) == "alpha_0^1-alpha_0^2+2*beta_0"
    assert format_chain(()) == "0"


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_report_json_schema(reports, name):
    jsonschema.validate(report_to_json_dict(reports[name]), REPORT_SCHEMA)


def test_report_chain_ranks(reports):
    assert reports["p2"].chain_ranks == (8, 3, 1)
    assert reports["p6m"].chain_ranks == (13, 6, 1)
