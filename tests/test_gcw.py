import dataclasses

import pytest

from bredon import wallpaper
from bredon.gcw import (
    BoundaryTerm,
    CellOrbit,
    EquivariantComplex,
    InvalidComplexError,
    assemble_differential,
    chain_rank,
    differentials,
    from_json_dict,
    to_json_dict,
    validate,
)
from bredon.intlinalg import IntegerMatrix
from bredon.schemas import SchemaError

ALL_GROUPS = wallpaper.list_groups()


def cx(name):
    return wallpaper.get_group(name)[0]


# ---------------------------------------------------------------------------
# chain ranks and labels


def test_chain_rank_p2_degree0():
    rank, labels = chain_rank(cx("p2"), 0)
    assert rank == 8
    assert [l.name for l in labels] == [
        "alpha_0^1", "alpha_0^2", "alpha_1^1", "alpha_1^2",
        "alpha_2^1", "alpha_2^2", "alpha_3^1", "alpha_3^2",
    ]


def test_chain_rank_p1_degree2():
    rank, labels = chain_rank(cx("p1"), 2)
    assert rank == 1
    assert labels[0].name == "gamma"


def test_chain_rank_p6m_degree0():
    rank, labels = chain_rank(cx("p6m"), 0)
    assert rank == 13  # D6, D3, D2 contribute 6 + 3 + 4
    assert labels[0].name == "alpha_0^1" and labels[-1].name == "alpha_2^4"


def test_chain_rank_bad_degree():
    with pytest.raises(ValueError):
        chain_rank(cx("p1"), 3)


# ---------------------------------------------------------------------------
# differentials


def test_pg_degree2_column():
    d2 = assemble_differential(cx("pg"), 2)
    assert d2 == IntegerMatrix.from_rows([[2], [0]])


def test_cm_degree2_column():
    d2 = assemble_differential(cx("cm"), 2)
    assert d2 == IntegerMatrix.from_rows([[2], [1], [1]])


def test_p2_degree2_vanishes():
    assert assemble_differential(cx("p2"), 2).is_zero()


def test_p4g_reflection_column():
    # generators of degree 1 are (beta_0, beta_1^1, beta_1^2); the beta_1^1
    # column lands in the D2 block as the difference of the two one-dim
    # characters distinguished by the two reflection families
    d1 = assemble_differential(cx("p4g"), 1)
    assert d1.col(1) == (0, 1, -1, 0, 0, 0, 0, 0)
    assert d1.col(2) == (0, -1, 1, 0, 0, 0, 0, 0)


def test_pmm_degree1_matches_block_pattern():
    d1 = assemble_differential(cx("pmm"), 1)
    # column of beta_1^1: +(chi_1+chi_2) at vertex 2, -(chi_1+chi_3) at vertex 1
    assert d1.col(2) == (0, 0, 0, 0, -1, 0, -1, 0, 1, 1, 0, 0, 0, 0, 0, 0)


def test_differential_degree_checked():
    with pytest.raises(ValueError):
        assemble_differential(cx("p1"), 0)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_builtin_complexes_validate(name):
    assert validate(cx(name)) == []


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_builtin_differentials_compose_to_zero(name):
    complex = cx(name)
    d1 = assemble_differential(complex, 1)
    d2 = assemble_differential(complex, 2)
    assert (d1 @ d2).is_zero()


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_differentials_returns_both_assembled_matrices(name):
    complex = cx(name)
    assert differentials(complex) == (assemble_differential(complex, 1), assemble_differential(complex, 2))


def test_differentials_raises_the_violations_validate_lists():
    base = cx("pmm")
    terms = list(base.boundary)
    idx = next(i for i, t in enumerate(terms) if t.source == "e2")
    terms[idx] = dataclasses.replace(terms[idx], sign=-terms[idx].sign)
    orbit = CellOrbit("e2", 2, "C1", "gamma")
    for broken in (
        dataclasses.replace(base, boundary=tuple(terms)),
        EquivariantComplex("broken", (orbit, orbit), ()),
        EquivariantComplex("broken", (orbit,), (BoundaryTerm("e2", "nowhere", 1, "C1->C1"),)),
    ):
        with pytest.raises(InvalidComplexError) as excinfo:
            differentials(broken)
        assert excinfo.value.violations == validate(broken) != []


def test_wrong_embedding_subgroup_is_a_violation():
    base = cx("p2")
    terms = list(base.boundary)
    idx = next(i for i, t in enumerate(terms) if t.source == "e1^0" and t.target == "e0^1")
    terms[idx] = dataclasses.replace(terms[idx], embedding="C2->C2")
    mutated = dataclasses.replace(base, boundary=tuple(terms))
    violations = validate(mutated)
    assert len(violations) == 1
    assert "C2->C2" in violations[0] and "sub" in violations[0]


def test_flipped_sign_breaks_composition():
    base = cx("pmm")
    terms = list(base.boundary)
    idx = next(i for i, t in enumerate(terms) if t.source == "e2")
    terms[idx] = dataclasses.replace(terms[idx], sign=-terms[idx].sign)
    mutated = dataclasses.replace(base, boundary=tuple(terms))
    assert validate(mutated) == ["differentials do not compose to zero"]


def test_duplicate_orbit_rejected():
    orbit = CellOrbit("e2", 2, "C1", "gamma")
    mutated = EquivariantComplex("broken", (orbit, orbit), ())
    assert any("duplicate" in v for v in validate(mutated))


def test_two_cell_count_enforced():
    mutated = EquivariantComplex(
        "broken",
        (CellOrbit("e1", 1, "C1", "beta"), CellOrbit("e0", 0, "C1", "alpha")),
        (BoundaryTerm("e1", "e0", 1, "C1->C1"), BoundaryTerm("e1", "e0", -1, "C1->C1")),
    )
    assert any("exactly one orbit of 2-cells" in v for v in validate(mutated))


def test_missing_orbit_reference_detected():
    mutated = EquivariantComplex(
        "broken",
        (CellOrbit("e2", 2, "C1", "gamma"),),
        (BoundaryTerm("e2", "nowhere", 1, "C1->C1"),),
    )
    assert any("missing orbit" in v for v in validate(mutated))


@pytest.mark.parametrize("value", [2.0, 1.0, True, "2"])
def test_non_int_dimension_is_out_of_range(value):
    # a complex built in code: 2.0 used to end in a TypeError, True in a silent 1
    base = cx("p2")
    orbits = [dataclasses.replace(o, dimension=value) if o.orbit_id == "e2" else o for o in base.orbits]
    mutated = dataclasses.replace(base, orbits=tuple(orbits))
    assert validate(mutated) == [f"orbit e2: dimension {value} out of range"]
    with pytest.raises(InvalidComplexError):
        differentials(mutated)
    assert chain_rank(mutated, 2) == (0, [])


@pytest.mark.parametrize("value", [1.0, -1.0, True, 2])
def test_non_int_sign_is_a_violation(value):
    base = cx("pmm")
    terms = [dataclasses.replace(t, sign=value) if t.source == "e2" else t for t in base.boundary]
    mutated = dataclasses.replace(base, boundary=tuple(terms))
    assert validate(mutated) == [f"boundary term e2->{t.target}: sign must be +1 or -1" for t in terms if t.source == "e2"]
    with pytest.raises(InvalidComplexError):
        differentials(mutated)


# ---------------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_json_roundtrip(name):
    original = cx(name)
    data = to_json_dict(original)
    loaded = from_json_dict(data)
    assert loaded.group_name == original.group_name
    assert loaded.orbits == original.orbits
    assert loaded.boundary == original.boundary
    assert validate(loaded) == []


def test_from_json_rejects_malformed():
    with pytest.raises(SchemaError):
        from_json_dict({"group": "x", "orbits": []})
    with pytest.raises(SchemaError):
        from_json_dict(
            {
                "group": "x",
                "orbits": [{"id": "e2", "dim": 5, "stabilizer": "C1", "label": "g"}],
                "boundary": [],
            }
        )
