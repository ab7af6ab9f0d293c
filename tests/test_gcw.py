
import pytest

from bredon import chartab, schemas, wallpaper
from bredon.gcw import (
    BoundaryTerm,
    CellOrbit,
    EquivariantComplex,
    InvalidComplexError,
    differentials,
    from_json_dict,
    to_json_dict,
    validate,
)
from bredon.homology import basis_cell, compute_homology, verify_basis
from bredon.intlinalg import IntegerMatrix
from bredon.schemas import SchemaError
from snf_helpers import col
from subdivision import subdivided_group, torus_grid

ALL_GROUPS = wallpaper.list_groups()


def cx(name):
    return wallpaper.get_group(name)[0]


# ---------------------------------------------------------------------------
# chain ranks and labels


def test_chain_rank_p2_degree0():
    assert cx("p2").layout.labels[0] == (
        "alpha_0^1", "alpha_0^2", "alpha_1^1", "alpha_1^2",
        "alpha_2^1", "alpha_2^2", "alpha_3^1", "alpha_3^2",
    )


def test_chain_rank_p1_degree2():
    assert cx("p1").layout.labels[2] == ("gamma",)


def test_chain_rank_p6m_degree0():
    labels = cx("p6m").layout.labels[0]
    assert len(labels) == 13  # D6, D3, D2 contribute 6 + 3 + 4
    assert labels[0] == "alpha_0^1" and labels[-1] == "alpha_2^4"


# ---------------------------------------------------------------------------
# differentials


def test_pg_degree2_column():
    d2 = differentials(cx("pg"))[1]
    assert d2 == IntegerMatrix.from_rows([[2], [0]])


def test_cm_degree2_column():
    d2 = differentials(cx("cm"))[1]
    assert d2 == IntegerMatrix.from_rows([[2], [1], [1]])


def test_p2_degree2_vanishes():
    assert differentials(cx("p2"))[1].is_zero()


def test_p4g_reflection_column():
    # generators of degree 1 are (beta_0, beta_1^1, beta_1^2); the beta_1^1
    # column lands in the D2 block as the difference of the two one-dim
    # characters distinguished by the two reflection families
    d1 = differentials(cx("p4g"))[0]
    assert col(d1, 1) == (0, 1, -1, 0, 0, 0, 0, 0)
    assert col(d1, 2) == (0, -1, 1, 0, 0, 0, 0, 0)


def test_pmm_degree1_matches_block_pattern():
    d1 = differentials(cx("pmm"))[0]
    # column of beta_1^1: +(chi_1+chi_2) at vertex 2, -(chi_1+chi_3) at vertex 1
    assert col(d1, 2) == (0, 0, 0, 0, -1, 0, -1, 0, 1, 1, 0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_builtin_complexes_validate(name):
    assert validate(cx(name)) == []


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_builtin_differentials_compose_to_zero(name):
    d1, d2 = differentials(cx(name))
    assert (d1 @ d2).is_zero()


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_differentials_returns_both_assembled_matrices(name):
    complex = cx(name)
    assert differentials(complex) is complex.layout.differentials
    d1, d2 = differentials(complex)
    labels = complex.layout.labels
    assert (d1.rows, d1.cols, d2.rows, d2.cols) == (len(labels[0]), len(labels[1]), len(labels[1]), len(labels[2]))


def test_differentials_raises_the_violations_validate_lists():
    base = cx("pmm")
    terms = list(base.boundary)
    idx = next(i for i, t in enumerate(terms) if t.source == "e2")
    terms[idx] = terms[idx]._replace(sign=-terms[idx].sign)
    orbit = CellOrbit("e2", 2, "C1", "gamma")
    for broken in (
        base._replace(boundary=tuple(terms)),
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
    terms[idx] = terms[idx]._replace(embedding="C2->C2")
    mutated = base._replace(boundary=tuple(terms))
    violations = validate(mutated)
    assert len(violations) == 1
    assert "C2->C2" in violations[0] and "sub" in violations[0]


def test_flipped_sign_breaks_composition():
    base = cx("pmm")
    terms = list(base.boundary)
    idx = next(i for i, t in enumerate(terms) if t.source == "e2")
    terms[idx] = terms[idx]._replace(sign=-terms[idx].sign)
    mutated = base._replace(boundary=tuple(terms))
    assert validate(mutated) == ["differentials do not compose to zero"]


def test_duplicate_orbit_rejected():
    orbit = CellOrbit("e2", 2, "C1", "gamma")
    mutated = EquivariantComplex("broken", (orbit, orbit), ())
    assert any("duplicate" in v for v in validate(mutated))


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
    orbits = [o._replace(dimension=value) if o.orbit_id == "e2" else o for o in base.orbits]
    mutated = base._replace(orbits=tuple(orbits))
    assert validate(mutated) == [f"orbit e2: dimension {value} out of range"]
    with pytest.raises(InvalidComplexError):
        differentials(mutated)
    assert mutated.layout.labels[2] == ()


@pytest.mark.parametrize("value", [1.0, -1.0, True, 2])
def test_non_int_sign_is_a_violation(value):
    base = cx("pmm")
    terms = [t._replace(sign=value) if t.source == "e2" else t for t in base.boundary]
    mutated = base._replace(boundary=tuple(terms))
    assert validate(mutated) == [f"boundary term e2->{t.target}: sign must be +1 or -1" for t in terms if t.source == "e2"]
    with pytest.raises(InvalidComplexError):
        differentials(mutated)


V, E, F = CellOrbit("v", 0, "C1", "alpha"), CellOrbit("e", 1, "C1", "beta"), CellOrbit("f", 2, "C1", "gamma")

#: One small complex per violation message, with the exact list ``validate`` returns.
VIOLATIONS = {
    "duplicate id": ((F, F), (), ["duplicate orbit id 'f'"]),
    "dimension": ((F._replace(dimension=3),), (), ["orbit f: dimension 3 out of range"]),
    "stabilizer": ((F._replace(stabilizer="C7"),), (), ["orbit f: unknown stabilizer 'C7'"]),
    "labels": ((V._replace(label="gamma"), F), (), ["generator labels are not unique"]),
    "missing": ((F,), (BoundaryTerm("f", "nowhere", 1, "C1->C1"),), ["boundary term f->nowhere: references a missing orbit"]),
    "consecutive": (
        (V, F),
        (BoundaryTerm("f", "v", 1, "C1->C1"),),
        ["boundary term f->v: dimensions 2->0 are not consecutive"],
    ),
    "sign": ((E, F), (BoundaryTerm("f", "e", 2, "C1->C1"),), ["boundary term f->e: sign must be +1 or -1"]),
    "embedding": ((E, F), (BoundaryTerm("f", "e", 1, "C1->C5"),), ["boundary term f->e: unknown embedding 'C1->C5'"]),
    "sub": (
        (E._replace(stabilizer="C2"), F),
        (BoundaryTerm("f", "e", 1, "C2->C2"),),
        ["boundary term f->e: embedding C2->C2 has sub C2, stabilizer is C1"],
    ),
    "sup": (
        (E, F),
        (BoundaryTerm("f", "e", 1, "C1->C2"),),
        ["boundary term f->e: embedding C1->C2 has sup C2, stabilizer is C1"],
    ),
    "composition": (
        (V, E, F),
        (BoundaryTerm("e", "v", 1, "C1->C1"), BoundaryTerm("f", "e", 1, "C1->C1")),
        ["differentials do not compose to zero"],
    ),
    # an embedding id is looked up once, but each term that uses it reports its own violations, in term order
    "repeated ids": (
        (E, E._replace(orbit_id="e2", stabilizer="C2", label="beta_2"), F),
        (
            BoundaryTerm("f", "e", 1, "C1->C1"),
            BoundaryTerm("f", "e2", 1, "C1->C1"),
            BoundaryTerm("f", "e", 1, "C1->C5"),
            BoundaryTerm("f", "e2", 2, "C1->C5"),
            BoundaryTerm("f", "e2", 1, "C1->C2"),
        ),
        [
            "boundary term f->e2: embedding C1->C1 has sup C1, stabilizer is C2",
            "boundary term f->e: unknown embedding 'C1->C5'",
            "boundary term f->e2: sign must be +1 or -1",
            "boundary term f->e2: unknown embedding 'C1->C5'",
        ],
    ),
}


@pytest.mark.parametrize("orbits, boundary, expected", VIOLATIONS.values(), ids=VIOLATIONS)
def test_each_violation_message(orbits, boundary, expected):
    assert validate(EquivariantComplex("broken", orbits, boundary)) == expected


def _replace_terms(base, source, **changes):
    terms = [t._replace(**changes) if t.source == source else t for t in base.boundary]
    return base._replace(boundary=tuple(terms))


@pytest.mark.parametrize(
    "mutated",
    [
        _replace_terms(cx("pmm"), "e2", sign=1.0),
        _replace_terms(cx("pmm"), "e2", sign=3),
        _replace_terms(cx("pmm"), "e2", target="nowhere"),
        _replace_terms(cx("pmm"), "e1^1", embedding="C2->C5"),
        EquivariantComplex("broken", *VIOLATIONS["composition"][:2]),
    ],
    ids=["float-sign", "scaling-sign", "missing-target", "unknown-embedding", "composition"],
)
@pytest.mark.parametrize("d", (1, 2))
def test_assembly_refuses_what_validate_rejects(mutated, d):
    # no float and no scaled block reaches an IntegerMatrix
    with pytest.raises(InvalidComplexError) as excinfo:
        differentials(mutated)[d - 1]
    assert excinfo.value.violations == validate(mutated) != []


def test_second_differentials_reads_no_embedding(monkeypatch):
    looked_up = []
    get_embedding = chartab.get_embedding
    monkeypatch.setattr(chartab, "get_embedding", lambda emb_id: looked_up.append(emb_id) or get_embedding(emb_id))
    complex = cx("pmm")._replace()  # a fresh, unread layout looks up each embedding id once, not once per term
    first = differentials(complex)
    assert len(complex.boundary) == 12
    assert sorted(looked_up) == ["C1->C2", "C2->D2[a]", "C2->D2[b]"]
    assert differentials(complex) == first
    assert len(looked_up) == 3


# ---------------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("name", ALL_GROUPS + [f"{group}-sub240" for group in ALL_GROUPS])
def test_json_roundtrip(name):
    # 240 edge subdivisions give columns of about 485 orbits and 729 to 972 terms
    group, _, steps = name.partition("-sub")
    data = subdivided_group(group, int(steps)) if steps else to_json_dict(cx(group))
    assert schemas.check(data, "complex") is None
    loaded = from_json_dict(data)
    assert to_json_dict(loaded) == data
    assert {type(o) for o in loaded.orbits} == {CellOrbit} and {type(t) for t in loaded.boundary} == {BoundaryTerm}
    assert steps or loaded == cx(group)  # group name, orbits and terms, compared field by field
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


# ---------------------------------------------------------------------------
# Any number of 2-cell orbits: two cell structures of one group have one homology


def homology_of(complex):
    """The iso types of H_0, H_1, H_2, after checking that ``verify_basis`` accepts every engine basis."""
    report = compute_homology(complex)
    for degree, group in enumerate(report.groups):
        assert verify_basis(report, degree, list(group.torsion_basis) + list(group.basis)), (degree, group)
    return [group.iso_type() for group in report.groups]


@pytest.mark.parametrize("n", range(2, 7))
def test_the_torus_grid_has_the_homology_of_p1(n):
    grid = from_json_dict(torus_grid(n))
    assert [len(grid.orbits_of_dimension(d)) for d in (0, 1, 2)] == [n * n, 2 * n * n, n * n]
    assert {o.stabilizer for o in grid.orbits} == {"C1"}
    assert validate(grid) == []
    assert homology_of(grid) == homology_of(cx("p1")) == [(1, ()), (2, ()), (1, ())]


def test_p1_without_its_two_cell():
    p1 = cx("p1")
    orbits = tuple(o for o in p1.orbits if o.dimension < 2)
    bare = EquivariantComplex("p1", orbits, tuple(t for t in p1.boundary if t.source != "e2"))
    assert validate(bare) == []
    assert homology_of(bare) == [(1, ()), (2, ()), (0, ())]  # the wedge of two circles: d2 is 2x0


def test_p1_with_a_second_two_cell_on_the_same_boundary():
    p1 = cx("p1")
    gamma_b = CellOrbit("e2b", 2, "C1", "gamma_b")
    both = p1._replace(
        orbits=p1.orbits + (gamma_b,),
        boundary=p1.boundary + tuple(t._replace(source="e2b") for t in p1.boundary if t.source == "e2"),
    )
    assert validate(both) == []
    assert homology_of(both) == [(1, ()), (2, ()), (2, ())]
    assert basis_cell(compute_homology(both).group(2)) == "[gamma] [gamma_b]"
