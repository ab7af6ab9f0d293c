import importlib
import pkgutil
from fractions import Fraction

import pytest

import bredon
from bredon import chartab
from bredon.chartab import (
    CharacterTableError,
    SubgroupEmbedding,
    build_table,
    get_embedding,
    induction_matrix,
    inner_product,
    registered_embeddings,
)
from bredon.cyclotomic import Cyclotomic
from bredon.reference import INDUCED_CHARACTER_ROWS
from snf_helpers import col, entry, identity, row

EXPECTED_IRREDUCIBLE_COUNTS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6, "D2": 4, "D3": 3, "D4": 5, "D6": 6,
}


def induced_class_function(emb, values):
    """Induced character values computed from class data alone.

    Ind f(k) = (|K| / (|class(k)| * |H|)) * sum of |c| * f(c) over the
    H-classes c landing in class(k).  Independent of the Frobenius route
    used by the library, so it serves as the oracle for induction.  The sums
    run on 4-tuples of ``Fraction`` coefficients; an induced character's
    values are algebraic integers, so each comes out integral.
    """
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    out = []
    for kc in sup.classes:
        acc = [Fraction(0)] * 4
        for hc, hv in zip(sub.classes, values):
            if emb.mapped(hc.label) == kc.label:
                acc = [a + hc.size * c for a, c in zip(acc, hv.coeffs)]
        value = [a * Fraction(sup.order, kc.size * sub.order) for a in acc]
        assert all(a.denominator == 1 for a in value), (emb.embedding_id, kc.label, value)
        out.append(Cyclotomic(tuple(a.numerator for a in value)))
    return out


def degree(chi):
    """chi(e), the value at the identity class: a rational integer."""
    a, *rest = chi.values[0].coeffs
    assert not any(rest)
    return a


# ---------------------------------------------------------------------------
# tables


def test_unknown_group_rejected():
    with pytest.raises(CharacterTableError):
        build_table("D5")


def test_c2_table_is_forced():
    t = build_table("C2")
    values = [[v.coeffs for v in chi.values] for chi in t.irreducibles]
    assert values == [[(1, 0, 0, 0), (1, 0, 0, 0)], [(1, 0, 0, 0), (-1, 0, 0, 0)]]


def test_d3_degrees_and_names():
    t = build_table("D3")
    assert [chi.name for chi in t.irreducibles] == ["chi_1", "chi_2", "chi_3"]
    assert [degree(chi) for chi in t.irreducibles] == [1, 1, 2]


def test_d6_degrees_and_names():
    t = build_table("D6")
    assert [chi.name for chi in t.irreducibles] == ["chi_1", "chi_2", "chi_3", "chi_4", "phi_1", "phi_2"]
    assert [degree(chi) for chi in t.irreducibles] == [1, 1, 1, 1, 2, 2]


def test_d4_names():
    assert build_table("D4").irreducible_names() == ("chi_1", "chi_2", "chi_3", "chi_4", "phi")


def test_group_ids_are_the_tabulated_groups():
    assert chartab.GROUP_IDS == ("C1", "C2", "C3", "C4", "C6", "D2", "D3", "D4", "D6")
    assert set(chartab.GROUP_ORDERS) == set(chartab.GROUP_IDS)


@pytest.mark.parametrize("gid", chartab.GROUP_IDS)
def test_table_structure(gid):
    t = build_table(gid)
    assert len(t.irreducibles) == EXPECTED_IRREDUCIBLE_COUNTS[gid]
    assert sum(c.size for c in t.classes) == t.order
    assert all(t.order % c.element_order == 0 for c in t.classes)
    assert all(v.coeffs == (1, 0, 0, 0) for v in t.irreducibles[0].values)
    # sum of squared degrees is the group order
    assert sum(degree(chi) ** 2 for chi in t.irreducibles) == t.order


@pytest.mark.parametrize("gid", chartab.GROUP_IDS)
def test_row_orthogonality(gid):
    t = build_table(gid)
    for i, chi in enumerate(t.irreducibles):
        for j, psi in enumerate(t.irreducibles):
            assert inner_product(chi.values, psi.values, t) == (1 if i == j else 0)


def test_inner_product_examples():
    for gid in chartab.GROUP_IDS:
        t = build_table(gid)
        assert inner_product(t.irreducibles[0].values, t.irreducibles[0].values, t) == 1
    t = build_table("C2")
    assert inner_product(t.irreducibles[0].values, t.irreducibles[1].values, t) == 0


def test_regular_character_of_d3_contains_standard_twice():
    t = build_table("D3")
    regular = [Cyclotomic((6, 0, 0, 0)), Cyclotomic((0, 0, 0, 0)), Cyclotomic((0, 0, 0, 0))]
    assert inner_product(regular, t.irreducibles[2].values, t) == 2


def test_inner_product_length_mismatch():
    t = build_table("D3")
    with pytest.raises(CharacterTableError):
        inner_product(t.irreducibles[0].values, t.irreducibles[0].values[:-1], t)


# ---------------------------------------------------------------------------
# embeddings


def test_catalog_is_validated_and_order_divides():
    for emb in registered_embeddings():
        sub, sup = build_table(emb.sub), build_table(emb.sup)
        assert sup.order % sub.order == 0
        assert emb.mapped("e") == "e"


def test_catalog_contents():
    ids = {e.embedding_id for e in registered_embeddings()}
    for g in chartab.GROUP_IDS:
        assert f"{g}->{g}" in ids or g == "C1"
        if g != "C1":
            assert f"C1->{g}" in ids
    assert "C1->C1" in ids
    # D4 admits three class-level copies of C2: the central involution and
    # the two reflection classes.  The reference induced-character rows use
    # exactly two of them; the third occurs in the p4m cell structure.
    d4 = sorted(i for i in ids if i.startswith("C2->D4"))
    assert d4 == ["C2->D4[C2^1]", "C2->D4[C2^2]", "C2->D4[C2^3]"]
    referenced = {r[1] for r in INDUCED_CHARACTER_ROWS}
    assert referenced & set(d4) == {"C2->D4[C2^1]", "C2->D4[C2^2]"}
    d6 = sorted(i for i in ids if i.startswith("C2->D6"))
    assert d6 == ["C2->D6[C2^1]", "C2->D6[C2^2]", "C2->D6[C2^3]"]


def test_broken_embedding_rejected():
    bad = SubgroupEmbedding("bad", "C2", "C4", (("e", "e"), ("z", "r")))
    with pytest.raises(CharacterTableError):
        chartab.validate_embedding(bad)
    # the same defect surfaces as a non-integral decomposition
    with pytest.raises(CharacterTableError):
        induction_matrix(bad).transpose()
    # a class the target group lacks is a structural fault too, not a KeyError
    missing = SubgroupEmbedding("missing", "C2", "D2", (("e", "e"), ("z", "q")))
    with pytest.raises(CharacterTableError, match="^missing: D2 has no class 'q'$"):
        chartab.validate_embedding(missing)


def test_unknown_embedding_id():
    with pytest.raises(CharacterTableError):
        get_embedding("C3->D4")


def test_records_keep_the_tuple_methods():
    # a record is a tuple to every caller: no field or property may shadow tuple.index or tuple.count
    records = [
        obj
        for info in pkgutil.iter_modules(bredon.__path__)
        for obj in vars(importlib.import_module(f"bredon.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    ]
    assert SubgroupEmbedding in records
    for cls in records:
        assert (cls.index, cls.count) == (tuple.index, tuple.count), cls.__name__
    for emb in registered_embeddings():
        assert emb.index(emb.embedding_id) == 0


# ---------------------------------------------------------------------------
# restriction


def test_trivial_restricts_to_trivial():
    m = induction_matrix(get_embedding("C2->D2[a]")).transpose()
    assert col(m, 0) == (1, 0)


def test_restriction_of_phi_along_central_involution():
    m = induction_matrix(get_embedding("C2->D4[C2^1]")).transpose()
    assert col(m, 4) == (0, 2)  # phi pulls back to twice the sign character


@pytest.mark.parametrize("gid", [g for g in chartab.GROUP_IDS if g != "C1"])
def test_restriction_to_trivial_group_counts_dimension(gid):
    emb = get_embedding(f"C1->{gid}")
    m = induction_matrix(emb).transpose()
    t = build_table(gid)
    assert m.rows == 1
    assert list(row(m, 0)) == [degree(chi) for chi in t.irreducibles]


@pytest.mark.parametrize("emb", registered_embeddings(), ids=lambda e: e.embedding_id)
def test_restriction_degree_identity(emb):
    m = induction_matrix(emb).transpose()
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    for j, psi in enumerate(sup.irreducibles):
        restricted_degree = sum(entry(m, i, j) * degree(chi) for i, chi in enumerate(sub.irreducibles))
        assert restricted_degree == degree(psi)


# ---------------------------------------------------------------------------
# induction


def test_induction_examples():
    assert col(induction_matrix(get_embedding("C2->D2[a]")), 0) == (1, 1, 0, 0)
    assert col(induction_matrix(get_embedding("C1->D3")), 0) == (1, 1, 2)
    assert col(induction_matrix(get_embedding("D3->D3")), 0) == (1, 0, 0)
    assert col(induction_matrix(get_embedding("C2->D4[C2^1]")), 1) == (0, 0, 0, 0, 2)


@pytest.mark.parametrize("emb", registered_embeddings(), ids=lambda e: e.embedding_id)
def test_identity_embeddings_induce_identically(emb):
    if emb.sub == emb.sup:
        n = build_table(emb.sub).rank
        assert induction_matrix(emb) == induction_matrix(emb).transpose()
        assert induction_matrix(emb) == identity(n)


@pytest.mark.parametrize("emb", registered_embeddings(), ids=lambda e: e.embedding_id)
def test_induction_against_class_formula(emb):
    """Dual route: the class-level induced-character formula must agree."""
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    m = induction_matrix(emb)
    for j, chi in enumerate(sub.irreducibles):
        induced = induced_class_function(emb, chi.values)
        for i, psi in enumerate(sup.irreducibles):
            assert inner_product(induced, psi.values, sup) == entry(m, i, j)


@pytest.mark.parametrize("emb", registered_embeddings(), ids=lambda e: e.embedding_id)
def test_frobenius_reciprocity(emb):
    """<Ind chi, psi> = <chi, Res psi>, with induction from the class formula."""
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    for chi in sub.irreducibles:
        induced = induced_class_function(emb, chi.values)
        for psi in sup.irreducibles:
            pulled = tuple(psi.values[sup.class_index(emb.mapped(c.label))] for c in sub.classes)
            assert inner_product(induced, psi.values, sup) == inner_product(chi.values, pulled, sub)


@pytest.mark.parametrize("emb", registered_embeddings(), ids=lambda e: e.embedding_id)
def test_induction_entries_nonnegative_and_degree_scaled(emb):
    m = induction_matrix(emb)
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    assert all(v >= 0 for row in m.nonzeros for v in row.values())
    for j, chi in enumerate(sub.irreducibles):
        induced_degree = sum(entry(m, i, j) * degree(psi) for i, psi in enumerate(sup.irreducibles))
        index = chartab.GROUP_ORDERS[emb.sup] // chartab.GROUP_ORDERS[emb.sub]
        assert induced_degree == index * degree(chi)


def test_reference_induced_rows_reproduced():
    for line, emb_id, source, expected in INDUCED_CHARACTER_ROWS:
        emb = get_embedding(emb_id)
        sub, sup = build_table(emb.sub), build_table(emb.sup)
        m = induction_matrix(emb)
        j = sub.irreducible_names().index(source)
        computed = {
            name: entry(m, i, j) for i, name in enumerate(sup.irreducible_names()) if entry(m, i, j)
        }
        assert computed == expected, f"row {line}: {emb_id} applied to {source}"
