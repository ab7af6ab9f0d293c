"""Induction is memoised per catalog embedding; table arithmetic stays integral."""

from fractions import Fraction

import pytest

from bredon import chartab, wallpaper
from bredon.chartab import CharacterTableError, SubgroupEmbedding, induction_matrix, inner_product
from bredon.cyclotomic import I, Cyclotomic
from bredon.homology import compute_homology

ALL_GROUPS = wallpaper.list_groups()


def _full_pass() -> None:
    # fresh complexes: a built-in's cached layout already holds its differentials
    for name in ALL_GROUPS:
        compute_homology(wallpaper.get_group(name)[0]._replace())


def test_full_pass_misses_once_per_distinct_embedding():
    used = {term.embedding for name in ALL_GROUPS for term in wallpaper.get_group(name)[0].boundary}
    induction_matrix.cache_clear()
    _full_pass()
    first = induction_matrix.cache_info()
    assert first.misses == first.currsize == len(used)
    assert first.hits > first.misses
    _full_pass()
    assert induction_matrix.cache_info().misses == first.misses


@pytest.mark.parametrize("emb", chartab.registered_embeddings(), ids=lambda e: e.embedding_id)
def test_cached_matrix_equals_a_fresh_transpose_of_restriction(emb):
    cached = induction_matrix(emb)
    assert induction_matrix(emb) is cached
    assert cached == induction_matrix.__wrapped__(emb)  # the uncached function: restriction's transpose, built anew


def test_catalog_has_26_embeddings():
    assert len(chartab.registered_embeddings()) == 26


def test_broken_embedding_raises_on_every_call():
    for sup, message in (
        # z -> r pulls chi_2 of C4 back to (1, i): (1 + i)/2 is not rational.
        ("C4", "^inner product is not rational$"),
        # z -> r pulls chi_3 of D3 back to (2, -1), which holds the trivial character 1/2 times.
        ("D3", "^bad: restriction of chi_3 decomposes with coefficient 1/2$"),
    ):
        bad = SubgroupEmbedding("bad", "C2", sup, (("e", "e"), ("z", "r")))
        for _ in range(2):
            with pytest.raises(CharacterTableError, match=message):
                induction_matrix(bad)


@pytest.mark.parametrize(
    "gid, row, values, message",
    [
        ("D3", 2, [2, 0, 1], "^D3: row orthogonality fails for chi_1, chi_3$"),
        ("C4", 1, [1, -1, I, I], "^inner product is not rational$"),  # <chi_1, chi_2> = -i/2
    ],
)
def test_corrupted_table_fails_its_check(monkeypatch, gid, row, values, message):
    original = chartab.build_table(gid)
    classes, irreducibles = chartab._TABLE_DATA[gid]
    corrupted = list(irreducibles)
    corrupted[row] = (irreducibles[row][0], values)
    monkeypatch.setitem(chartab._TABLE_DATA, gid, (classes, corrupted))
    chartab.build_table.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(CharacterTableError, match=message):
                chartab.build_table(gid)
    finally:
        monkeypatch.undo()
        chartab.build_table.cache_clear()
    assert chartab.build_table(gid) == original


@pytest.mark.parametrize("gid", chartab.GROUP_IDS)
def test_inner_product_is_an_exact_fraction(gid):
    t = chartab.build_table(gid)
    for i, chi in enumerate(t.irreducibles):
        for j, psi in enumerate(t.irreducibles):
            value = inner_product(chi.values, psi.values, t)
            assert type(value) is Fraction
            assert value == (1 if i == j else 0)
            pairing = chartab._pairing(chi.values, psi.values, t)  # the int sum the table check compares
            assert type(pairing) is int and pairing == t.order * value


@pytest.mark.parametrize("gid", chartab.GROUP_IDS)
def test_table_coefficients_are_ints(gid):
    coeffs = [c for chi in chartab.build_table(gid).irreducibles for v in chi.values for c in v.coeffs]
    assert all(type(c) is int for c in coeffs)


def test_inner_product_of_a_rational_class_function():
    t = chartab.build_table("C2")
    half = (Cyclotomic.of(Fraction(1, 2)), Cyclotomic.of(Fraction(1, 2)))
    assert inner_product(half, t.irreducibles[0].values, t) == Fraction(1, 2)


@pytest.mark.parametrize("value", (0.5, 1.0, "1", None))
def test_non_exact_coefficients_are_rejected(value):
    with pytest.raises(TypeError):
        Cyclotomic.of(value)
    with pytest.raises(TypeError):
        Cyclotomic.of(1, value)


def test_integral_fractions_become_ints():
    z = Cyclotomic.of(Fraction(4, 2), Fraction(-3, 1), 1, Fraction(1, 3))
    assert [type(c) for c in z.coeffs] == [int, int, int, Fraction]
    assert z.coeffs == (2, -3, 1, Fraction(1, 3))
    assert type((z * z).coeffs[0]) is Fraction
    assert all(type(c) is int for c in (Cyclotomic.zeta_pow(5) * Cyclotomic.zeta_pow(7)).coeffs)
