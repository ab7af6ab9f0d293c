"""Induction is memoised per catalog embedding; table arithmetic stays integral."""

from fractions import Fraction

import pytest

from bredon import chartab, wallpaper
from bredon.chartab import CharacterTableError, SubgroupEmbedding, induction_matrix, inner_product
from bredon.cyclotomic import Cyclotomic
from bredon.homology import compute_homology

ALL_GROUPS = wallpaper.list_groups()


def _full_pass() -> None:
    for name in ALL_GROUPS:
        compute_homology(wallpaper.get_group(name)[0])


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
    assert cached == chartab.restriction_matrix(emb).transpose()


def test_catalog_has_26_embeddings():
    assert len(chartab.registered_embeddings()) == 26


def test_broken_embedding_raises_on_every_call():
    bad = SubgroupEmbedding("bad", "C2", "C4", (("e", "e"), ("z", "r")))
    for _ in range(2):
        with pytest.raises(CharacterTableError):
            induction_matrix(bad)


@pytest.mark.parametrize("gid", chartab.GROUP_IDS)
def test_inner_product_is_an_exact_fraction(gid):
    t = chartab.build_table(gid)
    for i, chi in enumerate(t.irreducibles):
        for j, psi in enumerate(t.irreducibles):
            value = inner_product(chi.values, psi.values, t)
            assert type(value) is Fraction
            assert value == (1 if i == j else 0)


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
