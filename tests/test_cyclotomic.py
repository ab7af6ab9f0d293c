from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bredon.cyclotomic import Cyclotomic, _conjugate

ZERO, ONE, MINUS_ONE = (0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0)


def add(*values: Cyclotomic) -> tuple:
    """The coefficient tuple of a sum: a ``Cyclotomic`` has no ``+``."""
    return tuple(map(sum, zip(*(v.coeffs for v in values))))


def conj(a: Cyclotomic) -> Cyclotomic:
    return Cyclotomic(_conjugate(a.coeffs))


def test_powers_of_primitive_root():
    z = Cyclotomic.zeta_pow(1)
    acc = Cyclotomic(ONE)
    for k in range(24):
        assert acc == Cyclotomic.zeta_pow(k)
        acc = acc * z
    assert Cyclotomic.zeta_pow(12).coeffs == ONE
    assert Cyclotomic.zeta_pow(6).coeffs == MINUS_ONE


def test_minimal_polynomial_vanishes():
    z = Cyclotomic.zeta_pow(1)
    z2 = z * z
    assert add(z2 * z2, Cyclotomic(MINUS_ONE) * z2, Cyclotomic(ONE)) == ZERO


def test_named_roots():
    i = Cyclotomic.zeta_pow(3)
    assert (i * i).coeffs == MINUS_ONE
    omega3, omega6 = Cyclotomic.zeta_pow(4), Cyclotomic.zeta_pow(2)  # primitive cube and sixth roots of unity
    assert (omega3 * omega3 * omega3).coeffs == ONE
    assert omega3.coeffs != ONE
    assert (omega6 * omega6 * omega6).coeffs == MINUS_ONE
    assert omega6 * omega6 == omega3


def test_conjugation_inverts_roots_of_unity():
    for k in range(12):
        z = Cyclotomic.zeta_pow(k)
        assert (z * conj(z)).coeffs == ONE
        assert conj(z) == Cyclotomic.zeta_pow(-k)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1", None, 1j])
def test_coefficients_are_int_or_fraction(bad):
    # 0.5 used to build a float-valued element unequal to 0.5, and True a bool coefficient
    with pytest.raises(TypeError, match="cyclotomic coefficients are int, not "):
        Cyclotomic((0, 0, 0, bad))
    with pytest.raises(TypeError, match="cyclotomic coefficients are int, not "):
        Cyclotomic((bad, 0, 0, 0))


def test_a_fraction_is_no_coefficient_and_an_int_is_no_cyclotomic():
    with pytest.raises(TypeError, match="^cyclotomic coefficients are int, not Fraction$"):
        Cyclotomic((Fraction(2), 0, 0, 0))
    one = Cyclotomic((1, 0, 0, 0))
    assert one != 1 and 1 != one and one == Cyclotomic(ONE)
    i = Cyclotomic.zeta_pow(3)
    assert len({one, Cyclotomic(ONE), 1}) == 2 and hash(i * i) == hash(Cyclotomic(MINUS_ONE))
    assert repr(one) == "Cyclotomic((1, 0, 0, 0))"
    with pytest.raises(TypeError):
        one * 2


@pytest.mark.parametrize("coeffs", [(), (1,), (1, 0, 0), (1, 0, 0, 0, 0)])
def test_exactly_four_coefficients(coeffs):
    with pytest.raises(ValueError, match=f"4 coefficients, not {len(coeffs)}"):
        Cyclotomic(coeffs)


def test_fields_cannot_be_assigned():
    x = Cyclotomic((1, 2, 0, 0))
    for name in ("coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, (0, 0, 0, 0))
    with pytest.raises(AttributeError):
        del x.coeffs
    assert x.coeffs == (1, 2, 0, 0)


@pytest.mark.parametrize(
    "op",
    [lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b, lambda a, b: len(a)],
    ids=["lt", "le", "gt", "ge", "len"],
)
def test_a_cyclotomic_has_no_order_or_length(op):
    with pytest.raises(TypeError):
        op(Cyclotomic((1, 0, 0, 0)), Cyclotomic((2, 0, 0, 0)))


integers = st.integers(min_value=-50, max_value=50)
cyclotomics = st.builds(lambda *coeffs: Cyclotomic(coeffs), integers, integers, integers, integers)


@given(cyclotomics, cyclotomics, cyclotomics)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a * Cyclotomic(add(b, c))).coeffs == add(a * b, a * c)
    assert a * Cyclotomic(ONE) == a
    assert (a * Cyclotomic(ZERO)).coeffs == ZERO
    assert all(type(x) is int for x in (a * b).coeffs)


@given(cyclotomics, cyclotomics)
def test_conjugation_is_a_ring_map(a, b):
    assert _conjugate(add(a, b)) == add(conj(a), conj(b))
    assert conj(a * b) == conj(a) * conj(b)
    assert conj(conj(a)) == a


@given(cyclotomics)
def test_norm_is_rational(a):
    # a * conj(a) is fixed by conjugation, hence lies in the real subfield;
    # together with its own conjugate-squared trace this stays exact.
    n = a * conj(a)
    assert conj(n) == n
