from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bredon.cyclotomic import Cyclotomic, I, OMEGA3, OMEGA6


def test_powers_of_primitive_root():
    z = Cyclotomic.zeta_pow(1)
    acc = Cyclotomic.of(1)
    for k in range(24):
        assert acc == Cyclotomic.zeta_pow(k)
        acc = acc * z
    assert Cyclotomic.zeta_pow(12) == 1
    assert Cyclotomic.zeta_pow(6) == -1


def test_minimal_polynomial_vanishes():
    z = Cyclotomic.zeta_pow(1)
    assert (z * z * z * z - z * z + 1).is_zero()


def test_named_roots():
    assert I * I == -1
    assert OMEGA3 * OMEGA3 * OMEGA3 == 1
    assert OMEGA3 != 1
    assert OMEGA6 * OMEGA6 * OMEGA6 == -1
    assert OMEGA6 * OMEGA6 == OMEGA3


def test_conjugation_inverts_roots_of_unity():
    for k in range(12):
        z = Cyclotomic.zeta_pow(k)
        assert z * z.conjugate() == 1
        assert z.conjugate() == Cyclotomic.zeta_pow(-k)


def test_rational_detection():
    assert Cyclotomic.of(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert Cyclotomic.of(7).coeffs == (7, 0, 0, 0)
    assert not I.is_rational()
    with pytest.raises(ValueError):
        I.as_rational()


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1", None, 1j])
def test_coefficients_are_int_or_fraction(bad):
    # 0.5 used to build a float-valued element unequal to 0.5, and True a bool coefficient
    with pytest.raises(TypeError, match="cyclotomic coefficients are int or Fraction"):
        Cyclotomic((0, 0, 0, bad))
    with pytest.raises(TypeError, match="cyclotomic coefficients are int or Fraction"):
        Cyclotomic.of(bad)
    with pytest.raises(TypeError, match="cyclotomic coefficients are int or Fraction"):
        Cyclotomic.of(1, 0, bad)


@pytest.mark.parametrize("coeffs", [(), (1,), (1, 0, 0), (1, 0, 0, 0, 0)])
def test_exactly_four_coefficients(coeffs):
    with pytest.raises(ValueError, match=f"4 coefficients, not {len(coeffs)}"):
        Cyclotomic(coeffs)


def test_a_fraction_coefficient_is_kept_only_when_not_integral():
    x = Cyclotomic((Fraction(1, 2), 0, Fraction(3), -1))
    assert x.coeffs == (Fraction(1, 2), 0, 3, -1) and type(x.coeffs[2]) is int
    assert (x + x).coeffs == (1, 0, 6, -2) and set(map(type, (x + x).coeffs)) == {int}


def test_fields_cannot_be_assigned():
    x = Cyclotomic.of(1, 2)
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
        op(Cyclotomic.of(1), Cyclotomic.of(2))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
cyclotomics = st.builds(
    lambda a, b, c, d: Cyclotomic.of(a, b, c, d), rationals, rationals, rationals, rationals
)


@given(st.one_of(st.integers(), rationals))
def test_a_rational_value_hashes_as_the_number_it_equals(q):
    x = Cyclotomic.of(q)
    assert x == q and hash(x) == hash(q)
    assert len({x, q}) == 1 and {q: "x"}.get(x) == "x"


@given(cyclotomics, cyclotomics, cyclotomics)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Cyclotomic.of(0)
    assert a * Cyclotomic.of(1) == a


@given(cyclotomics, cyclotomics)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(cyclotomics)
def test_norm_is_rational(a):
    # a * conj(a) is fixed by conjugation, hence lies in the real subfield;
    # together with its own conjugate-squared trace this stays exact.
    n = a * a.conjugate()
    assert n.conjugate() == n
