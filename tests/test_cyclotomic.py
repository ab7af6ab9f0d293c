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
