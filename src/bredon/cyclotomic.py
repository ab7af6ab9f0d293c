"""Exact arithmetic in the 12th cyclotomic field.

Character values of the stabilizer groups (cyclic of order 1..6 and
dihedral of order 4, 6, 8, 12) all live in Q(zeta) for a primitive 12th
root of unity zeta, since every group element has order dividing 12.
Elements are residue polynomials a + b*x + c*x^2 + d*x^3 with rational
coefficients, reduced modulo the 12th cyclotomic polynomial
x^4 - x^2 + 1.  Every character value of these groups lies in Z[zeta],
so coefficients are plain ``int``s: ``of`` turns an integral ``Fraction``
into an ``int`` and keeps a ``Fraction`` only for a true rational, and
sums and products of ``int`` coefficients stay ``int``.  No floating
point anywhere: any other coefficient type is a ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction | int


def _exact(v: Rational) -> Rational:
    """An exact coefficient: an ``int``, or a ``Fraction`` that is not integral."""
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"cyclotomic coefficients are int or Fraction, not {type(v).__name__}")


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_12), reduced mod x^4 - x^2 + 1."""

    coeffs: tuple[Rational, Rational, Rational, Rational]

    @staticmethod
    def of(a: Rational, b: Rational = 0, c: Rational = 0, d: Rational = 0) -> "Cyclotomic":
        return Cyclotomic((_exact(a), _exact(b), _exact(c), _exact(d)))

    @staticmethod
    def zeta_pow(k: int) -> "Cyclotomic":
        """zeta_12 ** k for any integer k."""
        k %= 12
        # x^4 = x^2 - 1 and x^6 = -1 give the residues of all powers.
        table = {
            0: (1, 0, 0, 0),
            1: (0, 1, 0, 0),
            2: (0, 0, 1, 0),
            3: (0, 0, 0, 1),
            4: (-1, 0, 1, 0),
            5: (0, -1, 0, 1),
        }
        a, b, c, d = table[k % 6]
        if k >= 6:
            a, b, c, d = -a, -b, -c, -d
        return Cyclotomic.of(a, b, c, d)

    def __add__(self, other: "Cyclotomic | Rational") -> "Cyclotomic":
        o = _coerce(other)
        return Cyclotomic(tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))  # type: ignore[arg-type]

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(tuple(-x for x in self.coeffs))  # type: ignore[arg-type]

    def __sub__(self, other: "Cyclotomic | Rational") -> "Cyclotomic":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Cyclotomic | Rational") -> "Cyclotomic":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Cyclotomic | Rational") -> "Cyclotomic":
        o = _coerce(other)
        prod = [0] * 7
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(o.coeffs):
                    prod[i + j] += x * y
        # Reduce degrees 6..4 via x^4 = x^2 - 1 (hence x^5 = x^3 - x, x^6 = -1).
        prod[0] -= prod[6]
        prod[1] -= prod[5]
        prod[3] += prod[5]
        prod[2] += prod[4]
        prod[0] -= prod[4]
        return Cyclotomic((prod[0], prod[1], prod[2], prod[3]))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: the substitution x -> x^11, reduced."""
        a, b, c, d = self.coeffs
        # x^11 = x - x^3, x^22 = 1 - x^2, x^33 = -x^3.
        return Cyclotomic((a + c, b, -c, -b - d))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Rational:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            base = str(c) if k == 0 else (f"{c}*" if abs(c) != 1 else ("-" if c < 0 else ""))
            if k > 0:
                base += "x" if k == 1 else f"x^{k}"
            terms.append(base)
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _coerce(v: "Cyclotomic | Rational") -> Cyclotomic:
    if isinstance(v, Cyclotomic):
        return v
    return Cyclotomic.of(v)


#: i, the primitive 4th root (zeta^3).
I = Cyclotomic.zeta_pow(3)
#: primitive cube root of unity (zeta^4).
OMEGA3 = Cyclotomic.zeta_pow(4)
#: primitive 6th root of unity (zeta^2).
OMEGA6 = Cyclotomic.zeta_pow(2)
