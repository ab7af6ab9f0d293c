"""Exact arithmetic in the 12th cyclotomic field.

Character values of the stabilizer groups (cyclic of order 1..6 and
dihedral of order 4, 6, 8, 12) all live in Q(zeta) for a primitive 12th
root of unity zeta, since every group element has order dividing 12.
Elements are residue polynomials a + b*x + c*x^2 + d*x^3 with rational
coefficients, reduced modulo the 12th cyclotomic polynomial
x^4 - x^2 + 1.  Every character value of these groups lies in Z[zeta],
so coefficients are plain ``int``s: the constructor turns an integral
``Fraction`` into an ``int`` and keeps a ``Fraction`` only for a true
rational, and sums and products of ``int`` coefficients stay ``int``.  No floating
point anywhere: the constructor takes exactly four coefficients, and any
other coefficient type, a ``bool`` or a ``float`` too, is a ``TypeError``.
A ``Cyclotomic`` is a small immutable class, not a tuple: it has no
order, length or iteration.
"""

from __future__ import annotations

from collections.abc import Iterable

TYPE_CHECKING = False
if TYPE_CHECKING:  # ``fractions`` is imported only where a coefficient is not an int
    from fractions import Fraction

    Rational = Fraction | int


def _exact(v: Rational) -> Rational:
    """An exact coefficient: an ``int``, or a ``Fraction`` that is not integral."""
    if type(v) is int:
        return v
    from fractions import Fraction

    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"cyclotomic coefficients are int or Fraction, not {type(v).__name__}")


class Cyclotomic:
    """An element of Q(zeta_12), reduced mod x^4 - x^2 + 1: ``coeffs`` is its 4-tuple of coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Rational, Rational, Rational, Rational]) -> None:
        if len(coeffs) != 4:
            raise ValueError(f"a cyclotomic has 4 coefficients, not {len(coeffs)}")
        object.__setattr__(self, "coeffs", tuple(map(_exact, coeffs)))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Cyclotomic is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @staticmethod
    def of(a: Rational, b: Rational = 0, c: Rational = 0, d: Rational = 0) -> "Cyclotomic":
        return Cyclotomic((a, b, c, d))

    @staticmethod
    def zeta_pow(k: int) -> "Cyclotomic":
        """zeta_12 ** k for any integer k."""
        coeffs = (1, 0, 0, 0)
        for _ in range(k % 12):
            coeffs = _times(coeffs, (0, 1, 0, 0))
        return Cyclotomic(coeffs)

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
        return Cyclotomic(_times(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: the substitution x -> x^11, reduced."""
        return Cyclotomic(_conjugate(self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Rational:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclotomic):
            try:
                other = _coerce(other)
            except TypeError:  # neither an int nor a Fraction
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:  # a rational value hashes as the number it equals
        return hash(self.coeffs[0]) if self.is_rational() else hash(self.coeffs)

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


def _times(p: tuple, q: tuple) -> tuple:
    """The product of two coefficient 4-tuples, reduced mod x^4 - x^2 + 1."""
    prod = [0] * 7
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                prod[i + j] += x * y
    # Reduce degrees 6..4 via x^4 = x^2 - 1 (hence x^5 = x^3 - x, x^6 = -1).
    return prod[0] - prod[6] - prod[4], prod[1] - prod[5], prod[2] + prod[4], prod[3] + prod[5]


def _conjugate(coeffs: tuple) -> tuple:
    a, b, c, d = coeffs
    # x^11 = x - x^3, x^22 = 1 - x^2, x^33 = -x^3.
    return a + c, b, -c, -b - d


def hermitian_sum(weights: Iterable[int], f: Iterable[Cyclotomic], g: Iterable[Cyclotomic]) -> tuple:
    """The coefficient 4-tuple of sum_k w_k * f_k * conj(g_k), summed without building a ``Cyclotomic``."""
    total = [0, 0, 0, 0]
    for w, x, y in zip(weights, f, g):
        for k, v in enumerate(_times(x.coeffs, _conjugate(y.coeffs))):
            total[k] += w * v
    return tuple(total)


#: i, the primitive 4th root (zeta^3).
I = Cyclotomic.zeta_pow(3)
#: primitive cube root of unity (zeta^4).
OMEGA3 = Cyclotomic.zeta_pow(4)
#: primitive 6th root of unity (zeta^2).
OMEGA6 = Cyclotomic.zeta_pow(2)
