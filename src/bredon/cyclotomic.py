"""Character values in Z[zeta_12].

Character values of the stabilizer groups (cyclic of order 1..6 and
dihedral of order 4, 6, 8, 12) all lie in Z[zeta] for a primitive 12th
root of unity zeta, since every group element has order dividing 12.
A value is a residue polynomial a + b*x + c*x^2 + d*x^3 with ``int``
coefficients, reduced modulo the 12th cyclotomic polynomial
x^4 - x^2 + 1.  A ``Cyclotomic`` is an immutable value of exactly these
four coefficients: any other coefficient type, a ``bool``, a ``float`` or
a ``Fraction`` too, is a ``TypeError``.  It has ``*`` and equality, and no
order, length, iteration or other arithmetic: the program reads a value
only through ``coeffs``, which ``hermitian_sum`` multiplies and sums as
plain tuples.
"""

from __future__ import annotations

from collections.abc import Iterable


class Cyclotomic:
    """An element of Z[zeta_12], reduced mod x^4 - x^2 + 1: ``coeffs`` is its 4-tuple of ``int`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, int, int, int]) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != 4:
            raise ValueError(f"a cyclotomic has 4 coefficients, not {len(coeffs)}")
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"cyclotomic coefficients are int, not {type(c).__name__}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Cyclotomic is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copied and pickled by value
        return Cyclotomic, (self.coeffs,)

    @staticmethod
    def zeta_pow(k: int) -> Cyclotomic:
        """zeta_12 ** k for any integer k."""
        coeffs = (1, 0, 0, 0)
        for _ in range(k % 12):
            coeffs = _times(coeffs, (0, 1, 0, 0))
        return Cyclotomic(coeffs)

    # The program multiplies coefficient tuples; ``*`` stays because perfbench's tracer wraps it.
    def __mul__(self, other: Cyclotomic) -> Cyclotomic:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return Cyclotomic(_times(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if isinstance(other, Cyclotomic) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.coeffs!r})"


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
