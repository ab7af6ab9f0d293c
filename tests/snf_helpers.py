"""Helpers the tests read off one Smith normal form.

``solve_integer`` is the oracle for the kernel-coordinate algorithm that
``verify_basis`` replaced; ``kernel_basis`` and ``cokernel`` are shorthands
for reading one property of a fresh decomposition; ``dense_replay`` is the
reference for ``intlinalg._replay``, which skips zero entries.
"""

from bredon.intlinalg import CokernelPresentation, IntegerMatrix, smith_normal_form


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Columns form a lattice basis of ker(A): the last n-k columns of Q."""
    return smith_normal_form(a).kernel()


def cokernel(a: IntegerMatrix) -> CokernelPresentation:
    return smith_normal_form(a).cokernel()


def solve_integer(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix | None:
    """An integer X with A X = B, or None when no integer solution exists.

    Via the decomposition: with D = P A Q, X = Q * D^+ * (P B), where D^+
    divides through by the invariant factors; every division must be exact
    and the rows of P B beyond rank(A) must vanish.
    """
    if a.rows != b.rows:
        raise ValueError("A and B must have the same number of rows")
    snf = smith_normal_form(a)
    k = snf.rank
    c = snf.P @ b
    y_rows = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        for j in range(b.cols):
            v = c.entry(i, j)
            if i < k:
                d = snf.invariant_factors[i]
                if v % d:
                    return None
                y_rows[i][j] = v // d
            elif v:
                return None
    return snf.Q @ IntegerMatrix.from_rows(y_rows, cols=b.cols)


def dense_replay(log: list[tuple[int, int, int]], size: int, inverse: bool, transposed: bool) -> IntegerMatrix:
    """``intlinalg._replay`` without the sparse path: every operation updates
    every entry of the row it changes."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, j, k in log:
        if not k:
            rows[i], rows[j] = rows[j], rows[i]
        elif i == j:
            rows[i] = [-v for v in rows[i]]
        elif inverse:
            rows[j] = [a - k * b for a, b in zip(rows[j], rows[i])]
        else:
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    lines = zip(*rows) if transposed else rows
    return IntegerMatrix(size, size, tuple(v for line in lines for v in line))
