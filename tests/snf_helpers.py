"""Helpers the tests read off one Smith normal form, and matrix builders
the library itself has no use for: ``zeros``, ``identity``, ``column`` and
``hstack``.

``solve_integer`` is the oracle for the kernel-coordinate algorithm that
``verify_basis`` replaced; ``kernel_basis`` and ``cokernel`` are shorthands
for reading one property of a fresh decomposition.  Two references pin the
engine's operation logs and transforms: ``reference_reduction`` is the
reduction that updates whole rows and columns, one operation at a time,
and ``dense_replay`` replays a log forward over whole rows; the engine
confines both to the active block.  ``classical_reduction`` takes floor
quotients and clears row t after column t in every round; it logs what the
engine logs on a matrix whose pivots leave no remainder in their cross, as
on the homology path of the built-in groups.
"""

from collections.abc import Iterable

from bredon.intlinalg import CokernelPresentation, IntegerMatrix, smith_normal_form


def zeros(rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(rows, cols, tuple({} for _ in range(rows)))


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix.diagonal(n, n, [1] * n)


def column(values: Iterable[int]) -> IntegerMatrix:
    return IntegerMatrix.from_rows([[v] for v in values], cols=1)


def hstack(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """[a | b]."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return IntegerMatrix.from_rows([x + y for x, y in zip(a.to_rows(), b.to_rows())], cols=a.cols + b.cols)


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
    """``log`` replayed forward on the identity, every operation updating
    every entry of the row it changes; ``inverse`` replays each add inverted
    and transposed.  The row log gives P, or P_inv^T under ``inverse``, and
    the column log Q^T or Q_inv; the result is transposed when ``transposed``.
    ``intlinalg._replay`` builds the same matrix with ``transposed`` flipped."""
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
    return IntegerMatrix.from_rows([list(line) for line in zip(*rows)] if transposed else rows, cols=size)


def reference_reduction(a: IntegerMatrix, zero_quotients: list | None = None) -> tuple[tuple[int, ...], list, list]:
    """(invariant factors, row log, column log) of the reduction with
    minimal-|pivot| selection, each operation applied to whole rows and
    columns in the order ``intlinalg.smith_normal_form`` logs it: column t
    is cleared before row t, every quotient rounded to the nearest integer.
    A quotient that rounds to 0 applies and logs nothing; (row, pivot) of
    each such quotient below a pivot is appended to ``zero_quotients``."""
    return _reduction(a, classical=False, zero_quotients=zero_quotients)


def classical_reduction(a: IntegerMatrix) -> tuple[tuple[int, ...], list, list]:
    """As ``reference_reduction``, but each round of a pivot clears column t
    and then row t with floor quotients, even when column t keeps a remainder."""
    return _reduction(a, classical=True)


def _reduction(a: IntegerMatrix, classical: bool, zero_quotients: list | None = None) -> tuple[tuple[int, ...], list, list]:
    m, n = a.rows, a.cols
    d = a.to_rows()
    row_ops, col_ops = [], []

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        row_ops.append((i, j, 0))

    def row_add(i, j, k):
        if k:
            d[i] = [x + k * y for x, y in zip(d[i], d[j])]
            row_ops.append((i, j, k))
        elif zero_quotients is not None:
            zero_quotients.append((i, j))

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        col_ops.append((i, j, 0))

    def col_add(j, i, k):
        if k:
            for r in d:
                r[j] += k * r[i]
            col_ops.append((j, i, k))

    def quotient(v, piv):
        """Minus the floor quotient of v / piv, or minus the nearest one."""
        return -(v // piv) if classical else -((2 * v + piv) // (2 * piv))

    def clear_cross(t):
        while True:
            for i in range(t + 1, m):
                if d[i][t] and abs(d[i][t]) < abs(d[t][t]):
                    row_swap(t, i)
            for j in range(t + 1, n):
                if d[t][j] and abs(d[t][j]) < abs(d[t][t]):
                    col_swap(t, j)
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    row_add(i, t, quotient(d[i][t], d[t][t]))
                    dirty = dirty or bool(d[i][t])
            if dirty and not classical:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    col_add(j, t, quotient(d[t][j], d[t][t]))
                    dirty = dirty or bool(d[t][j])
            if not dirty:
                return

    t = 0
    while t < min(m, n):
        nonzero = [(abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j]]
        if not nonzero:
            break
        # the first entry of least |value| in row-major order
        _, pi, pj = min(nonzero)
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        clear_cross(t)
        while d[t][t] not in (1, -1):
            offenders = [i for i in range(t + 1, m) if any(d[i][j] % d[t][t] for j in range(t + 1, n))]
            if not offenders:
                break
            row_add(t, offenders[0], 1)
            clear_cross(t)
        if d[t][t] < 0:
            d[t] = [-v for v in d[t]]
            row_ops.append((t, t, -1))
        t += 1
    return tuple(d[i][i] for i in range(t)), row_ops, col_ops
