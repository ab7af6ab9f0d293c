"""Exact integer linear algebra: Smith normal form and friends.

Everything here works over plain Python ints (arbitrary precision), so the
results are exact regardless of pivot growth.  The central routine is
``smith_normal_form``, which diagonalizes D = P*A*Q with unimodular P, Q and
returns the decomposition; P, Q, their inverses, kernels and cokernels are
read off from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Iterable, Sequence


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, row-major. 0-row / 0-column shapes are legal."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        """Build from a row list of ``int``s (anything else, a float or a bool
        too, is a ``TypeError``); ``cols`` pins the width of an empty matrix."""
        nrows = len(rows)
        if nrows == 0:
            return IntegerMatrix(0, cols or 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncols:
            raise ValueError(f"rows have {ncols} entries, expected {cols}")
        entries = tuple(v for r in rows for v in r)
        if not set(map(type, entries)) <= {int}:
            bad = next(v for v in entries if type(v) is not int)
            raise TypeError(f"matrix entries are int, not {type(bad).__name__} ({bad!r})")
        return IntegerMatrix(nrows, ncols, entries)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def diagonal(rows: int, cols: int, values: Sequence[int]) -> "IntegerMatrix":
        """The rows x cols matrix with ``values`` down its diagonal, zero elsewhere."""
        entries = [0] * (rows * cols)
        for i, v in enumerate(values):
            entries[i * cols + i] = v
        return IntegerMatrix(rows, cols, tuple(entries))

    @staticmethod
    def column(values: Iterable[int]) -> "IntegerMatrix":
        return IntegerMatrix.from_rows([[v] for v in values], cols=1)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols, self.rows, tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows))
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    kb = k * other.cols
                    ob = i * other.cols
                    for j in range(other.cols):
                        out[ob + j] += a * other.entries[kb + j]
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntegerMatrix.from_rows(rows, cols=self.cols + other.cols)

    def take_columns(self, indices: Sequence[int]) -> "IntegerMatrix":
        rows = [[self.entry(i, j) for j in indices] for i in range(self.rows)]
        return IntegerMatrix(self.rows, len(indices), tuple(v for r in rows for v in r))

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{v}" for v in self.row(i)) for i in range(self.rows)) or "(empty)"


@dataclass(frozen=True)
class SNFDecomposition:
    """D = P*A*Q with P, Q unimodular; D diagonal with a divisibility chain.

    ``kernel`` reads ker(A) off Q and ``cokernel`` coker(A) off P_inv, so
    one reduction of A answers both.  The reduction logs its row and column
    operations; each of P, P_inv, Q and Q_inv is built from its log on
    first read, so a caller pays only for the transforms it reads; D is
    built from the invariant factors, also on first read.
    """

    matrix: IntegerMatrix
    invariant_factors: tuple[int, ...]
    row_ops: list[tuple[int, int, int]] = field(repr=False, compare=False)
    col_ops: list[tuple[int, int, int]] = field(repr=False, compare=False)

    @cached_property
    def D(self) -> IntegerMatrix:
        """diag(invariant factors), padded with zeros to the shape of the matrix."""
        return IntegerMatrix.diagonal(self.matrix.rows, self.matrix.cols, self.invariant_factors)

    @cached_property
    def P(self) -> IntegerMatrix:
        return _replay(self.row_ops, self.matrix.rows, inverse=False, transposed=False)

    @cached_property
    def P_inv(self) -> IntegerMatrix:
        return _replay(self.row_ops, self.matrix.rows, inverse=True, transposed=True)

    @cached_property
    def Q(self) -> IntegerMatrix:
        return _replay(self.col_ops, self.matrix.cols, inverse=False, transposed=True)

    @cached_property
    def Q_inv(self) -> IntegerMatrix:
        return _replay(self.col_ops, self.matrix.cols, inverse=True, transposed=False)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def kernel(self) -> IntegerMatrix:
        """Columns form a lattice basis of ker(A): the last n-k columns of Q."""
        return self.Q.take_columns(range(self.rank, self.matrix.cols))

    def cokernel(self) -> "CokernelPresentation":
        torsion_positions = [i for i, d in enumerate(self.invariant_factors) if d > 1]
        return CokernelPresentation(
            torsion=tuple(self.invariant_factors[i] for i in torsion_positions),
            free_rank=self.matrix.rows - self.rank,
            torsion_generators=self.P_inv.take_columns(torsion_positions),
            free_generators=self.P_inv.take_columns(range(self.rank, self.matrix.rows)),
        )


@dataclass(frozen=True)
class CokernelPresentation:
    """coker(A) = Z^free_rank x prod Z/d for the torsion chain d.

    Generator vectors live in the codomain Z^m: ``free_generators`` are the
    last m-k columns of P_inv, ``torsion_generators`` the P_inv columns at
    the positions of invariant factors > 1.
    """

    torsion: tuple[int, ...]
    free_rank: int
    torsion_generators: IntegerMatrix
    free_generators: IntegerMatrix


class _Worker:
    """Mutable row/column reduction of D that logs every operation it applies.

    A log entry (i, j, k) is a swap of lines i and j when k == 0 (an add
    with k == 0 is never logged), a negation of line i when i == j, and
    line_i += k * line_j otherwise.  Row ops act as D <- L*D, column ops
    as D <- D*R.
    """

    def __init__(self, a: IntegerMatrix):
        self.m, self.n = a.rows, a.cols
        self.d = a.to_rows()
        self.row_ops: list[tuple[int, int, int]] = []
        self.col_ops: list[tuple[int, int, int]] = []

    def row_swap(self, i: int, j: int) -> None:
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.row_ops.append((i, j, 0))

    def row_negate(self, i: int) -> None:
        self.d[i] = [-v for v in self.d[i]]
        self.row_ops.append((i, i, -1))

    def row_add(self, i: int, j: int, k: int) -> None:
        """row_i += k * row_j"""
        if not k:
            return
        self.d[i] = [a + k * b for a, b in zip(self.d[i], self.d[j])]
        self.row_ops.append((i, j, k))

    def col_swap(self, i: int, j: int) -> None:
        for r in self.d:
            r[i], r[j] = r[j], r[i]
        self.col_ops.append((i, j, 0))

    def col_add(self, j: int, i: int, k: int) -> None:
        """col_j += k * col_i"""
        if not k:
            return
        for r in self.d:
            if r[i]:
                r[j] += k * r[i]
        self.col_ops.append((j, i, k))


def _replay(log: list[tuple[int, int, int]], size: int, inverse: bool, transposed: bool) -> IntegerMatrix:
    """Replay ``log`` as row operations on the size x size identity.

    ``inverse`` replaces each operation by its inverse transposed (an add
    line_i += k * line_j by line_j -= k * line_i; swaps and negations stay),
    so the row log gives P or P_inv^T and the column log Q^T or Q_inv.  The
    result is transposed once at the end when ``transposed``.
    """
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


def smith_normal_form(a: IntegerMatrix) -> SNFDecomposition:
    """Classical reduction with minimal-|pivot| selection.

    Invariant factors come out positive and each divides the next.
    """
    w = _Worker(a)
    m, n = w.m, w.n
    t = 0
    while t < min(m, n):
        pivot = _find_pivot(w, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            w.row_swap(t, pi)
        if pj != t:
            w.col_swap(t, pj)
        _clear_cross(w, t)
        _force_divisibility(w, t)
        if w.d[t][t] < 0:
            w.row_negate(t)
        t += 1
    return SNFDecomposition(
        matrix=a,
        invariant_factors=tuple(w.d[i][i] for i in range(t)),  # t is the rank; pivots are positive
        row_ops=w.row_ops,
        col_ops=w.col_ops,
    )


def _find_pivot(w: _Worker, t: int) -> tuple[int, int] | None:
    best = None
    best_abs = 0
    for i in range(t, w.m):
        row = w.d[i]
        for j in range(t, w.n):
            v = row[j]
            if v and (best is None or abs(v) < best_abs):
                best, best_abs = (i, j), abs(v)
                if best_abs == 1:
                    return best
    return best


def _clear_cross(w: _Worker, t: int) -> None:
    """Zero out column t below the pivot and row t right of it."""
    while True:
        # Pull the smallest nonzero of the pivot cross into the corner first,
        # so the Euclidean remainders shrink monotonically.
        for i in range(t + 1, w.m):
            if w.d[i][t] and abs(w.d[i][t]) < abs(w.d[t][t]):
                w.row_swap(t, i)
        for j in range(t + 1, w.n):
            if w.d[t][j] and abs(w.d[t][j]) < abs(w.d[t][t]):
                w.col_swap(t, j)
        dirty = False
        for i in range(t + 1, w.m):
            if w.d[i][t]:
                q = w.d[i][t] // w.d[t][t]
                w.row_add(i, t, -q)
                if w.d[i][t]:
                    dirty = True
        for j in range(t + 1, w.n):
            if w.d[t][j]:
                q = w.d[t][j] // w.d[t][t]
                w.col_add(j, t, -q)
                if w.d[t][j]:
                    dirty = True
        if not dirty:
            return


def _force_divisibility(w: _Worker, t: int) -> None:
    """Make the pivot divide every entry of the remaining block; a unit pivot already does."""
    while (piv := w.d[t][t]) not in (1, -1):
        offender = None
        for i in range(t + 1, w.m):
            row = w.d[i]
            for j in range(t + 1, w.n):
                if row[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            return
        w.row_add(t, offender, 1)
        _clear_cross(w, t)
