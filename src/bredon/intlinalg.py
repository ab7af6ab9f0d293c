"""Exact integer linear algebra: Smith normal form and friends.

Everything here works over plain Python ints (arbitrary precision), so the
results are exact regardless of pivot growth.  The central routine is
``smith_normal_form``, which diagonalizes D = P*A*Q with unimodular P, Q and
returns the decomposition; P, Q, their inverses, kernels and cokernels are
read off from it.  Once pivot t is placed, its row and column are zero off
the diagonal and stay so, so the reduction and the reverse-order replay of
its operation logs both work only on the active block from index t on.

A pivot clears its column before its row, and every quotient is rounded to
the nearest integer, so each Euclidean remainder is at most half the pivot
and a dense matrix takes fewer operations.  Where no pivot leaves a remainder
in its cross, as in every matrix the homology of a built-in group reduces,
this logs the same operations as floor quotients taken row then column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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
        entries = tuple(chain.from_iterable(rows))
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
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        e, c = self.entries, self.cols
        return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows, tuple(chain.from_iterable(map(self.col, range(self.cols)))))

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
        e, c = self.entries, self.cols
        rows = [e[i * c : (i + 1) * c] for i in range(self.rows)]
        return IntegerMatrix(self.rows, len(indices), tuple(r[j] for r in rows for j in indices))

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{v}" for v in self.row(i)) for i in range(self.rows)) or "(empty)"


@dataclass(frozen=True)
class SNFDecomposition:
    """D = P*A*Q with P, Q unimodular; D diagonal with a divisibility chain.

    ``kernel`` reads ker(A) off Q and ``cokernel`` coker(A) off P_inv, so
    one reduction of A answers both.  The reduction logs its row and column
    operations; each of P, P_inv, Q and Q_inv is built on first read by
    replaying its log in reverse (see ``_replay``), so a caller pays only
    for the transforms it reads; D is built from the invariant factors,
    also on first read.  ``kernel``, ``cokernel`` and ``kernel_coordinates``
    replay only the columns of Q and P_inv, or rows of Q_inv, that they
    return, and are not cached.
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
        return _replay(self.row_ops, self.matrix.rows, inverse=False, transposed=True)

    @cached_property
    def P_inv(self) -> IntegerMatrix:
        return _replay(self.row_ops, self.matrix.rows, inverse=True, transposed=False)

    @cached_property
    def Q(self) -> IntegerMatrix:
        return _replay(self.col_ops, self.matrix.cols, inverse=False, transposed=False)

    @cached_property
    def Q_inv(self) -> IntegerMatrix:
        return _replay(self.col_ops, self.matrix.cols, inverse=True, transposed=True)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def kernel(self) -> IntegerMatrix:
        """Columns form a lattice basis of ker(A): the last n-k columns of Q."""
        return _replay(self.col_ops, self.matrix.cols, inverse=False, transposed=False, first=self.rank)

    def kernel_coordinates(self) -> IntegerMatrix:
        """The last n-k rows of Q_inv: they send a vector of ker(A) to its
        coordinates in the ``kernel`` basis."""
        return _replay(self.col_ops, self.matrix.cols, inverse=True, transposed=True, first=self.rank)

    def cokernel(self) -> "CokernelPresentation":
        # The factors > 1 end the divisibility chain, so they are the last t before the rank.
        torsion = tuple(d for d in self.invariant_factors if d > 1)
        t, m = len(torsion), self.matrix.rows
        generators = _replay(self.row_ops, m, inverse=True, transposed=False, first=self.rank - t)
        return CokernelPresentation(
            torsion=torsion,
            free_rank=m - self.rank,
            torsion_generators=generators.take_columns(range(t)),
            free_generators=generators.take_columns(range(t, generators.cols)) if t else generators,
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
    as D <- D*R.  Every operation of pivot t has min(i, j) == t, and rows
    and columns of the earlier pivots are zero off the diagonal, so an
    operation changes only the active block from row and column t on.
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
        lo, target = i if i < j else j, self.d[i]
        target[lo:] = [a + k * b for a, b in zip(target[lo:], self.d[j][lo:])]
        self.row_ops.append((i, j, k))

    def col_swap(self, i: int, j: int) -> None:
        for r in self.d[i if i < j else j :]:
            r[i], r[j] = r[j], r[i]
        self.col_ops.append((i, j, 0))


def _replay(
    log: list[tuple[int, int, int]], size: int, inverse: bool, transposed: bool, first: int = 0
) -> IntegerMatrix:
    """Replay ``log`` in reverse, each operation transposed, as row operations
    on columns ``first`` onward of the size x size identity.

    That builds the transpose of the product the log applies: an add
    line_i += k * line_j is replayed as row_j += k * row_i (swaps and
    negations stay), so the row log gives P^T and the column log Q.
    ``inverse`` replays each add inverted instead, row_i -= k * row_j, for
    P_inv and Q_inv^T.  The result is transposed at the end when ``transposed``.
    Row operations act on each column alone, so the size x (size - first)
    result is those columns of the full product, bit for bit; transposed,
    it is rows ``first`` onward.

    Replayed in reverse, the operations of pivot t = min(i, j) touch only
    rows t onward, still zero left of column t, so an update starts at
    column max(t, first).  Each row also keeps the set of columns that may
    be nonzero, or None once it may be dense; an add from a row with at most
    size // 4 such columns touches only those (a unit-pivot differential's
    transforms are mostly zeros).
    """
    width = size - first
    rows = [[0] * width for _ in range(size)]
    support: list[set[int] | None] = [set() for _ in range(first)] + [{c} for c in range(width)]
    for c in range(width):
        rows[first + c][c] = 1
    sparse = size // 4
    for i, j, k in reversed(log):
        if k and i != j:  # row_i -= k * row_j under inverse, else row_j += k * row_i
            i, j, k = (i, j, -k) if inverse else (j, i, k)
        if not k:
            rows[i], rows[j] = rows[j], rows[i]
            support[i], support[j] = support[j], support[i]
        elif i == j:
            rows[i] = [-v for v in rows[i]]
        elif (source := support[j]) is not None and len(source) <= sparse:
            target, line = rows[i], rows[j]
            for c in source:
                target[c] += k * line[c]
            if support[i] is not None:
                support[i] |= source
        else:
            lo, target = (i if i < j else j) - first, rows[i]
            if lo < 0:  # cheaper than max() on this hot path
                lo = 0
            target[lo:] = [a + k * b for a, b in zip(target[lo:], rows[j][lo:])]
            support[i] = None
    if transposed:
        return IntegerMatrix(width, size, tuple(chain.from_iterable(zip(*rows))))
    return IntegerMatrix(size, width, tuple(chain.from_iterable(rows)))


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
    """Zero out column t below the pivot and row t right of it.

    Column t is cleared first: while a row add leaves a remainder below the
    pivot, the pivot row waits for the next round, whose pivot is the least
    remainder.  Quotients are rounded to the nearest integer, so each
    remainder is at most half the pivot in absolute value.  A round that
    leaves no remainder applies exact quotients, which floor quotients taken
    row then column would match operation for operation.
    """
    d = w.d
    while True:
        # Pull the smallest nonzero of the pivot cross into the corner first,
        # so the Euclidean remainders shrink monotonically.
        least = abs(d[t][t])
        for i in range(t + 1, w.m):
            if (v := d[i][t]) and abs(v) < least:
                w.row_swap(t, i)
                least = abs(v)
        for j in range(t + 1, w.n):
            if (v := d[t][j]) and abs(v) < least:
                w.col_swap(t, j)
                least = abs(v)
        # round(v / piv) is (2v + piv) // (2 piv).  No quotient is 0: the
        # pivot is the least nonzero of its cross, so |v / piv| >= 1.
        piv, twice, dirty = d[t][t], 2 * d[t][t], False
        for i in range(t + 1, w.m):
            if v := d[i][t]:
                w.row_add(i, t, -((2 * v + piv) // twice))
                if d[i][t]:
                    dirty = True
        if dirty:
            continue
        # Column t is now zero below the pivot, so a column add changes only
        # the pivot row.
        pivot_row = d[t]
        for j in range(t + 1, w.n):
            if v := pivot_row[j]:
                k = -((2 * v + piv) // twice)
                pivot_row[j] = v + k * piv
                w.col_ops.append((j, t, k))
                if pivot_row[j]:
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
