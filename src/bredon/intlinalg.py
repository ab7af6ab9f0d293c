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

An ``IntegerMatrix`` stores each row as a {column: value} dict of its
nonzeros, so a sparse differential costs its nonzeros from assembly through
the product and the JSON writer.  The reduction copies the rows of a matrix
with at most one entry in eight nonzero and keeps each column's set of
nonzero rows, so an operation costs the nonzeros it touches; it expands any
other matrix to list rows.  Both log the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from collections.abc import Sequence


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix; 0-row / 0-column shapes are legal.  Row i is stored as
    ``nonzeros[i]``, {column: value} of its nonzero entries, and no zero is stored, so
    matrices are equal exactly when their entries are; dense reads are built on each call."""

    rows: int
    cols: int
    nonzeros: tuple[dict[int, int], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.nonzeros) != self.rows:
            raise ValueError("row count does not match shape")

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
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            bad = next(v for v in chain.from_iterable(rows) if type(v) is not int)
            raise TypeError(f"matrix entries are int, not {type(bad).__name__} ({bad!r})")
        return IntegerMatrix(nrows, ncols, tuple(map(dict, map(compress, map(enumerate, rows), rows))))

    @staticmethod
    def diagonal(rows: int, cols: int, values: Sequence[int]) -> "IntegerMatrix":
        """The rows x cols matrix with ``values`` down its diagonal, zero elsewhere."""
        lines = [{i: v} if v else {} for i, v in enumerate(values)]
        return IntegerMatrix(rows, cols, tuple(lines + [{} for _ in range(rows - len(lines))]))

    @property
    def entries(self) -> tuple[int, ...]:  # row-major
        return tuple(chain.from_iterable(self.to_rows()))

    def entry(self, i: int, j: int) -> int:
        return self.nonzeros[i].get(j, 0)

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.nonzeros[i].get(j, 0) for j in range(self.cols))

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r.get(j, 0) for r in self.nonzeros)

    def to_rows(self) -> list[list[int]]:
        rows = [[0] * self.cols for _ in self.nonzeros]
        for line, r in zip(rows, self.nonzeros):
            for j, v in r.items():
                line[j] = v
        return rows

    def transpose(self) -> "IntegerMatrix":
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, v in r.items():
                out[j][i] = v
        return IntegerMatrix(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """The product; each nonzero of ``self`` costs the nonzeros of one row of ``other``."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        b, out = other.nonzeros, []
        for r in self.nonzeros:
            acc: dict[int, int] = {}
            for k, v in r.items():
                for j, w in b[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out.append({j: x for j, x in acc.items() if x})
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def take_columns(self, indices: Sequence[int]) -> "IntegerMatrix":
        rows = tuple({p: r[j] for p, j in enumerate(indices) if j in r} for r in self.nonzeros)
        return IntegerMatrix(self.rows, len(indices), rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(map(str, line)) for line in self.to_rows()) or "(empty)"


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


class _DenseRows:
    """Mutable row/column reduction of D that logs every operation it applies.

    A log entry (i, j, k) is a swap of lines i and j when k == 0 (an add
    with k == 0 is never logged), a negation of line i when i == j, and
    line_i += k * line_j otherwise.  Row ops act as D <- L*D, column ops
    as D <- D*R.  Every operation of pivot t has min(i, j) == t, and rows
    and columns of the earlier pivots are zero off the diagonal, so an
    operation changes only the active block from row and column t on.

    Rows are lists here; ``_SparseRows`` stores the same matrix as dicts of
    its nonzeros.  Both read ``d[i][j]`` alike, and the one reduction
    (``_reduce``) applies the same operations to either.
    """

    def __init__(self, a: IntegerMatrix):
        self.m, self.n, self.d = a.rows, a.cols, a.to_rows()
        self.row_ops: list[tuple[int, int, int]] = []
        self.col_ops: list[tuple[int, int, int]] = []

    def row_swap(self, i: int, j: int) -> None:
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.row_ops.append((i, j, 0))

    def row_negate(self, i: int) -> None:
        self.d[i] = [-v for v in self.d[i]]
        self.row_ops.append((i, i, -1))

    def row_add(self, i: int, j: int, k: int) -> None:
        """row_i += k * row_j, for k != 0"""
        lo, target = i if i < j else j, self.d[i]
        target[lo:] = [a + k * b for a, b in zip(target[lo:], self.d[j][lo:])]
        self.row_ops.append((i, j, k))

    def col_swap(self, i: int, j: int) -> None:
        for r in self.d[i if i < j else j :]:
            r[i], r[j] = r[j], r[i]
        self.col_ops.append((i, j, 0))

    def col_add(self, j: int, t: int, k: int) -> None:
        """column_j += k * column_t, for k != 0; column t is zero below the pivot, so only row t changes."""
        row = self.d[t]
        row[j] += k * row[t]
        self.col_ops.append((j, t, k))

    def below(self, t: int) -> range:
        """The rows below the pivot t that may meet column t, by increasing index."""
        return range(t + 1, self.m)

    def right(self, t: int) -> range:
        """The columns right of the pivot t that may meet row t, by increasing index."""
        return range(t + 1, self.n)

    def find_pivot(self, t: int) -> tuple[int, int] | None:
        """The first entry of least |value| of the active block, in row-major order."""
        best, best_abs = None, 0
        for i in range(t, self.m):
            row = self.d[i]
            for j in range(t, self.n):
                v = row[j]
                if v and (best is None or abs(v) < best_abs):
                    best, best_abs = (i, j), abs(v)
                    if best_abs == 1:
                        return best
        return best

    def offender(self, t: int, piv: int) -> int | None:
        """The first row below the pivot with an entry that ``piv`` does not divide."""
        for i in range(t + 1, self.m):
            if any(v % piv for v in self.d[i][t + 1 :]):
                return i
        return None


class _SparseRows:
    """``_DenseRows`` with rows as {column: value} dicts of their nonzeros
    and ``cols[j]`` the set of rows whose entry in column j is nonzero, so an
    operation costs the nonzeros of the lines it touches."""

    def __init__(self, a: IntegerMatrix):
        self.m, self.n, self.d = a.rows, a.cols, [dict(r) for r in a.nonzeros]
        self.cols: list[set[int]] = [set() for _ in range(a.cols)]
        for i, r in enumerate(self.d):
            for j in r:
                self.cols[j].add(i)
        self.row_ops: list[tuple[int, int, int]] = []
        self.col_ops: list[tuple[int, int, int]] = []

    def row_swap(self, i: int, j: int) -> None:
        d, cols, pair = self.d, self.cols, {i, j}
        for c in d[i].keys() ^ d[j].keys():  # one of the two rows meets column c
            cols[c] ^= pair
        d[i], d[j] = d[j], d[i]
        self.row_ops.append((i, j, 0))

    def row_negate(self, i: int) -> None:
        self.d[i] = {c: -v for c, v in self.d[i].items()}
        self.row_ops.append((i, i, -1))

    def row_add(self, i: int, j: int, k: int) -> None:
        target, cols = self.d[i], self.cols
        for c, v in self.d[j].items():
            if c not in target:
                target[c] = k * v
                cols[c].add(i)
            elif x := target[c] + k * v:
                target[c] = x
            else:
                del target[c]
                cols[c].remove(i)
        self.row_ops.append((i, j, k))

    def col_swap(self, i: int, j: int) -> None:
        d, cols = self.d, self.cols
        for r in cols[i] | cols[j]:
            row = d[r]
            a, b = row.pop(i, 0), row.pop(j, 0)
            if b:
                row[i] = b
            if a:
                row[j] = a
        cols[i], cols[j] = cols[j], cols[i]
        self.col_ops.append((i, j, 0))

    def col_add(self, j: int, t: int, k: int) -> None:
        row = self.d[t]
        if x := row[j] + k * row[t]:
            row[j] = x
        else:
            del row[j]
            self.cols[j].remove(t)
        self.col_ops.append((j, t, k))

    # The pivot d[t][t] is nonzero, and rows above t and columns left of t
    # are zero off the diagonal, so t sorts first.
    def below(self, t: int) -> list[int]:
        return sorted(self.cols[t])[1:]

    def right(self, t: int) -> list[int]:
        return sorted(self.d[t])[1:]

    def find_pivot(self, t: int) -> tuple[int, int] | None:
        best = None  # (|value|, i, j) of the first least entry so far
        for i in range(t, self.m):
            if row := self.d[i]:
                least, j = min(zip(map(abs, row.values()), row))
                if best is None or least < best[0]:
                    best = (least, i, j)
                    if least == 1:
                        break
        return None if best is None else best[1:]

    def offender(self, t: int, piv: int) -> int | None:
        for i in range(t + 1, self.m):
            if any(v % piv for v in self.d[i].values()):
                return i
        return None


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
    lines = list(zip(*rows)) if transposed else rows
    nonzeros = tuple(map(dict, map(compress, map(enumerate, lines), lines)))
    return IntegerMatrix(width, size, nonzeros) if transposed else IntegerMatrix(size, width, nonzeros)


def smith_normal_form(a: IntegerMatrix) -> SNFDecomposition:
    """Classical reduction with minimal-|pivot| selection, on the working
    storage ``_row_storage`` picks.  Invariant factors come out positive and
    each divides the next."""
    return _reduce(a, _row_storage(a)(a))


def _row_storage(a: IntegerMatrix) -> type[_DenseRows] | type[_SparseRows]:
    """Dict rows when at most one entry in eight is nonzero, else list rows."""
    return _SparseRows if 8 * sum(map(len, a.nonzeros)) <= a.rows * a.cols else _DenseRows


def _reduce(a: IntegerMatrix, w: _DenseRows | _SparseRows) -> SNFDecomposition:
    """Reduce ``a``, stored in ``w``: the one reduction of both storages."""
    t = 0
    while t < min(w.m, w.n):
        pivot = w.find_pivot(t)
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


def _clear_cross(w: _DenseRows | _SparseRows, t: int) -> None:
    """Zero out column t below the pivot and row t right of it.

    Column t is cleared first: while a row add leaves a remainder below the
    pivot, the pivot row waits for the next round, whose pivot is the least
    remainder.  Quotients are rounded to the nearest integer, so each
    remainder is at most half the pivot in absolute value.  A round that
    leaves no remainder applies exact quotients, which floor quotients taken
    row then column would match operation for operation.  Each pass walks, by
    increasing index, a snapshot of the lines that may meet row or column t
    (all of them on list rows): no swap or add changes an entry of the cross
    that the pass has still to visit.
    """
    d = w.d
    while True:
        # Pull the smallest nonzero of the pivot cross into the corner first,
        # so the Euclidean remainders shrink monotonically.  A swap with line
        # t trades two nonzeros of the cross, so the lines that meet it stay
        # the same, until a column swap brings in another column t.
        least, rows = abs(d[t][t]), w.below(t)
        for i in rows:
            if (v := d[i][t]) and abs(v) < least:
                w.row_swap(t, i)
                least = abs(v)
        pivot_row, cols, swapped = d[t], w.right(t), False
        for j in cols:
            if (v := pivot_row[j]) and abs(v) < least:
                w.col_swap(t, j)
                least, swapped = abs(v), True
        if swapped:
            rows = w.below(t)
        # round(v / piv) is the quotient q of 2v + piv = q * 2piv + r, and the
        # remainder v - q * piv is (r - piv) / 2, zero when r == piv.  Below the
        # pivot q can be 0: a column swap brings in entries never compared
        # with the pivot.  That add is not applied, and its entry stays as a
        # remainder for the next round.  Right of the pivot every entry was
        # compared, so |v / piv| >= 1 there.
        piv, twice, dirty = d[t][t], 2 * d[t][t], False
        for i in rows:
            if v := d[i][t]:
                q, r = divmod(2 * v + piv, twice)
                if q:
                    w.row_add(i, t, -q)
                if r != piv:
                    dirty = True
        if dirty:
            continue
        # Column t is now zero below the pivot, so a column add changes only
        # the pivot row.
        for j in cols:
            if v := pivot_row[j]:
                q, r = divmod(2 * v + piv, twice)
                w.col_add(j, t, -q)
                if r != piv:
                    dirty = True
        if not dirty:
            return


def _force_divisibility(w: _DenseRows | _SparseRows, t: int) -> None:
    """Make the pivot divide every entry of the remaining block; a unit pivot already does."""
    while (piv := w.d[t][t]) not in (1, -1):
        offender = w.offender(t, piv)
        if offender is None:
            return
        w.row_add(t, offender, 1)
        _clear_cross(w, t)
