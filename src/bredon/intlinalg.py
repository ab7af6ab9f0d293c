"""Exact integer linear algebra: Smith normal form and friends.

Everything here works over plain Python ints (arbitrary precision), so the
results are exact regardless of pivot growth.  The central routine is
``smith_normal_form``, which diagonalizes D = P*A*Q with unimodular P, Q and
returns the decomposition; P, Q, their inverses, kernels and cokernels are
read off from it.  Once pivot t is placed, its row and column are zero off
the diagonal and stay so, so the reduction works only on the active block
from index t on.

A matrix with more rows than columns is reduced as its transpose: a
pivot's Euclidean rounds are row operations down its column, and P is
replayed from the row log, so the wide orientation is the cheaper one.
``smith_normal_form_as_given`` reduces a matrix as given, whatever its
shape; the homology reduces d1 and K that way, as their logs fix the
bases it reports.

A pivot clears its column before its row, and every quotient is rounded to
the nearest integer, so each Euclidean remainder is at most half the pivot
and a dense matrix takes fewer operations.  Where no pivot leaves a remainder
in its cross, as in every matrix the homology of a built-in group reduces,
this logs the same operations as floor quotients taken row then column;
a unit pivot clears its cross in one pass each way.

An ``IntegerMatrix`` stores each row as a {column: value} dict of its
nonzeros, so a sparse differential costs its nonzeros from assembly through
the product, the transform replay and the JSON writer.  The reduction copies
the rows of a matrix with at most one entry in eight nonzero and keeps each
column's set of nonzero rows, so an operation costs the nonzeros it touches;
it expands any other matrix to list rows.  Both log the same operations.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain, compress
from collections.abc import Callable, Sequence


class IntegerMatrix:
    """Immutable integer matrix; 0-row / 0-column shapes are legal.  Row i is stored as
    ``nonzeros[i]``, {column: value} of its nonzero entries, and no zero is stored, so
    matrices are equal exactly when their entries are; dense reads are built on each call.
    A small class, not a tuple: a matrix has no ``+``, ``len`` or iteration."""

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, nonzeros: tuple[dict[int, int], ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(nonzeros) != rows:
            raise ValueError("row count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzeros", nonzeros)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"IntegerMatrix is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.nonzeros == other.nonzeros

    __hash__ = None  # rows are dicts

    def __reduce__(self) -> tuple:  # copied and pickled by value, a ``DeferredMatrix`` as its built matrix
        return IntegerMatrix, (self.rows, self.cols, self.nonzeros)

    def __repr__(self) -> str:
        return f"IntegerMatrix(rows={self.rows!r}, cols={self.cols!r}, nonzeros={self.nonzeros!r})"

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
        if len(values) > min(rows, cols):
            raise ValueError(f"{len(values)} diagonal values do not fit a {rows}x{cols} matrix")
        lines = [{i: v} if v else {} for i, v in enumerate(values)]
        return IntegerMatrix(rows, cols, tuple(lines + [{} for _ in range(rows - len(lines))]))

    @property
    def entries(self) -> tuple[int, ...]:  # row-major
        return tuple(chain.from_iterable(self.to_rows()))

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

    def __str__(self) -> str:
        return "\n".join(" ".join(map(str, line)) for line in self.to_rows()) if self.rows and self.cols else "(empty)"


_NONZEROS = IntegerMatrix.nonzeros  # the slot, which ``DeferredMatrix`` fills on first read


class DeferredMatrix(IntegerMatrix):
    """An ``IntegerMatrix`` of known shape whose entries are ``build()``'s, made on their first
    read and then kept, so it equals, prints and multiplies as the built matrix does."""

    __slots__ = ("_build",)

    def __init__(self, rows: int, cols: int, build: Callable[[], IntegerMatrix]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_build", build)

    @property
    def nonzeros(self) -> tuple[dict[int, int], ...]:
        if (build := self._build) is not None:
            _NONZEROS.__set__(self, build().nonzeros)
            object.__setattr__(self, "_build", None)
        return _NONZEROS.__get__(self)


class SNFDecomposition:
    """D = P*A*Q with P, Q unimodular; D diagonal with a divisibility chain.

    One reduction of A answers both ``kernel`` and ``cokernel``, each a ``Presentation``.
    The reduction logs its row and column operations; each of P, P_inv, Q and Q_inv is
    built on first read by one walk of its log in reverse (see ``_replay``) and cached, so
    a caller pays only for the transforms it reads; D is built from the invariant factors,
    also on first read.  ``kernel`` and ``cokernel`` replay only the generator columns they
    return, and their coordinates are the same rows of the inverse transform, replayed in
    a second walk, so ``coordinates @ generators`` is the identity by construction.
    Neither is cached.

    A kernel's coordinates are built with it; a cokernel's are a ``DeferredMatrix``,
    replayed on the first read of their entries.  That is the one deferral that pays: the
    cokernel of d1 is H_0, its coordinates a second walk of d1's row log, the longest log
    of a complex, and only ``verify_basis`` of an H_0 basis reads them.
    """

    def __init__(self, matrix: IntegerMatrix, invariant_factors: tuple[int, ...], row_ops: list, col_ops: list) -> None:
        self.matrix, self.invariant_factors = matrix, invariant_factors
        self.row_ops, self.col_ops = row_ops, col_ops

    @cached_property
    def D(self) -> IntegerMatrix:
        """diag(invariant factors), padded with zeros to the shape of the matrix."""
        return IntegerMatrix.diagonal(self.matrix.rows, self.matrix.cols, self.invariant_factors)

    @cached_property
    def P(self) -> IntegerMatrix:
        return _replay(self.row_ops, self.matrix.rows, False, True)

    @cached_property
    def P_inv(self) -> IntegerMatrix:
        return _replay(self.row_ops, self.matrix.rows, True, False)

    @cached_property
    def Q(self) -> IntegerMatrix:
        return _replay(self.col_ops, self.matrix.cols, False, False)

    @cached_property
    def Q_inv(self) -> IntegerMatrix:
        return _replay(self.col_ops, self.matrix.cols, True, True)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def kernel(self) -> "Presentation":
        """ker(A), free: Q's columns and Q_inv's rows from the rank on."""
        log, n, k = self.col_ops, self.matrix.cols, self.rank
        return Presentation((), _replay(log, n, False, False, k), _replay(log, n, True, True, k))

    def cokernel(self) -> "Presentation":
        """coker(A): P_inv's columns and P's rows from the rank less the torsion count on, the rows
        built on the first read of their entries (``_replay`` is looked up then)."""
        # The factors > 1 end the divisibility chain, so they are the last t before the rank.
        torsion = tuple(d for d in self.invariant_factors if d > 1)
        log, m, first = self.row_ops, self.matrix.rows, self.rank - len(torsion)
        coordinates = DeferredMatrix(m - first, m, lambda: _replay(log, m, False, True, first))
        return Presentation(torsion, _replay(log, m, True, False, first), coordinates)


class Presentation(namedtuple("Presentation", "torsion generators coordinates")):
    """Z/d_1 + ... + Z/d_t + Z^free_rank, for the torsion chain d, on vectors of Z^m.

    ``generators`` has a column in Z^m per invariant, torsion first.
    ``coordinates``, the matching rows, sends a vector to its class, row
    i < t modulo d_i, so ``coordinates @ generators`` is the identity.  The
    vectors are those of ker(A) for a kernel, all of Z^m for a cokernel.
    A cokernel's coordinates are built on the first read of their entries.
    """

    __slots__ = ()

    @property
    def free_rank(self) -> int:
        return self.generators.cols - len(self.torsion)


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


def _replay(log: list[tuple[int, int, int]], size: int, inverse: bool, transposed: bool, first: int = 0) -> IntegerMatrix:
    """One walk of ``log`` in reverse, each operation transposed, as row operations on
    columns ``first`` onward of the size x size identity: the (inverse, transposed) kind
    (False, True) is P, (True, False) P_inv, (False, False) Q and (True, True) Q_inv.

    That builds the transpose of the product the log applies: an add line_i += k * line_j
    is replayed as row_j += k * row_i (swaps and negations stay), so the row log gives P^T
    and the column log Q.  ``inverse`` replays each add inverted instead, row_i -= k * row_j,
    for P_inv and Q_inv^T, and ``transposed`` transposes the result at the end.  Row
    operations act on each column alone, so the size x (size - first) result is those
    columns of the full product, bit for bit; transposed, it is rows ``first`` onward.
    Rows are dicts of their nonzeros, as ``IntegerMatrix`` stores them: an add walks its
    source row's nonzeros and deletes each entry it cancels, on dense and sparse logs alike.
    """
    rows = [{} for _ in range(first)] + [{c: 1} for c in range(size - first)]
    for i, j, k in reversed(log):
        if k and i != j:  # row_i -= k * row_j under inverse, else row_j += k * row_i
            target, source, x = (rows[i], rows[j], -k) if inverse else (rows[j], rows[i], k)
            for c, v in source.items():
                if y := target.get(c, 0) + x * v:
                    target[c] = y
                else:
                    del target[c]
        elif k:
            rows[i] = {c: -v for c, v in rows[i].items()}
        else:
            rows[i], rows[j] = rows[j], rows[i]
    m = IntegerMatrix(size, size - first, tuple(rows))
    return m.transpose() if transposed else m


def smith_normal_form(a: IntegerMatrix) -> SNFDecomposition:
    """The decomposition of ``a``, reduced as its transpose when it has more rows than columns.

    A column operation on aᵀ is the same row operation on a, so aᵀ's column log is a's row
    log and its row log a's column log: P, Q, their inverses, kernel and cokernel come from
    the same replays, with P the transpose of aᵀ's Q and Q the transpose of its P."""
    if a.rows <= a.cols:
        return smith_normal_form_as_given(a)
    flipped = smith_normal_form_as_given(a.transpose())
    return SNFDecomposition(a, flipped.invariant_factors, flipped.col_ops, flipped.row_ops)


def smith_normal_form_as_given(a: IntegerMatrix) -> SNFDecomposition:
    """Classical reduction of ``a`` in its own orientation, with minimal-|pivot|
    selection, on the working storage ``_row_storage`` picks.  Invariant factors
    come out positive and each divides the next.  The homology reduces d1 and K
    this way: their operation logs fix the bases it reports."""
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
    # t is the rank; pivots are positive
    return SNFDecomposition(a, tuple(w.d[i][i] for i in range(t)), w.row_ops, w.col_ops)


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
    that the pass has still to visit.  A unit pivot, which every pivot of a
    built-in or subdivided differential is, skips the least-entry scans and
    the remainders: one pass down its column and one along its row.
    """
    d = w.d
    while True:
        if (piv := d[t][t]) in (1, -1):
            # Nothing in the cross is smaller than a unit pivot and every quotient v / piv is
            # v * piv, exact, so one pass each way clears it, logging what a round would.
            for i in w.below(t):
                if v := d[i][t]:
                    w.row_add(i, t, -v * piv)
            pivot_row = d[t]
            for j in w.right(t):
                if v := pivot_row[j]:
                    w.col_add(j, t, -v * piv)
            return
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
