import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bredon import intlinalg
from bredon.intlinalg import IntegerMatrix, smith_normal_form, smith_normal_form_as_given
from snf_helpers import (
    classical_reduction,
    cokernel,
    column,
    dense_replay,
    entry,
    hstack,
    identity,
    kernel_basis,
    reference_reduction,
    solve_integer,
    take_columns,
    zeros,
)

#: Every (inverse, transposed) kind of ``intlinalg._replay``.
KINDS = ((False, False), (False, True), (True, False), (True, True))


def cofactor_det(m: IntegerMatrix) -> int:
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return entry(m, 0, 0)
    total = 0
    for j in range(n):
        minor = [[entry(m, i, k) for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * entry(m, 0, j) * cofactor_det(IntegerMatrix.from_rows(minor, cols=n - 1))
    return total


def assert_valid_snf(a: IntegerMatrix) -> None:
    snf = smith_normal_form(a)
    assert snf.P @ a @ snf.Q == snf.D
    assert snf.P @ snf.P_inv == identity(a.rows)
    assert snf.Q @ snf.Q_inv == identity(a.cols)
    k = len(snf.invariant_factors)
    for i in range(a.rows):
        for j in range(a.cols):
            expected = snf.invariant_factors[i] if i == j and i < k else 0
            assert entry(snf.D, i, j) == expected
    for d, e in zip(snf.invariant_factors, snf.invariant_factors[1:]):
        assert d > 0 and e % d == 0


@st.composite
def matrices(draw, max_dim=6, bound=9):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    return IntegerMatrix.from_rows(rows, cols=n)


@st.composite
def sparse_matrices(draw, max_dim=64, per_column=3):
    """0/+-1 matrices shaped like differentials: at most ``per_column`` nonzeros
    in each column, so the transforms stay mostly zeros."""
    m = draw(st.integers(4, max_dim))
    n = draw(st.integers(4, max_dim))
    rows = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in draw(st.lists(st.integers(0, m - 1), max_size=per_column, unique=True)):
            rows[i][j] = draw(st.sampled_from((1, -1)))
    return IntegerMatrix.from_rows(rows, cols=n)


@pytest.mark.parametrize("bad", [2.7, 2.0, Fraction(5, 2), Fraction(2), True, "2"])
def test_non_int_entries_raise(bad):
    # int() would truncate 2.7 to 2 and read "2" as 2
    with pytest.raises(TypeError, match="matrix entries are int"):
        IntegerMatrix.from_rows([[1, 0], [0, bad]])
    with pytest.raises(TypeError, match="matrix entries are int"):
        column([1, bad])


@pytest.mark.parametrize("rows, cols, values", [(2, 1, [1, 2]), (1, 3, [1, 2]), (0, 2, [0])])
def test_diagonal_rejects_more_values_than_the_shape_holds(rows, cols, values):
    with pytest.raises(ValueError, match=f"fit a {rows}x{cols} matrix"):
        IntegerMatrix.diagonal(rows, cols, values)


@pytest.mark.parametrize("indices", [[5], [-1], [0, 2]])
def test_take_columns_rejects_an_index_outside_the_matrix(indices):
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(IndexError, match="outside 0..1 of a 2x2 matrix"):
        take_columns(a, indices)
    assert take_columns(a, range(2)) == a and take_columns(a, range(0)) == IntegerMatrix(2, 0, ({}, {}))


def test_shape_is_checked_on_construction():
    with pytest.raises(ValueError, match="negative matrix dimension"):
        IntegerMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="negative matrix dimension"):
        IntegerMatrix(0, -1, ())
    with pytest.raises(ValueError, match="row count does not match shape"):
        IntegerMatrix(2, 1, ({},))


def test_fields_cannot_be_assigned():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    for name in ("rows", "cols", "nonzeros", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        del a.rows
    assert (a.rows, a.cols, a.to_rows()) == (2, 2, [[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "op", [lambda a: a + a, lambda a: a * 2, lambda a: 2 * a, len, iter], ids=["add", "mul", "rmul", "len", "iter"]
)
def test_a_matrix_has_no_tuple_behaviour(op):
    with pytest.raises(TypeError):
        op(IntegerMatrix.from_rows([[1, 2], [3, 4]]))


def test_equality_compares_shape_and_entries():
    a = IntegerMatrix.from_rows([[1, 0], [0, 2]])
    assert a == IntegerMatrix(2, 2, ({0: 1}, {1: 2})) and a != take_columns(a.transpose(), [1, 0])
    assert IntegerMatrix(0, 2, ()) != IntegerMatrix(0, 3, ()) and a != (2, 2, a.nonzeros)
    assert repr(IntegerMatrix(1, 2, ({1: 5},))) == "IntegerMatrix(rows=1, cols=2, nonzeros=({1: 5},))"


def test_one_by_one():
    assert smith_normal_form(IntegerMatrix.from_rows([[2]])).invariant_factors == (2,)
    assert smith_normal_form(IntegerMatrix.from_rows([[-5]])).invariant_factors == (5,)


def test_two_by_one_column():
    # the degree-2 differential of the Klein-bottle-like complex
    a = column([2, 0])
    snf = smith_normal_form(a)
    assert snf.invariant_factors == (2,)
    assert_valid_snf(a)


def test_rank_one_projection():
    a = IntegerMatrix.from_rows([[1, 0], [0, 0]])
    assert smith_normal_form(a).invariant_factors == (1,)


def test_empty_shapes_behave_as_zero_maps():
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        a = zeros(rows, cols)
        snf = smith_normal_form(a)
        assert snf.invariant_factors == ()
        assert kernel_basis(a).cols == cols
        cok = cokernel(a)
        assert cok.free_rank == rows and cok.torsion == ()


@settings(max_examples=200)
@given(matrices())
def test_snf_properties(a):
    assert_valid_snf(a)


@pytest.mark.parametrize("seed", range(6))
def test_snf_of_dense_matrices_with_multi_round_euclid(seed):
    # sides 24-32 with entries +-99: most pivots need several rounds of
    # rounded remainders before their cross is clear
    rng = random.Random(f"multi-round-{seed}")
    m, n = rng.randint(24, 32), rng.randint(24, 32)
    assert_valid_snf(IntegerMatrix.from_rows([[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)]))


@settings(max_examples=150)
@given(matrices())
def test_rank_consistency(a):
    k = len(smith_normal_form(a).invariant_factors)
    ker = kernel_basis(a)
    cok = cokernel(a)
    assert ker.cols == a.cols - k
    assert cok.free_rank == a.rows - k
    assert (a @ ker).is_zero()


@settings(max_examples=100)
@given(matrices(max_dim=4))
def test_determinant_preserved(a):
    if a.rows != a.cols:
        return
    det = cofactor_det(a)
    snf = smith_normal_form(a)
    if det == 0:
        assert len(snf.invariant_factors) < a.rows
    else:
        prod = 1
        for d in snf.invariant_factors:
            prod *= d
        assert prod == abs(det)


def test_kernel_examples():
    zero_map = zeros(1, 2)
    assert kernel_basis(zero_map).cols == 2
    assert kernel_basis(identity(3)).cols == 0


def test_kernel_basis_extends_to_unimodular():
    a = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])
    snf = smith_normal_form(a)
    ker = kernel_basis(a)
    # kernel columns are columns of the unimodular Q, hence a lattice basis
    assert ker.cols == 1
    assert (a @ ker).is_zero()
    assert abs(cofactor_det(snf.Q)) == 1


def test_cokernel_examples():
    zero_map = zeros(4, 2)
    cok = cokernel(zero_map)
    assert cok.free_rank == 4 and cok.torsion == ()

    cok = cokernel(IntegerMatrix.from_rows([[2]]))
    assert cok.free_rank == 0 and cok.torsion == (2,)
    assert cok.generators.cols == 1

    # torsion chain: Z^2 / <(2,0),(0,4)> = Z/2 x Z/4
    cok = cokernel(IntegerMatrix.from_rows([[2, 0], [0, 4]]))
    assert cok.torsion == (2, 4)


def test_cokernel_generators_project_to_basis():
    # coker of [[2,1,1]]^T is Z^2; the free generator columns of P_inv must
    # complement the image lattice unimodularly
    a = IntegerMatrix.from_rows([[2], [1], [1]])
    cok = cokernel(a)
    assert cok.free_rank == 2 and cok.torsion == ()
    stacked = hstack(a, cok.generators)
    assert abs(cofactor_det(stacked)) == 1


def test_solve_identity():
    b = IntegerMatrix.from_rows([[3, 1], [2, 2], [-7, 0]])
    assert solve_integer(identity(3), b) == b


def test_solve_no_solution():
    assert solve_integer(IntegerMatrix.from_rows([[2]]), IntegerMatrix.from_rows([[3]])) is None
    # inconsistent overdetermined system
    a = IntegerMatrix.from_rows([[1], [1]])
    b = IntegerMatrix.from_rows([[0], [1]])
    assert solve_integer(a, b) is None


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_integer(identity(2), identity(3))


def test_solve_kernel_coordinates_of_glide_complex():
    # degree-1 differential is the zero map Z^2 -> Z, so its kernel basis is
    # the identity; the degree-2 column (2,0)^T pulls back to itself in the
    # kernel coordinates ordered (beta_0, beta_1)
    k = kernel_basis(zeros(1, 2))
    d2 = column([2, 0])
    x = solve_integer(k, d2)
    assert x is not None
    assert k @ x == d2
    assert x == d2


def test_kernel_and_cokernel_of_builtin_differentials():
    from bredon import wallpaper
    from bredon.gcw import differentials

    # degree-1 differential of pm: 5 columns of rank 1, kernel rank 4
    d1_pm = differentials(wallpaper.get_group("pm")[0])[0]
    assert d1_pm.cols == 5
    assert len(smith_normal_form(d1_pm).invariant_factors) == 1
    assert kernel_basis(d1_pm).cols == 4

    # degree-1 differential of p2: torsion-free cokernel of rank 5
    d1_p2 = differentials(wallpaper.get_group("p2")[0])[0]
    cok = cokernel(d1_p2)
    assert cok.free_rank == 5 and cok.torsion == ()


@settings(max_examples=100)
@given(matrices(max_dim=4), st.data())
def test_solve_roundtrip(a, data):
    x_rows = data.draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=a.cols, max_size=a.cols
        )
    )
    x = IntegerMatrix.from_rows(x_rows, cols=2)
    b = a @ x
    solved = solve_integer(a, b)
    assert solved is not None
    assert a @ solved == b


@settings(max_examples=100)
@given(matrices())
def test_decomposition_reads_kernel_and_cokernel(a):
    snf = smith_normal_form(a)
    assert snf.kernel().generators == kernel_basis(a)
    assert snf.cokernel() == cokernel(a)
    assert (a @ snf.kernel().generators).is_zero()
    assert snf.kernel().free_rank + snf.rank == a.cols and snf.kernel().torsion == ()


@st.composite
def storage_matrices(draw, max_dim=40):
    """Dense (entries +-20) or sparse 0/+-1 (at most 3 nonzeros per column)
    matrices from 0x0 to max_dim x max_dim, with some rows and columns zero."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
    else:
        rows = [[0] * n for _ in range(m)]
        for j in range(n):
            for i in rng.sample(range(m), rng.randint(0, min(3, m))):
                rows[i][j] = rng.choice((1, -1))
    zero_rows = {i for i in range(m) if rng.random() < 0.1}
    zero_cols = {j for j in range(n) if rng.random() < 0.1}
    return IntegerMatrix.from_rows(
        [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)] for i, row in enumerate(rows)],
        cols=n,
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_matrices(), matrices(max_dim=12, bound=99), storage_matrices()))
def test_replay_matches_the_dense_reference(a):
    # the reverse replay builds the transpose of the forward one, for each kind
    snf = smith_normal_form(a)
    for log, size in ((snf.row_ops, a.rows), (snf.col_ops, a.cols)):
        for inverse, transposed in KINDS:
            assert intlinalg._replay(log, size, inverse, transposed) == dense_replay(log, size, inverse, not transposed)


@st.composite
def shaped_matrices(draw, max_dim=8):
    """Dense (entries +-20) or sparse 0/+-1 matrices, empty shapes included."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entries = st.integers(-20, 20) if draw(st.booleans()) else st.sampled_from((0, 0, 0, 1, -1))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return IntegerMatrix.from_rows(rows, cols=n)


@settings(max_examples=150, deadline=None)
@given(shaped_matrices())
@example(zeros(0, 3))
@example(zeros(3, 0))
@example(zeros(3, 4))
@example(identity(4))
@example(IntegerMatrix.from_rows([[2, 0, 0], [0, 6, 0]]))  # full row rank, all torsion
@example(IntegerMatrix.from_rows([[4, 0], [0, 12], [0, 0]]))  # full column rank, all torsion
def test_restricted_replays_are_slices_of_the_full_transforms(a):
    snf = smith_normal_form(a)
    m, n, k = a.rows, a.cols, snf.rank
    kernel = snf.kernel()  # two walks of the column log, one per part
    assert kernel.torsion == () and kernel.generators == take_columns(snf.Q, range(k, n))
    assert kernel.coordinates == IntegerMatrix(n - k, n, snf.Q_inv.nonzeros[k:])
    assert kernel.coordinates @ kernel.generators == identity(n - k)
    cok = snf.cokernel()  # one walk of the row log, and one more on the first read of its coordinates
    torsion_positions = [i for i, d in enumerate(snf.invariant_factors) if d > 1]
    assert cok.torsion == tuple(snf.invariant_factors[i] for i in torsion_positions)
    # P_inv's torsion columns, then its free ones
    assert cok.generators == take_columns(snf.P_inv, torsion_positions + list(range(k, m)))
    t = len(torsion_positions)
    assert cok.coordinates == IntegerMatrix(m - k + t, m, snf.P.nonzeros[k - t :])
    assert cok.coordinates @ cok.generators == identity(m - k + t)
    # every first column, for all four transforms: columns of the untransposed product
    for log, size in ((snf.row_ops, m), (snf.col_ops, n)):
        for inverse, transposed in KINDS:
            whole = intlinalg._replay(log, size, inverse, transposed)
            for first in range(size + 1):
                part = intlinalg._replay(log, size, inverse, transposed, first)
                if transposed:  # rows, not columns, from first on
                    assert part == IntegerMatrix(size - first, size, whole.nonzeros[first:])
                else:
                    assert part == take_columns(whole, range(first, size))


def assert_logs_match_the_reference(a: IntegerMatrix) -> None:
    snf = smith_normal_form_as_given(a)
    assert (snf.invariant_factors, snf.row_ops, snf.col_ops) == reference_reduction(a)


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(max_dim=16, bound=99), sparse_matrices()))
def test_operation_logs_match_the_reference_reduction(a):
    assert_logs_match_the_reference(a)


@pytest.mark.parametrize("degree", [1, 2])
def test_operation_logs_of_builtin_differentials_match_the_reference(degree):
    from bredon import wallpaper
    from bredon.gcw import differentials

    for name in wallpaper.list_groups():
        assert_logs_match_the_reference(differentials(wallpaper.get_group(name)[0])[degree - 1])


def test_homology_path_logs_match_the_classical_reduction():
    # no pivot on the homology path leaves a remainder in its cross, so the
    # engine logs what the floor, row-then-column rule logs, and the bases
    # that compute and dump report stay as that rule gave them
    from bredon import wallpaper
    from bredon.gcw import differentials

    for name in wallpaper.list_groups():
        d1, d2 = differentials(wallpaper.get_group(name)[0])
        snf1 = smith_normal_form_as_given(d1)
        n, k = d1.cols, snf1.rank
        # d1, d2 and the degree-1 matrix Q1^-1[k:, :] @ d2 that compute_homology reduces
        for a in (d1, d2, IntegerMatrix(n - k, n, snf1.Q_inv.nonzeros[k:]) @ d2):
            snf = smith_normal_form_as_given(a)
            assert (snf.invariant_factors, snf.row_ops, snf.col_ops) == classical_reduction(a), name


@pytest.mark.parametrize("m, n", [(8, 7), (24, 8), (5, 1), (3, 0), (7, 7), (1, 1), (7, 8), (8, 24), (1, 5), (0, 3)])
def test_a_tall_matrix_is_reduced_as_its_transpose(m, n):
    # a column operation on a^T is the same row operation on a, so the logs swap places
    rng = random.Random(f"orientation-{m}x{n}")
    for _ in range(4):
        if rng.random() < 0.5:
            rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        a = IntegerMatrix.from_rows(rows, cols=n)
        snf = smith_normal_form(a)
        if m > n:
            flipped = smith_normal_form_as_given(a.transpose())
            expected = (flipped.invariant_factors, flipped.col_ops, flipped.row_ops)
        else:
            given = smith_normal_form_as_given(a)
            expected = (given.invariant_factors, given.row_ops, given.col_ops)
        assert (snf.invariant_factors, snf.row_ops, snf.col_ops) == expected
        assert snf.P @ a @ snf.Q == snf.D
        assert snf.P @ snf.P_inv == identity(m) and snf.Q @ snf.Q_inv == identity(n)


def test_a_zero_quotient_is_neither_applied_nor_logged():
    # At t = 1 a column swap leaves 1 below the pivot -3: the quotient rounds
    # to 0, and the next round pulls the 1 into the corner.
    a = IntegerMatrix.from_rows([[-9, -9, -1], [6, -1, -3], [2, 5, 2]])
    zero_quotients = []
    expected = reference_reduction(a, zero_quotients)
    assert zero_quotients == [(2, 1)]
    for storage in (intlinalg._DenseRows, intlinalg._SparseRows):
        snf = intlinalg._reduce(a, storage(a))
        assert (snf.invariant_factors, snf.row_ops, snf.col_ops) == expected, storage.__name__
        # a logged (i, j, 0) reads as a swap, so a logged zero add would break D = P A Q
        assert snf.P @ a @ snf.Q == snf.D


@settings(max_examples=80, deadline=None)
@given(storage_matrices())
@example(zeros(0, 0))
@example(zeros(4, 0))
@example(zeros(5, 7))
def test_both_storages_log_the_reference_operations(a):
    dense = intlinalg._reduce(a, intlinalg._DenseRows(a))
    sparse = intlinalg._reduce(a, intlinalg._SparseRows(a))
    logs = [(snf.invariant_factors, snf.row_ops, snf.col_ops) for snf in (dense, sparse)]
    assert logs[0] == logs[1] == reference_reduction(a)


def stores_only_nonzeros(a: IntegerMatrix) -> bool:
    """Every stored entry is a nonzero int in a column of ``a``, one row dict per row."""
    return len(a.nonzeros) == a.rows and all(
        type(v) is int and v != 0 and 0 <= j < a.cols for row in a.nonzeros for j, v in row.items()
    )


#: Small entries whose products and sums cancel often.
cancelling = st.sampled_from((0, 0, 0, 1, -1, 2, -2))


@st.composite
def dense_lists(draw, rows=None, cols=None, max_dim=6):
    """(cols, rows) of a row list of ``cancelling`` entries, any side 0 to ``max_dim``."""
    m = draw(st.integers(0, max_dim)) if rows is None else rows
    n = draw(st.integers(0, max_dim)) if cols is None else cols
    return n, draw(st.lists(st.lists(cancelling, min_size=n, max_size=n), min_size=m, max_size=m))


@settings(max_examples=150, deadline=None)
@given(dense_lists(), st.data())
def test_no_constructor_stores_a_zero(shaped, data):
    n, rows = shaped
    a = IntegerMatrix.from_rows(rows, cols=n)
    assert stores_only_nonzeros(a) and (a.rows, a.cols, a.to_rows()) == (len(rows), n, rows)

    p, other = data.draw(dense_lists(rows=n))
    product = [[sum(x * other[k][j] for k, x in enumerate(line)) for j in range(p)] for line in rows]
    ab = a @ IntegerMatrix.from_rows(other, cols=p)
    assert stores_only_nonzeros(ab) and ab.to_rows() == product

    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2)) if n else []
    taken = take_columns(a, indices)
    assert stores_only_nonzeros(taken) and taken.to_rows() == [[line[j] for j in indices] for line in rows]

    values = data.draw(st.lists(cancelling, max_size=min(len(rows), n)))
    diag = IntegerMatrix.diagonal(len(rows), n, values)
    expected = [[values[i] if i == j and i < len(values) else 0 for j in range(n)] for i in range(len(rows))]
    assert stores_only_nonzeros(diag) and diag.to_rows() == expected

    flipped = a.transpose()
    assert stores_only_nonzeros(flipped) and flipped.to_rows() == [[line[j] for line in rows] for j in range(n)]

    snf = smith_normal_form(a)
    for log, size in ((snf.row_ops, a.rows), (snf.col_ops, a.cols)):
        for first in range(size + 1):
            assert all(stores_only_nonzeros(intlinalg._replay(log, size, *kind, first)) for kind in KINDS)


@settings(max_examples=150, deadline=None)
@given(dense_lists(), dense_lists())
def test_equality_is_equality_of_the_entries(x, y):
    (n, rows), (p, other) = x, y
    a, b = IntegerMatrix.from_rows(rows, cols=n), IntegerMatrix.from_rows(other, cols=p)
    assert (a == b) == ((len(rows), n, rows) == (len(other), p, other))
    # the order in which a row's nonzeros were stored does not matter
    reversed_rows = tuple(dict(reversed(row.items())) for row in a.nonzeros)
    assert IntegerMatrix(a.rows, a.cols, reversed_rows) == a == a.transpose().transpose()
    if any(map(any, rows)):
        i = next(i for i, line in enumerate(rows) if any(line))
        changed = [list(line) for line in rows]
        changed[i][next(j for j, v in enumerate(rows[i]) if v)] = 0
        assert IntegerMatrix.from_rows(changed, cols=n) != a


def test_an_assembly_drops_the_entries_that_cancel():
    from bredon.gcw import BoundaryTerm, CellOrbit, EquivariantComplex, differentials

    # e meets v twice along the same embedding with opposite signs, so v's block
    # of d1 is zero; e meets w once, along the identity of C2
    complex_ = EquivariantComplex(
        "cancelling",
        orbits=(
            CellOrbit("v", 0, "D2", "alpha_0"),
            CellOrbit("w", 0, "C2", "alpha_1"),
            CellOrbit("e", 1, "C2", "beta"),
        ),
        boundary=(
            BoundaryTerm("e", "v", 1, "C2->D2[a]"),
            BoundaryTerm("e", "w", 1, "C2->C2"),
            BoundaryTerm("e", "v", -1, "C2->D2[a]"),
        ),
    )
    d1 = differentials(complex_)[0]
    assert stores_only_nonzeros(d1)
    assert d1.nonzeros == ({}, {}, {}, {}, {0: 1}, {1: 1})
    assert d1 == IntegerMatrix.from_rows([[0, 0]] * 4 + [[1, 0], [0, 1]])
