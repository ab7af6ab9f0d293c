#!/usr/bin/env python3
"""Randomized stress experiment for the Smith normal form routine.

Draws random integer matrices, recomputes D = P*A*Q and the transform
inverses, and checks shape, positivity and the divisibility chain.
Trials alternate dense draws (entries up to --max-entry) with sparse 0/+-1
draws shaped like differentials (at most 3 nonzeros per column); --sparse
draws only the latter.  Every draw is also reduced on both row storages of
the reduction, list rows and dict rows, which must log the same operations
as ``smith_normal_form``; the report counts the draws that
``smith_normal_form`` reduced on each storage.  Each
transform is built by replaying its operation log in reverse, every update
starting at its pivot's column; the transforms of a sparse draw stay mostly
zeros, so their adds also touch only the nonzero columns of the source row.
The kernel, the kernel coordinates and the cokernel generators, each
replayed from the rank (less the torsion) on, must equal the matching
slices of the full Q, Q_inv and P_inv.
Reports throughput and the largest P and Q entries, in bits, over the dense
draws; exits nonzero on the first violation.

    python scripts/snf_stress.py --count 5000 --max-dim 10 --max-entry 99
    python scripts/snf_stress.py --count 200 --max-dim 96 --sparse
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from bredon import intlinalg
from bredon.intlinalg import IntegerMatrix, SNFDecomposition, smith_normal_form

STORAGES = (intlinalg._DenseRows, intlinalg._SparseRows)


def draw(rng: random.Random, max_dim: int, max_entry: int, sparse: bool) -> IntegerMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    if not sparse:
        return IntegerMatrix.from_rows(
            [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)], cols=n
        )
    rows = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), rng.randint(0, min(3, m))):
            rows[i][j] = rng.choice((1, -1))
    return IntegerMatrix.from_rows(rows, cols=n)


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix.diagonal(n, n, [1] * n)


def bits(m: IntegerMatrix) -> int:
    """Bit length of the largest |entry| of ``m``."""
    return max((abs(v).bit_length() for v in m.entries), default=0)


def check_one(a: IntegerMatrix, snf: SNFDecomposition) -> str | None:
    m, n = a.rows, a.cols
    log = (snf.invariant_factors, snf.row_ops, snf.col_ops)
    for storage in STORAGES:
        other = intlinalg._reduce(a, storage(a))
        if (other.invariant_factors, other.row_ops, other.col_ops) != log:
            return f"{storage.__name__} logs other operations for {a.to_rows()}"
    if snf.P @ a @ snf.Q != snf.D:
        return f"D != P A Q for {a.to_rows()}"
    if snf.P @ snf.P_inv != identity(m) or snf.Q @ snf.Q_inv != identity(n):
        return f"transform inverses broken for {a.to_rows()}"
    factors = snf.invariant_factors
    if any(d <= 0 for d in factors):
        return f"non-positive invariant factor for {a.to_rows()}"
    if any(e % d for d, e in zip(factors, factors[1:])):
        return f"divisibility chain broken for {a.to_rows()}"
    k, kernel, cok = len(factors), snf.kernel(), snf.cokernel()
    if kernel.cols != n - k or cok.free_rank != m - k:
        return f"rank bookkeeping broken for {a.to_rows()}"
    torsion_positions = [i for i, d in enumerate(factors) if d > 1]
    if (
        kernel != snf.Q.take_columns(range(k, n))
        or snf.kernel_coordinates() != IntegerMatrix(n - k, n, snf.Q_inv.nonzeros[k:])
        or cok.torsion_generators != snf.P_inv.take_columns(torsion_positions)
        or cok.free_generators != snf.P_inv.take_columns(range(k, m))
    ):
        return f"restricted replay differs from the full transform for {a.to_rows()}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--max-dim", type=int, default=8)
    parser.add_argument("--max-entry", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--sparse", action="store_true", help="draw only sparse 0/+-1 matrices")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    started = time.monotonic()
    p_bits = q_bits = 0
    took = dict.fromkeys(STORAGES, 0)
    for trial in range(args.count):
        sparse = args.sparse or trial % 2 == 1
        a = draw(rng, args.max_dim, args.max_entry, sparse)
        snf = smith_normal_form(a)
        took[intlinalg._row_storage(a)] += 1
        if problem := check_one(a, snf):
            print(f"trial {trial}: {problem}", file=sys.stderr)
            return 1
        if not sparse:
            p_bits, q_bits = max(p_bits, bits(snf.P)), max(q_bits, bits(snf.Q))
    elapsed = time.monotonic() - started
    rate = args.count / elapsed if elapsed else float("inf")
    print(
        f"{args.count} decompositions verified in {elapsed:.2f}s ({rate:.0f}/s);"
        f" reduced on list rows {took[intlinalg._DenseRows]}, on dict rows {took[intlinalg._SparseRows]}"
        + ("" if args.sparse else f"; largest dense transform entries: P {p_bits} bits, Q {q_bits} bits")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
