"""Correctness gates.  Every check runs outside the timed region.

The pinned digests are the outputs of the seed implementation; the
``verify`` digest and its exit code 1 include the known reference defect
(the recorded ``cm`` degree-1 basis generates only an index-2 sublattice),
which is the expected output, not a failure.
"""

from __future__ import annotations

import hashlib

COMPUTE_ALL_SHA256 = "943fc8e5c37ae682d8445c356e77f83cdd469ac89f456c2ac670851344b3c8a7"
VERIFY_SHA256 = "68318cc195f39ff0af5cb93fad25393a4d60c58813f149075926e7722d5584b5"
VERIFY_EXIT = 1

#: Reference bases the seed rejects, as (group, degree); every other one is accepted.
REJECTED_REFERENCE_BASES = {("cm", 1)}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def iso_type_problems(report: dict, group: str, rows: dict) -> list[str]:
    """Compare a report's (H2, H1, H0) iso types with the reference Table 4 row."""
    h2, h1, _, h0, _ = rows[group]
    got = tuple((h["free_rank"], tuple(h["torsion"])) for h in (report["homology"][d] for d in (2, 1, 0)))
    if got != (h2, h1, h0):
        return [f"{group}: (H2, H1, H0) = {got}, reference {(h2, h1, h0)}"]
    return []


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _is_identity(m: list[list[int]]) -> bool:
    return all(v == (i == j) for i, row in enumerate(m) for j, v in enumerate(row))


def snf_problems(a: list[list[int]], out: dict, p_inv: list[list[int]], q_inv: list[list[int]]) -> list[str]:
    """Certify ``bredon snf`` output: D = P A Q, with P and Q unimodular (the
    inverses are witnesses, checked by plain multiplication), D diagonal with
    positive factors forming a divisibility chain."""
    d, p, q, factors = out["D"], out["P"], out["Q"], out["invariant_factors"]
    problems = []
    if _matmul(_matmul(p, a), q) != d:
        problems.append("D != P A Q")
    if not (_is_identity(_matmul(p, p_inv)) and _is_identity(_matmul(p_inv, p))):
        problems.append("P is not unimodular")
    if not (_is_identity(_matmul(q, q_inv)) and _is_identity(_matmul(q_inv, q))):
        problems.append("Q is not unimodular")
    diagonal = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    if any(v for i, row in enumerate(d) for j, v in enumerate(row) if i != j):
        problems.append("D is not diagonal")
    if [v for v in diagonal if v] != factors or any(diagonal[len(factors):]):
        problems.append("invariant factors do not match the diagonal of D")
    if any(f <= 0 for f in factors):
        problems.append("non-positive invariant factor")
    if any(g % f for f, g in zip(factors, factors[1:])):
        problems.append("divisibility chain broken")
    return problems
