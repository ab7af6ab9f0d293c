"""Homology of an equivariant chain complex, with explicit labeled bases.

One uniform algorithm serves every complex, with one Smith normal form per
differential: D1 = P1*d1*Q1 of rank k gives H0 = coker d1 and the kernel
lattice basis Q1[:, k:] of d1; the decomposition of d2 gives H2 = ker d2.
As Q1 is unimodular and d1*d2 = 0, the image of d2 in that kernel basis is
the last n-k rows of Q1^-1 times d2, and H1 is its cokernel.  All
generator vectors are carried back to the chain groups and expressed over
the generator labels.

``verify_basis`` checks a candidate family of labeled chains against a
computed group: every candidate must be a cycle and the candidates'
classes must generate the homology group, decided exactly by one
Smith-normal-form cokernel in chain coordinates.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import mul

# InvalidComplexError is re-exported: compute_homology raises it for an invalid complex.
from .gcw import EquivariantComplex, InvalidComplexError, differentials  # noqa: F401
from .intlinalg import IntegerMatrix, smith_normal_form

#: A chain over the degree-d generators: ((label, coefficient), ...).
Chain = tuple[tuple[str, int], ...]


class UnknownGeneratorError(KeyError):
    pass


class EulerIdentityError(ArithmeticError):
    """The alternating sums of the chain ranks and of the free ranks of the
    homology differ, so the computation is unsound."""

    def __init__(self, report: "HomologyReport"):
        self.group_name = report.group_name
        self.chain_ranks = report.chain_ranks
        self.free_ranks = tuple(g.free_rank for g in report.groups)
        super().__init__(
            f"Euler identity violated for {self.group_name}: chain ranks {list(self.chain_ranks)},"
            f" free ranks of H_0, H_1, H_2 {list(self.free_ranks)}"
        )


@dataclass(frozen=True)
class HomologyGroup:
    """H_degree = Z^free_rank + sum of Z/d over torsion, with generating chains."""

    degree: int
    free_rank: int
    torsion: tuple[int, ...]
    basis: tuple[Chain, ...]
    torsion_basis: tuple[Chain, ...]

    def iso_type(self) -> tuple[int, tuple[int, ...]]:
        return self.free_rank, self.torsion

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyReport:
    """The homology in degrees 0..2 of one complex, with its differentials and labels."""

    group_name: str
    groups: tuple[HomologyGroup, HomologyGroup, HomologyGroup]  # degrees 0, 1, 2
    labels: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    d1: IntegerMatrix
    d2: IntegerMatrix
    invariant_factors_d1: tuple[int, ...]
    invariant_factors_d2: tuple[int, ...]

    @property
    def chain_ranks(self) -> tuple[int, int, int]:
        return tuple(len(ls) for ls in self.labels)  # type: ignore[return-value]

    def group(self, degree: int) -> HomologyGroup:
        return self.groups[degree]

    def euler_identity_holds(self) -> bool:
        c0, c1, c2 = self.chain_ranks
        h = [g.free_rank for g in self.groups]
        return c0 - c1 + c2 == h[0] - h[1] + h[2]


def _chains_from_columns(labels: Sequence[str], m: IntegerMatrix) -> tuple[Chain, ...]:
    chains: list[list[tuple[str, int]]] = [[] for _ in range(m.cols)]
    for label, row in zip(labels, m.nonzeros):
        for j, v in row.items():
            chains[j].append((label, v))
    return tuple(map(tuple, chains))


def compute_homology(complex: EquivariantComplex) -> HomologyReport:
    d1, d2 = differentials(complex)
    labels = tuple(tuple(lab.name for lab in degree) for degree in complex.layout.labels)
    snf1, snf2 = smith_normal_form(d1), smith_normal_form(d2)

    # Degree 0: plain cokernel of the degree-1 differential.
    cok0 = snf1.cokernel()
    h0 = HomologyGroup(
        degree=0,
        free_rank=cok0.free_rank,
        torsion=cok0.torsion,
        basis=_chains_from_columns(labels[0], cok0.free_generators),
        torsion_basis=_chains_from_columns(labels[0], cok0.torsion_generators),
    )

    # Degree 2: kernel lattice of the degree-2 differential, always free.
    k2 = snf2.kernel()
    h2 = HomologyGroup(
        degree=2,
        free_rank=k2.cols,
        torsion=(),
        basis=_chains_from_columns(labels[2], k2),
        torsion_basis=(),
    )

    # Degree 1: cokernel of im d2 in the coordinates of the kernel basis
    # k1 = Q1[:, k:], which are Q1^-1[k:, :] @ d2; generators return via k1.
    k1 = snf1.kernel()
    cok1 = smith_normal_form(snf1.kernel_coordinates() @ d2).cokernel()
    h1 = HomologyGroup(
        degree=1,
        free_rank=cok1.free_rank,
        torsion=cok1.torsion,
        basis=_chains_from_columns(labels[1], k1 @ cok1.free_generators),
        torsion_basis=_chains_from_columns(labels[1], k1 @ cok1.torsion_generators),
    )

    report = HomologyReport(
        group_name=complex.group_name,
        groups=(h0, h1, h2),
        labels=labels,
        d1=d1,
        d2=d2,
        invariant_factors_d1=snf1.invariant_factors,
        invariant_factors_d2=snf2.invariant_factors,
    )
    if not report.euler_identity_holds():
        raise EulerIdentityError(report)
    return report


@dataclass(frozen=True)
class BasisVerdict:
    """The verdict of ``verify_basis`` and its reason; true when accepted."""

    accepted: bool
    detail: str

    @property
    def verdict(self) -> str:
        return "ACCEPT" if self.accepted else "REJECT"

    def __bool__(self) -> bool:
        return self.accepted


def chain_vector(report: HomologyReport, degree: int, candidate: Mapping[str, int] | Chain) -> list[int]:
    labels = report.labels[degree]
    items = candidate.items() if isinstance(candidate, Mapping) else candidate
    vector = [0] * len(labels)
    for label, coeff in items:
        if label not in labels:
            raise UnknownGeneratorError(f"{label!r} is not a degree-{degree} generator of {report.group_name}")
        if type(coeff) is not int:
            raise TypeError(f"coefficient of {label!r} is {type(coeff).__name__} ({coeff!r}), not int")
        vector[labels.index(label)] += coeff
    return vector


def verify_basis(
    report: HomologyReport, degree: int, candidates: Sequence[Mapping[str, int] | Chain]
) -> BasisVerdict:
    """ACCEPT iff every candidate is a cycle and their classes generate H_degree.

    The cycles Z = ker d_n are saturated in the chain group C_n, so C_n/Z is
    free of rank r = rank d_n and C_n/(span + im d_n+1) = Z/(span + im d_n+1)
    + Z^r: the cokernel of [candidates | d_n+1] has the quotient's torsion,
    and its free rank exceeds the quotient's by r.  That matrix is built in
    one pass, row by row from the candidates and the nonzeros of d_n+1, and
    only its invariant factors are read, so no transform is built.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    vectors = [chain_vector(report, degree, c) for c in candidates]
    n, cols = len(report.labels[degree]), len(vectors)

    differential = {1: report.d1, 2: report.d2}.get(degree)
    for j, vector in enumerate(vectors if differential is not None else ()):
        if any(sum(map(mul, row.values(), map(vector.__getitem__, row))) for row in differential.nonzeros):
            return BasisVerdict(False, f"candidate {j + 1} is not a cycle")

    lines = [dict(compress(enumerate(line), line)) for line in zip(*vectors)] or [{} for _ in range(n)]
    if (boundaries := {0: report.d1, 1: report.d2}.get(degree)) is not None:
        for line, row in zip(lines, boundaries.nonzeros):
            line.update({cols + c: v for c, v in row.items()})
        cols += boundaries.cols
    snf = smith_normal_form(IntegerMatrix(n, cols, tuple(lines)))
    torsion = [d for d in snf.invariant_factors if d > 1]
    cycle_corank = len({1: report.invariant_factors_d1, 2: report.invariant_factors_d2}.get(degree, ()))
    free_rank = n - snf.rank - cycle_corank  # r in the docstring
    missing = [f"free rank {free_rank}"] if free_rank else []
    missing += [f"torsion {torsion}"] if torsion else []
    if missing:
        return BasisVerdict(False, "candidates do not generate: quotient has " + ", ".join(missing))
    return BasisVerdict(True, "candidates are cycles and generate the group")


# ---------------------------------------------------------------------------
# Rendering


def format_chain(chain: Chain) -> str:
    if not chain:
        return "0"
    parts = []
    for label, coeff in chain:
        if coeff == 1:
            term = label
        elif coeff == -1:
            term = f"-{label}"
        else:
            term = f"{coeff}*{label}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def _group_json(g: HomologyGroup) -> dict:
    return {
        "degree": g.degree,
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
        "basis": [[[lab, c] for lab, c in chain] for chain in g.basis],
        "torsion_basis": [[[lab, c] for lab, c in chain] for chain in g.torsion_basis],
    }


def report_to_json_dict(report: HomologyReport) -> dict:
    return _report_doc(report, IntegerMatrix.to_rows)


def _report_doc(report: HomologyReport, entries) -> dict:
    """The report as JSON data, with ``entries(d)`` for the entries of each differential d."""
    return {
        "group": report.group_name,
        "chain_ranks": list(report.chain_ranks),
        "generators": [list(ls) for ls in report.labels],
        "homology": [_group_json(g) for g in report.groups],
        "differentials": {
            "d1": {"rows": report.d1.rows, "cols": report.d1.cols, "entries": entries(report.d1)},
            "d2": {"rows": report.d2.rows, "cols": report.d2.cols, "entries": entries(report.d2)},
        },
        "invariant_factors": {
            "d1": list(report.invariant_factors_d1),
            "d2": list(report.invariant_factors_d2),
        },
    }


def report_to_json(report: HomologyReport) -> str:
    """``schemas.dumps(report_to_json_dict(report))``; each differential is written from its nonzeros."""
    from .schemas import dumps

    return dumps(_report_doc(report, lambda d: d))


def basis_cell(group: HomologyGroup) -> str:
    """One aligned-table cell listing torsion generators first, then free ones."""
    chains = list(group.torsion_basis) + list(group.basis)
    if not chains:
        return "-"
    return " ".join(f"[{format_chain(c)}]" for c in chains)
