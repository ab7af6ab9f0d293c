"""Homology of an equivariant chain complex, with explicit labeled bases.

One uniform algorithm serves every complex, with two reductions per
complex, and reads every group as an ``intlinalg.Presentation``: its
torsion chain, a generator column per invariant and the matching coordinate
rows, which send a cycle to its class in Z/d_1 + ... + Z/d_t + Z^f.
Both reduce d1 and K as given (``smith_normal_form_as_given``), whatever
their shapes, as their operation logs fix the reported bases.
D1 = P1*d1*Q1 of rank k gives H0 = coker d1 and the kernel k1 of d1, the
columns of Q1 and rows of Q1^-1 from k on.  As Q1 is unimodular and
d1*d2 = 0, d2 in the kernel basis is K = k1's coordinates times d2, with
d2's kernel and invariant factors.  The decomposition of K gives both
H1 = coker K, whose generators return to chains through k1's generators and
whose coordinates are the cokernel's times k1's, and H2 = ker K = ker d2.
One builder turns each presentation into a group over the generator labels,
torsion generators first.  Every group's coordinates are built with the
report but H0's, which are built on the first read of their entries (see
``intlinalg.SNFDecomposition``).

``verify_basis`` checks a candidate family of labeled chains against a
computed group: every candidate must be a cycle and the candidates'
classes must generate the homology group, decided exactly by one
Smith normal form of their coordinates beside the torsion relations, so
no boundary matrix is reduced again.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import compress
from operator import mul

# InvalidComplexError is re-exported: compute_homology raises it for an invalid complex.
from .gcw import EquivariantComplex, InvalidComplexError, differentials  # noqa: F401
from .intlinalg import IntegerMatrix, Presentation, smith_normal_form, smith_normal_form_as_given

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


class HomologyGroup(namedtuple("HomologyGroup", "degree free_rank torsion basis torsion_basis coordinates")):
    """H_degree = Z^free_rank + sum of Z/d over torsion, with generating chains.

    ``coordinates``, a row per torsion factor then per free rank, sends a cycle to
    its class, row i < len(torsion) modulo torsion[i], and ``torsion_basis + basis``
    to the identity; it is not written to JSON, and only ``verify_basis`` reads it.
    H_0's is an ``intlinalg.DeferredMatrix``, built on the first read of its entries."""

    __slots__ = ()

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


class HomologyReport(
    namedtuple("HomologyReport", "group_name groups labels d1 d2 invariant_factors_d1 invariant_factors_d2")
):
    """The homology in degrees 0..2 of one complex: ``groups`` and ``labels`` by degree,
    the differentials d1, d2 and their invariant factors."""

    __slots__ = ()

    @property
    def chain_ranks(self) -> tuple[int, int, int]:
        return tuple(len(ls) for ls in self.labels)  # type: ignore[return-value]

    def group(self, degree: int) -> HomologyGroup:
        return self.groups[degree]

    def euler_identity_holds(self) -> bool:
        c0, c1, c2 = self.chain_ranks
        h = [g.free_rank for g in self.groups]
        return c0 - c1 + c2 == h[0] - h[1] + h[2]


def compute_homology(complex: EquivariantComplex) -> HomologyReport:
    """The homology of ``complex``, reduced on the first call for this object only.

    The report is kept in the complex's ``__dict__`` beside ``layout``; later calls return
    that same, read-only object, and a ``_replace`` copy or a new parse is reduced anew.
    An invalid complex keeps nothing and raises ``InvalidComplexError`` on every call,
    and the Euler identity is checked on every call (``EulerIdentityError``)."""
    if (report := vars(complex).get("homology")) is None:
        report = vars(complex)["homology"] = _reduce_complex(complex)
    if not report.euler_identity_holds():
        raise EulerIdentityError(report)
    return report


def _reduce_complex(complex: EquivariantComplex) -> HomologyReport:
    d1, d2 = differentials(complex)
    labels = complex.layout.labels
    snf1 = smith_normal_form_as_given(d1)
    h0 = _group(0, labels[0], snf1.cokernel())
    # One reduction of K = k1.coordinates @ d2 serves H_1 = coker K and H_2: D1 = P1*d1*Q1 and d1*d2 = 0
    # force the first rank(d1) rows of Q1^-1*d2 to be zero, the remaining rows are K, and Q1^-1 is
    # unimodular, so ker K = ker d2 and K has d2's invariant factors (no SNF of d2 alone is needed).
    k1 = snf1.kernel()
    snf_k = smith_normal_form_as_given(k1.coordinates @ d2)
    cok = snf_k.cokernel()
    h1 = _group(1, labels[1], Presentation(cok.torsion, k1.generators @ cok.generators, cok.coordinates @ k1.coordinates))
    h2 = _group(2, labels[2], snf_k.kernel())
    return HomologyReport(
        group_name=complex.group_name,
        groups=(h0, h1, h2),
        labels=labels,
        d1=d1,
        d2=d2,
        invariant_factors_d1=snf1.invariant_factors,
        invariant_factors_d2=snf_k.invariant_factors,
    )


def _group(degree: int, labels: Sequence[str], presentation: Presentation) -> HomologyGroup:
    """H_degree over the degree's generator labels: a chain per generator column, torsion first."""
    chains: list[list[tuple[str, int]]] = [[] for _ in range(presentation.generators.cols)]
    for label, row in zip(labels, presentation.generators.nonzeros):
        for j, v in row.items():
            chains[j].append((label, v))
    t = len(presentation.torsion)
    return HomologyGroup(
        degree=degree,
        free_rank=presentation.free_rank,
        torsion=presentation.torsion,
        basis=tuple(map(tuple, chains[t:])),
        torsion_basis=tuple(map(tuple, chains[:t])),
        coordinates=presentation.coordinates,
    )


class BasisVerdict(namedtuple("BasisVerdict", "accepted detail")):
    """The verdict of ``verify_basis`` and its reason; true when accepted."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "ACCEPT" if self.accepted else "REJECT"

    def __bool__(self) -> bool:
        return self.accepted


def _chain_vectors(
    report: HomologyReport, degree: int, candidates: Sequence[Mapping[str, int] | Chain]
) -> list[list[int]]:
    """Each candidate as its coefficient vector over the degree's generators, by one label -> position map."""
    labels = report.labels[degree]
    position = {label: i for i, label in enumerate(labels)}
    vectors = []
    for candidate in candidates:
        vector = [0] * len(labels)
        for label, coeff in candidate.items() if isinstance(candidate, Mapping) else candidate:
            try:
                i = position[label]
            except (KeyError, TypeError):  # an unhashable label is no generator either
                message = f"{label!r} is not a degree-{degree} generator of {report.group_name}"
                raise UnknownGeneratorError(message) from None
            if type(coeff) is not int:
                raise TypeError(f"coefficient of {label!r} is {type(coeff).__name__} ({coeff!r}), not int")
            vector[i] += coeff
        vectors.append(vector)
    return vectors


def verify_basis(
    report: HomologyReport, degree: int, candidates: Sequence[Mapping[str, int] | Chain]
) -> BasisVerdict:
    """ACCEPT iff every candidate is a cycle and their classes generate H_degree.

    The group's ``coordinates`` identify H_degree with Z/d_1 + ... + Z/d_t + Z^f,
    so the quotient of H_degree by the candidates' span is the cokernel of
    C = [coordinates @ candidates | diag(d_1, ..., d_t)], the diagonal on the
    t torsion rows: its torsion is the invariant factors of C above 1 and its
    free rank is t + f less the rank of C.  One Smith normal form of C, a
    matrix with a row per invariant of the group, decides it, and only its
    invariant factors are read, so no transform is built and the orientation
    ``smith_normal_form`` reduces C in does not matter.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    vectors = _chain_vectors(report, degree, candidates)
    n, cols = len(report.labels[degree]), len(vectors)

    differential = {1: report.d1, 2: report.d2}.get(degree)
    for j, vector in enumerate(vectors if differential is not None else ()):
        if any(sum(map(mul, row.values(), map(vector.__getitem__, row))) for row in differential.nonzeros):
            return BasisVerdict(False, f"candidate {j + 1} is not a cycle")

    chains = [dict(compress(enumerate(line), line)) for line in zip(*vectors)] or [{} for _ in range(n)]
    group = report.group(degree)
    image, t = group.coordinates @ IntegerMatrix(n, cols, tuple(chains)), len(group.torsion)
    # the relation d_i on torsion row i is column cols + i
    lines = tuple({**line, cols + i: d} for i, (line, d) in enumerate(zip(image.nonzeros, group.torsion)))
    snf = smith_normal_form(IntegerMatrix(image.rows, cols + t, lines + image.nonzeros[t:]))
    torsion = [d for d in snf.invariant_factors if d > 1]
    free_rank = image.rows - snf.rank
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


def report_doc(report: HomologyReport) -> dict:
    """The report as one document for ``schemas.dumps``; each differential's entries are its ``IntegerMatrix``."""
    return {
        "group": report.group_name,
        "chain_ranks": list(report.chain_ranks),
        "generators": [list(ls) for ls in report.labels],
        "homology": [_group_json(g) for g in report.groups],
        "differentials": {
            "d1": {"rows": report.d1.rows, "cols": report.d1.cols, "entries": report.d1},
            "d2": {"rows": report.d2.rows, "cols": report.d2.cols, "entries": report.d2},
        },
        "invariant_factors": {
            "d1": list(report.invariant_factors_d1),
            "d2": list(report.invariant_factors_d2),
        },
    }


def report_to_json_dict(report: HomologyReport) -> dict:
    """``report_doc`` as plain JSON data: each differential's entries as its list of dense rows."""
    doc = report_doc(report)
    for d in doc["differentials"].values():
        d["entries"] = d["entries"].to_rows()
    return doc


def report_to_json(report: HomologyReport) -> str:
    """``schemas.dumps(report_doc(report))``, the text of ``report_to_json_dict(report)``."""
    from .schemas import dumps

    return dumps(report_doc(report))


def basis_cell(group: HomologyGroup) -> str:
    """One aligned-table cell listing torsion generators first, then free ones."""
    chains = list(group.torsion_basis) + list(group.basis)
    if not chains:
        return "-"
    return " ".join(f"[{format_chain(c)}]" for c in chains)
