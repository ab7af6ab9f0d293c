"""Two-dimensional equivariant cell structures and their chain differentials.

A complex is purely combinatorial data: orbits of cells carrying a
stabilizer group, and signed boundary terms each carrying the class-level
embedding of the source stabilizer into the target stabilizer.  The
degree-d chain group is the direct sum of the representation rings of the
d-cell stabilizers; the differential assembles blockwise from signed
induction matrices.  Generator labels follow the alpha/beta/gamma naming
of the cell dimension, with the irreducible index as superscript.  A complex
is checked once, in the pass that derives its chain layout; assembly reads
only the terms that pass kept, and refuses a complex with any violation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

from . import chartab
from .intlinalg import IntegerMatrix


class InvalidComplexError(ValueError):
    """Raised when an operation requires a complex that fails validation."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class CellOrbit(namedtuple("CellOrbit", "orbit_id dimension stabilizer label")):
    """An orbit of cells of one dimension, with its stabilizer and generator
    label stem (e.g. "alpha_0", "beta_1", "gamma")."""

    __slots__ = ()


class BoundaryTerm(namedtuple("BoundaryTerm", "source target sign embedding")):
    """A signed boundary term from a source orbit to a target orbit along an embedding id."""

    __slots__ = ()


class ChainLayout(namedtuple("ChainLayout", "labels offsets terms violations")):
    """Per degree d: generator names, each orbit's block offset and the valid terms out of C_d as
    (row offset, column offset, sign, embedding); then every violation, as human-readable strings."""

    __slots__ = ()


class EquivariantComplex(namedtuple("EquivariantComplex", "group_name orbits boundary")):
    """Cell orbits and boundary terms of a 2-dimensional equivariant complex.

    Unlike the other records it keeps a ``__dict__``, where ``layout`` is
    cached; ``_replace`` returns a copy whose layout is not yet read."""

    def orbits_of_dimension(self, d: int) -> tuple[CellOrbit, ...]:
        return tuple(o for o in self.orbits if o.dimension == d)

    @cached_property
    def layout(self) -> ChainLayout:
        """The chain layout and every check of the complex, in one pass on first read.

        Generators come in orbit order, then irreducible order; a stabilizer
        with one irreducible gives the bare label stem, else ^k is appended
        (1-based).  An orbit whose dimension is not an ``int`` in 0..2, or
        whose stabilizer is unknown, belongs to no chain group; any orbit
        violation ends the pass before the terms are checked.  Only d1·d2 = 0
        is left to ``differentials``.
        """
        labels: tuple[list[str], ...] = ([], [], [])
        offsets: tuple[dict[str, int], ...] = ({}, {}, {})
        terms: tuple[list[tuple], ...] = ([], [], [])
        violations: list[str] = []
        orbits: dict[str, CellOrbit] = {}
        for orbit in self.orbits:
            d = orbit.dimension
            if orbit.orbit_id in orbits:
                violations.append(f"duplicate orbit id {orbit.orbit_id!r}")
            orbits[orbit.orbit_id] = orbit
            if not (in_range := type(d) is int and d in (0, 1, 2)):
                violations.append(f"orbit {orbit.orbit_id}: dimension {d} out of range")
            if orbit.stabilizer not in chartab.GROUP_IDS:
                violations.append(f"orbit {orbit.orbit_id}: unknown stabilizer {orbit.stabilizer!r}")
            elif in_range:
                rank = chartab.build_table(orbit.stabilizer).rank
                offsets[d][orbit.orbit_id] = len(labels[d])
                labels[d].extend([orbit.label] if rank == 1 else [f"{orbit.label}^{k}" for k in range(1, rank + 1)])
        layout = ChainLayout(tuple(map(tuple, labels)), offsets, terms, violations)  # terms and violations fill in below
        if violations:
            return layout

        # Orbit ids are unique and every stabilizer is known from here on.
        if len(offsets[2]) != 1:
            violations.append(f"expected exactly one orbit of 2-cells, found {len(offsets[2])}")
        if len(set(names := [name for degree in labels for name in degree])) != len(names):
            violations.append("generator labels are not unique")
        for term in self.boundary:
            where = f"boundary term {term.source}->{term.target}"
            if (src := orbits.get(term.source)) is None or (tgt := orbits.get(term.target)) is None:
                violations.append(f"{where}: references a missing orbit")
                continue
            if src.dimension != tgt.dimension + 1:
                violations.append(f"{where}: dimensions {src.dimension}->{tgt.dimension} are not consecutive")
                continue
            found = len(violations)
            if type(term.sign) is not int or term.sign not in (1, -1):
                violations.append(f"{where}: sign must be +1 or -1")
            try:
                emb = chartab.get_embedding(term.embedding)
            except chartab.CharacterTableError:
                violations.append(f"{where}: unknown embedding {term.embedding!r}")
                continue
            if emb.sub != src.stabilizer:
                violations.append(f"{where}: embedding {term.embedding} has sub {emb.sub}, stabilizer is {src.stabilizer}")
            if emb.sup != tgt.stabilizer:
                violations.append(f"{where}: embedding {term.embedding} has sup {emb.sup}, stabilizer is {tgt.stabilizer}")
            if len(violations) == found:
                d = src.dimension
                terms[d].append((offsets[d - 1][term.target], offsets[d][term.source], term.sign, emb))
        return layout


def chain_rank(complex: EquivariantComplex, d: int) -> tuple[int, list[str]]:
    """The rank of the degree-d chain group and its generator names (see ``ChainLayout``)."""
    if d not in (0, 1, 2):
        raise ValueError("chain degree must be 0, 1 or 2")
    return len(complex.layout.labels[d]), list(complex.layout.labels[d])


def assemble_differential(complex: EquivariantComplex, d: int) -> IntegerMatrix:
    """The block matrix of the boundary map C_d -> C_{d-1}, read off the layout's valid terms.

    ``InvalidComplexError`` lists the layout's violations, if any.  Each term
    adds sign times the nonzeros of its embedding's induction matrix to the
    rows of its block; terms that cancel (same orbit pair and embedding,
    opposite signs) leave no entry.
    """
    if d not in (1, 2):
        raise ValueError("differential degree must be 1 or 2")
    layout = complex.layout
    if layout.violations:
        raise InvalidComplexError(layout.violations)
    data: list[dict[int, int]] = [{} for _ in layout.labels[d - 1]]
    for r0, c0, sign, emb in layout.terms[d]:
        for i, row in enumerate(chartab.induction_matrix(emb).nonzeros):
            target = data[r0 + i]
            for j, v in row.items():
                if x := target.get(c0 + j, 0) + sign * v:
                    target[c0 + j] = x
                else:
                    del target[c0 + j]
    return IntegerMatrix(len(data), len(layout.labels[d]), tuple(data))


def differentials(complex: EquivariantComplex) -> tuple[IntegerMatrix, IntegerMatrix]:
    """(d1, d2), each assembled once; ``InvalidComplexError`` lists the violations."""
    d1 = assemble_differential(complex, 1)
    d2 = assemble_differential(complex, 2)
    if not (d1 @ d2).is_zero():
        raise InvalidComplexError(["differentials do not compose to zero"])
    return d1, d2


def validate(complex: EquivariantComplex) -> list[str]:
    """All structural violations, as human-readable strings; empty when valid."""
    try:
        differentials(complex)
    except InvalidComplexError as exc:
        return exc.violations
    return []


# ---------------------------------------------------------------------------
# JSON serialization (the format is checked by bredon.schemas.check)


def to_json_dict(complex: EquivariantComplex) -> dict:
    return {
        "group": complex.group_name,
        "orbits": [
            {"id": o.orbit_id, "dim": o.dimension, "stabilizer": o.stabilizer, "label": o.label}
            for o in complex.orbits
        ],
        "boundary": [
            {"source": t.source, "target": t.target, "sign": t.sign, "embedding": t.embedding}
            for t in complex.boundary
        ],
    }


def to_json(complex: EquivariantComplex) -> str:
    from .schemas import dumps

    return dumps(to_json_dict(complex))


def from_json_dict(data: dict) -> EquivariantComplex:
    from . import schemas

    schemas.check(data, "complex")
    return EquivariantComplex(
        group_name=data["group"],
        orbits=tuple(
            CellOrbit(o["id"], o["dim"], o["stabilizer"], o["label"]) for o in data["orbits"]
        ),
        boundary=tuple(
            BoundaryTerm(t["source"], t["target"], t["sign"], t["embedding"]) for t in data["boundary"]
        ),
    )
