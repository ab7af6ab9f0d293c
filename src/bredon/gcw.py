"""Two-dimensional equivariant cell structures and their chain differentials.

A complex is purely combinatorial data: orbits of cells carrying a
stabilizer group, and signed boundary terms each carrying the class-level
embedding of the source stabilizer into the target stabilizer.  The
degree-d chain group is the direct sum of the representation rings of the
d-cell stabilizers; the differential assembles blockwise from signed
induction matrices.  Generator labels follow the alpha/beta/gamma naming
of the cell dimension, with the irreducible index as superscript.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from . import chartab
from .intlinalg import IntegerMatrix


class InvalidComplexError(ValueError):
    """Raised when an operation requires a complex that fails validation."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class CellOrbit:
    """An orbit of cells of one dimension, with its stabilizer and generator label stem."""

    orbit_id: str
    dimension: int
    stabilizer: str
    label: str  # generator label stem, e.g. "alpha_0", "beta_1", "gamma"


@dataclass(frozen=True)
class BoundaryTerm:
    """A signed boundary term from a source orbit to a target orbit along an embedding."""

    source: str
    target: str
    sign: int
    embedding: str


@dataclass(frozen=True)
class GeneratorLabel:
    """One generator of a chain group: its orbit id and its printed name."""

    cell: str
    name: str

    def __str__(self) -> str:
        return self.name


ChainLayout = namedtuple("ChainLayout", ("orbits", "labels", "offsets"))
ChainLayout.__doc__ = """Orbits by id; per degree d, the generators and the offset of each orbit's block."""


@dataclass(frozen=True)
class EquivariantComplex:
    """Cell orbits and boundary terms of a 2-dimensional equivariant complex."""

    group_name: str
    orbits: tuple[CellOrbit, ...]
    boundary: tuple[BoundaryTerm, ...]

    def orbits_of_dimension(self, d: int) -> tuple[CellOrbit, ...]:
        return tuple(o for o in self.orbits if o.dimension == d)

    @cached_property
    def layout(self) -> ChainLayout:
        """The chain layout, derived once per complex on first read.

        Generators come in orbit order, then irreducible order.  An orbit
        whose stabilizer has a single irreducible gets its bare label stem;
        otherwise the 1-based irreducible index is appended as ^k.  Orbits
        whose dimension is not an ``int`` in 0..2 belong to no chain group.
        """
        labels: tuple[list[GeneratorLabel], ...] = ([], [], [])
        offsets: tuple[dict[str, int], ...] = ({}, {}, {})
        for orbit in self.orbits:
            d = orbit.dimension
            if type(d) is not int or d not in (0, 1, 2):
                continue
            rank = chartab.build_table(orbit.stabilizer).rank
            offsets[d][orbit.orbit_id] = len(labels[d])
            names = [orbit.label] if rank == 1 else [f"{orbit.label}^{k}" for k in range(1, rank + 1)]
            labels[d].extend(GeneratorLabel(orbit.orbit_id, name) for name in names)
        return ChainLayout({o.orbit_id: o for o in self.orbits}, tuple(map(tuple, labels)), offsets)


def chain_rank(complex: EquivariantComplex, d: int) -> tuple[int, list[GeneratorLabel]]:
    """The rank of the degree-d chain group and its generators (see ``ChainLayout``)."""
    if d not in (0, 1, 2):
        raise ValueError("chain degree must be 0, 1 or 2")
    labels = complex.layout.labels[d]
    return len(labels), list(labels)


def assemble_differential(complex: EquivariantComplex, d: int) -> IntegerMatrix:
    """The block matrix of the boundary map C_d -> C_{d-1}.

    Each boundary term adds sign times the nonzeros of the induction matrix
    of its embedding to the rows of its block, so assembly costs only those
    nonzeros; terms that cancel (same orbit pair and embedding, opposite
    signs) leave no entry.
    """
    if d not in (1, 2):
        raise ValueError("differential degree must be 1 or 2")
    layout = complex.layout
    src_offsets, tgt_offsets = layout.offsets[d], layout.offsets[d - 1]
    nrows, ncols = len(layout.labels[d - 1]), len(layout.labels[d])
    data: list[dict[int, int]] = [{} for _ in range(nrows)]
    blocks: dict[str, tuple] = {}  # embedding id: its (sub, sup) and the (i, j, value) nonzeros of its induction
    for term in complex.boundary:
        if term.source not in src_offsets:
            continue
        if term.target not in tgt_offsets:
            raise InvalidComplexError([f"boundary term {term.source}->{term.target} skips a dimension"])
        if (block := blocks.get(term.embedding)) is None:
            emb = chartab.get_embedding(term.embedding)
            ind = enumerate(chartab.induction_matrix(emb).nonzeros)
            block = blocks[term.embedding] = (emb.sub, emb.sup), [(i, j, v) for i, r in ind for j, v in r.items()]
        stabilizers = layout.orbits[term.source].stabilizer, layout.orbits[term.target].stabilizer
        if block[0] != stabilizers:
            raise InvalidComplexError([f"embedding {term.embedding} does not match stabilizers {' -> '.join(stabilizers)}"])
        r0, c0, sign = tgt_offsets[term.target], src_offsets[term.source], term.sign
        for i, j, v in block[1]:
            target = data[r0 + i]
            if x := target.get(c0 + j, 0) + sign * v:
                target[c0 + j] = x
            else:
                del target[c0 + j]
    return IntegerMatrix(nrows, ncols, tuple(data))


def differentials(complex: EquivariantComplex) -> tuple[IntegerMatrix, IntegerMatrix]:
    """(d1, d2), each assembled once; ``InvalidComplexError`` lists the violations."""
    violations: list[str] = []
    seen = set()
    for o in complex.orbits:
        if o.orbit_id in seen:
            violations.append(f"duplicate orbit id {o.orbit_id!r}")
        seen.add(o.orbit_id)
        if type(o.dimension) is not int or o.dimension not in (0, 1, 2):
            violations.append(f"orbit {o.orbit_id}: dimension {o.dimension} out of range")
        if o.stabilizer not in chartab.GROUP_IDS:
            violations.append(f"orbit {o.orbit_id}: unknown stabilizer {o.stabilizer!r}")
    if violations:
        raise InvalidComplexError(violations)

    # Orbit ids are unique and every stabilizer is known from here on.
    layout = complex.layout
    if len(layout.offsets[2]) != 1:
        violations.append(f"expected exactly one orbit of 2-cells, found {len(layout.offsets[2])}")

    all_labels = [lab.name for labels in layout.labels for lab in labels]
    if len(set(all_labels)) != len(all_labels):
        violations.append("generator labels are not unique")

    for term in complex.boundary:
        where = f"boundary term {term.source}->{term.target}"
        if term.source not in layout.orbits or term.target not in layout.orbits:
            violations.append(f"{where}: references a missing orbit")
            continue
        src, tgt = layout.orbits[term.source], layout.orbits[term.target]
        if src.dimension != tgt.dimension + 1:
            violations.append(f"{where}: dimensions {src.dimension}->{tgt.dimension} are not consecutive")
            continue
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
    if violations:
        raise InvalidComplexError(violations)

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
