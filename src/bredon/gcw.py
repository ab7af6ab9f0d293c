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

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import chartab
from .intlinalg import IntegerMatrix


class InvalidComplexError(ValueError):
    """Raised when an operation requires a complex that fails validation."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class CellOrbit:
    orbit_id: str
    dimension: int
    stabilizer: str
    label: str  # generator label stem, e.g. "alpha_0", "beta_1", "gamma"


@dataclass(frozen=True)
class BoundaryTerm:
    source: str
    target: str
    sign: int
    embedding: str


@dataclass(frozen=True)
class GeneratorLabel:
    cell: str
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class EquivariantComplex:
    group_name: str
    orbits: tuple[CellOrbit, ...]
    boundary: tuple[BoundaryTerm, ...]
    metadata: Any = field(default=None, compare=False)

    def orbits_of_dimension(self, d: int) -> tuple[CellOrbit, ...]:
        return tuple(o for o in self.orbits if o.dimension == d)

    def orbit(self, orbit_id: str) -> CellOrbit:
        for o in self.orbits:
            if o.orbit_id == orbit_id:
                return o
        raise KeyError(f"no orbit {orbit_id!r} in {self.group_name}")


def generator_labels(complex: EquivariantComplex, d: int) -> list[GeneratorLabel]:
    """Chain generators in orbit order, then irreducible order.

    An orbit whose stabilizer has a single irreducible gets its bare label
    stem; otherwise the 1-based irreducible index is appended as ^k.
    """
    labels = []
    for orbit in complex.orbits_of_dimension(d):
        table = chartab.build_table(orbit.stabilizer)
        if table.rank == 1:
            labels.append(GeneratorLabel(orbit.orbit_id, orbit.label))
        else:
            for k in range(1, table.rank + 1):
                labels.append(GeneratorLabel(orbit.orbit_id, f"{orbit.label}^{k}"))
    return labels


def chain_rank(complex: EquivariantComplex, d: int) -> tuple[int, list[GeneratorLabel]]:
    if d not in (0, 1, 2):
        raise ValueError("chain degree must be 0, 1 or 2")
    labels = generator_labels(complex, d)
    return len(labels), labels


def _block_offsets(complex: EquivariantComplex, d: int) -> dict[str, tuple[int, int]]:
    """orbit_id -> (offset, size) inside the degree-d chain group."""
    offsets = {}
    pos = 0
    for orbit in complex.orbits_of_dimension(d):
        size = chartab.build_table(orbit.stabilizer).rank
        offsets[orbit.orbit_id] = (pos, size)
        pos += size
    return offsets


def assemble_differential(complex: EquivariantComplex, d: int) -> IntegerMatrix:
    """The block matrix of the boundary map C_d -> C_{d-1}.

    Each boundary term contributes sign times the induction matrix of its
    embedding; terms between the same orbit pair with opposite signs and
    equal embeddings cancel.
    """
    if d not in (1, 2):
        raise ValueError("differential degree must be 1 or 2")
    src_offsets = _block_offsets(complex, d)
    tgt_offsets = _block_offsets(complex, d - 1)
    nrows = sum(size for _, size in tgt_offsets.values())
    ncols = sum(size for _, size in src_offsets.values())
    data = [[0] * ncols for _ in range(nrows)]
    for term in complex.boundary:
        if term.source not in src_offsets:
            continue
        if term.target not in tgt_offsets:
            raise InvalidComplexError([f"boundary term {term.source}->{term.target} skips a dimension"])
        emb = chartab.get_embedding(term.embedding)
        src_orbit = complex.orbit(term.source)
        tgt_orbit = complex.orbit(term.target)
        if emb.sub != src_orbit.stabilizer or emb.sup != tgt_orbit.stabilizer:
            raise InvalidComplexError(
                [
                    f"embedding {term.embedding} does not match stabilizers "
                    f"{src_orbit.stabilizer} -> {tgt_orbit.stabilizer}"
                ]
            )
        ind = chartab.induction_matrix(emb)
        r0, _ = tgt_offsets[term.target]
        c0, _ = src_offsets[term.source]
        for i in range(ind.rows):
            for j in range(ind.cols):
                data[r0 + i][c0 + j] += term.sign * ind.entry(i, j)
    return IntegerMatrix.from_rows(data, cols=ncols)


def differentials(complex: EquivariantComplex) -> tuple[IntegerMatrix, IntegerMatrix]:
    """(d1, d2), each assembled once; ``InvalidComplexError`` lists the violations."""
    violations: list[str] = []
    seen = set()
    for o in complex.orbits:
        if o.orbit_id in seen:
            violations.append(f"duplicate orbit id {o.orbit_id!r}")
        seen.add(o.orbit_id)
        if o.dimension not in (0, 1, 2):
            violations.append(f"orbit {o.orbit_id}: dimension {o.dimension} out of range")
        if o.stabilizer not in chartab.GROUP_IDS:
            violations.append(f"orbit {o.orbit_id}: unknown stabilizer {o.stabilizer!r}")
    if violations:
        raise InvalidComplexError(violations)

    two_cells = complex.orbits_of_dimension(2)
    if len(two_cells) != 1:
        violations.append(f"expected exactly one orbit of 2-cells, found {len(two_cells)}")

    all_labels = [lab.name for d in (0, 1, 2) for lab in generator_labels(complex, d)]
    if len(set(all_labels)) != len(all_labels):
        violations.append("generator labels are not unique")

    orbit_ids = {o.orbit_id for o in complex.orbits}
    for term in complex.boundary:
        where = f"boundary term {term.source}->{term.target}"
        if term.source not in orbit_ids or term.target not in orbit_ids:
            violations.append(f"{where}: references a missing orbit")
            continue
        src, tgt = complex.orbit(term.source), complex.orbit(term.target)
        if src.dimension != tgt.dimension + 1:
            violations.append(f"{where}: dimensions {src.dimension}->{tgt.dimension} are not consecutive")
            continue
        if term.sign not in (1, -1):
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
    return json.dumps(to_json_dict(complex), indent=2)


def from_json_dict(data: dict, metadata: Any = None) -> EquivariantComplex:
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
        metadata=metadata,
    )
