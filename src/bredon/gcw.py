"""Two-dimensional equivariant cell structures and their chain differentials.

A complex is purely combinatorial data: orbits of cells, any number in each
dimension, carrying a stabilizer group, and signed boundary terms each
carrying the class-level embedding of the source stabilizer into the target
stabilizer.  The degree-d chain group is the direct sum of the representation
rings of the d-cell stabilizers; the differential assembles blockwise from
signed induction matrices.  Generator labels follow the alpha/beta/gamma
naming of the cell dimension, with the irreducible index as superscript.  A
complex is checked and its differentials assembled once, in the pass that
derives its chain layout; ``differentials`` and ``validate`` only read that
layout, and ``differentials`` refuses a complex with any violation.
``homology.compute_homology`` keeps the report beside it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import repeat
from operator import itemgetter

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


class ChainLayout(namedtuple("ChainLayout", "labels differentials violations")):
    """The generator names of each degree; then (d1, d2), assembled from the valid terms and
    ``None`` when an orbit violation ends the pass before them; then every violation, as
    human-readable strings."""

    __slots__ = ()


class EquivariantComplex(namedtuple("EquivariantComplex", "group_name orbits boundary")):
    """Cell orbits and boundary terms of a 2-dimensional equivariant complex.

    Unlike the other records it keeps a ``__dict__``, where ``layout``, with
    the differentials, and the homology report are cached; ``_replace``
    returns a copy with neither."""

    def orbits_of_dimension(self, d: int) -> tuple[CellOrbit, ...]:
        return tuple(o for o in self.orbits if o.dimension == d)

    @cached_property
    def layout(self) -> ChainLayout:
        """The chain layout, the differentials and every check of the complex, in one pass on first read.

        Generators come in orbit order, then irreducible order; a stabilizer
        with one irreducible gives the bare label stem, else ^k is appended
        (1-based).  An orbit whose dimension is not an ``int`` in 0..2, or
        whose stabilizer is unknown, belongs to no chain group; any orbit
        violation ends the pass before the terms are checked.  Each known
        embedding id is looked up once, with its induction matrix, and each term
        reports its own violations.  Each valid term adds sign times the nonzeros
        of that matrix to the rows of its block; terms that cancel (same orbit pair
        and embedding, opposite signs) leave no entry.  Where no other check fails,
        the last is d1·d2 = 0.
        """
        labels: tuple[list[str], ...] = ([], [], [])
        offsets: tuple[dict[str, int], ...] = ({}, {}, {})
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
        labels = tuple(map(tuple, labels))
        if violations:
            return ChainLayout(labels, None, violations)

        # Orbit ids are unique and every stabilizer is known from here on.
        if len(set(names := [name for degree in labels for name in degree])) != len(names):
            violations.append("generator labels are not unique")
        # data[d]: the rows of d_d, one per generator of C_{d-1}
        data: tuple[list[dict[int, int]], ...] = ([], [{} for _ in labels[0]], [{} for _ in labels[1]])
        induced: dict = {}  # embedding id -> (embedding, its induction matrix's nonzero rows); known ids only
        where = "boundary term {0.source}->{0.target}: {1}".format  # formatted only for a violation
        for term in self.boundary:
            if (src := orbits.get(term.source)) is None or (tgt := orbits.get(term.target)) is None:
                violations.append(where(term, "references a missing orbit"))
                continue
            if src.dimension != tgt.dimension + 1:
                violations.append(where(term, f"dimensions {src.dimension}->{tgt.dimension} are not consecutive"))
                continue
            found = len(violations)
            if type(term.sign) is not int or term.sign not in (1, -1):
                violations.append(where(term, "sign must be +1 or -1"))
            if (emb_rows := induced.get(term.embedding)) is None:
                try:
                    emb = chartab.get_embedding(term.embedding)
                except chartab.CharacterTableError:
                    violations.append(where(term, f"unknown embedding {term.embedding!r}"))
                    continue
                emb_rows = induced[term.embedding] = (emb, chartab.induction_matrix(emb).nonzeros)
            emb, induction = emb_rows
            if emb.sub != src.stabilizer:
                violations.append(where(term, f"embedding {term.embedding} has sub {emb.sub}, stabilizer is {src.stabilizer}"))
            if emb.sup != tgt.stabilizer:
                violations.append(where(term, f"embedding {term.embedding} has sup {emb.sup}, stabilizer is {tgt.stabilizer}"))
            if len(violations) == found:
                d, sign = src.dimension, term.sign
                rows, c0 = data[d], offsets[d][term.source]
                for i, row in enumerate(induction, offsets[d - 1][term.target]):
                    target = rows[i]
                    for j, v in row.items():
                        if x := target.get(c0 + j, 0) + sign * v:
                            target[c0 + j] = x
                        else:
                            del target[c0 + j]
        d1, d2 = (IntegerMatrix(len(labels[d - 1]), len(labels[d]), tuple(data[d])) for d in (1, 2))
        if not violations and not (d1 @ d2).is_zero():
            violations.append("differentials do not compose to zero")
        return ChainLayout(labels, (d1, d2), violations)


def differentials(complex: EquivariantComplex) -> tuple[IntegerMatrix, IntegerMatrix]:
    """(d1, d2), as the layout assembled them; ``InvalidComplexError`` lists the violations."""
    if (layout := complex.layout).violations:
        raise InvalidComplexError(layout.violations)
    return layout.differentials


def validate(complex: EquivariantComplex) -> list[str]:
    """All structural violations of the layout, as human-readable strings; empty when valid."""
    return list(complex.layout.violations)


# ---------------------------------------------------------------------------
# JSON serialization (the format is checked by bredon.schemas.check)

#: The JSON keys of an orbit, in ``CellOrbit`` field order; a term's keys are ``BoundaryTerm._fields``.
#: ``schemas`` declares the complex format from both.
_ORBIT_KEYS = ("id", "dim", "stabilizer", "label")


def to_json_dict(complex: EquivariantComplex) -> dict:
    return {
        "group": complex.group_name,
        "orbits": [dict(zip(_ORBIT_KEYS, o)) for o in complex.orbits],
        "boundary": [dict(zip(BoundaryTerm._fields, t)) for t in complex.boundary],
    }


def to_json(complex: EquivariantComplex) -> str:
    from .schemas import dumps

    return dumps(to_json_dict(complex))


def from_json_dict(data: dict) -> EquivariantComplex:
    from . import schemas

    schemas.check(data, "complex")
    # one C-level pass per list: ``tuple.__new__`` is what ``_make`` calls, less its length check (always 4 here)
    orbits = map(itemgetter(*_ORBIT_KEYS), data["orbits"])
    terms = map(itemgetter(*BoundaryTerm._fields), data["boundary"])
    return EquivariantComplex(
        data["group"],
        tuple(map(tuple.__new__, repeat(CellOrbit), orbits)),
        tuple(map(tuple.__new__, repeat(BoundaryTerm), terms)),
    )
