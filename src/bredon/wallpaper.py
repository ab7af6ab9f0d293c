"""Built-in definitions of the 17 wallpaper groups.

Each group carries a metadata record (point group, split extension or
not, torsion primes, isometry inventory) and an equivariant cell
structure for its action on the plane: one orbit of 2-cells with trivial
stabilizer, orbits of edges and vertices with cyclic or dihedral
stabilizers, and signed boundary terms with explicit stabilizer
embeddings.  The complexes are declarative data so they can be dumped,
diffed and audited; ``gcw.validate`` accepts every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gcw import BoundaryTerm, CellOrbit, EquivariantComplex


@dataclass(frozen=True)
class GroupRecord:
    name: str
    point_group: str
    split: str  # "yes" | "no" | "n/a"
    torsion_primes: frozenset[int]
    has_reflections: bool
    has_glide_reflections: bool
    rotation_orders: frozenset[int]


def _rec(name, point_group, split, torsion, refl, glide, rot) -> GroupRecord:
    return GroupRecord(name, point_group, split, frozenset(torsion), refl, glide, frozenset(rot))


_RECORDS = {
    r.name: r
    for r in [
        _rec("p1", "C1", "n/a", (), False, False, ()),
        _rec("p2", "C2", "yes", (2,), False, False, (2,)),
        _rec("pm", "C2", "yes", (2,), True, False, ()),
        _rec("pg", "C2", "no", (), False, True, ()),
        _rec("cm", "C2", "yes", (2,), True, True, ()),
        _rec("pmm", "D2", "yes", (2,), True, False, (2,)),
        _rec("pmg", "D2", "no", (2,), True, True, (2,)),
        _rec("pgg", "D2", "no", (2,), False, True, (2,)),
        _rec("cmm", "D2", "yes", (2,), True, True, (2,)),
        _rec("p4", "C4", "yes", (2,), False, False, (2, 4)),
        _rec("p4m", "D4", "no", (2,), True, True, (2, 4)),
        _rec("p4g", "D4", "yes", (2,), True, True, (2, 4)),
        _rec("p3", "C3", "yes", (3,), False, False, (3,)),
        _rec("p3m1", "D3", "yes", (2, 3), True, True, (3,)),
        _rec("p31m", "D3", "yes", (2, 3), True, True, (3,)),
        _rec("p6", "C6", "yes", (2, 3), False, False, (2, 3, 6)),
        _rec("p6m", "D6", "yes", (2, 3), True, True, (2, 3, 6)),
    ]
}

# Cell structures: orbits are (id, dim, stabilizer, label stem); boundary
# terms are (source, target, sign, embedding id).  A 2-cell term pair with
# opposite signs on the same edge orbit encodes an edge traversed twice by
# the boundary of the fundamental 2-cell.
_CELLS: dict[str, tuple[list, list]] = {
    "p1": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_1"),
            ("e1^1", 1, "C1", "beta_2"),
            ("e0", 0, "C1", "alpha"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e1^0", "e0", 1, "C1->C1"),
            ("e1^0", "e0", -1, "C1->C1"),
            ("e1^1", "e0", 1, "C1->C1"),
            ("e1^1", "e0", -1, "C1->C1"),
        ],
    ),
    "p2": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C1", "beta_1"),
            ("e1^2", 1, "C1", "beta_2"),
            ("e0^0", 0, "C2", "alpha_0"),
            ("e0^1", 0, "C2", "alpha_1"),
            ("e0^2", 0, "C2", "alpha_2"),
            ("e0^3", 0, "C2", "alpha_3"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^2", 1, "C1->C1"),
            ("e2", "e1^2", -1, "C1->C1"),
            ("e1^0", "e0^1", 1, "C1->C2"),
            ("e1^0", "e0^0", -1, "C1->C2"),
            ("e1^1", "e0^2", 1, "C1->C2"),
            ("e1^1", "e0^1", -1, "C1->C2"),
            ("e1^2", "e0^3", 1, "C1->C2"),
            ("e1^2", "e0^0", -1, "C1->C2"),
        ],
    ),
    "pm": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C2", "beta_2"),
            ("e0^0", 0, "C2", "alpha_0"),
            ("e0^1", 0, "C2", "alpha_1"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^2", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C1->C2"),
            ("e1^0", "e0^0", -1, "C1->C2"),
            ("e1^1", "e0^1", 1, "C2->C2"),
            ("e1^1", "e0^1", -1, "C2->C2"),
            ("e1^2", "e0^0", 1, "C2->C2"),
            ("e1^2", "e0^0", -1, "C2->C2"),
        ],
    ),
    "pg": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C1", "beta_1"),
            ("e0", 0, "C1", "alpha"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e1^0", "e0", 1, "C1->C1"),
            ("e1^0", "e0", -1, "C1->C1"),
            ("e1^1", "e0", 1, "C1->C1"),
            ("e1^1", "e0", -1, "C1->C1"),
        ],
    ),
    "cm": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e0", 0, "C2", "alpha"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e1^0", "e0", 1, "C1->C2"),
            ("e1^0", "e0", -1, "C1->C2"),
            ("e1^1", "e0", 1, "C2->C2"),
            ("e1^1", "e0", -1, "C2->C2"),
        ],
    ),
    "pmm": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C2", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C2", "beta_2"),
            ("e1^3", 1, "C2", "beta_3"),
            ("e0^0", 0, "D2", "alpha_0"),
            ("e0^1", 0, "D2", "alpha_1"),
            ("e0^2", 0, "D2", "alpha_2"),
            ("e0^3", 0, "D2", "alpha_3"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C2"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^2", 1, "C1->C2"),
            ("e2", "e1^3", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C2->D2[a]"),
            ("e1^0", "e0^0", -1, "C2->D2[a]"),
            ("e1^1", "e0^2", 1, "C2->D2[a]"),
            ("e1^1", "e0^1", -1, "C2->D2[b]"),
            ("e1^2", "e0^3", 1, "C2->D2[a]"),
            ("e1^2", "e0^2", -1, "C2->D2[b]"),
            ("e1^3", "e0^0", 1, "C2->D2[b]"),
            ("e1^3", "e0^3", -1, "C2->D2[b]"),
        ],
    ),
    "pmg": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C2", "beta_2"),
            ("e1^3", 1, "C1", "beta_3"),
            ("e0^0", 0, "C2", "alpha_0"),
            ("e0^1", 0, "C2", "alpha_1"),
            ("e0^2", 0, "C2", "alpha_2"),
            ("e0^3", 0, "C2", "alpha_3"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^2", 1, "C1->C2"),
            ("e2", "e1^3", 1, "C1->C1"),
            ("e2", "e1^3", -1, "C1->C1"),
            ("e1^0", "e0^1", 1, "C1->C2"),
            ("e1^0", "e0^0", -1, "C1->C2"),
            ("e1^1", "e0^2", 1, "C2->C2"),
            ("e1^1", "e0^0", -1, "C2->C2"),
            ("e1^2", "e0^0", 1, "C2->C2"),
            ("e1^2", "e0^2", -1, "C2->C2"),
            ("e1^3", "e0^3", 1, "C1->C2"),
            ("e1^3", "e0^2", -1, "C1->C2"),
        ],
    ),
    "pgg": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C1", "beta_1"),
            ("e0^0", 0, "C2", "alpha_0"),
            ("e0^1", 0, "C2", "alpha_1"),
        ],
        [
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^0", 1, "C1->C1"),
            ("e1^0", "e0^0", 1, "C1->C2"),
            ("e1^0", "e0^0", -1, "C1->C2"),
            ("e1^1", "e0^1", 1, "C1->C2"),
            ("e1^1", "e0^0", -1, "C1->C2"),
        ],
    ),
    "cmm": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C2", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C1", "beta_2"),
            ("e0^0", 0, "D2", "alpha_0"),
            ("e0^1", 0, "D2", "alpha_1"),
            ("e0^2", 0, "C2", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C2"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^2", 1, "C1->C1"),
            ("e2", "e1^2", -1, "C1->C1"),
            ("e1^0", "e0^1", 1, "C2->D2[a]"),
            ("e1^0", "e0^0", -1, "C2->D2[a]"),
            ("e1^1", "e0^0", 1, "C2->D2[b]"),
            ("e1^1", "e0^1", -1, "C2->D2[b]"),
            ("e1^2", "e0^2", 1, "C1->C2"),
            ("e1^2", "e0^0", -1, "C1->D2"),
        ],
    ),
    "p4": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C1", "beta_1"),
            ("e0^0", 0, "C4", "alpha_0"),
            ("e0^1", 0, "C2", "alpha_1"),
            ("e0^2", 0, "C4", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e1^0", "e0^1", 1, "C1->C2"),
            ("e1^0", "e0^0", -1, "C1->C4"),
            ("e1^1", "e0^2", 1, "C1->C4"),
            ("e1^1", "e0^1", -1, "C1->C2"),
        ],
    ),
    "p4m": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C2", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C2", "beta_2"),
            ("e0^0", 0, "D4", "alpha_0"),
            ("e0^1", 0, "D4", "alpha_1"),
            ("e0^2", 0, "D2", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C2"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^2", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C2->D4[C2^2]"),
            ("e1^0", "e0^0", -1, "C2->D4[C2^2]"),
            ("e1^1", "e0^2", 1, "C2->D2[a]"),
            ("e1^1", "e0^1", -1, "C2->D4[C2^3]"),
            ("e1^2", "e0^0", 1, "C2->D4[C2^3]"),
            ("e1^2", "e0^2", -1, "C2->D2[b]"),
        ],
    ),
    "p4g": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e0^0", 0, "D2", "alpha_0"),
            ("e0^1", 0, "C4", "alpha_1"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C1->C4"),
            ("e1^0", "e0^0", -1, "C1->D2"),
            ("e1^1", "e0^0", 1, "C2->D2[a]"),
            ("e1^1", "e0^0", -1, "C2->D2[b]"),
        ],
    ),
    "p3": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C1", "beta_1"),
            ("e0^0", 0, "C3", "alpha_0"),
            ("e0^1", 0, "C3", "alpha_1"),
            ("e0^2", 0, "C3", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e1^0", "e0^1", 1, "C1->C3"),
            ("e1^0", "e0^0", -1, "C1->C3"),
            ("e1^1", "e0^2", 1, "C1->C3"),
            ("e1^1", "e0^1", -1, "C1->C3"),
        ],
    ),
    "p3m1": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C2", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C2", "beta_2"),
            ("e0^0", 0, "D3", "alpha_0"),
            ("e0^1", 0, "D3", "alpha_1"),
            ("e0^2", 0, "D3", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C2"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^2", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C2->D3"),
            ("e1^0", "e0^0", -1, "C2->D3"),
            ("e1^1", "e0^2", 1, "C2->D3"),
            ("e1^1", "e0^1", -1, "C2->D3"),
            ("e1^2", "e0^0", 1, "C2->D3"),
            ("e1^2", "e0^2", -1, "C2->D3"),
        ],
    ),
    "p31m": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e0^0", 0, "D3", "alpha_0"),
            ("e0^1", 0, "C3", "alpha_1"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C1->C3"),
            ("e1^0", "e0^0", -1, "C1->D3"),
            ("e1^1", "e0^0", 1, "C2->D3"),
            ("e1^1", "e0^0", -1, "C2->D3"),
        ],
    ),
    "p6": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C1", "beta_0"),
            ("e1^1", 1, "C1", "beta_1"),
            ("e0^0", 0, "C6", "alpha_0"),
            ("e0^1", 0, "C3", "alpha_1"),
            ("e0^2", 0, "C2", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C1"),
            ("e2", "e1^0", -1, "C1->C1"),
            ("e2", "e1^1", 1, "C1->C1"),
            ("e2", "e1^1", -1, "C1->C1"),
            ("e1^0", "e0^1", 1, "C1->C3"),
            ("e1^0", "e0^0", -1, "C1->C6"),
            ("e1^1", "e0^2", 1, "C1->C2"),
            ("e1^1", "e0^0", -1, "C1->C6"),
        ],
    ),
    "p6m": (
        [
            ("e2", 2, "C1", "gamma"),
            ("e1^0", 1, "C2", "beta_0"),
            ("e1^1", 1, "C2", "beta_1"),
            ("e1^2", 1, "C2", "beta_2"),
            ("e0^0", 0, "D6", "alpha_0"),
            ("e0^1", 0, "D3", "alpha_1"),
            ("e0^2", 0, "D2", "alpha_2"),
        ],
        [
            ("e2", "e1^0", 1, "C1->C2"),
            ("e2", "e1^1", 1, "C1->C2"),
            ("e2", "e1^2", 1, "C1->C2"),
            ("e1^0", "e0^1", 1, "C2->D3"),
            ("e1^0", "e0^0", -1, "C2->D6[C2^2]"),
            ("e1^1", "e0^2", 1, "C2->D2[a]"),
            ("e1^1", "e0^1", -1, "C2->D3"),
            ("e1^2", "e0^0", 1, "C2->D6[C2^3]"),
            ("e1^2", "e0^2", -1, "C2->D2[b]"),
        ],
    ),
}


class UnknownGroupError(KeyError):
    pass


def list_groups() -> list[str]:
    """The 17 group names in their conventional order."""
    return list(_RECORDS)


@lru_cache(maxsize=None)
def get_group(name: str) -> tuple[EquivariantComplex, GroupRecord]:
    if name not in _CELLS:
        raise UnknownGroupError(name)
    record = _RECORDS[name]
    orbit_data, boundary_data = _CELLS[name]
    complex = EquivariantComplex(
        group_name=name,
        orbits=tuple(CellOrbit(*o) for o in orbit_data),
        boundary=tuple(BoundaryTerm(*t) for t in boundary_data),
        metadata=record,
    )
    return complex, record


def get_record(name: str) -> GroupRecord:
    if name not in _RECORDS:
        raise UnknownGroupError(name)
    return _RECORDS[name]
