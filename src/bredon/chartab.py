"""Character theory of the stabilizer groups.

The nine groups that occur as cell stabilizers (C1, C2, C3, C4, C6, D2,
D3, D4, D6) are small and fixed, so their conjugacy classes and character
tables are embedded as literal data and validated at load time by exact
row orthogonality.  All character values lie in Z[zeta_12], so the inner
product sums with ``int`` coefficients and divides by |G| once, at the end.
Restriction along a subgroup embedding is computed by pulling class values
back through the embedding's class map; induction is its adjoint under the
character inner product (Frobenius reciprocity), so its matrix is the
transpose of the restriction matrix.  Induction matrices are memoised per
embedding: each is computed on first use, once per process.

Conventions (fixed so that all matrices are reproducible):

* classes are ordered by increasing element order, then label;
* irreducibles are ordered trivial first, then the remaining degree-1
  characters, then the degree-2 characters (``phi`` names);
* in D4 and D6 the involution classes are labelled ``C2^1`` for the
  central rotation, ``C2^2`` for the reflection class containing the
  reference reflection, and ``C2^3`` for the other reflection class.

Embeddings are conjugacy-class-level data only: a map of classes is all
that restriction and induction of characters depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .cyclotomic import Cyclotomic, I, OMEGA3, OMEGA6
from .intlinalg import IntegerMatrix

GROUP_ORDERS = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6, "D2": 4, "D3": 6, "D4": 8, "D6": 12}


class CharacterTableError(ValueError):
    """A table or embedding fails its structural checks."""


@dataclass(frozen=True)
class ConjugacyClass:
    label: str
    size: int
    element_order: int


@dataclass(frozen=True)
class Irreducible:
    name: str
    values: tuple[Cyclotomic, ...]

    @property
    def degree(self) -> int:
        return int(self.values[0].as_rational())


@dataclass(frozen=True)
class CharacterTable:
    """Full complex character table of one stabilizer group."""

    group_id: str
    order: int
    classes: tuple[ConjugacyClass, ...]
    irreducibles: tuple[Irreducible, ...]

    def class_index(self, label: str) -> int:
        for i, c in enumerate(self.classes):
            if c.label == label:
                return i
        raise KeyError(f"{self.group_id} has no class {label!r}")

    def irreducible_names(self) -> tuple[str, ...]:
        return tuple(chi.name for chi in self.irreducibles)

    @property
    def rank(self) -> int:
        return len(self.irreducibles)


@dataclass(frozen=True)
class SubgroupEmbedding:
    """A class-level embedding H -> K: a total map on conjugacy classes."""

    embedding_id: str
    sub: str
    sup: str
    class_map: tuple[tuple[str, str], ...]

    def mapped(self, h_label: str) -> str:
        for a, b in self.class_map:
            if a == h_label:
                return b
        raise KeyError(f"embedding {self.embedding_id} does not map class {h_label!r}")

    @property
    def index(self) -> int:
        return GROUP_ORDERS[self.sup] // GROUP_ORDERS[self.sub]


def _cy(v) -> Cyclotomic:
    return v if isinstance(v, Cyclotomic) else Cyclotomic.of(v)


_W3 = OMEGA3
_W3_2 = OMEGA3 * OMEGA3
_W6 = OMEGA6
_W6_2 = OMEGA6 * OMEGA6
_W6_4 = _W6_2 * _W6_2
_W6_5 = _W6_4 * OMEGA6

# classes: (label, size, element order); irreducibles: (name, values by class).
_TABLE_DATA: dict[str, tuple[list[tuple[str, int, int]], list[tuple[str, list]]]] = {
    "C1": (
        [("e", 1, 1)],
        [("chi_1", [1])],
    ),
    "C2": (
        [("e", 1, 1), ("z", 1, 2)],
        [("chi_1", [1, 1]), ("chi_2", [1, -1])],
    ),
    "C3": (
        [("e", 1, 1), ("r", 1, 3), ("r2", 1, 3)],
        [
            ("chi_1", [1, 1, 1]),
            ("chi_2", [1, _W3, _W3_2]),
            ("chi_3", [1, _W3_2, _W3]),
        ],
    ),
    "C4": (
        [("e", 1, 1), ("r2", 1, 2), ("r", 1, 4), ("r3", 1, 4)],
        [
            ("chi_1", [1, 1, 1, 1]),
            ("chi_2", [1, -1, I, -I]),
            ("chi_3", [1, 1, -1, -1]),
            ("chi_4", [1, -1, -I, I]),
        ],
    ),
    "C6": (
        [("e", 1, 1), ("r3", 1, 2), ("r2", 1, 3), ("r4", 1, 3), ("r", 1, 6), ("r5", 1, 6)],
        [
            ("chi_1", [1, 1, 1, 1, 1, 1]),
            ("chi_2", [1, -1, _W6_2, _W6_4, _W6, _W6_5]),
            ("chi_3", [1, 1, _W6_4, _W6_2, _W6_2, _W6_4]),
            ("chi_4", [1, -1, 1, 1, -1, -1]),
            ("chi_5", [1, 1, _W6_2, _W6_4, _W6_4, _W6_2]),
            ("chi_6", [1, -1, _W6_4, _W6_2, _W6_5, _W6]),
        ],
    ),
    "D2": (
        [("e", 1, 1), ("a", 1, 2), ("b", 1, 2), ("c", 1, 2)],
        [
            ("chi_1", [1, 1, 1, 1]),
            ("chi_2", [1, 1, -1, -1]),
            ("chi_3", [1, -1, 1, -1]),
            ("chi_4", [1, -1, -1, 1]),
        ],
    ),
    "D3": (
        [("e", 1, 1), ("s", 3, 2), ("r", 2, 3)],
        [
            ("chi_1", [1, 1, 1]),
            ("chi_2", [1, -1, 1]),
            ("chi_3", [2, 0, -1]),
        ],
    ),
    "D4": (
        [("e", 1, 1), ("C2^1", 1, 2), ("C2^2", 2, 2), ("C2^3", 2, 2), ("r", 2, 4)],
        [
            ("chi_1", [1, 1, 1, 1, 1]),
            ("chi_2", [1, 1, -1, -1, 1]),
            ("chi_3", [1, 1, 1, -1, -1]),
            ("chi_4", [1, 1, -1, 1, -1]),
            ("phi", [2, -2, 0, 0, 0]),
        ],
    ),
    "D6": (
        [("e", 1, 1), ("C2^1", 1, 2), ("C2^2", 3, 2), ("C2^3", 3, 2), ("r2", 2, 3), ("r", 2, 6)],
        [
            ("chi_1", [1, 1, 1, 1, 1, 1]),
            ("chi_2", [1, 1, -1, -1, 1, 1]),
            ("chi_3", [1, -1, 1, -1, 1, -1]),
            ("chi_4", [1, -1, -1, 1, 1, -1]),
            ("phi_1", [2, -2, 0, 0, -1, 1]),
            ("phi_2", [2, 2, 0, 0, -1, -1]),
        ],
    ),
}

GROUP_IDS = tuple(_TABLE_DATA)


@lru_cache(maxsize=None)
def build_table(group_id: str) -> CharacterTable:
    """The character table of one of the nine stabilizer groups."""
    if group_id not in _TABLE_DATA:
        raise CharacterTableError(f"unknown group {group_id!r}; expected one of {', '.join(GROUP_IDS)}")
    class_data, irr_data = _TABLE_DATA[group_id]
    table = CharacterTable(
        group_id=group_id,
        order=GROUP_ORDERS[group_id],
        classes=tuple(ConjugacyClass(*c) for c in class_data),
        irreducibles=tuple(Irreducible(name, tuple(_cy(v) for v in values)) for name, values in irr_data),
    )
    _check_table(table)
    return table


def _check_table(t: CharacterTable) -> None:
    if sum(c.size for c in t.classes) != t.order:
        raise CharacterTableError(f"{t.group_id}: class sizes do not sum to the group order")
    if any(t.order % c.element_order for c in t.classes):
        raise CharacterTableError(f"{t.group_id}: element order not dividing group order")
    if len(t.irreducibles) != len(t.classes):
        raise CharacterTableError(f"{t.group_id}: irreducible count differs from class count")
    if any(v != 1 for v in t.irreducibles[0].values):
        raise CharacterTableError(f"{t.group_id}: first irreducible is not the trivial character")
    orders = [c.element_order for c in t.classes]
    if orders != sorted(orders):
        raise CharacterTableError(f"{t.group_id}: classes not sorted by element order")
    for i, chi in enumerate(t.irreducibles):
        for j, psi in enumerate(t.irreducibles):
            expected = Fraction(1 if i == j else 0)
            if inner_product(chi.values, psi.values, t) != expected:
                raise CharacterTableError(f"{t.group_id}: row orthogonality fails for {chi.name}, {psi.name}")


def inner_product(
    f: Sequence[Cyclotomic], g: Sequence[Cyclotomic], table: CharacterTable
) -> Fraction:
    """(1/|G|) * sum over classes of size * f(c) * conj(g(c)), as an exact rational."""
    if len(f) != len(table.classes) or len(g) != len(table.classes):
        raise CharacterTableError(f"class function length mismatch for {table.group_id}")
    total = Cyclotomic.of(0)
    for cls, fv, gv in zip(table.classes, f, g):
        total = total + _cy(fv) * _cy(gv).conjugate() * cls.size
    if not total.is_rational():
        raise CharacterTableError("inner product is not rational")
    return Fraction(total.as_rational(), table.order)


def validate_embedding(emb: SubgroupEmbedding) -> None:
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    if sup.order % sub.order:
        raise CharacterTableError(f"{emb.embedding_id}: |H| does not divide |K|")
    mapped = dict(emb.class_map)
    if set(mapped) != {c.label for c in sub.classes}:
        raise CharacterTableError(f"{emb.embedding_id}: class map is not total on {emb.sub}")
    for h in sub.classes:
        k = sup.classes[sup.class_index(mapped[h.label])]
        if h.element_order != k.element_order:
            raise CharacterTableError(f"{emb.embedding_id}: class map does not preserve element order")
    if mapped[sub.classes[0].label] != sup.classes[0].label:
        raise CharacterTableError(f"{emb.embedding_id}: identity class not sent to identity class")


def restriction_matrix(emb: SubgroupEmbedding) -> IntegerMatrix:
    """Matrix of Res: R(K) -> R(H) in the fixed bases of irreducibles.

    Column j decomposes the pull-back of K's j-th irreducible through the
    class map; every entry must come out a nonnegative integer, anything
    else signals a broken embedding definition.
    """
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    cols = []
    for psi in sup.irreducibles:
        pulled = tuple(psi.values[sup.class_index(emb.mapped(c.label))] for c in sub.classes)
        col = []
        for chi in sub.irreducibles:
            coeff = inner_product(pulled, chi.values, sub)
            if coeff.denominator != 1 or coeff < 0:
                raise CharacterTableError(
                    f"{emb.embedding_id}: restriction of {psi.name} decomposes with coefficient {coeff}"
                )
            col.append(int(coeff))
        cols.append(col)
    return IntegerMatrix.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(sub.rank)], cols=sup.rank)


@lru_cache(maxsize=None)
def induction_matrix(emb: SubgroupEmbedding) -> IntegerMatrix:
    """Matrix of Ind: R(H) -> R(K); by Frobenius reciprocity the transpose of restriction.

    Memoised per embedding (embeddings are frozen, matrices immutable); a
    broken embedding raises before anything is cached, so on every call.
    """
    return restriction_matrix(emb).transpose()


def _span(pairs: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(pairs.items())


def _identity_embedding(g: str) -> SubgroupEmbedding:
    labels = [c.label for c in build_table(g).classes]
    return SubgroupEmbedding(f"{g}->{g}", g, g, _span({x: x for x in labels}))


def _trivial_embedding(g: str) -> SubgroupEmbedding:
    return SubgroupEmbedding(f"C1->{g}", "C1", g, _span({"e": "e"}))


def _c2_embedding(sup: str, target_class: str, eid: str | None = None) -> SubgroupEmbedding:
    return SubgroupEmbedding(eid or f"C2->{sup}[{target_class}]", "C2", sup, _span({"e": "e", "z": target_class}))


def _build_catalog() -> dict[str, SubgroupEmbedding]:
    embeddings = [_trivial_embedding(g) for g in GROUP_IDS if g != "C1"]
    embeddings += [_identity_embedding(g) for g in GROUP_IDS]
    embeddings += [
        _c2_embedding("D2", "a"),
        _c2_embedding("D2", "b"),
        _c2_embedding("D3", "s", "C2->D3"),
        _c2_embedding("D4", "C2^1"),
        _c2_embedding("D4", "C2^2"),
        _c2_embedding("D4", "C2^3"),
        _c2_embedding("D6", "C2^1"),
        _c2_embedding("D6", "C2^2"),
        _c2_embedding("D6", "C2^3"),
    ]
    catalog = {}
    for emb in embeddings:
        validate_embedding(emb)
        catalog[emb.embedding_id] = emb
    return catalog


_CATALOG = _build_catalog()


def registered_embeddings() -> list[SubgroupEmbedding]:
    """The fixed catalog of class-level embeddings between stabilizer groups."""
    return list(_CATALOG.values())


def get_embedding(embedding_id: str) -> SubgroupEmbedding:
    try:
        return _CATALOG[embedding_id]
    except KeyError:
        raise CharacterTableError(f"unknown embedding {embedding_id!r}") from None
