"""Character theory of the stabilizer groups.

The nine groups that occur as cell stabilizers (C1, C2, C3, C4, C6, D2,
D3, D4, D6) are small and fixed, so their conjugacy classes and character
tables are embedded as literal data.  ``build_table`` checks each by exact
row orthogonality when it first builds it (validating the embedding catalog
at import builds all nine): all character values lie in Z[zeta_12], so |G|
times each inner product is an ``int`` sum over their coefficient tuples.
Induction along a subgroup embedding is the adjoint of restriction under
the character inner product (Frobenius reciprocity): row j of its matrix
decomposes K's j-th irreducible pulled back through the embedding's class
map, and the restriction matrix is its transpose.  Induction matrices are
memoised per embedding: each is computed on first use, once per process.

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

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .cyclotomic import Cyclotomic, I, _coerce, hermitian_sum
from .intlinalg import IntegerMatrix


class CharacterTableError(ValueError):
    """A table or embedding fails its structural checks."""


class ConjugacyClass(namedtuple("ConjugacyClass", "label size element_order")):
    """One conjugacy class: its label, size and element order."""

    __slots__ = ()


class Irreducible(namedtuple("Irreducible", "name values")):
    """One irreducible character: its name and its values by class, a tuple of ``Cyclotomic``."""

    __slots__ = ()


class CharacterTable(namedtuple("CharacterTable", "group_id order classes irreducibles")):
    """Full complex character table of one stabilizer group."""

    __slots__ = ()

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


class SubgroupEmbedding(namedtuple("SubgroupEmbedding", "embedding_id sub sup class_map")):
    """A class-level embedding H -> K: a total map on conjugacy classes, as (H label, K label) pairs."""

    __slots__ = ()

    def mapped(self, h_label: str) -> str:
        for a, b in self.class_map:
            if a == h_label:
                return b
        raise KeyError(f"embedding {self.embedding_id} does not map class {h_label!r}")


_zeta = Cyclotomic.zeta_pow  # omega_3 = zeta^4, omega_6 = zeta^2

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
            ("chi_2", [1, _zeta(4), _zeta(8)]),
            ("chi_3", [1, _zeta(8), _zeta(4)]),
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
            ("chi_2", [1, -1, _zeta(4), _zeta(8), _zeta(2), _zeta(10)]),
            ("chi_3", [1, 1, _zeta(8), _zeta(4), _zeta(4), _zeta(8)]),
            ("chi_4", [1, -1, 1, 1, -1, -1]),
            ("chi_5", [1, 1, _zeta(4), _zeta(8), _zeta(8), _zeta(4)]),
            ("chi_6", [1, -1, _zeta(8), _zeta(4), _zeta(10), _zeta(2)]),
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
GROUP_ORDERS = {g: sum(size for _, size, _ in classes) for g, (classes, _) in _TABLE_DATA.items()}


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
        irreducibles=tuple(Irreducible(name, tuple(map(_coerce, values))) for name, values in irr_data),
    )
    _check_table(table)
    return table


def _check_table(t: CharacterTable) -> None:
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
            if _pairing(chi.values, psi.values, t) != (t.order if i == j else 0):
                raise CharacterTableError(f"{t.group_id}: row orthogonality fails for {chi.name}, {psi.name}")


def _pairing(f: Sequence[Cyclotomic], g: Sequence[Cyclotomic], table: CharacterTable):
    """|G| times the inner product of f and g: an ``int`` for class functions in Z[zeta_12]."""
    if len(f) != len(table.classes) or len(g) != len(table.classes):
        raise CharacterTableError(f"class function length mismatch for {table.group_id}")
    total = hermitian_sum((c.size for c in table.classes), map(_coerce, f), map(_coerce, g))
    if any(total[1:]):
        raise CharacterTableError("inner product is not rational")
    return total[0]


def inner_product(
    f: Sequence[Cyclotomic], g: Sequence[Cyclotomic], table: CharacterTable
) -> Fraction:
    """(1/|G|) * sum over classes of size * f(c) * conj(g(c)), as an exact rational."""
    from fractions import Fraction

    return Fraction(_pairing(f, g, table), table.order)


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


@lru_cache(maxsize=None)
def induction_matrix(emb: SubgroupEmbedding) -> IntegerMatrix:
    """Matrix of Ind: R(H) -> R(K) in the fixed bases of irreducibles.

    Row j decomposes the pull-back of K's j-th irreducible through the class
    map (Frobenius reciprocity); every entry must come out a nonnegative
    integer, anything else signals a broken embedding definition.  Memoised
    per embedding (embeddings are hashable tuples, matrices immutable); a broken
    embedding raises before anything is cached, so on every call.
    """
    sub, sup = build_table(emb.sub), build_table(emb.sup)
    rows = []
    for psi in sup.irreducibles:
        pulled = tuple(psi.values[sup.class_index(emb.mapped(c.label))] for c in sub.classes)
        row = []
        for chi in sub.irreducibles:
            coeff, remainder = divmod(_pairing(pulled, chi.values, sub), sub.order)
            if remainder or coeff < 0:
                coeff = inner_product(pulled, chi.values, sub)  # the exact rational, for the message
                raise CharacterTableError(
                    f"{emb.embedding_id}: restriction of {psi.name} decomposes with coefficient {coeff}"
                )
            row.append(coeff)
        rows.append(row)
    return IntegerMatrix.from_rows(rows)


def _identity_embedding(g: str) -> SubgroupEmbedding:
    return SubgroupEmbedding(f"{g}->{g}", g, g, tuple((x, x) for x, _, _ in _TABLE_DATA[g][0]))


def _trivial_embedding(g: str) -> SubgroupEmbedding:
    return SubgroupEmbedding(f"C1->{g}", "C1", g, (("e", "e"),))


def _c2_embedding(sup: str, target_class: str, eid: str | None = None) -> SubgroupEmbedding:
    return SubgroupEmbedding(eid or f"C2->{sup}[{target_class}]", "C2", sup, (("e", "e"), ("z", target_class)))


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
