"""Embedded reference data for cross-checking the computations.

Two independently transcribed tables are bundled:

* ``INDUCED_CHARACTER_ROWS``: the 17 reference rows of induced characters
  between stabilizer representation rings (row 1 covers all four cyclic
  targets).  These are never used by the computation path; recomputing
  them from the character tables and Frobenius reciprocity and diffing is
  the point of ``bredon verify --table3``.

* ``HOMOLOGY_ROWS``: the reference homology of all 17 wallpaper groups in
  degrees 2, 1, 0 together with the recorded generator lists for degrees
  1 and 0.  Isomorphism types are (free rank, torsion chain).  Basis
  entries are labeled chains; degree-1 lists mix torsion and free
  generators, which is exactly what the generation check consumes.

Known defect carried as-is: the degree-1 basis recorded for ``cm``
generates only an index-2 subgroup of H_1 (the relation 2*beta_0 +
beta_1^1 + beta_1^2 = 0 makes beta_0 irrecoverable from beta_1^1 and
beta_1^2 over the integers), so verification honestly rejects it; see
``CORRECTED_BASES`` for a generating replacement.
"""

from __future__ import annotations

IsoType = tuple[int, tuple[int, ...]]

# (line number, embedding id, source irreducible, {target irreducible: multiplicity})
INDUCED_CHARACTER_ROWS: tuple[tuple[int, str, str, dict[str, int]], ...] = (
    (1, "C1->C2", "chi_1", {"chi_1": 1, "chi_2": 1}),
    (1, "C1->C3", "chi_1", {"chi_1": 1, "chi_2": 1, "chi_3": 1}),
    (1, "C1->C4", "chi_1", {"chi_1": 1, "chi_2": 1, "chi_3": 1, "chi_4": 1}),
    (1, "C1->C6", "chi_1", {"chi_1": 1, "chi_2": 1, "chi_3": 1, "chi_4": 1, "chi_5": 1, "chi_6": 1}),
    (2, "C1->D2", "chi_1", {"chi_1": 1, "chi_2": 1, "chi_3": 1, "chi_4": 1}),
    (3, "C1->D3", "chi_1", {"chi_1": 1, "chi_2": 1, "chi_3": 2}),
    (4, "C2->C2", "chi_1", {"chi_1": 1}),
    (5, "C2->C2", "chi_2", {"chi_2": 1}),
    (6, "C2->D2[a]", "chi_1", {"chi_1": 1, "chi_2": 1}),
    (7, "C2->D2[a]", "chi_2", {"chi_3": 1, "chi_4": 1}),
    (8, "C2->D3", "chi_1", {"chi_1": 1, "chi_3": 1}),
    (9, "C2->D3", "chi_2", {"chi_2": 1, "chi_3": 1}),
    (10, "C2->D4[C2^1]", "chi_1", {"chi_1": 1, "chi_2": 1, "chi_3": 1, "chi_4": 1}),
    (11, "C2->D4[C2^1]", "chi_2", {"phi": 2}),
    (12, "C2->D4[C2^2]", "chi_1", {"chi_1": 1, "chi_3": 1, "phi": 1}),
    (13, "C2->D4[C2^2]", "chi_2", {"chi_2": 1, "chi_4": 1, "phi": 1}),
    (14, "C2->D6[C2^1]", "chi_1", {"chi_1": 1, "chi_2": 1, "phi_2": 2}),
    (15, "C2->D6[C2^1]", "chi_2", {"chi_3": 1, "chi_4": 1, "phi_1": 2}),
    (16, "C2->D6[C2^2]", "chi_1", {"chi_1": 1, "chi_3": 1, "phi_1": 1, "phi_2": 1}),
    (17, "C2->D6[C2^2]", "chi_2", {"chi_2": 1, "chi_4": 1, "phi_1": 1, "phi_2": 1}),
)


def _b(*labels_or_chains) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Each argument is either a single label or a dict {label: coeff}."""
    chains = []
    for item in labels_or_chains:
        if isinstance(item, str):
            chains.append(((item, 1),))
        else:
            chains.append(tuple(item.items()))
    return tuple(chains)


# group -> (H2 type, H1 type, H1 basis, H0 type, H0 basis)
HOMOLOGY_ROWS: dict[str, tuple[IsoType, IsoType, tuple, IsoType, tuple]] = {
    "p1": ((1, ()), (2, ()), _b("beta_1", "beta_2"), (1, ()), _b("alpha")),
    "p2": (
        (1, ()), (0, ()), (),
        (5, ()), _b("alpha_0^1", "alpha_0^2", "alpha_1^2", "alpha_2^2", "alpha_3^2"),
    ),
    "pm": (
        (0, ()), (3, ()), _b("beta_1^1", "beta_1^2", "beta_2^1"),
        (3, ()), _b("alpha_0^2", "alpha_1^1", "alpha_1^2"),
    ),
    "pg": ((0, ()), (1, (2,)), _b("beta_0", "beta_1"), (1, ()), _b("alpha")),
    "cm": ((0, ()), (2, ()), _b("beta_1^1", "beta_1^2"), (2, ()), _b("alpha^1", "alpha^2")),
    "pmm": (
        (0, ()), (0, ()), (),
        (9, ()),
        _b("alpha_0^3", "alpha_1^3", "alpha_1^4", "alpha_2^3", "alpha_2^4",
           "alpha_3^1", "alpha_3^2", "alpha_3^3", "alpha_3^4"),
    ),
    "pmg": (
        (0, ()), (1, ()), _b({"beta_1^1": 1, "beta_2^1": 1}),
        (4, ()), _b("alpha_1^2", "alpha_2^1", "alpha_2^2", "alpha_3^2"),
    ),
    "pgg": (
        (0, ()), (0, (2,)), _b("beta_0"),
        (3, ()), _b("alpha_0^2", "alpha_1^1", "alpha_1^2"),
    ),
    "cmm": (
        (0, ()), (0, ()), (),
        (6, ()),
        _b({"alpha_0^1": 1, "alpha_0^2": 1}, "alpha_0^3", "alpha_0^4", "alpha_1^1", "alpha_1^3", "alpha_2^2"),
    ),
    "p4": (
        (1, ()), (0, ()), (),
        (8, ()),
        _b("alpha_0^1", "alpha_0^2", "alpha_0^3", "alpha_0^4", "alpha_1^2",
           "alpha_2^2", "alpha_2^3", "alpha_2^4"),
    ),
    "p4m": (
        (0, ()), (0, ()), (),
        (9, ()),
        _b("alpha_0^4", "alpha_0^5", "alpha_1^3", "alpha_1^4", "alpha_1^5",
           "alpha_2^1", "alpha_2^2", "alpha_2^3", "alpha_2^4"),
    ),
    "p4g": (
        (0, ()), (0, ()), (),
        (6, ()),
        _b("alpha_0^1", "alpha_0^2", "alpha_0^4", "alpha_1^1", "alpha_1^2", "alpha_1^4"),
    ),
    "p3": (
        (1, ()), (0, ()), (),
        (7, ()),
        _b("alpha_0^2", "alpha_0^3", "alpha_1^1", "alpha_1^2", "alpha_1^3", "alpha_2^1", "alpha_2^2"),
    ),
    "p3m1": (
        (0, ()), (1, ()), _b({"beta_0^1": 1, "beta_1^1": 1, "beta_2^1": 1}),
        (5, ()), _b("alpha_0^3", "alpha_1^1", "alpha_1^2", "alpha_1^3", "alpha_2^3"),
    ),
    "p31m": (
        (0, ()), (1, ()), _b("beta_1^1"),
        (5, ()), _b("alpha_0^2", "alpha_0^3", "alpha_1^1", "alpha_1^2", "alpha_1^3"),
    ),
    "p6": (
        (1, ()), (0, ()), (),
        (9, ()),
        _b("alpha_0^2", "alpha_0^3", "alpha_0^4", "alpha_0^5", "alpha_0^6",
           "alpha_1^2", "alpha_1^3", "alpha_2^1", "alpha_2^2"),
    ),
    "p6m": (
        (0, ()), (0, ()), (),
        (8, ()),
        _b("alpha_0^4", "alpha_0^5", "alpha_0^6", "alpha_1^1", "alpha_1^3",
           "alpha_2^1", "alpha_2^3", "alpha_2^4"),
    ),
}

#: Generating replacements for reference basis rows that fail verification.
CORRECTED_BASES: dict[tuple[str, int], tuple] = {
    ("cm", 1): _b("beta_0", "beta_1^1"),
}
