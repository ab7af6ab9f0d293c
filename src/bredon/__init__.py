"""Exact Bredon homology of the 17 wallpaper groups.

The package computes, over exact integer and cyclotomic arithmetic, the
homology of the equivariant chain complexes attached to the plane actions
of the wallpaper groups, with coefficients in the complex representation
rings of the finite cell stabilizers.  The pieces are reusable on their
own: character tables with restriction/induction (``chartab``), Smith
normal form with unimodular transforms (``intlinalg``), equivariant cell
structures (``gcw``, ``wallpaper``) and the homology engine with basis
verification (``homology``).
"""

from .chartab import (
    CharacterTable,
    ConjugacyClass,
    SubgroupEmbedding,
    build_table,
    induction_matrix,
    inner_product,
    registered_embeddings,
    restriction_matrix,
)
from .cyclotomic import Cyclotomic
from .gcw import (
    BoundaryTerm,
    CellOrbit,
    EquivariantComplex,
    GeneratorLabel,
    assemble_differential,
    chain_rank,
    validate,
)
from .homology import (
    BasisVerdict,
    HomologyGroup,
    HomologyReport,
    compute_homology,
    verify_basis,
)
from .intlinalg import (
    CokernelPresentation,
    IntegerMatrix,
    SNFDecomposition,
    smith_normal_form,
)
from .wallpaper import GroupRecord, get_group, list_groups

__all__ = [
    "BasisVerdict",
    "BoundaryTerm",
    "CellOrbit",
    "CharacterTable",
    "CokernelPresentation",
    "ConjugacyClass",
    "Cyclotomic",
    "EquivariantComplex",
    "GeneratorLabel",
    "GroupRecord",
    "HomologyGroup",
    "HomologyReport",
    "IntegerMatrix",
    "SNFDecomposition",
    "SubgroupEmbedding",
    "assemble_differential",
    "build_table",
    "chain_rank",
    "compute_homology",
    "get_group",
    "induction_matrix",
    "inner_product",
    "list_groups",
    "registered_embeddings",
    "restriction_matrix",
    "smith_normal_form",
    "validate",
    "verify_basis",
]

__version__ = "0.1.0"
