"""Exact Bredon homology of the 17 wallpaper groups.

The package computes, over exact integer and cyclotomic arithmetic, the
homology of the equivariant chain complexes attached to the plane actions
of the wallpaper groups, with coefficients in the complex representation
rings of the finite cell stabilizers.  The pieces are reusable on their
own: character tables with restriction/induction (``chartab``), Smith
normal form with unimodular transforms (``intlinalg``), equivariant cell
structures (``gcw``, ``wallpaper``) and the homology engine with basis
verification (``homology``).  Importing the package loads none of them:
each name in ``__all__`` is imported from its module on first use (PEP 562).
"""

#: The module that defines each public name.
_EXPORTS = {
    name: module
    for module, names in (
        ("chartab", "CharacterTable ConjugacyClass SubgroupEmbedding build_table induction_matrix inner_product "
         "registered_embeddings restriction_matrix"),
        ("cyclotomic", "Cyclotomic"),
        ("gcw", "BoundaryTerm CellOrbit EquivariantComplex GeneratorLabel assemble_differential chain_rank validate"),
        ("homology", "BasisVerdict HomologyGroup HomologyReport compute_homology verify_basis"),
        ("intlinalg", "CokernelPresentation IntegerMatrix SNFDecomposition smith_normal_form"),
        ("wallpaper", "GroupRecord get_group list_groups"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
