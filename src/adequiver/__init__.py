"""ADE root data, finite subgroup quivers, and matrix-data verification.

The pieces, bottom up: exact rational linear algebra (`linalg`), Dynkin
diagrams with marks and positive roots (`dynkin`), the finite subgroups
of SL(2, C) with their character tables and graph matching (`gamma`),
doubled/framed/looped quivers (`quiver`), node polynomials and their
vanishing loci (`deformation`), relation and non-degeneracy checks for
quiver representations (`adhm`), the torsion-module dictionary
(`sheaf`), a symbolic two-term complex checker (`monad`), JSON file
formats (`io`), and the command line (`cli`).

The names in `__all__` are re-exported lazily: `import adequiver` loads
no submodule, and the first access to a name such as `adequiver.marks`
imports its defining submodule and returns the object defined there.
So a caller, the command line included, loads only the modules it uses,
and numpy only where a numeric path runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "adhm": (
        "N1Representation", "RelationResidual", "SupportReport", "check_relations",
        "check_support_property", "conjugate", "direct_sum", "edge_residual",
        "is_nondegenerate", "node_residual", "restrict_finite", "support",
        "trace_identity_defect",
    ),
    "deformation": (
        "DeformationParam", "ExceptionalLocus", "IdenticallyZeroProjection", "NotARoot",
        "Polynomial", "complete_affine_theta", "exceptional_locus", "is_generic",
        "make_deformation", "theta_of_root",
    ),
    "dynkin": (
        "DynkinType", "Root", "cartan_matrix", "highest_root", "is_positive_root", "marks",
        "positive_root_count", "positive_roots",
    ),
    "gamma": (
        "ClosureOverflow", "DegenerateSpectrum", "GammaGroup", "NonIntegralMultiplicity",
        "character_table", "enumerate_group", "mckay_adjacency", "verify_mckay",
    ),
    "linalg": ("NonRationalSpectrum",),
    "monad": (
        "MonadData", "NCElement", "build_monad", "compose_and_check", "nc_multiply",
        "node_relation_defects",
    ),
    "quiver": (
        "QuiverSpec", "build_extended_quiver", "build_mckay_quiver", "build_n1_quiver",
        "to_dot",
    ),
    "sheaf": (
        "EdgeRelationViolated", "IllConditioned", "QuiverSheafData", "TorsionSheafData",
        "endo_to_sheaf", "is_regular", "quadruple_to_quintuple", "quintuple_to_quadruple",
        "sheaf_to_endo",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
