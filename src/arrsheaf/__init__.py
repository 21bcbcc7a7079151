"""Exact lattice sheaf cohomology of central hyperplane arrangements.

Computes graded pieces of logarithmic derivation modules, their Cech
cohomology over the intersection lattice, and an independent truncated
punctured-spectrum oracle; decides freeness by the determinant criterion and
bounds projective dimension two ways.  All arithmetic is exact.
"""

from .arrangement import (
    Arrangement,
    ArrangementError,
    FormProduct,
    Hyperplane,
    catalog,
    cofactor_forms,
    essentialize,
    parse_arrangement,
    serialize_arrangement,
)
from .cech import (
    CapExceeded,
    CohomologyTable,
    CoverIndex,
    DerivationFunctor,
    StructureFunctor,
    acyclicity_probe,
    build_cech_complex,
    cohomology_dims,
    default_window,
    full_cover,
    lattice_cohomology_table,
    minimal_cover,
)
from .derivations import (
    DerivationSpace,
    FreenessCertificate,
    derivation_space,
    freeness_certificate,
    inclusion_matrix,
    minimal_generators,
    saito_check,
)
from .diagnostics import (
    ConsistencyError,
    build_report,
    factorization_check,
    freeness_verdict,
    kunneth_verify,
    pd_via_lattice,
)
from .lattice import IntersectionLattice, LatticeElement, build_lattice
from .linalg import GF, QQ, Field
from .oracle import (
    PuncturedCohomologyResult,
    TruncatedLocalizedPiece,
    local_cohomology_dims,
    localization_identity_check,
    localized_derivations,
    pd_oracle,
    punctured_cohomology,
)

__version__ = "0.1.0"
