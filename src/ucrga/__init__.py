"""Relative gain arrays for square, singular, and rectangular gain matrices.

The classical relative gain array requires a nonsingular matrix. Generalizing
it with the Moore-Penrose pseudoinverse makes the result depend on the units
chosen for the input and output variables; generalizing it with the
unit-consistent inverse provided here does not. This package implements all
three routes together with the balancing decomposition behind the
unit-consistent inverse and the property checks (permutation equivariance,
scaling invariance, generalized-inverse identities, sum rules) that tell the
routes apart.
"""

from .balance import ScalingDecomposition, balance
from .inverse import GiResiduals, check_gi_identities
from .matrix import (
    DimensionError,
    MatrixFormatError,
    as_matrix,
    as_permutation,
    as_scaling,
    format_csv,
    matrix_from_json,
    matrix_to_json,
    parse_csv,
    permute,
)
from .rga import (
    SUMMARY_TOL,
    Check,
    PropertyReport,
    RgaResult,
    SingularMatrixError,
    pinv,
    property_reports,
    rga_mp,
    rga_routes,
    rga_strict,
    rga_summary,
    rga_uc,
    scaling_invariance_residual,
    uc_consistency_residual,
    uc_inverse,
)

__version__ = "1.0.0"

__all__ = [
    "SUMMARY_TOL",
    "Check",
    "DimensionError",
    "GiResiduals",
    "MatrixFormatError",
    "PropertyReport",
    "RgaResult",
    "ScalingDecomposition",
    "SingularMatrixError",
    "as_matrix",
    "as_permutation",
    "as_scaling",
    "balance",
    "check_gi_identities",
    "format_csv",
    "matrix_from_json",
    "matrix_to_json",
    "parse_csv",
    "permute",
    "pinv",
    "property_reports",
    "rga_mp",
    "rga_routes",
    "rga_strict",
    "rga_summary",
    "rga_uc",
    "scaling_invariance_residual",
    "uc_consistency_residual",
    "uc_inverse",
]
