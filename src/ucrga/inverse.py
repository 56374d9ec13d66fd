"""Unit-consistent generalized inverse, plus residual checks for the algebraic
identities any generalized inverse must satisfy.

The Moore-Penrose pseudoinverse commutes with orthonormal transformations but
not with diagonal rescaling, i.e. changing the units of individual variables
changes the answer. The unit-consistent inverse built here satisfies the
complementary property: for nonsingular diagonal D and E,

    uc_inverse(D @ a @ E) == inv(E) @ uc_inverse(a) @ inv(D)

It is computed by balancing the matrix to its scale-canonical core, taking the
pseudoinverse of the core, and mapping the scale factors back:

    a = inv(D) @ core @ inv(E)   =>   uc_inverse(a) = E @ pinv(core) @ D
"""

from dataclasses import dataclass

import numpy as np

from .balance import DEFAULT_BALANCE_TOL, ScalingDecomposition, balance
from .matrix import DimensionError, apply_diag, as_matrix, as_scaling
from .svd import DEFAULT_RANK_TOL, RankInfo, pinv_from_factors, svd

__all__ = [
    "GiResiduals",
    "UcInverseResult",
    "uc_inverse",
    "uc_inverse_detailed",
    "check_gi_identities",
    "uc_consistency_residual",
]

# floor for relative-residual denominators so an all-zero matrix yields 0, not NaN
TINY = 1e-300


def relative_change(new: np.ndarray, base: np.ndarray) -> float:
    """Max-abs change from ``base`` to ``new``, relative to the largest |base|."""
    return float(np.abs(new - base).max() / max(np.abs(base).max(), TINY))


@dataclass(frozen=True)
class GiResiduals:
    """Relative residuals of the two defining generalized-inverse identities."""

    residual_axa: float
    residual_xax: float


@dataclass(frozen=True)
class UcInverseResult:
    """The pseudoinverse of the balanced core, the balancing decomposition,
    and the numerical rank used when inverting the core."""

    core_pinv: np.ndarray
    decomposition: ScalingDecomposition
    rank: RankInfo

    @property
    def inverse(self) -> np.ndarray:
        """The unit-consistent inverse E @ pinv(core) @ D, formed on each read."""
        return self.decomposition.unscale_inverse(self.core_pinv)


def uc_inverse_detailed(
    a,
    rank_tol: float = DEFAULT_RANK_TOL,
    balance_tol: float = DEFAULT_BALANCE_TOL,
) -> UcInverseResult:
    """Unit-consistent inverse with full diagnostics.

    ``rank_tol`` controls which singular values of the balanced core are
    inverted; ``balance_tol`` is the balancing sweep's stopping tolerance.
    They govern different numerical phenomena and are deliberately separate
    knobs. If balancing does not converge within its fixed sweep cap the
    inverse is still produced, and ``decomposition.converged`` carries the
    flag.
    """
    dec = balance(a, tol=balance_tol)
    core_pinv, rank = pinv_from_factors(svd(dec.core), rank_tol)
    return UcInverseResult(core_pinv=core_pinv, decomposition=dec, rank=rank)


def uc_inverse(
    a,
    rank_tol: float = DEFAULT_RANK_TOL,
    balance_tol: float = DEFAULT_BALANCE_TOL,
) -> np.ndarray:
    """Unit-consistent generalized inverse (n-by-m for m-by-n input).

    Equals the ordinary inverse for nonsingular square input. See
    :func:`uc_inverse_detailed` for the diagnostics-bearing variant.
    """
    return uc_inverse_detailed(a, rank_tol=rank_tol, balance_tol=balance_tol).inverse


def check_gi_identities(a, g) -> GiResiduals:
    """Measure how well ``g`` behaves as a generalized inverse of ``a``.

    Returns max-abs residuals of a@g@a == a and g@a@g == g, each normalized
    by the max-abs of the matrix being reproduced.
    """
    a = as_matrix(a)
    g = as_matrix(g)
    if g.shape != (a.shape[1], a.shape[0]):
        raise DimensionError(
            f"inverse candidate must have shape {(a.shape[1], a.shape[0])}, got {g.shape}"
        )
    residual_axa = relative_change(a @ g @ a, a)
    residual_xax = relative_change(g @ a @ g, g)
    return GiResiduals(residual_axa=residual_axa, residual_xax=residual_xax)


def uc_consistency_residual(
    a,
    d,
    e,
    rank_tol: float = DEFAULT_RANK_TOL,
    balance_tol: float = DEFAULT_BALANCE_TOL,
) -> float:
    """Residual of the diagonal-consistency identity.

    Computes diag(e) @ uc_inverse(diag(d) @ a @ diag(e)) @ diag(d) and returns
    its relative max-abs difference from uc_inverse(a). Zero in exact
    arithmetic for any nonsingular diagonal scalings; the same construction
    with the Moore-Penrose inverse substituted is violated by order one.
    """
    a = as_matrix(a)
    d = as_scaling(d, a.shape[0])
    e = as_scaling(e, a.shape[1])
    kw = dict(rank_tol=rank_tol, balance_tol=balance_tol)
    base = uc_inverse(a, **kw)
    mapped = apply_diag(e, uc_inverse(apply_diag(d, a, e), **kw), d)
    return relative_change(mapped, base)
