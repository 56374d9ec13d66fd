"""Singular value decomposition with explicit numerical-rank control, and the
Moore-Penrose pseudoinverse assembled from it.

The rank cutoff is the one knob that matters here: a singular value counts
toward the rank only if it exceeds ``rel_tol * largest_sv * max(m, n)``. The
pseudoinverse zeroes everything below that same cutoff, so reported ranks and
inverted directions always agree.
"""

from dataclasses import dataclass

import numpy as np

from .matrix import as_matrix

__all__ = [
    "DEFAULT_RANK_TOL",
    "SvdConvergenceError",
    "SvdFactors",
    "RankInfo",
    "svd",
    "numerical_rank",
    "pinv",
    "pinv_from_factors",
]

DEFAULT_RANK_TOL = 1e-12


class SvdConvergenceError(RuntimeError):
    """Raised when the SVD iteration fails to converge."""


@dataclass(frozen=True)
class SvdFactors:
    """Thin decomposition a = (u * sigma) @ v.T: with k = min(m, n), u is
    m-by-k and v is n-by-k, both with orthonormal columns, and ``sigma``
    holds the k singular values (non-increasing, non-negative)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])


@dataclass(frozen=True)
class RankInfo:
    """Numerical rank decision: how many singular values cleared the cutoff."""

    numerical_rank: int
    rank_tolerance: float
    largest_sv: float


def svd(a) -> SvdFactors:
    """Thin singular value decomposition of a finite real matrix.

    Deterministic for a fixed input. Raises SvdConvergenceError if the
    underlying iteration does not converge (vanishingly rare for finite input).
    """
    a = as_matrix(a)
    m, n = a.shape
    try:
        if m < n:
            # LAPACK reduces a tall matrix by QR and a wide one by LQ, and the
            # QR path is the faster: factor a.T = w @ diag(s) @ zt and swap
            w, s, zt = np.linalg.svd(a.T, full_matrices=False)
            u, v = zt.T, w
        else:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            v = vt.T
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u=u, sigma=s, v=v)


def numerical_rank(factors: SvdFactors, rel_tol: float = DEFAULT_RANK_TOL) -> RankInfo:
    """Count singular values strictly above rel_tol * largest_sv * max(m, n)."""
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    m, n = factors.shape
    largest = float(factors.sigma[0]) if factors.sigma.size else 0.0
    cutoff = rel_tol * largest * max(m, n)
    rank = int(np.count_nonzero(factors.sigma > cutoff))
    return RankInfo(numerical_rank=rank, rank_tolerance=cutoff, largest_sv=largest)


def pinv_from_factors(
    factors: SvdFactors, rel_tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, RankInfo]:
    """Pseudoinverse v @ pinv(S) @ u.T from precomputed factors, plus the rank used."""
    info = numerical_rank(factors, rel_tol)
    inverted = np.zeros(factors.sigma.size)
    keep = factors.sigma > info.rank_tolerance
    inverted[keep] = 1.0 / factors.sigma[keep]
    result = (factors.v * inverted) @ factors.u.T
    return result, info


def pinv(a, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values at or below the rank
    cutoff zeroed instead of inverted."""
    result, _ = pinv_from_factors(svd(a), rel_tol)
    return result
