"""The factorization behind every route, under one fixed numerical-rank rule.

:func:`scaled_pinv` is the one place the package factors a matrix, decides
its rank and inverts its singular values. A singular value counts toward the
rank, and is inverted, only if it exceeds ``RANK_TOL * largest_sv * max(m, n)``,
so reported ranks and inverted directions always agree. The rule is applied
to a / 2**k, which factors at any magnitude, so no rank depends on the
overall scale of a, and the relative cutoff is a constant, not a parameter.
``RgaResult.inverse`` in :mod:`ucrga.rga` alone turns pinv(a / 2**k) into a
generalized inverse of the input.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RANK_TOL",
    "RankInfo",
    "scaled_pinv",
]

RANK_TOL = 1e-12


@dataclass(frozen=True)
class RankInfo:
    """Numerical rank decision: how many singular values cleared the cutoff.

    ``rank_tolerance`` (the cutoff) and ``largest_sv`` are those of the
    matrix :func:`scaled_pinv` factored, x = a / 2**k, not of a itself."""

    numerical_rank: int
    rank_tolerance: float
    largest_sv: float


def scaled_pinv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, RankInfo]:
    """(x, pinv(x), k, rank used) for a matrix ``a`` as :func:`as_matrix`
    returns it and x = a / 2**k, k the binary exponent of max|a|: the exact
    scaling puts max|x| in [0.5, 1), so x factors and inverts at any magnitude,
    and pinv(a) = pinv(x) / 2**k is left to the caller, who may not need it
    where it overflows. x is fresh, so it is factored without a further copy.

    Raises numpy's LinAlgError, a ValueError, if the SVD does not converge.
    """
    k = int(np.frexp(np.abs(a).max())[1])
    x = np.ldexp(a, -k)
    m, n = x.shape
    # LAPACK reduces a tall matrix by QR and a wide one by LQ, and the QR path
    # is the faster, so a wide x is factored through x.T
    wide = m < n
    u, sigma, vt = np.linalg.svd(x.T if wide else x, full_matrices=False)
    # x = u @ diag(sigma) @ v.T; for a wide x, x.T = u @ diag(sigma) @ vt
    u, v = (vt.T, u) if wide else (u, vt.T)
    largest = float(sigma[0])
    cutoff = RANK_TOL * largest * max(m, n)
    keep = sigma > cutoff
    inverted = np.zeros(sigma.size)
    inverted[keep] = 1.0 / sigma[keep]
    info = RankInfo(int(np.count_nonzero(keep)), cutoff, largest)
    return x, (v * inverted) @ u.T, k, info
