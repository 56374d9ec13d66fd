"""The factorization behind every route, under one fixed numerical-rank rule.

:func:`scaled_pinv` is the one place the package factors a matrix, decides
its rank and inverts its singular values. A singular value counts toward the
rank, and is inverted, only if it exceeds ``RANK_TOL * largest_sv * max(m, n)``,
so reported ranks and inverted directions always agree. The rule is applied
to a / 2**k, which factors at any magnitude, so no rank depends on the
overall scale of a, and the relative cutoff is a constant, not a parameter.
A rectangular x whose short side's Gram matrix has eigenvalue ratio above
``GRAM_TOL`` has full rank by that rule too, by a wide margin; its pinv is that
Gram matrix's inverse times x, refined by one Newton-Schulz step.
``RgaResult.inverse`` in :mod:`ucrga.rga` alone turns pinv(a / 2**k) into a
generalized inverse of the input.
"""

import numpy as np

__all__ = [
    "GRAM_TOL",
    "RANK_TOL",
    "scaled_pinv",
]

RANK_TOL = 1e-12
GRAM_TOL = 1e-6


def scaled_pinv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(x, pinv(x), k, rank used) for a matrix ``a`` as :func:`as_matrix`
    returns it and x = a / 2**k, a new array, k the binary exponent of max|a|:
    the exact scaling puts max|x| in [0.5, 1), so x factors and inverts at any
    magnitude, and pinv(a) = pinv(x) / 2**k is left to the caller, who may not
    need it where it overflows.

    Raises numpy's LinAlgError, a ValueError, if the SVD or eigendecomposition
    does not converge.
    """
    k = int(np.frexp(max(a.max(), -a.min()))[1])
    x = np.ldexp(a, -k)
    m, n = x.shape
    wide = m < n
    if m != n:
        # pinv(s).T = inv(s s.T) s, then one Newton-Schulz step H + H (I - s H)
        s = x if wide else x.T
        w, q = np.linalg.eigh(s @ s.T)
        if w[0] > GRAM_TOL * w[-1]:
            p = ((q / w) @ q.T) @ s
            p += (np.eye(w.size) - s @ p.T).T @ p
            return x, p.T if wide else p, k, min(m, n)
        del w, q  # freed before the SVD allocates its factors
    # LAPACK reduces a tall matrix by QR and a wide one by LQ, and the QR path
    # is the faster, so a wide x is factored through x.T
    u, sigma, vt = np.linalg.svd(x.T if wide else x, full_matrices=False)
    # x = u @ diag(sigma) @ v.T; for a wide x, x.T = u @ diag(sigma) @ vt
    u, v = (vt.T, u) if wide else (u, vt.T)
    keep = sigma > RANK_TOL * sigma[0] * max(m, n)
    inverted = np.zeros(sigma.size)
    inverted[keep] = 1.0 / sigma[keep]
    return x, np.multiply(v, inverted, out=v) @ u.T, k, int(np.count_nonzero(keep))
