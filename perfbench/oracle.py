"""Relative gain arrays computed apart from ucrga, to check its outputs.

Nothing here imports the package. The unit-consistent route balances by
solving the least-squares problem that ucrga's alternating sweep iterates
towards, instead of sweeping:

    minimise  sum over the support of (log|g_ij| + u_i + v_j)^2

For a fully dense support that is two-way centring of log|g|, in closed form.
For any other support it is solved with ``np.linalg.lstsq`` on the
row/column incidence system. The balanced core sign(g) * exp(log|g| + u + v)
is inverted with numpy's own pseudoinverse at ucrga's rank cutoff
(1e-12 * largest singular value * max(m, n)), and the scale factors are
mapped back onto the inverse.
"""

import numpy as np

RANK_TOL = 1e-12

# An output matches the oracle when its largest entrywise deviation is at most
# RGA_RTOL times max(1, largest oracle entry). Library and oracle agree to
# 2e-13 of that scale on every workload family, and a 1e-6 shift of one entry
# must still be caught on the largest RGAs the workloads admit (entries up to
# 100, see workloads.RGA_MAX).
RGA_RTOL = 1e-9


def balance_logs(g):
    """Log row and column scale factors (u, v) that balance ``g``.

    ``sign(g) * exp(log|g| + u[:, None] + v[None, :])`` has zero mean log
    magnitude over the support of every row and column that has one.
    """
    g = np.asarray(g, dtype=float)
    m, n = g.shape
    support = g != 0.0
    logmag = np.log(np.abs(g), out=np.zeros((m, n)), where=support)
    if support.all():
        row_mean = logmag.mean(axis=1)
        col_mean = logmag.mean(axis=0)
        return logmag.mean() - row_mean, -col_mean
    rows, cols = np.nonzero(support)
    incidence = np.zeros((rows.size, m + n))
    incidence[np.arange(rows.size), rows] = 1.0
    incidence[np.arange(rows.size), m + cols] = 1.0
    solution = np.linalg.lstsq(incidence, -logmag[rows, cols], rcond=None)[0]
    return solution[:m], solution[m:]


def balanced_core(g):
    """The balanced core of ``g`` and the log scale factors that produce it."""
    g = np.asarray(g, dtype=float)
    u, v = balance_logs(g)
    support = g != 0.0
    logmag = np.log(np.abs(g), out=np.zeros(g.shape), where=support)
    core = np.where(support, np.sign(g) * np.exp(logmag + u[:, None] + v[None, :]), 0.0)
    return core, u, v


def pinv(a):
    """Moore-Penrose pseudoinverse at ucrga's rank cutoff."""
    a = np.asarray(a, dtype=float)
    return np.linalg.pinv(a, rcond=RANK_TOL * max(a.shape))


def mp_rga(g):
    """Moore-Penrose RGA: g * pinv(g).T."""
    g = np.asarray(g, dtype=float)
    return g * pinv(g).T


def uc_rga(g):
    """Unit-consistent RGA: g * uc_inverse(g).T, with uc_inverse = E pinv(core) D."""
    g = np.asarray(g, dtype=float)
    core, u, v = balanced_core(g)
    inverse = pinv(core) * np.exp(v[:, None] + u[None, :])
    return g * inverse.T


def rank_margins(a, rank):
    """How far the singular values of ``a`` sit from the rank cutoff.

    Returns (sigma_rank / cutoff, sigma_{rank+1} / cutoff): the first is above
    1 and the second below 1 exactly when the numerical rank is ``rank``.
    """
    sigma = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    cutoff = RANK_TOL * sigma[0] * max(np.shape(a))
    kept = sigma[rank - 1] / cutoff if rank > 0 else np.inf
    dropped = sigma[rank] / cutoff if rank < sigma.size else 0.0
    return float(kept), float(dropped)


def rga_matches(actual, expected) -> bool:
    """Whether an RGA agrees with the oracle's to RGA_RTOL."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) <= RGA_RTOL * scale
