"""Two-sided diagonal balancing of entry magnitudes, carried out in log space.

``balance`` factors a matrix as

    a = diag(exp(-left_log)) @ core @ diag(exp(-right_log))

where every row and column of ``core`` that contains a nonzero has unit
geometric mean of its nonzero magnitudes, and ``core`` carries exactly the
sign pattern of ``a``. (A core too large for float64 at unit geometric
means is scaled down by 2**-s, which ``left_log`` takes up, so its means are
all 2**-s instead.) The core is the scale-canonical form of the input:
rescaling rows or columns of ``a`` changes only the accumulated scale
vectors, never the core. That canonical property is what the
unit-consistent inverse is built on.

When every entry is nonzero, two-way centering of log|a| gives the balance
in closed form. Otherwise an iteration alternates column centering and row
centering of log|a| over the nonzero support, accumulating the shifts into
the scale vectors. The iteration holds only the list of nonzeros (their
positions and log magnitudes), so each sweep costs O(nnz) rather than
O(mn). Working on logarithms is the entire numerical point:
magnitudes spanning hundreds of orders of magnitude are just moderate-sized
logs, and exp is applied once at the end.
"""

from dataclasses import dataclass

import numpy as np

from .matrix import as_matrix

__all__ = [
    "BALANCE_TOL",
    "MAX_SWEEPS",
    "ScalingDecomposition",
    "balance",
]

# the sweep stops once its shift drops to BALANCE_TOL, or gives up after
# MAX_SWEEPS sweeps and reports converged=False
BALANCE_TOL = 1e-15
MAX_SWEEPS = 10000

LN2 = np.log(2.0)
LOG_MAX = np.log(np.finfo(float).max)


@dataclass(frozen=True)
class ScalingDecomposition:
    """Result of :func:`balance`.

    ``left_log`` and ``right_log`` are the logs of the row/column scale
    factors; they are determined only up to an additive constant traded
    between the two sides, so consumers should rely on the sums
    ``left_log[i] + right_log[j]``, which are well-defined. ``final_shift``
    is the last sweep's summed mean absolute correction (the convergence
    measure), and ``converged`` records whether it reached :data:`BALANCE_TOL`
    within :data:`MAX_SWEEPS` sweeps. A fully dense matrix balances in closed
    form, reported as one sweep with zero shift.
    """

    left_log: np.ndarray
    right_log: np.ndarray
    core: np.ndarray
    converged: bool
    iterations: int
    final_shift: float

    def reconstruct(self) -> np.ndarray:
        """Undo the scaling: diag(exp(-left_log)) @ core @ diag(exp(-right_log))."""
        return np.exp(-self.left_log)[:, None] * self.core * np.exp(-self.right_log)[None, :]


def balance(a) -> ScalingDecomposition:
    """Balance a finite real matrix; see the module docstring for the factorization.

    Each sweep centers the columns first, then the rows; the sweep's shift is
    the mean absolute column correction plus the mean absolute row correction,
    and iteration stops once it drops to :data:`BALANCE_TOL`. The number of
    sweeps is capped at :data:`MAX_SWEEPS`; reaching it is reported via
    ``converged=False``, not an exception. Both are constants, not
    parameters, so ``converged=True`` always means the same fixed point.
    Rows and columns with no nonzero entries are left untouched, and a mean
    over an empty selection counts as zero shift, so all-zero input converges
    immediately. The sweep runs over the list of nonzeros, gathered once per
    call, so each sweep costs O(nnz) time and memory.

    A fully dense matrix takes no sweep: there the fixed point is two-way
    centering of log|a|, with ``right_log`` the negated column means and
    ``left_log`` the grand mean minus the row means. It is reported as
    converged after one sweep with zero shift. In both forms a core too large
    for float64 is scaled down by a power of two, which ``left_log`` takes up.
    """
    a = as_matrix(a)
    m, n = a.shape
    magnitude = np.abs(a)
    support = magnitude > 0.0
    if support.all():
        logmag = np.log(magnitude, out=magnitude)
        row_means = logmag.mean(axis=1)
        left_log = row_means.mean() - row_means
        right_log = -logmag.mean(axis=0)
        logmag += left_log[:, None]
        logmag += right_log
        _fit_float_range(logmag, left_log)
        core = np.copysign(np.exp(logmag, out=logmag), a, out=logmag)
        return ScalingDecomposition(
            left_log=left_log,
            right_log=right_log,
            core=core,
            converged=True,
            iterations=1,
            final_shift=0.0,
        )

    r_idx, c_idx = np.nonzero(support)
    vals = np.log(magnitude[r_idx, c_idx])
    row_counts = np.bincount(r_idx, minlength=m)
    col_counts = np.bincount(c_idx, minlength=n)
    # a mean over no lines counts as zero shift
    nonempty_rows = max(int(np.count_nonzero(row_counts)), 1)
    nonempty_cols = max(int(np.count_nonzero(col_counts)), 1)
    # empty lines get a zero mean, so their scale factors stay at zero
    row_counts = np.maximum(row_counts, 1)
    col_counts = np.maximum(col_counts, 1)

    left_log = np.zeros(m)
    right_log = np.zeros(n)
    iterations = 0
    shift = 0.0
    converged = False
    while iterations < MAX_SWEEPS:
        iterations += 1
        col_means = np.bincount(c_idx, vals, n) / col_counts
        vals -= col_means[c_idx]
        right_log -= col_means
        shift = float(np.abs(col_means).sum()) / nonempty_cols

        row_means = np.bincount(r_idx, vals, m) / row_counts
        vals -= row_means[r_idx]
        left_log -= row_means
        shift += float(np.abs(row_means).sum()) / nonempty_rows

        if shift <= BALANCE_TOL:
            converged = True
            break

    _fit_float_range(vals, left_log)
    core = np.zeros((m, n))
    core[r_idx, c_idx] = np.copysign(np.exp(vals), a[r_idx, c_idx])
    return ScalingDecomposition(
        left_log=left_log,
        right_log=right_log,
        core=core,
        converged=converged,
        iterations=iterations,
        final_shift=shift,
    )


def _fit_float_range(logs: np.ndarray, left_log: np.ndarray) -> None:
    """Where exp(logs) would overflow, subtract s * ln 2 from ``logs`` and from
    ``left_log`` in place, which scales the core by 2**-s and leaves
    ``reconstruct`` and the unit-consistent inverse as they were. s centres
    the range of ``logs`` on 0, or only just fits the largest one where that
    range is wider than float64's."""
    top = logs.max(initial=-np.inf)
    if top > LOG_MAX:
        s = max(np.ceil((top + logs.min()) / (2 * LN2)), np.ceil((top - LOG_MAX) / LN2))
        logs -= s * LN2
        left_log -= s * LN2
