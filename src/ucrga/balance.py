"""Two-sided diagonal balancing of entry magnitudes, carried out in log space.

``balance`` factors a matrix as

    a = diag(exp(-left_log)) @ core @ diag(exp(-right_log))

where every row and column of ``core`` that contains a nonzero has one
common geometric mean of its nonzero magnitudes, 1 unless the core must be
scaled into float64's range, and ``core`` carries exactly the sign pattern of
``a``. The core is the scale-canonical form of the input: rescaling rows or
columns of ``a`` changes only the accumulated scale vectors, never the core.
That canonical property is what the unit-consistent inverse is built on.

Working on logarithms is the entire numerical point: magnitudes spanning
hundreds of orders of magnitude are just moderate-sized logs, and exp is
applied once at the end.
"""

from typing import NamedTuple

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


class ScalingDecomposition(NamedTuple):
    """Result of :func:`balance`.

    ``left_log`` and ``right_log`` are the logs of the row/column scale
    factors; they are determined only up to an additive constant traded
    between the two sides, so consumers should rely on the sums
    ``left_log[i] + right_log[j]``, which are well-defined. ``iterations``
    counts sweeps, ``final_shift`` is the last one's convergence measure,
    and ``converged`` records whether it reached :data:`BALANCE_TOL` within
    :data:`MAX_SWEEPS` sweeps.
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

    The balance centres log|a| over its support, by rows and by columns.
    Where every entry is nonzero that has a closed form: ``right_log`` is the
    negated column means and ``left_log`` the grand mean minus the row means,
    reported as converged after one sweep with zero shift. Otherwise each
    sweep centres the columns, then the rows, of the list of nonzeros,
    gathered once per call, so a sweep costs O(nnz) time and memory; its
    shift is the mean absolute column correction plus the mean absolute row
    correction, and iteration stops once it drops to :data:`BALANCE_TOL`.
    The number of sweeps is capped at :data:`MAX_SWEEPS`; reaching it is
    reported via ``converged=False``, not an exception. Both are constants,
    not parameters, so ``converged=True`` always means the same fixed point.
    Rows and columns with no nonzero entries are left untouched, and a mean
    over an empty selection counts as zero shift, so all-zero input
    converges immediately.

    Either way the core is formed once, from its logs: where exp of the
    largest would overflow, they are all lowered by s * ln 2, which
    ``left_log`` takes up, scaling the core by 2**-s.
    """
    a = as_matrix(a)
    m, n = a.shape
    magnitude = np.abs(a)
    support = magnitude > 0.0
    if support.all():
        logs = np.log(magnitude, out=magnitude)
        row_means = logs.mean(axis=1)
        left_log = row_means.mean() - row_means
        right_log = -logs.mean(axis=0)
        logs += left_log[:, None]
        logs += right_log
        iterations, shift = 1, 0.0
    else:
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
        for iterations in range(1, MAX_SWEEPS + 1):
            col_means = np.bincount(c_idx, vals, n) / col_counts
            vals -= col_means[c_idx]
            right_log -= col_means
            shift = float(np.abs(col_means).sum()) / nonempty_cols

            row_means = np.bincount(r_idx, vals, m) / row_counts
            vals -= row_means[r_idx]
            left_log -= row_means
            shift += float(np.abs(row_means).sum()) / nonempty_rows

            if shift <= BALANCE_TOL:
                break

        logs = magnitude
        logs.fill(-np.inf)
        logs[r_idx, c_idx] = vals

    # s centres the core's log range on 0, or only just fits its largest log
    # where that range is wider than float64's
    top = logs.max(initial=-np.inf)
    if top > LOG_MAX:
        bottom = logs.min(where=support, initial=np.inf)
        s = max(np.ceil((top + bottom) / (2 * LN2)), np.ceil((top - LOG_MAX) / LN2))
        logs -= s * LN2
        left_log -= s * LN2
    # off the support exp(-inf) leaves +0.0, which the mask keeps from a's -0.0
    core = np.copysign(np.exp(logs, out=logs), a, out=logs, where=support)
    return ScalingDecomposition(
        left_log=left_log,
        right_log=right_log,
        core=core,
        converged=shift <= BALANCE_TOL,
        iterations=iterations,
        final_shift=shift,
    )
