"""Fixed matrices and the published two-decimal reference tables.

EXACT_RGA_PLANT is derived independently of the library: the inverse of an
integer matrix is its integer cofactor matrix over the integer determinant,
so RGA entry (i, j) is PLANT[i, j] * cof[i, j] / det exactly. For PLANT the
determinant is 68 and everything reduces to small integers over 17.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# nonsingular 3x3 test plant with integer entries (determinant 68)
PLANT = np.array([[7.0, 4, 8], [7, 2, 5], [3, 8, 8]])

# the same plant with columns rescaled by 3, 4, 2: a pure change of input units
COLUMN_FACTORS = np.array([3.0, 4.0, 2.0])
RESCALED_PLANT = PLANT * COLUMN_FACTORS

# both descriptions side by side: a wide matrix whose 3x3 blocks describe the
# same system in different units
STACKED_PLANT = np.hstack([PLANT, RESCALED_PLANT])

# the same wide matrix with the rescaled block first
STACKED_PLANT_SWAPPED = np.hstack([RESCALED_PLANT, PLANT])


def _unconverged_bidiagonal(n=50):
    """Upper bidiagonal n x n, diagonal then superdiagonal drawn from
    default_rng(0) as 10 ** U(-0.5, 0.5)."""
    rng = np.random.default_rng(0)
    g = np.zeros((n, n))
    i = np.arange(n)
    g[i, i] = 10.0 ** rng.uniform(-0.5, 0.5, n)
    g[i[:-1], i[:-1] + 1] = 10.0 ** rng.uniform(-0.5, 0.5, n - 1)
    return g


# a sparse plant the balancing sweep does not settle: it stops at the sweep
# cap with a last shift of about 6e-8, far above the default tolerance
UNCONVERGED_BIDIAGONAL = _unconverged_bidiagonal()

# exact RGA of PLANT via integer cofactors (see module docstring)
EXACT_RGA_PLANT = np.array([[-42.0, -41, 100], [56, 16, -55], [3, 42, -28]]) / 17

# published reference values for the RGA of PLANT, rounded to two decimals
PUBLISHED_RGA_PLANT = np.array(
    [
        [-2.47, -2.41, 5.88],
        [3.29, 0.94, -3.24],
        [0.18, 2.47, -1.65],
    ]
)

# published tables for the wide plants appear as one half times these entries,
# so compare them against 2 * result
PUBLISHED_UC_RGA_STACKED_X2 = np.hstack([PUBLISHED_RGA_PLANT, PUBLISHED_RGA_PLANT])

# the published MP-RGA table, as printed. It describes STACKED_PLANT_SWAPPED,
# not STACKED_PLANT: its left block is the rescaled plant's share of the exact
# RGA (f^2 / (1 + f^2) per column) and its right block the plant's share
# (1 / (1 + f^2)). Entry (0, 0) is a misprint; see PUBLISHED_MP_RGA_ERRATA.
PUBLISHED_MP_RGA_SWAPPED_X2 = np.array(
    [
        [-4.47, -4.54, 9.41, -0.49, -0.28, 2.35],
        [5.93, 1.77, -5.18, 0.66, 0.11, -1.29],
        [0.32, 4.65, -2.64, 0.04, 0.29, -0.66],
    ]
)


@dataclass(frozen=True)
class Erratum:
    """One misprinted entry of a published two-decimal table."""

    index: tuple[int, int]
    printed: float
    corrected: float
    exact: Fraction


# The two blocks share each exact RGA entry between them, so block sums must
# reproduce 2 * EXACT_RGA_PLANT to within 0.01 of rounding. Only column 0 of
# row 0 misses, by 0.0188 (-4.47 + -0.49 against -84/17); every other pair is
# within 0.0071. The exact value 2 * (-42/17) * 9/10 = -378/85 = -4.4471 rounds
# to -4.45, so the misprint is in the left block.
PUBLISHED_MP_RGA_ERRATA = (
    Erratum(index=(0, 0), printed=-4.47, corrected=-4.45, exact=Fraction(-378, 85)),
)

ONES3 = np.ones((3, 3))

# all-ones with the first row and column doubled
SCALED_ONES3 = np.outer([2.0, 1, 1], [2.0, 1, 1])

# exact MP result for SCALED_ONES3: for a rank-1 matrix the pseudoinverse is
# the transpose over the squared Frobenius norm (here 36), so the MP-RGA is
# the squared entries over 36
MP_RGA_SCALED_ONES3 = SCALED_ONES3 * SCALED_ONES3 / 36.0
