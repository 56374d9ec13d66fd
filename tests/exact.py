"""The classical relative gain array in exact rational arithmetic.

Every float64 is a rational number, so a nonsingular square matrix of floats
has an exact RGA g * inv(g).T. This module computes it by Gauss-Jordan
elimination over ``fractions.Fraction``, using only the standard library, so
it shares no rounding with LAPACK or numpy: an error that every float64
oracle inherits from the same factorization shows up against it.
"""

from fractions import Fraction


def exact_inverse(g):
    """inv(g) as a list of rows of Fractions, or None if g is singular.

    ``g`` is a square sequence of rows of floats, ints or Fractions."""
    n = len(g)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(g)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            if r != col and (factor := rows[r][col]) != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def exact_rga(g):
    """g * inv(g).T as a list of rows of Fractions, or None if g is singular."""
    inverse = exact_inverse(g)
    if inverse is None:
        return None
    n = len(g)
    return [[Fraction(g[i][j]) * inverse[j][i] for j in range(n)] for i in range(n)]
