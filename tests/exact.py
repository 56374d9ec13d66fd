"""Relative gain arrays in exact or arbitrary-precision arithmetic.

Every float64 is a rational number, so a nonsingular square matrix of floats
has an exact RGA g * inv(g).T. This module computes it by Gauss-Jordan
elimination over ``fractions.Fraction``, and the unit-consistent RGA of a
plant of any shape with no zero entry over ``decimal.Decimal`` at a chosen
precision. It uses only the standard library, so it shares no rounding with
LAPACK or numpy: an error that every float64 oracle inherits from the same
factorization shows up against it.
"""

from decimal import Decimal, localcontext
from fractions import Fraction


def _invert(a):
    """inv(a) for a square list of rows of Fractions or Decimals, by
    Gauss-Jordan elimination on the largest pivot of each column, or None if
    a column has no nonzero pivot."""
    n = len(a)
    kind = type(a[0][0])
    rows = [list(row) + [kind(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            if r != col and (factor := rows[r][col]) != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def exact_inverse(g):
    """inv(g) as a list of rows of Fractions, or None if g is singular.

    ``g`` is a square sequence of rows of floats, ints or Fractions."""
    return _invert([[Fraction(x) for x in row] for row in g])


def exact_rga(g):
    """g * inv(g).T as a list of rows of Fractions, or None if g is singular."""
    inverse = exact_inverse(g)
    if inverse is None:
        return None
    n = len(g)
    return [[Fraction(g[i][j]) * inverse[j][i] for j in range(n)] for i in range(n)]


def exact_uc_rga(g, digits):
    """The unit-consistent RGA X * pinv(X).T of a plant with no zero entry,
    as a list of rows of Decimals, every step rounded to ``digits``
    significant digits; None if X has less than full rank.

    ``g`` is a sequence of m rows of n floats. X is g balanced in closed
    form: two-way centering of ln|g| makes every row and column of |X| have
    unit geometric mean, and X keeps the signs of g. pinv(X) is
    X.T @ inv(X @ X.T) for m <= n and inv(X.T @ X) @ X.T otherwise."""
    m, n = len(g), len(g[0])
    if any(x == 0 for row in g for x in row):
        raise ValueError("the closed-form balance needs a plant with no zero entry")
    with localcontext() as context:
        context.prec = digits
        # Decimal(float) is exact; ln rounds once
        logs = [[Decimal(abs(x)).ln() for x in row] for row in g]
        row_means = [sum(row) / n for row in logs]
        col_means = [sum(row[j] for row in logs) / m for j in range(n)]
        grand_mean = sum(row_means) / m
        x = [
            [
                (logs[i][j] - row_means[i] - col_means[j] + grand_mean).exp().copy_sign(Decimal(g[i][j]))
                for j in range(n)
            ]
            for i in range(m)
        ]
        xt = [list(column) for column in zip(*x)]
        wide = m <= n
        gram = _invert(_product(x, xt) if wide else _product(xt, x))
        if gram is None:
            return None
        x_pinv = _product(xt, gram) if wide else _product(gram, xt)
        return [[x[i][j] * x_pinv[j][i] for j in range(n)] for i in range(m)]


def _product(a, b):
    """a @ b for lists of rows."""
    return [[sum(p * q for p, q in zip(row, column)) for column in zip(*b)] for row in a]
