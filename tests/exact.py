"""Relative gain arrays in exact or arbitrary-precision arithmetic.

Every float64 is a rational number, so a nonsingular square matrix of floats
has an exact RGA g * inv(g).T. This module computes it by Gauss-Jordan
elimination over ``fractions.Fraction``, and the unit-consistent RGA over
``decimal.Decimal`` at a chosen precision: of a full-rank plant of any shape
and any pattern of zeros, and of a singular or rectangular plant of known
rank r built as the product of integer factors of rank r, whose unit-consistent
inverse it also gives. It uses only the standard library, so it shares no
rounding with LAPACK or numpy: an error that every float64 oracle inherits
from the same factorization shows up against it.
"""

from decimal import Decimal, localcontext
from fractions import Fraction


def _solve(a, b):
    """inv(a) @ b for a square list of rows ``a`` and a list of rows ``b``,
    of Fractions or Decimals, by Gauss-Jordan elimination on the largest
    pivot of each column, or None if a column has no nonzero pivot."""
    n = len(a)
    rows = [list(row) + list(extra) for row, extra in zip(a, b)]
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
    n = len(g)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return _solve([[Fraction(x) for x in row] for row in g], identity)


def exact_rga(g):
    """g * inv(g).T as a list of rows of Fractions, or None if g is singular."""
    inverse = exact_inverse(g)
    if inverse is None:
        return None
    n = len(g)
    return [[Fraction(g[i][j]) * inverse[j][i] for j in range(n)] for i in range(n)]


def exact_uc_rga(g, digits):
    """The unit-consistent RGA X * pinv(X).T of a plant of any shape and
    support, as a list of rows of Decimals, every step rounded to ``digits``
    significant digits; None if elimination meets a zero pivot in X's Gram
    matrix.

    ``g`` is a sequence of m rows of n floats. X is g balanced, keeping its
    signs: X_ij = g_ij * exp(u_i + v_j), where u and v solve the normal
    equations of the least-squares problem ln|g_ij| + u_i + v_j = 0 over the
    nonzero entries (the Laplacian of their bipartite graph, up to the sign
    of v). They say that every row and column of |X| has unit geometric mean
    over its nonzeros, and they leave one constant free in each connected
    component (u + t, v - t), which moves no entry of X: the first row or
    column of each component is held at zero, so an empty line stays zero.

    pinv(X) is X.T @ inv(X @ X.T), which holds only for X of full rank. On a
    rank-deficient X, rounding can leave the Gram matrix invertible, and the
    result is then meaningless, so this is for full-rank plants; a plant of
    lower rank goes to :func:`exact_uc_of_product` as its factors."""
    m, n = len(g), len(g[0])
    if m > n:
        # pinv(X.T) is pinv(X).T, so the RGA of g.T is that of g transposed
        rga = exact_uc_rga(_transpose(g), digits)
        return None if rga is None else _transpose(rga)
    with localcontext() as context:
        context.prec = digits
        logs, scale = _balance(g)
        x = [
            [
                (logs[i, j] + scale[i] + scale[m + j]).exp().copy_sign(Decimal(g[i][j]))
                if (i, j) in logs
                else Decimal(0)
                for j in range(n)
            ]
            for i in range(m)
        ]
        # pinv(X).T = inv(X @ X.T) @ X, the Gram matrix being symmetric
        x_pinv_t = _solve(_product(x, _transpose(x)), x)
        if x_pinv_t is None:
            return None
        return [[x[i][j] * x_pinv_t[i][j] for j in range(n)] for i in range(m)]


def exact_uc_of_product(a, b, digits):
    """The unit-consistent RGA X * pinv(X).T and the unit-consistent inverse
    diag(e^v) pinv(X) diag(e^u) of g = a @ b, as lists of rows of Decimals,
    every step rounded to ``digits`` significant digits, with X, u and v as
    in :func:`exact_uc_rga`.

    ``a`` (m x r) and ``b`` (r x n) are lists of rows of ints, each of rank r,
    so g is exact in float64 while its entries stay below 2**53, and its rank
    is exactly r. X is F @ G with F = diag(e^u) a and G = b diag(e^v), both of
    rank r, so pinv(X) = G.T inv(G G.T) inv(F.T F) F.T (Ben-Israel and
    Greville, Generalized Inverses, 2003), which needs only r x r solves."""
    g = _product(a, b)
    m, n = len(g), len(g[0])
    with localcontext() as context:
        context.prec = digits
        scale = [value.exp() for value in _balance(g)[1]]
        f = [[scale[i] * x for x in row] for i, row in enumerate(a)]
        h = [[x * scale[m + j] for j, x in enumerate(row)] for row in b]
        f_t, h_t = _transpose(f), _transpose(h)
        x_pinv = _product(h_t, _solve(_product(h, h_t), _solve(_product(f_t, f), f_t)))
        x = _product(f, h)
        rga = [[x[i][j] * x_pinv[j][i] for j in range(n)] for i in range(m)]
        inverse = [[scale[m + j] * x_pinv[j][i] * scale[i] for i in range(m)] for j in range(n)]
        return rga, inverse


def _balance(g):
    """ln|g_ij| over the support of g, keyed by (i, j), and the balancing
    exponents u_0..u_m-1, v_0..v_n-1 of :func:`exact_uc_rga` as one list, in
    the current decimal context."""
    m, n = len(g), len(g[0])
    support = [(i, j) for i in range(m) for j in range(n) if g[i][j] != 0]
    # node i is row i and node m + j column j; each component's root is held
    root = list(range(m + n))
    for i, j in support:
        a, b = _find(root, i), _find(root, m + j)
        root[max(a, b)] = min(a, b)
    free = [k for k in range(m + n) if _find(root, k) != k]
    # Decimal(float) is exact; ln rounds once
    logs = {(i, j): Decimal(abs(g[i][j])).ln() for i, j in support}
    normal = [[Decimal(0)] * (m + n) for _ in range(m + n)]
    rhs = [Decimal(0)] * (m + n)
    for (i, j), log in logs.items():
        for a, b in ((i, m + j), (m + j, i)):
            normal[a][a] += 1
            normal[a][b] += 1
            rhs[a] -= log
    solution = _solve([[normal[a][b] for b in free] for a in free], [[rhs[a]] for a in free])
    scale = [Decimal(0)] * (m + n)
    for k, (value,) in zip(free, solution):
        scale[k] = value
    return logs, scale


def _find(root, k):
    """The root of node k in the union-find forest ``root``."""
    while root[k] != k:
        k = root[k]
    return k


def _product(a, b):
    """a @ b for lists of rows."""
    return [[sum(p * q for p, q in zip(row, column)) for column in zip(*b)] for row in a]


def _transpose(a):
    """a.T for a list of rows."""
    return [list(column) for column in zip(*a)]
