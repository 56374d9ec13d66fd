"""Deterministic random-matrix suites shared by the test modules.

The dense suites hold products of Gaussian factors, so each one's rank is
exact by construction and its singular values split cleanly into kept and
discarded groups. The sparse suite holds banded and block patterns with
zero entries and empty lines, the inputs the balancing sweep iterates on.
Everything is seeded: the same draws appear in every run.
"""

import numpy as np

SUITE_SEED = 1729
SUITE_COUNT = 200


def rank_controlled_suite(count=SUITE_COUNT, seed=SUITE_SEED, max_rows=6, max_cols=8):
    """(matrix, rank) pairs with 2..max_rows rows, 2..max_cols columns, and
    rank uniform in 1..min(m, n)."""
    rng = np.random.default_rng(seed)
    suite = []
    for _ in range(count):
        m = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(2, max_cols + 1))
        r = int(rng.integers(1, min(m, n) + 1))
        suite.append((rng.standard_normal((m, r)) @ rng.standard_normal((r, n)), r))
    return suite


def with_singular_values(shape, sigma, seed):
    """qa @ diag(sigma) @ qb.T for an m x n ``shape``, qa and qb the
    orthonormal Q factors of Gaussian m x r and n x r draws, r = len(sigma):
    a plant whose singular values are sigma to rounding, and zero past r."""
    rng = np.random.default_rng(seed)
    (m, n), r = shape, len(sigma)
    qa = np.linalg.qr(rng.standard_normal((m, r)))[0]
    qb = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (qa * sigma) @ qb.T


def log_uniform(rng, size, low=1e-6, high=1e6):
    """Positive scale factors with log-uniform magnitude in [low, high]."""
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


def scaling_pairs_for(suite, seed=SUITE_SEED + 1, low=1e-6, high=1e6):
    """One deterministic (row scaling, column scaling) pair per suite entry."""
    rng = np.random.default_rng(seed)
    return [
        (log_uniform(rng, g.shape[0], low, high), log_uniform(rng, g.shape[1], low, high))
        for g, _ in suite
    ]


def rank_one_2x2_suite(count=100, seed=SUITE_SEED + 2):
    """All-nonzero rank-1 2x2 matrices; entry magnitudes are log-uniform over
    [1e-6, 1e6] (outer products of log-uniform [1e-3, 1e3] vectors) with
    random signs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = log_uniform(rng, 2, 1e-3, 1e3) * rng.choice([-1.0, 1.0], 2)
        y = log_uniform(rng, 2, 1e-3, 1e3) * rng.choice([-1.0, 1.0], 2)
        out.append(np.outer(x, y))
    return out


def _signs(rng, size):
    return rng.choice([-1.0, 1.0], size)


def _rescaled(rng, pattern):
    """diag(d) @ pattern @ diag(e) with d and e log-uniform over [1e-2, 1e2]."""
    m, n = pattern.shape
    return log_uniform(rng, m, 1e-2, 1e2)[:, None] * pattern * log_uniform(rng, n, 1e-2, 1e2)


def _bidiagonal(rng, n):
    """Upper bidiagonal n x n with random signs, rows and columns rescaled."""
    i = np.arange(n)
    pattern = np.zeros((n, n))
    pattern[i, i] = _signs(rng, n)
    pattern[i[:-1], i[:-1] + 1] = _signs(rng, n - 1)
    return _rescaled(rng, pattern)


def _staircase(rng, m):
    """Staircase m x (m+1), entries (i, i) and (i, i+1), rows and columns rescaled."""
    i = np.arange(m)
    pattern = np.zeros((m, m + 1))
    pattern[i, i] = _signs(rng, m)
    pattern[i, i + 1] = _signs(rng, m)
    return _rescaled(rng, pattern)


def _deficient_tridiagonal(rng, n):
    """Tridiagonal n x n of rank n-1: a lower times an upper bidiagonal factor
    of width n-1, entries of magnitude 0.5..2 with random signs, then rows and
    columns rescaled."""
    k = np.arange(n - 1)
    lower = np.zeros((n, n - 1))
    upper = np.zeros((n - 1, n))
    for factor, rows, cols in ((lower, k, k), (lower, k + 1, k), (upper, k, k), (upper, k, k + 1)):
        factor[rows, cols] = rng.uniform(0.5, 2.0, n - 1) * _signs(rng, n - 1)
    return _rescaled(rng, lower @ upper)


def sparse_suite(seed=SUITE_SEED + 3):
    """Named sparse plants: banded and staircase patterns as in the
    benchmark's sparse workload, a block-diagonal plant with a zero inside
    one block, a bidiagonal with one all-zero row and one all-zero column,
    and a single row and a single column with zeros."""
    rng = np.random.default_rng(seed)
    suite = {
        "bidiagonal_12x12": _bidiagonal(rng, 12),
        "staircase_12x13": _staircase(rng, 12),
        "deficient_tridiagonal_20x20": _deficient_tridiagonal(rng, 20),
    }
    blocks = np.zeros((7, 8))
    blocks[:3, :4] = rng.standard_normal((3, 4))
    blocks[1, 2] = 0.0
    blocks[3:, 4:] = rng.standard_normal((4, 4))
    suite["block_diagonal_7x8"] = _rescaled(rng, blocks)
    holes = _bidiagonal(rng, 10)
    holes[4, :] = 0.0
    holes[:, 7] = 0.0
    suite["bidiagonal_empty_lines_10x10"] = holes
    suite["row_1x9"] = _rescaled(rng, rng.standard_normal((1, 9)) * (np.arange(9) % 3 != 1))
    column = rng.standard_normal((9, 1)) * (np.arange(9) % 4 != 2)[:, None]
    suite["column_9x1"] = _rescaled(rng, column)
    return suite
