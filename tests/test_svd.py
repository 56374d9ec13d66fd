"""Tests for the SVD wrapper, numerical rank, and the pseudoinverse."""

import numpy as np
import pytest

from ucrga.svd import RankInfo, SvdFactors, numerical_rank, pinv, pinv_from_factors, svd

from golden import PLANT, STACKED_PLANT, COLUMN_FACTORS, RESCALED_PLANT
from suites import rank_controlled_suite

# shapes up to 8x8, rectangular and rank-deficient included
SVD_SUITE = rank_controlled_suite(count=200, seed=99, max_rows=8, max_cols=8)


def det3_by_cofactors(a):
    """Exact 3x3 determinant by cofactor expansion along the first row.

    Integer-entried input stays exact in doubles, making this an oracle that
    does not touch any decomposition code.
    """
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def test_svd_diagonal_input():
    np.testing.assert_allclose(svd(np.diag([3.0, 2.0])).sigma, [3.0, 2.0], atol=1e-12)


def test_svd_ones_is_rank_one_norm_three():
    np.testing.assert_allclose(svd(np.ones((3, 3))).sigma, [3.0, 0.0, 0.0], atol=1e-12)


def test_plant_has_full_rank():
    # independent oracle: nonzero exact determinant implies rank 3
    assert det3_by_cofactors(PLANT) == 68.0
    info = numerical_rank(svd(PLANT))
    assert info.numerical_rank == 3


def test_numerical_rank_ones():
    assert numerical_rank(svd(np.ones((3, 3)))).numerical_rank == 1


def test_numerical_rank_zero_matrix():
    info = numerical_rank(svd(np.zeros((3, 4))))
    assert info.numerical_rank == 0
    assert info.largest_sv == 0.0


def test_numerical_rank_stacked_plant():
    # the right block's columns are rescalings of the left block's columns
    # (exact construction in golden.py), so the column space is the left
    # block's and the rank is 3
    np.testing.assert_array_equal(PLANT * COLUMN_FACTORS, RESCALED_PLANT)
    assert numerical_rank(svd(STACKED_PLANT)).numerical_rank == 3


def test_numerical_rank_requires_positive_tolerance():
    # a NaN cutoff would keep no singular value and report rank 0
    for rel_tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            numerical_rank(svd(PLANT), rel_tol=rel_tol)


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_rank_one_ones():
    a = np.ones((2, 2))
    # rank-1 oracle: pinv equals the transpose over the squared Frobenius norm
    expected = a.T / 4.0
    result = pinv(a)
    np.testing.assert_allclose(result, expected, atol=1e-14)
    # direct check of all four defining conditions
    np.testing.assert_allclose(a @ result @ a, a, atol=1e-12)
    np.testing.assert_allclose(result @ a @ result, result, atol=1e-12)
    np.testing.assert_allclose(a @ result, (a @ result).T, atol=1e-12)
    np.testing.assert_allclose(result @ a, (result @ a).T, atol=1e-12)


def test_pinv_singular_diagonal():
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_factor_invariants_on_suite():
    # wide input is factored through its transpose, so wide, single-row and
    # single-column shapes are held to the same thin contract
    rng = np.random.default_rng(2000)
    shapes = ((30, 1000), (50, 2000), (1, 9), (1, 1000), (9, 1), (1000, 1))
    extra = [rng.standard_normal(shape) for shape in shapes]
    for g in [g for g, _ in SVD_SUITE[:80]] + extra:
        f = svd(g)
        m, n = f.shape
        k = min(m, n)
        # thin factors: only the k singular directions are computed
        assert f.u.shape == (m, k) and f.v.shape == (n, k) and f.sigma.shape == (k,)
        assert np.abs(f.u.T @ f.u - np.eye(k)).max() <= 1e-10
        assert np.abs(f.v.T @ f.v - np.eye(k)).max() <= 1e-10
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
        reconstruction = (f.u[:, :k] * f.sigma) @ f.v[:, :k].T
        assert np.abs(reconstruction - g).max() <= 1e-10
        assert np.abs(f.sigma - np.linalg.svd(g, compute_uv=False)).max() <= 1e-13 * f.sigma[0]


def test_penrose_conditions_on_suite():
    for g, _ in SVD_SUITE:
        gp = pinv(g)
        scale_g = np.abs(g).max()
        scale_gp = np.abs(gp).max()
        assert np.abs(g @ gp @ g - g).max() <= 1e-9 * scale_g
        assert np.abs(gp @ g @ gp - gp).max() <= 1e-9 * scale_gp
        left = g @ gp
        right = gp @ g
        assert np.abs(left - left.T).max() <= 1e-9 * max(np.abs(left).max(), 1.0)
        assert np.abs(right - right.T).max() <= 1e-9 * max(np.abs(right).max(), 1.0)


def test_unitary_consistency():
    # transforming by orthonormal factors commutes with the pseudoinverse
    rng = np.random.default_rng(7)
    for g, _ in SVD_SUITE[:100]:
        m, n = g.shape
        qu, _ = np.linalg.qr(rng.standard_normal((m, m)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lhs = pinv(qu @ g @ qv)
        rhs = qv.T @ pinv(g) @ qu.T
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()


def test_pinv_matches_gaussian_elimination_inverse():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n))
        gi = np.linalg.inv(g)
        assert np.abs(pinv(g) - gi).max() <= 1e-8 * np.abs(gi).max()


def test_svd_is_deterministic():
    f1 = svd(PLANT)
    f2 = svd(PLANT)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.sigma, f2.sigma)
    assert np.array_equal(f1.v, f2.v)


def test_pinv_from_factors_reports_rank_used():
    factors = svd(STACKED_PLANT)
    result, info = pinv_from_factors(factors)
    assert isinstance(info, RankInfo)
    assert info.numerical_rank == 3
    assert result.shape == (6, 3)


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        svd([[1.0, np.nan]])
