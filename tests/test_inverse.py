"""Tests for the unit-consistent inverse and the generalized-inverse identities."""

import numpy as np
import pytest

from ucrga import check_gi_identities, pinv, rga_uc, uc_consistency_residual, uc_inverse
from ucrga.matrix import DimensionError, permute

from golden import ONES3, PLANT, SCALED_ONES3, STACKED_PLANT
from reference_impl import reference_uc_rga
from suites import log_uniform, rank_controlled_suite, scaling_pairs_for

SUITE = rank_controlled_suite()
PAIRS = scaling_pairs_for(SUITE)


def test_identity_inverts_to_identity():
    np.testing.assert_allclose(uc_inverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_nonsingular_diagonal():
    np.testing.assert_allclose(uc_inverse(np.diag([2.0, 5.0])), np.diag([0.5, 0.2]), atol=1e-15)


def test_all_ones_inverse():
    result = uc_inverse(ONES3)
    np.testing.assert_allclose(result, ONES3 / 9.0, atol=1e-12)
    # oracle 1: the defining identities, by direct multiplication
    res = check_gi_identities(ONES3, result)
    assert res.residual_axa <= 1e-12 and res.residual_xax <= 1e-12
    # oracle 2: the loop-style reference (its core is the input itself here)
    _, core_ref, u_ref, v_ref, _ = reference_uc_rga(ONES3)
    np.testing.assert_array_equal(core_ref, ONES3)
    np.testing.assert_array_equal(u_ref, np.zeros(3))
    np.testing.assert_array_equal(v_ref, np.zeros(3))


def test_shape_is_transposed():
    assert uc_inverse(STACKED_PLANT).shape == (6, 3)


def test_matches_plain_inverse_when_nonsingular():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n))
        gi = np.linalg.inv(g)
        assert np.abs(uc_inverse(g) - gi).max() <= 1e-8 * np.abs(gi).max()


def test_gi_identities_exact_inverse():
    res = check_gi_identities(PLANT, np.linalg.inv(PLANT))
    assert res.residual_axa <= 1e-12
    assert res.residual_xax <= 1e-12


def test_gi_identities_quarter_ones():
    # direct multiplication oracle: entries are quarters, exact in doubles
    a = np.ones((2, 2))
    g = 0.25 * np.ones((2, 2))
    np.testing.assert_array_equal(a @ g @ a, a)
    np.testing.assert_array_equal(g @ a @ g, g)
    res = check_gi_identities(a, g)
    assert res.residual_axa <= 1e-12 and res.residual_xax <= 1e-12


def test_gi_identities_zero_candidate():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4))
    res = check_gi_identities(a, np.zeros((4, 3)))
    assert res.residual_axa == 1.0
    assert res.residual_xax == 0.0


def test_gi_identities_shape_mismatch():
    with pytest.raises(DimensionError):
        check_gi_identities(np.ones((2, 3)), np.ones((2, 3)))


def test_consistency_residual_identity_scalings():
    assert uc_consistency_residual(PLANT, np.ones(3), np.ones(3)) <= 1e-12


def test_consistency_residual_scaled_ones():
    d = np.array([2.0, 1.0, 1.0])
    assert uc_consistency_residual(ONES3, d, d) <= 1e-9


@pytest.mark.parametrize(
    "a, d, e",
    [
        ([[1e308, 1.0], [1.0, 1.0]], [10.0, 1.0], [1.0, 1.0]),
        ([[5e-324, 1.0], [1.0, 1.0]], [0.1, 1.0], [1.0, 1.0]),
        ([[1.0]], [2.0**-1000], [2.0**-1000]),
        (PLANT, [1e-300] * 3, [1e-300] * 3),
    ],
    ids=["overflowing-entry", "subnormal-entry", "tiny-1x1", "tiny-scalings"],
)
def test_consistency_residual_keeps_the_rescaled_copy_in_range(a, d, e):
    # diag(d) @ a @ diag(e) once overflowed to inf (a ValueError on finite
    # input), or flushed 5e-324 * 0.1 to zero and read the identity as
    # broken; mapping the inverse back by diag(e) and diag(d) once flushed
    # it to zero under tiny scalings, a residual of 1
    assert uc_consistency_residual(a, d, e) <= 1e-12


def test_inverse_with_a_scale_beyond_float64_stays_finite():
    # the balancing scales entry (0, 0) by about e**714, past float64's range;
    # it is SVD noise around an exact 0, so only the other entries are held
    inverse = uc_inverse([[1e-310, 1.0], [1.0, 0.0]])
    assert np.isfinite(inverse).all()
    for i, j, expected in ((0, 1, 1.0), (1, 0, 1.0), (1, 1, -1e-310)):
        assert abs(inverse[i, j] - expected) <= 1e-12 * abs(expected)


def test_moore_penrose_fails_the_same_consistency_check():
    # the analogous construction with pinv moves by order one: the rescaled
    # ones matrix is SCALED_ONES3, whose pinv is its transpose over 36
    d = np.array([2.0, 1.0, 1.0])
    mapped = d[:, None] * pinv(d[:, None] * ONES3 * d[None, :]) * d[None, :]
    base = pinv(ONES3)
    residual = np.abs(mapped - base).max() / np.abs(base).max()
    assert residual >= 0.1
    np.testing.assert_allclose(pinv(SCALED_ONES3), SCALED_ONES3.T / 36.0, atol=1e-14)


def test_identities_on_suite():
    for g, _ in SUITE:
        res = check_gi_identities(g, uc_inverse(g))
        assert res.residual_axa <= 1e-8
        assert res.residual_xax <= 1e-8


def test_diagonal_consistency_on_suite():
    for (g, _), (d, e) in zip(SUITE[:100], PAIRS[:100]):
        assert uc_consistency_residual(g, d, e) <= 1e-7


def test_consistency_with_signed_scalings():
    rng = np.random.default_rng(91)
    for g, _ in SUITE[:20]:
        m, n = g.shape
        d = log_uniform(rng, m, 1e-3, 1e3) * rng.choice([-1.0, 1.0], m)
        e = log_uniform(rng, n, 1e-3, 1e3) * rng.choice([-1.0, 1.0], n)
        assert uc_consistency_residual(g, d, e) <= 1e-7


def test_permutation_consistency():
    # reordering rows and columns reorders the inverse conformally
    rng = np.random.default_rng(888)
    for g, _ in SUITE[:40]:
        m, n = g.shape
        rows = rng.permutation(m)
        cols = rng.permutation(n)
        lhs = uc_inverse(permute(g, rows, cols))
        rhs = permute(uc_inverse(g), cols, rows)
        assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()


def test_uc_rank_is_core_rank():
    assert rga_uc(STACKED_PLANT).numerical_rank == 3
    assert rga_uc(ONES3).numerical_rank == 1
