"""Tests for the numerical rank and the pseudoinverse."""

import numpy as np
import pytest

from ucrga import pinv
from ucrga.svd import GRAM_TOL, RANK_TOL, scaled_pinv

from golden import PLANT, STACKED_PLANT, COLUMN_FACTORS, RESCALED_PLANT
from suites import rank_controlled_suite, with_singular_values

# shapes up to 8x8, rectangular and rank-deficient included
SVD_SUITE = rank_controlled_suite(count=200, seed=99, max_rows=8, max_cols=8)

# full-rank rectangular input is inverted through the Gram matrix of its
# short side, so wide, single-row and single-column shapes are held to the
# same contract as the square shapes the SVD factors
_rng = np.random.default_rng(2000)
LONG_SHAPES = [
    _rng.standard_normal(shape)
    for shape in ((30, 1000), (50, 2000), (1, 9), (1, 1000), (9, 1), (1000, 1))
]

# (plant, whether the Gram path takes it): the Gram matrix's eigenvalue ratio
# is 1 / kappa**2, inside GRAM_TOL at kappa = 9e2 and outside it at 3e3; a
# rank-deficient plant is always outside it
_gate_rng = np.random.default_rng(2002)
_KAPPA_900, _KAPPA_3000 = np.geomspace(1.0, 1.0 / 9e2, 6), np.geomspace(1.0, 1.0 / 3e3, 6)
GATE_PLANTS = {
    "wide-kappa900": (with_singular_values((6, 20), _KAPPA_900, 0), True),
    "tall-kappa900": (with_singular_values((20, 6), _KAPPA_900, 1), True),
    "wide-kappa3000": (with_singular_values((6, 20), _KAPPA_3000, 0), False),
    "tall-kappa3000": (with_singular_values((20, 6), _KAPPA_3000, 1), False),
    "wide-rank3": (with_singular_values((6, 20), [1.0, 0.5, 0.1], 3), False),
    "tall-rank3": (with_singular_values((20, 6), [1.0, 0.5, 0.1], 4), False),
    "row-1x9": (_gate_rng.standard_normal((1, 9)), True),
    "column-9x1": (_gate_rng.standard_normal((9, 1)), True),
}


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


def rank(a):
    return scaled_pinv(np.asarray(a, dtype=float))[3]


def test_svd_diagonal_input():
    # diag(3, 2) is factored as diag(0.75, 0.5): the exponent of 3 is 2
    x, x_pinv, k, r = scaled_pinv(np.diag([3.0, 2.0]))
    assert (k, r) == (2, 2)
    assert np.array_equal(x, np.diag([0.75, 0.5]))
    np.testing.assert_allclose(x_pinv, np.diag([4.0 / 3.0, 2.0]), rtol=1e-15)


def test_svd_ones_is_rank_one_norm_three():
    # ones(3, 3) / 2 has the single nonzero singular value 3 / 2, so its
    # pseudoinverse is its transpose over 9 / 4
    x, x_pinv, _, r = scaled_pinv(np.ones((3, 3)))
    assert r == 1
    assert np.array_equal(x, np.full((3, 3), 0.5))
    np.testing.assert_allclose(x_pinv, np.full((3, 3), 0.5 / 2.25), rtol=1e-14)


def test_plant_has_full_rank():
    # independent oracle: nonzero exact determinant implies rank 3
    assert det3_by_cofactors(PLANT) == 68.0
    assert rank(PLANT) == 3


def test_numerical_rank_ones():
    # the 2x2 of 1.5e308 has an infinite largest singular value, 3e308,
    # unless it is scaled first
    for g in (np.ones((3, 3)), np.full((2, 2), 1.5e308)):
        assert rank(g) == 1


def test_numerical_rank_zero_matrix():
    _, x_pinv, _, r = scaled_pinv(np.zeros((3, 4)))
    assert r == 0
    assert np.array_equal(x_pinv, np.zeros((4, 3)))


def test_numerical_rank_stacked_plant():
    # the right block's columns are rescalings of the left block's columns
    # (exact construction in golden.py), so the column space is the left
    # block's and the rank is 3
    np.testing.assert_array_equal(PLANT * COLUMN_FACTORS, RESCALED_PLANT)
    assert rank(STACKED_PLANT) == 3


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
    # the rank counts the singular values of x = g / 2**k above the cutoff
    # RANK_TOL * sigma[0] * max(m, n), whichever way x is factored
    for g, expected in SVD_SUITE[:80] + [(g, min(g.shape)) for g in LONG_SHAPES]:
        x, _, k, r = scaled_pinv(g)
        assert np.array_equal(x, np.ldexp(g, -k))
        sigma = np.linalg.svd(x, compute_uv=False)
        assert type(r) is int
        assert r == np.count_nonzero(sigma > RANK_TOL * sigma[0] * max(g.shape)) == expected


@pytest.mark.parametrize("name", list(GATE_PLANTS))
def test_rank_is_the_svd_count_on_both_sides_of_the_gram_gate(name):
    g, certified = GATE_PLANTS[name]
    x, _, _, r = scaled_pinv(g)
    sigma = np.linalg.svd(x, compute_uv=False)
    assert r == np.count_nonzero(sigma > RANK_TOL * sigma[0] * max(g.shape))
    assert r == (3 if name.endswith("rank3") else min(g.shape))
    # each plant lies on the side of the gate its label says
    s = x if x.shape[0] < x.shape[1] else x.T
    w = np.linalg.eigvalsh(s @ s.T)
    assert (w[0] > GRAM_TOL * w[-1]) == certified


@pytest.mark.parametrize("name", list(GATE_PLANTS))
def test_only_plants_outside_the_gram_gate_reach_the_svd(name, monkeypatch):
    g, certified = GATE_PLANTS[name]
    expected = scaled_pinv(g)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    if certified:
        assert bits(scaled_pinv(g)) == bits(expected)
        assert expected[3] == min(g.shape)
    else:
        with pytest.raises(np.linalg.LinAlgError):
            scaled_pinv(g)


def test_penrose_conditions_on_suite():
    for g in [g for g, _ in SVD_SUITE] + LONG_SHAPES:
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
    first, second = scaled_pinv(PLANT), scaled_pinv(PLANT)
    for a, b in zip(first[:3], second[:3]):
        assert np.array_equal(a, b)
    assert first[3] == second[3] == 3


def test_scaled_pinv_reports_rank_used():
    _, x_pinv, k, r = scaled_pinv(STACKED_PLANT)
    assert type(r) is int
    assert r == 3
    assert x_pinv.shape == (6, 3)
    assert np.array_equal(np.ldexp(x_pinv, -k), pinv(STACKED_PLANT))


@pytest.mark.parametrize("shift", [-1070, -600, -1, 1, 600, 1000])
def test_pinv_commutes_exactly_with_powers_of_two(shift):
    # pinv factors a / 2**k, k the binary exponent of max|a|, so 2**shift * a
    # is factored as the very same matrix
    for g in (PLANT, STACKED_PLANT, np.ones((2, 3))):
        x, x_pinv, k, r = scaled_pinv(np.ldexp(g, shift))
        base_x, base_pinv, base_k, base_r = scaled_pinv(g)
        assert 0.5 <= np.abs(x).max() < 1.0
        assert np.array_equal(x, base_x) and np.array_equal(x_pinv, base_pinv)
        assert (k, r) == (base_k + shift, base_r)
        with np.errstate(over="ignore"):
            scaled, expected = pinv(np.ldexp(g, shift)), np.ldexp(pinv(g), -shift)
            read_off = np.ldexp(x_pinv, -k)
        # at -1070 pinv itself overflows, and must do so exactly where the
        # exact power of two does; elsewhere every entry is finite
        finite = np.isfinite(expected)
        assert finite.all() == (shift != -1070)
        for result in (scaled, read_off):
            assert np.array_equal(np.isfinite(result), finite)
            assert np.array_equal(result[finite], expected[finite])


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        pinv([[1.0, np.nan]])


def bits(returns):
    """scaled_pinv's returns, each array as its shape, type and bytes."""
    return [(r.shape, r.dtype, r.tobytes()) if isinstance(r, np.ndarray) else r for r in returns]
