"""Tests for the three RGA routes and their structural properties."""

from collections import Counter

import numpy as np
import pytest

import ucrga.rga as rga_module
from ucrga import pinv, uc_inverse
from ucrga.matrix import DimensionError, apply_diag, permute
from ucrga.rga import (
    SingularMatrixError,
    rga_mp,
    rga_routes,
    rga_strict,
    rga_summary,
    rga_uc,
    scaling_invariance_residual,
)

from golden import (
    COLUMN_FACTORS,
    EXACT_RGA_PLANT,
    MP_RGA_SCALED_ONES3,
    ONES3,
    PLANT,
    PUBLISHED_RGA_PLANT,
    RESCALED_PLANT,
    SCALED_ONES3,
    STACKED_PLANT,
    UNCONVERGED_BIDIAGONAL,
)
from reference_impl import reference_uc_rga
from suites import log_uniform, rank_controlled_suite, scaling_pairs_for, sparse_suite

SUITE = rank_controlled_suite()
SPARSE = sparse_suite()
PAIRS = scaling_pairs_for(SUITE)


# -------------------------------------------------------------------- strict

def test_strict_identity():
    result = rga_strict(np.eye(3))
    np.testing.assert_allclose(result.rga, np.eye(3), atol=1e-14)
    assert result.method == "strict"
    assert result.numerical_rank == 3


def test_strict_plant_matches_exact_values():
    result = rga_strict(PLANT)
    assert np.abs(result.rga - EXACT_RGA_PLANT).max() <= 1e-9
    assert np.abs(result.rga - PUBLISHED_RGA_PLANT).max() <= 5e-3
    assert np.abs(result.row_sums - 1.0).max() <= 1e-9
    assert np.abs(result.col_sums - 1.0).max() <= 1e-9
    assert abs(result.element_sum - 3.0) <= 1e-9


def test_strict_is_invariant_under_column_rescaling():
    # the rescaled plant describes the same system in different units
    result = rga_strict(RESCALED_PLANT)
    assert np.abs(result.rga - EXACT_RGA_PLANT).max() <= 1e-9


def test_strict_rank_gate_does_not_depend_on_units():
    # the raw matrix's singular values spread over 14 decades and its own
    # rank under the cutoff is 2; the balanced core, and so the decision,
    # is that of PLANT
    result = rga_strict(np.diag([1e-8, 1.0, 1e6]) @ PLANT)
    assert result.numerical_rank == 3
    assert np.abs(result.rga - EXACT_RGA_PLANT).max() <= 1e-12


def test_strict_rejects_rectangular():
    with pytest.raises(DimensionError, match="square"):
        rga_strict(STACKED_PLANT)


def test_strict_rejects_singular_and_points_to_alternatives():
    with pytest.raises(SingularMatrixError, match="rga_mp or rga_uc"):
        rga_strict(ONES3)


# ------------------------------------------------------------------------ mp

def test_mp_all_ones():
    result = rga_mp(ONES3)
    np.testing.assert_allclose(result.rga, ONES3 / 9.0, atol=1e-12)
    assert result.numerical_rank == 1
    assert abs(result.element_sum - 1.0) <= 1e-12


def test_mp_scaled_ones_shows_unit_dependence():
    result = rga_mp(SCALED_ONES3)
    np.testing.assert_allclose(result.rga, MP_RGA_SCALED_ONES3, atol=1e-12)


def test_mp_rga_stacked_closed_form():
    # exact oracle: with F the diagonal of column factors, the pseudoinverse
    # of [P, P@F] stacks (I+F^2)^-1 P^-1 over F (I+F^2)^-1 P^-1, so the MP-RGA
    # blocks are the exact RGA with columns scaled by 1/(1+f^2) and f^2/(1+f^2).
    # The smaller-magnitude copy of the plant receives the smaller share.
    f2 = COLUMN_FACTORS**2
    expected = np.hstack([EXACT_RGA_PLANT / (1.0 + f2), EXACT_RGA_PLANT * f2 / (1.0 + f2)])
    result = rga_mp(STACKED_PLANT)
    assert np.abs(result.rga - expected).max() <= 1e-9
    assert result.numerical_rank == 3
    assert abs(result.element_sum - 3.0) <= 1e-9


# plants at the ends of float64, the binary exponent that brings them to
# moderate size, their MP-RGA and its rank
FLOAT_RANGE_PLANTS = [
    ([[1e-310, 1e-310], [1e-310, 2e-310]], 1060, [[2.0, -1.0], [-1.0, 2.0]], 2),
    ([[5e-324]], 1060, [[1.0]], 1),
    ([[1.5e308] * 2] * 2, -1060, [[0.25] * 2] * 2, 1),
    ([[1.5e308] * 3], -1060, [[1.0 / 3.0] * 3], 1),
]


@pytest.mark.parametrize(
    "g, shift, expected, rank",
    FLOAT_RANGE_PLANTS,
    ids=["subnormal-2x2", "smallest-1x1", "huge-2x2", "huge-1x3"],
)
def test_mp_does_not_depend_on_overall_magnitude(g, shift, expected, rank):
    # 1 / sigma once overflowed on the tiny plants, and sigma itself on the
    # huge ones (rank 0, all zeros), though the RGA is scale-free
    g = np.array(g)
    result = rga_mp(g)
    assert result.numerical_rank == rank
    assert np.abs(result.rga - rga_mp(np.ldexp(g, shift)).rga).max() <= 1e-12
    assert np.abs(result.rga - expected).max() <= 1e-12


def test_mp_matches_strict_on_nonsingular():
    result = rga_mp(PLANT)
    assert np.abs(result.rga - EXACT_RGA_PLANT).max() <= 1e-9


# ------------------------------------------------------------------------ uc

def test_uc_rank_one_2x2_is_constant_quarter():
    result = rga_uc(np.array([[1.0, 2.0], [3.0, 6.0]]))
    np.testing.assert_allclose(result.rga, 0.25 * np.ones((2, 2)), atol=1e-12)
    assert result.numerical_rank == 1
    # the degenerate rank-1 case keeps equal row and column sums
    np.testing.assert_allclose(result.row_sums, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(result.col_sums, [0.5, 0.5], atol=1e-12)


def test_uc_unaffected_by_the_ones_rescaling():
    np.testing.assert_allclose(rga_uc(ONES3).rga, ONES3 / 9.0, atol=1e-12)
    np.testing.assert_allclose(rga_uc(SCALED_ONES3).rga, ONES3 / 9.0, atol=1e-12)


def test_uc_stacked_blocks_are_identical():
    result = rga_uc(STACKED_PLANT)
    left, right = result.rga[:, :3], result.rga[:, 3:]
    assert np.abs(left - right).max() <= 1e-9
    expected = 0.5 * np.hstack([EXACT_RGA_PLANT, EXACT_RGA_PLANT])
    assert np.abs(result.rga - expected).max() <= 1e-7
    assert result.numerical_rank == 3
    assert result.balancer_converged


def test_uc_equals_strict_on_nonsingular_draws():
    # strict is computed by the unit-consistent route, so both are held
    # against the classical RGA, formed here by Gaussian elimination
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n))
        classical = g * np.linalg.inv(g).T
        for result in (rga_strict(g), rga_uc(g)):
            assert np.abs(result.rga - classical).max() <= 1e-8 * np.abs(classical).max()


@pytest.mark.parametrize("name", list(SPARSE))
def test_uc_on_sparse_plants_matches_reference(name):
    g = SPARSE[name]
    result = rga_uc(g)
    assert result.balancer_converged
    rga_ref = reference_uc_rga(g)[0]
    assert np.abs(result.rga - rga_ref).max() <= 1e-12 * max(1.0, np.abs(rga_ref).max())


def strict_outcome(g):
    """The strict RGA's rank, or the type of the error it raises."""
    try:
        return rga_strict(g).numerical_rank
    except (DimensionError, SingularMatrixError) as exc:
        return type(exc)


@pytest.mark.parametrize("decades", [8, 150])
@pytest.mark.parametrize("name", list(SPARSE))
def test_uc_rank_and_strict_gate_on_sparse_plants_do_not_depend_on_units(name, decades):
    g = SPARSE[name]
    rng = np.random.default_rng(decades)
    d = 10.0 ** rng.uniform(-decades, decades, g.shape[0])
    e = 10.0 ** rng.uniform(-decades, decades, g.shape[1])
    rescaled = apply_diag(d, g, e)
    base, result = rga_uc(g), rga_uc(rescaled)
    assert result.numerical_rank == base.numerical_rank
    assert np.abs(result.rga - base.rga).max() <= 1e-10 * np.abs(base.rga).max()
    assert strict_outcome(rescaled) == strict_outcome(g)


def test_uc_extreme_dynamic_range_is_exact():
    # every entry of the balanced core is +-1, so no scale factor of
    # magnitude 1e+-300 enters the result
    result = rga_uc([[1e300, 1e300, 1e-300]])
    assert np.abs(result.rga - 1.0 / 3.0).max() <= 1e-15


def test_uc_surfaces_balancer_nonconvergence():
    # a dense support balances in closed form, so no cap can stop it
    result = rga_uc(UNCONVERGED_BIDIAGONAL)
    assert not result.balancer_converged
    assert np.all(np.isfinite(result.rga))
    assert np.all(np.isfinite(result.inverse))
    assert result.inverse.shape == (50, 50)


# ------------------------------------------------------------------ inverses

def test_each_result_carries_the_inverse_it_was_formed_from():
    for g, _ in SUITE[:40]:
        uc = rga_uc(g)
        assert np.array_equal(uc.inverse, uc_inverse(g))
        mp = rga_mp(g)
        assert np.array_equal(mp.inverse, pinv(g))
        assert mp.decomposition is None and mp.balancer_converged
    # pinv and the MP route share one scaled factorization, so they agree
    # bit for bit at the ends of float64 too (inf where pinv overflows)
    with np.errstate(over="ignore"):
        for g, *_ in FLOAT_RANGE_PLANTS:
            assert np.array_equal(rga_mp(g).inverse, pinv(g))
    # strict's inverse is held against Gaussian elimination, formed here
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n))
        classical = np.linalg.inv(g)
        inverse = rga_strict(g).inverse
        assert np.abs(inverse - classical).max() <= 1e-10 * np.abs(classical).max()


# -------------------------------------------------------------------- routes

def test_routes_balance_and_factor_strict_and_uc_once(monkeypatch):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # every factorization runs through svd.scaled_pinv, which rga imports
    for name in ("balance", "scaled_pinv"):
        monkeypatch.setattr(rga_module, name, counted(name, getattr(rga_module, name)))
    results = rga_routes(PLANT, ("strict", "mp", "uc"))
    # one balance and one factorization for strict and uc, one for mp
    assert (calls["balance"], calls["scaled_pinv"]) == (1, 2)
    assert list(results) == ["strict", "mp", "uc"]
    assert results["strict"].rga is results["uc"].rga
    assert results["strict"].method == "strict" and results["uc"].method == "uc"
    assert np.array_equal(results["mp"].rga, rga_mp(PLANT).rga)
    assert np.array_equal(results["uc"].rga, rga_uc(PLANT).rga)


def test_routes_are_keyed_in_the_order_asked():
    assert list(rga_routes(PLANT, ("uc", "mp", "strict"))) == ["uc", "mp", "strict"]
    assert list(rga_routes(PLANT, ())) == []


def test_routes_take_no_tolerance():
    # a looser balancing tolerance once stopped the sweep early and still read
    # converged, and a NaN rank cutoff kept no singular value and read rank 0;
    # both are constants now, balance.BALANCE_TOL and svd.RANK_TOL
    for call in (
        lambda: rga_routes(PLANT, ["uc"], 1e-12),
        lambda: rga_uc(PLANT, balance_tol=1e-2),
        lambda: rga_mp(PLANT, 1e-6),
        lambda: pinv(PLANT, rel_tol=1e-6),
    ):
        with pytest.raises(TypeError):
            call()


def test_routes_reject_strict_on_rectangular():
    with pytest.raises(DimensionError, match="square"):
        rga_routes(STACKED_PLANT, ("mp", "strict"))


def test_routes_reject_strict_on_singular():
    with pytest.raises(SingularMatrixError, match="rank 1 of 3"):
        rga_routes(ONES3, ("uc", "strict"))


# ----------------------------------------------------------------- residuals

def moved(g, method, d, e):
    """How far the ``method`` RGA of g moves under row scaling d and column scaling e."""
    return scaling_invariance_residual(g, rga_routes(g, [method]), d, e)[method]


def test_scaling_invariance_identity_scalings():
    assert moved(STACKED_PLANT, "uc", np.ones(3), np.ones(6)) <= 1e-12


def test_scaling_invariance_uc_under_random_scalings():
    rng = np.random.default_rng(61)
    d = log_uniform(rng, 3)
    e = log_uniform(rng, 6)
    assert moved(STACKED_PLANT, "uc", d, e) <= 1e-7


def test_scaling_invariance_mp_violated_on_ones():
    d = np.array([2.0, 1.0, 1.0])
    assert moved(ONES3, "mp", d, d) >= 0.5


def test_scaling_invariance_strict_route():
    rng = np.random.default_rng(62)
    d = log_uniform(rng, 3, 1e-3, 1e3)
    e = log_uniform(rng, 3, 1e-3, 1e3)
    assert moved(PLANT, "strict", d, e) <= 1e-9


def test_scaling_invariance_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        rga_routes(PLANT, ("qr",))
    base = {"qr": rga_uc(PLANT)}
    with pytest.raises(ValueError, match="method"):
        scaling_invariance_residual(PLANT, base, np.ones(3), np.ones(3))


def test_routes_reject_a_bare_string():
    # a string is a sequence of one-letter names, none of them a route
    with pytest.raises(TypeError, match=r"\('uc',\)"):
        rga_routes(PLANT, "uc")


@pytest.mark.parametrize(
    "g, d, e",
    [
        ([[1e308, 1.0], [1.0, 1.0]], [1e3, 1e-3], [1e-3, 1e3]),
        ([[5e-324, 0.0], [0.0, 1.0]], [1e-3, 1e3], [1e-3, 1e3]),
    ],
    ids=["overflowing-row", "subnormal-entry"],
)
def test_scaling_invariance_keeps_the_rescaled_copy_in_range(g, d, e):
    # the rescaled copy once overflowed (here already diag(d) @ g), or
    # flushed the subnormal entry to zero, moving uc by 1
    residual = scaling_invariance_residual(g, rga_routes(g, ("uc", "strict", "mp")), d, e)
    assert residual["uc"] <= 1e-12
    assert residual["strict"] <= 1e-12
    assert np.isfinite(residual["mp"])


def test_scaling_invariance_refuses_a_rescaled_copy_beyond_float64():
    # g alone spans more than float64's normal range, so no power of two fits
    # the copy; it once overflowed, or flushed 5e-324 and read uc as moved by 1
    g = [[1e308, 5e-324]]
    base = rga_routes(g, ("uc", "mp"))
    with pytest.raises(ValueError, match="float64"):
        scaling_invariance_residual(g, base, [0.5], [3.0, 0.7])


def test_scaling_invariance_is_keyed_like_its_base_and_checks_the_scalings():
    base = rga_routes(STACKED_PLANT, ("uc", "mp"))
    d, e = np.full(3, 2.0), np.full(6, 3.0)
    residual = scaling_invariance_residual(STACKED_PLANT, base, d, e)
    assert list(residual) == ["uc", "mp"]
    # multiplying every entry by one constant moves no route
    assert max(residual.values()) <= 1e-12
    with pytest.raises(DimensionError):
        scaling_invariance_residual(STACKED_PLANT, base, np.ones(6), e)
    with pytest.raises(ValueError, match="nonzero"):
        scaling_invariance_residual(STACKED_PLANT, base, d, np.zeros(6))


# ------------------------------------------------------------------- summary

def test_summary_strict_nonsingular_all_pass():
    rng = np.random.default_rng(77)
    report = rga_summary(rga_strict(rng.standard_normal((4, 4))))
    assert report.all_passed
    assert all(not c.informational for c in report.checks)
    assert {c.name for c in report.checks} == {
        "row_sum_deviation",
        "col_sum_deviation",
        "element_sum_vs_rank",
    }


def test_summary_zero_row_matrix_row_sums_are_informational():
    # with an all-zero second row the RGA's rows cannot all sum to what the
    # columns sum to; the element sum still equals the rank
    result = rga_uc(np.array([[2.0, -5.0], [0.0, 0.0]]))
    np.testing.assert_allclose(result.row_sums, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(result.col_sums, [0.5, 0.5], atol=1e-12)
    assert result.numerical_rank == 1
    report = rga_summary(result)
    by_name = {c.name: c for c in report.checks}
    assert by_name["row_sum_deviation"].informational
    assert not by_name["row_sum_deviation"].passed
    assert not by_name["element_sum_vs_rank"].informational
    assert by_name["element_sum_vs_rank"].passed
    assert report.all_passed


def test_summary_check_pass_matches_threshold_rule():
    report = rga_summary(rga_uc(SCALED_ONES3))
    for check in report.checks:
        assert check.passed == (check.value <= check.threshold)


# ---------------------------------------------------------------- invariants

def test_permutation_equivariance_all_methods():
    rng = np.random.default_rng(777)
    for g, r in SUITE[:60]:
        m, n = g.shape
        rows = rng.permutation(m)
        cols = rng.permutation(n)
        for compute in (rga_mp, rga_uc):
            base = compute(g).rga
            lhs = compute(permute(g, rows, cols)).rga
            rhs = permute(base, rows, cols)
            assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()
        if m == n and r == n:
            base = rga_strict(g).rga
            lhs = rga_strict(permute(g, rows, cols)).rga
            rhs = permute(base, rows, cols)
            assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()


def test_element_sum_equals_rank_smoke():
    for g, r in SUITE[:40]:
        assert abs(rga_mp(g).element_sum - r) <= 1e-7
        assert abs(rga_uc(g).element_sum - r) <= 1e-7


def test_scaling_flips_mp_but_not_uc():
    for (g, r), (d, e) in zip(SUITE[:30], PAIRS[:30]):
        assert moved(g, "uc", d, e) <= 1e-7
        if r < min(g.shape):
            assert moved(g, "mp", d, e) > 1e-2
