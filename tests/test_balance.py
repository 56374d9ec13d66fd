"""Tests for the log-space diagonal balancing decomposition."""

import numpy as np
import pytest

from ucrga.balance import MAX_SWEEPS, balance
from ucrga.matrix import apply_diag, permute

from golden import SCALED_ONES3, UNCONVERGED_BIDIAGONAL
from reference_impl import reference_uc_rga
from suites import log_uniform, rank_controlled_suite, sparse_suite

SUITE = rank_controlled_suite()
SPARSE = sparse_suite()


def relative_gap(actual, expected):
    mask = expected != 0
    return (np.abs(actual - expected)[mask] / np.abs(expected)[mask]).max()


def test_already_balanced_converges_in_one_sweep():
    a = np.array([[1.0, -1.0], [1.0, 1.0]])
    dec = balance(a)
    assert dec.converged
    assert dec.iterations == 1
    assert dec.final_shift == 0.0
    np.testing.assert_array_equal(dec.left_log, [0.0, 0.0])
    np.testing.assert_array_equal(dec.right_log, [0.0, 0.0])
    np.testing.assert_array_equal(dec.core, a)


def test_scaled_ones_balances_to_all_ones():
    dec = balance(SCALED_ONES3)
    assert dec.converged
    assert np.abs(dec.core - 1.0).max() <= 1e-12
    # the scale vectors are only determined up to a constant traded between
    # the sides, so check the reconstruction rather than unique values
    assert relative_gap(dec.reconstruct(), SCALED_ONES3) <= 1e-12
    # cross-check core and scale logs against the loop-style reference
    _, core_ref, u_ref, v_ref, _ = reference_uc_rga(SCALED_ONES3)
    assert np.abs(dec.core - core_ref).max() <= 1e-12
    assert np.abs(dec.left_log - u_ref).max() <= 1e-12
    assert np.abs(dec.right_log - v_ref).max() <= 1e-12


def test_zero_matrix_converges_immediately():
    dec = balance(np.zeros((2, 3)))
    assert dec.converged
    assert dec.iterations == 1
    assert dec.final_shift == 0.0
    np.testing.assert_array_equal(dec.core, np.zeros((2, 3)))
    np.testing.assert_array_equal(dec.left_log, np.zeros(2))
    np.testing.assert_array_equal(dec.right_log, np.zeros(3))


def test_zero_rows_are_skipped():
    a = np.array([[2.0, -5.0], [0.0, 0.0]])
    dec = balance(a)
    assert dec.converged
    np.testing.assert_array_equal(np.sign(dec.core), np.sign(a))
    np.testing.assert_array_equal(dec.core[1], [0.0, 0.0])
    assert np.abs(np.abs(dec.core[0]) - 1.0).max() <= 1e-12
    assert relative_gap(dec.reconstruct(), a) <= 1e-12


def test_sign_pattern_preserved_exactly():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.standard_normal((4, 5))
        a[rng.random((4, 5)) < 0.3] = 0.0
        dec = balance(a)
        np.testing.assert_array_equal(np.sign(dec.core), np.sign(a))


def test_converged_rows_and_columns_have_zero_log_means():
    for g, _ in SUITE[:40]:
        dec = balance(g)
        assert dec.converged
        support = dec.core != 0
        logs = np.zeros_like(dec.core)
        logs[support] = np.log(np.abs(dec.core[support]))
        for i in range(g.shape[0]):
            if support[i].any():
                assert abs(logs[i][support[i]].mean()) <= 1e-12
        for j in range(g.shape[1]):
            if support[:, j].any():
                assert abs(logs[:, j][support[:, j]].mean()) <= 1e-12


def test_scale_equivariance_of_the_core():
    # rescaling rows/columns must leave the core untouched
    rng = np.random.default_rng(555)
    for g, _ in SUITE[:60]:
        m, n = g.shape
        d = log_uniform(rng, m, 1e-3, 1e3)
        e = log_uniform(rng, n, 1e-3, 1e3)
        dec = balance(g)
        dec_scaled = balance(apply_diag(d, g, e))
        assert np.abs(dec_scaled.core - dec.core).max() <= 1e-9


def test_permutation_equivariance_of_the_core():
    rng = np.random.default_rng(556)
    for g, _ in SUITE[:40]:
        m, n = g.shape
        rows = rng.permutation(m)
        cols = rng.permutation(n)
        dec = balance(g)
        dec_perm = balance(permute(g, rows, cols))
        assert np.abs(dec_perm.core - permute(dec.core, rows, cols)).max() <= 1e-12


def test_geometric_mean_of_dense_cores():
    for g, _ in SUITE[:60]:
        dec = balance(g)
        assert np.abs(np.abs(np.prod(dec.core, axis=1)) - 1.0).max() <= 1e-9
        assert np.abs(np.abs(np.prod(dec.core, axis=0)) - 1.0).max() <= 1e-9


def test_balancing_is_idempotent():
    for g, _ in SUITE[:40]:
        core = balance(g).core
        assert np.abs(balance(core).core - core).max() <= 1e-10


def test_reconstruction_on_suite():
    for g, _ in SUITE[:60]:
        assert relative_gap(balance(g).reconstruct(), g) <= 1e-10


def test_matches_reference_on_suite():
    # every suite member is dense, so it takes the closed form, reported as
    # one sweep with zero shift; the loop-style reference sweeps to the same
    # fixed point
    wide = np.random.default_rng(30).standard_normal((30, 1000))
    for g in [g for g, _ in SUITE[:40]] + [wide]:
        assert np.all(g != 0)
        dec = balance(g)
        assert dec.converged and dec.iterations == 1 and dec.final_shift == 0.0
        _, core_ref, u_ref, v_ref, _ = reference_uc_rga(g)
        assert np.abs(dec.core - core_ref).max() <= 1e-12
        assert np.abs(dec.left_log - u_ref).max() <= 1e-12
        assert np.abs(dec.right_log - v_ref).max() <= 1e-12


@pytest.mark.parametrize("decades", [8.0, 150.0])
def test_dense_core_is_unit_invariant_over_wide_ranges(decades):
    rng = np.random.default_rng(557)
    for g, _ in SUITE[:60]:
        m, n = g.shape
        d = 10.0 ** rng.uniform(-decades, decades, m)
        e = 10.0 ** rng.uniform(-decades, decades, n)
        core = balance(g).core
        dec = balance(apply_diag(d, g, e))
        assert dec.converged
        assert np.abs(dec.core - core).max() <= 1e-12 * np.abs(core).max()


def test_iteration_cap_reported_not_raised():
    # a dense support balances in closed form, so the cap is held on a sparse
    # plant the sweep does not settle
    dec = balance(UNCONVERGED_BIDIAGONAL)
    assert not dec.converged
    assert dec.iterations == MAX_SWEEPS
    assert dec.final_shift > 1e-15
    # the accounting between core and scale logs holds at every stage
    assert relative_gap(dec.reconstruct(), UNCONVERGED_BIDIAGONAL) <= 1e-10


# every entry nonzero, yet the balanced core spans more than float64 can
# hold at unit geometric mean: its largest entry would be exp(742), and exp
# once overflowed there
CORE_BEYOND_FLOAT = np.array(
    [[1.0, 1.0, 8.732828226623622e-189], [5e-324, 5e-324, 1e308], [1.0, 1.0, 1.0]]
)


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1e200, 1.0], [1.0, 1e-200]]),
        CORE_BEYOND_FLOAT,
        # a zero entry, so the sweep forms the core
        np.hstack([CORE_BEYOND_FLOAT, np.zeros((3, 1))]),
    ],
    ids=["1e+-200", "core-beyond-float", "core-beyond-float-sweep"],
)
def test_extreme_dynamic_range_survives_log_space(a):
    with np.errstate(over="raise"):
        dec = balance(a)
    assert dec.converged
    assert np.all(np.isfinite(dec.core))
    np.testing.assert_array_equal(np.sign(dec.core), np.sign(a))
    assert relative_gap(dec.reconstruct(), a) <= 1e-12
    # every nonempty row and column of the core has one common geometric
    # mean: 1, or the power of two a core too large for float64 is scaled by
    logs = np.log(np.abs(dec.core[:, :3]))
    means = np.concatenate([logs.mean(axis=0), logs.mean(axis=1)])
    assert np.ptp(means) <= 1e-12 * np.abs(logs).max()


def test_parameter_validation():
    with pytest.raises(ValueError):
        balance([[1.0, np.inf]])


@pytest.mark.parametrize("name", list(SPARSE))
def test_sparse_sweep_matches_reference(name):
    # the sweep over the list of nonzeros reaches the loop-style reference's
    # fixed point, in about as many sweeps
    g = SPARSE[name]
    assert np.any(g == 0)
    dec = balance(g)
    assert dec.converged and dec.final_shift <= 1e-15
    _, core_ref, u_ref, v_ref, sweeps_ref = reference_uc_rga(g)
    assert abs(dec.iterations - sweeps_ref) <= 2
    assert np.abs(dec.core - core_ref).max() <= 1e-12
    support = g != 0
    logs = (dec.left_log[:, None] + dec.right_log)[support]
    logs_ref = (u_ref[:, None] + v_ref)[support]
    assert np.abs(logs - logs_ref).max() <= 1e-12


def test_sparse_sweep_leaves_empty_lines_untouched():
    seen_rows = seen_cols = 0
    for g in SPARSE.values():
        dec = balance(g)
        np.testing.assert_array_equal(np.sign(dec.core), np.sign(g))
        empty_rows = ~(g != 0).any(axis=1)
        empty_cols = ~(g != 0).any(axis=0)
        np.testing.assert_array_equal(dec.left_log[empty_rows], 0.0)
        np.testing.assert_array_equal(dec.right_log[empty_cols], 0.0)
        np.testing.assert_array_equal(dec.core[empty_rows], 0.0)
        np.testing.assert_array_equal(dec.core[:, empty_cols], 0.0)
        assert relative_gap(dec.reconstruct(), g) <= 1e-10
        seen_rows += empty_rows.sum()
        seen_cols += empty_cols.sum()
    # the suite holds an empty row and an empty column to leave untouched
    assert seen_rows >= 1 and seen_cols >= 1
