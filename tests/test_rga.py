"""Tests for the three RGA routes and their structural properties."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ucrga.rga as rga_module
from ucrga import pinv, uc_inverse
from ucrga.matrix import DimensionError, permute
from ucrga.rga import (
    SingularMatrixError,
    property_reports,
    rga_mp,
    rga_routes,
    rga_strict,
    rga_summary,
    rga_uc,
    scaling_invariance_residual,
)

from exact import exact_rga, exact_uc_rga
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
    rescaled = d[:, None] * g * e[None, :]
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


# --------------------------------------------------------------- exact oracle

@st.composite
def nonsingular_plants(draw):
    """Gaussian square plants up to 6x6, about one entry in eight zero, each
    entry scaled by 10**u, u uniform within a per-plant spread of up to 4."""
    n, spread = draw(st.integers(1, 6)), draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-spread, spread, (n, n))
    g[rng.random((n, n)) < 0.125] = 0.0
    return g.tolist()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(nonsingular_plants())
def test_routes_match_the_exact_classical_rga(g):
    # the float64 oracles all go through LAPACK; this one is exact, so an
    # error every factorization shares cannot hide from it
    exact = exact_rga(g)
    assume(exact is not None)
    largest = max(abs(x) for row in exact for x in row)
    # the benchmark's plants keep to the same limit
    assume(largest <= 100)
    expected = np.array([[float(x) for x in row] for row in exact])
    tolerance = 1e-9 * max(1.0, float(largest))
    for route in (rga_strict, rga_uc, rga_mp):
        assert np.abs(route(g).rga - expected).max() <= tolerance, route.__name__


@pytest.mark.xfail(
    strict=True,
    raises=SingularMatrixError,
    reason="ROADMAP item 9: the graded balanced core reads rank 5 of 6",
)
def test_strict_matches_the_exact_rga_of_a_graded_plant():
    # entry magnitudes spread over 10**±10 independently, which balancing
    # leaves in the core; the plant is nonsingular and the classical formula
    # gets its RGA right, so only the rank decision stands in the way
    r = np.random.default_rng(1001)
    g = r.standard_normal((6, 6)) * 10.0 ** r.uniform(-10, 10, (6, 6))
    exact = exact_rga(g.tolist())
    largest = max(abs(x) for row in exact for x in row)
    expected = np.array([[float(x) for x in row] for row in exact])
    tolerance = 1e-9 * max(1.0, float(largest))
    assert np.abs(g * np.linalg.inv(g).T - expected).max() <= tolerance
    assert np.abs(rga_strict(g).rga - expected).max() <= tolerance


@st.composite
def dense_plants(draw):
    """Gaussian plants of every shape up to 6x6 with no zero entry, each
    entry scaled by 10**u, u uniform within a per-plant spread of up to 8;
    also that spread."""
    m, n, spread = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-spread, spread, (m, n)), spread


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(dense_plants())
def test_uc_matches_the_exact_uc_rga_of_dense_plants(case):
    # the balance and the pseudoinverse both in 60 digits and more, with
    # four more per decade of spread
    g, spread = case
    exact = exact_uc_rga(g.tolist(), 60 + math.ceil(4 * spread))
    largest = max(abs(x) for row in exact for x in row)
    # the benchmark's plants keep to the same limit
    assume(largest <= 100)
    result = rga_uc(g)
    # a dense Gaussian plant has full rank: a shortfall is rga_uc's, not the draw's
    assert result.numerical_rank == min(g.shape)
    expected = np.array([[float(x) for x in row] for row in exact])
    assert np.abs(result.rga - expected).max() <= 1e-9 * max(1.0, float(largest))


def wide_range_staircase_40x41():
    """Staircase 40x41, its diagonal and then its superdiagonal drawn from
    default_rng(0) as 10 ** U(-4, 4) with random signs."""
    rng = np.random.default_rng(0)
    g = np.zeros((40, 41))
    i = np.arange(40)
    for offset in (0, 1):
        g[i, i + offset] = 10.0 ** rng.uniform(-4, 4, 40) * rng.choice((-1, 1), 40)
    return g


@pytest.mark.parametrize(
    "g",
    [
        *(
            pytest.param(SPARSE[name], id=name)
            for name in (
                "bidiagonal_12x12",
                "staircase_12x13",
                "block_diagonal_7x8",
                "row_1x9",
                "column_9x1",
            )
        ),
        pytest.param(
            wide_range_staircase_40x41(),
            # the sweep stops at its cap, 3.5e-6 from the exact value
            marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 2: the balancing sweep does not converge"
            ),
            id="wide_range_staircase_40x41",
        ),
    ],
)
def test_uc_matches_the_exact_uc_rga_of_sparse_plants(g):
    # the oracle balances by one exact solve, not by the sweep; its pinv
    # needs full rank, so the suite's rank-deficient plants are left out
    exact = exact_uc_rga(g.tolist(), 60)
    largest = max(abs(x) for row in exact for x in row)
    expected = np.array([[float(x) for x in row] for row in exact])
    assert np.abs(rga_uc(g).rga - expected).max() <= 1e-9 * max(1.0, float(largest))


# ------------------------------------------------------------------ inverses

def test_each_result_keeps_the_pair_it_factored():
    # x = X / 2**exponent, X being g for mp and the balanced core for uc,
    # and the RGA is x * x_pinv.T bit for bit
    for g, _ in SUITE[:40]:
        mp, uc = rga_mp(g), rga_uc(g)
        assert np.array_equal(mp.x, np.ldexp(g, -mp.exponent))
        assert np.array_equal(uc.x, np.ldexp(uc.decomposition.core, -uc.exponent))
        for result in (mp, uc):
            assert np.array_equal(result.rga, result.x * result.x_pinv.T)


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
    # validating the names once used up an iterator and returned {}
    assert list(rga_routes(PLANT, iter(["mp", "strict"]))) == ["mp", "strict"]


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
    with pytest.raises(ValueError, match="method"):
        property_reports(PLANT, base, ([0, 1, 2], [0, 1, 2]), np.ones(3), np.ones(3))


def test_routes_reject_a_bare_string():
    # a string is a sequence of one-letter names, none of them a route
    with pytest.raises(TypeError, match=r"\('uc',\)"):
        rga_routes(PLANT, "uc")


@pytest.mark.parametrize(
    "g, d, e",
    [
        ([[1e308, 1.0], [1.0, 1.0]], [1e3, 1e-3], [1e-3, 1e3]),
        ([[5e-324, 0.0], [0.0, 1.0]], [1e-3, 1e3], [1e-3, 1e3]),
        ([[1.5 * 2.0**1023, 2.0**-1022], [2.0**-1022, 1.0]], [1.0, 1.0], [1.0, 1.0]),
    ],
    ids=["overflowing-row", "subnormal-entry", "normal-range-2x2"],
)
def test_scaling_invariance_keeps_the_rescaled_copy_in_range(g, d, e):
    # the rescaled copy once overflowed (here already diag(d) @ g), or
    # flushed the subnormal entry to zero, moving uc by 1; the last copy is
    # g itself, once refused by a range bound three binary orders too wide
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


@st.composite
def rescaling_cases(draw):
    """(g, d, e) with random signs: g up to 4x4 with some zeros and log2
    magnitudes in [-1074, 1023], d and e nonzero. Each draws its magnitudes
    from a window of 8 to 2,097 binary orders, so that copies which fit as
    they are, fit only shifted, and do not fit all come up."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def entries(size, zeros):
        width = draw(st.sampled_from([8, 300, 1100, 2097]))
        low = draw(st.integers(-1073, 1024 - width))
        nonzero = st.builds(
            lambda sign, mant, exp: sign * math.ldexp(mant, exp),
            st.sampled_from([-1.0, 1.0]),
            st.floats(0.5, 1.0, exclude_max=True),
            st.integers(low, low + width),
        )
        values = st.one_of(st.just(0.0), nonzero) if zeros else nonzero
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    return entries(m * n, True).reshape(m, n), entries(m, False), entries(n, False)


def all_normal(x, g):
    """Whether every entry of x where g is nonzero is a normal float64."""
    return bool(np.all((g == 0) | (np.isfinite(x) & (np.abs(x) >= np.finfo(float).tiny))))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rescaling_cases())
# spans 2,045 frexp exponents and fits only at s = 1: centring on 1 alone
# would round (0.75 + 2**-53) * 2**-1022 to a subnormal, a bit short
@example((np.array([[2.0**1023, (1.5 + 2.0**-52) * 2.0**-1022]]), np.array([0.5]), np.ones(2)))
def test_rescaled_copy_is_exact_in_the_normal_range_or_refused(case):
    g, d, e = case
    exact = np.array([[Fraction(x) for x in row] for row in g], dtype=object)
    exact *= np.array([Fraction(x) for x in d], dtype=object)[:, None]
    exact *= np.array([Fraction(x) for x in e], dtype=object)[None, :]
    try:
        copy, shift = rga_module._rescaled_copy(g, d, e)
    except ValueError as exc:
        assert "not representable in float64" in str(exc)
        # over 2,045 binary orders, less what the two roundings can take
        magnitudes = [abs(p) for p in exact.ravel() if p]
        assert max(magnitudes) / min(magnitudes) > Fraction(2) ** 2045 * (1 - Fraction(1, 2**50))
        return
    assert all_normal(copy, g)
    scale = Fraction(2) ** shift
    for c, x, p in zip(copy.ravel(), g.ravel(), exact.ravel()):
        if x == 0:
            assert c == 0
            continue
        assert (c > 0) == (p > 0)
        assert abs(Fraction(c) / scale - p) <= 2 * Fraction(math.ulp(c)) / scale
    with np.errstate(over="ignore", under="ignore"):
        partial, full = d[:, None] * g, d[:, None] * g * e[None, :]
    if all_normal(partial, g) and all_normal(full, g):
        assert shift == 0
        assert copy.tobytes() == full.tobytes()


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


def test_property_reports_tell_the_routes_apart():
    # a unit change on a rank-1 plant moves the Moore-Penrose RGA only
    base = rga_routes(SCALED_ONES3, ("mp", "uc"))
    orders = ([2, 0, 1], [1, 2, 0])
    reports = property_reports(SCALED_ONES3, base, orders, [1e-3, 1.0, 10.0], [5.0, 1.0, 1e2])
    assert list(reports) == ["mp", "uc"]
    for report in reports.values():
        assert [(c.name, c.threshold) for c in report.checks] == [
            ("row_sum_deviation", 1e-7),
            ("col_sum_deviation", 1e-7),
            ("element_sum_vs_rank", 1e-7),
            ("permutation_equivariance", 1e-9),
            ("scaling_invariance", 1e-7),
            ("inverse_identity_aga", 1e-8),
            ("inverse_identity_gag", 1e-8),
        ]
    failed = {
        method: [c.name for c in report.checks if not c.passed and not c.informational]
        for method, report in reports.items()
    }
    assert failed == {"mp": ["scaling_invariance"], "uc": []}
    assert not reports["mp"].all_passed and reports["uc"].all_passed


def test_property_reports_give_strict_the_uc_report(monkeypatch):
    # strict is uc behind a rank gate on the input, so its suite is uc's:
    # one report, the copies run through uc and never meet the gate
    calls = Counter()
    for name in ("rga_uc", "rga_summary", "check_gi_identities"):

        def counted(*args, _name=name, _original=getattr(rga_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rga_module, name, counted)
    base = rga_routes(PLANT, ("strict", "mp", "uc"))
    orders = ([2, 0, 1], [1, 2, 0])
    reports = property_reports(PLANT, base, orders, [1e-3, 1.0, 10.0], [5.0, 1.0, 1e2])
    assert list(reports) == ["strict", "mp", "uc"]
    assert reports["strict"] is reports["uc"] and reports["uc"].all_passed
    # the base, the permuted copy and the rescaled copy; one report each for uc and mp
    assert calls == {"rga_uc": 3, "rga_summary": 2, "check_gi_identities": 2}
    alone = property_reports(PLANT, {"strict": base["strict"]}, orders, [2.0] * 3, [3.0] * 3)
    assert list(alone) == ["strict"]


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
