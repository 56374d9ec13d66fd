"""Relative gain array variants and their structural property checks.

The relative gain array of a gain matrix measures input-output interaction
strength: entry (i, j) relates the gain from input j to output i with all
other loops open versus closed. Three routes are provided:

- :func:`rga_strict`  - the classical definition g * inv(g).T, nonsingular
  square matrices only;
- :func:`rga_mp`      - Moore-Penrose generalization, any shape, but the
  result depends on the units chosen for the variables;
- :func:`rga_uc`      - unit-consistent generalization, any shape, invariant
  under rescaling of rows and columns, and identical to the strict RGA
  whenever that one exists.

Each computes x * pinv(x).T in one place: x is the matrix for MP and its
balanced core for UC and strict. With g = inv(D) @ core @ inv(E) the
unit-consistent inverse is E @ pinv(core) @ D, so in the RGA the scale factors
cancel exactly. Each result keeps x, pinv(x) and the scaling, so the
generalized inverse the RGA was formed from is at hand as ``result.inverse``
without a second factorization; :func:`pinv` and :func:`uc_inverse` read it off
:func:`rga_mp` and :func:`rga_uc`, and :func:`uc_consistency_residual` checks the latter.

The strict RGA is the UC result relabelled (:func:`strict_from_uc`), so
:func:`rga_routes`, which computes any set of routes by name, balances and
factors once for strict and uc together.

For every route the element sum of the result equals the numerical rank used
to form the inverse; for nonsingular square input every row and column sums
to 1. :func:`rga_summary` packages those checks per matrix,
:func:`scaling_invariance_residual` measures how far a set of results moves
under a diagonal rescaling, and :func:`property_reports` runs the whole suite.
"""

from typing import NamedTuple

import numpy as np

from .balance import LN2, LOG_MAX, ScalingDecomposition, balance
from .inverse import check_gi_identities, relative_change
from .matrix import DimensionError, as_matrix, as_scaling, permute
from .svd import scaled_pinv

__all__ = [
    "SUMMARY_TOL",
    "SingularMatrixError",
    "RgaResult",
    "Check",
    "PropertyReport",
    "rga_strict",
    "rga_mp",
    "rga_uc",
    "rga_routes",
    "pinv",
    "uc_inverse",
    "uc_consistency_residual",
    "scaling_invariance_residual",
    "rga_summary",
    "property_reports",
]

SUMMARY_TOL = 1e-7
PERMUTATION_TOL = 1e-9
SCALING_TOL = 1e-7
IDENTITY_TOL = 1e-8

# the computation behind each route: strict is uc behind a rank gate on the input
COMPUTATION = {"strict": "uc", "mp": "mp", "uc": "uc"}


class SingularMatrixError(ValueError):
    """Raised when the strict RGA is requested for a numerically singular matrix."""


class RgaResult(NamedTuple):
    """An RGA matrix with the summary statistics used by the property checks.

    ``numerical_rank`` is the rank actually used to form the inverse: the
    rank of the input under the cutoff for the Moore-Penrose route, and the
    rank of the balanced core for the unit-consistent and strict routes (for
    strict always the full dimension). ``x`` = X / 2**exponent is the matrix
    the RGA was formed from and ``x_pinv`` its pseudoinverse, X being g for
    the Moore-Penrose route and the balanced core otherwise; ``decomposition``
    is the balancing that gave X (None for the Moore-Penrose route).
    """

    rga: np.ndarray
    method: str
    numerical_rank: int
    row_sums: np.ndarray
    col_sums: np.ndarray
    element_sum: float
    x: np.ndarray
    x_pinv: np.ndarray
    exponent: int
    decomposition: ScalingDecomposition | None

    @property
    def balancer_converged(self) -> bool:
        """Whether balancing converged; vacuously True for the Moore-Penrose route."""
        return self.decomposition is None or self.decomposition.converged

    @property
    def inverse(self) -> np.ndarray:
        """The generalized inverse the RGA was formed from, formed on each read:
        pinv(g) for the Moore-Penrose route, E @ pinv(core) @ D otherwise.

        An all-zero row (column) of g gives an exactly zero column (row) of
        both; the SVD leaves rounding noise there, so those lines are zeroed."""
        inverse = np.ldexp(self.x_pinv, -self.exponent)
        if (dec := self.decomposition) is not None:
            logs = dec.right_log[:, None] + dec.left_log[None, :]
            # where exp(logs) would leave float64's normal range, 2**p, p a
            # multiple of 1000, is taken out of it and put back exactly by ldexp
            inside = (logs > np.log(np.finfo(float).tiny)) & (logs < LOG_MAX)
            p = np.where(inside, 0, 1000 * np.round(logs / (1000 * LN2)).astype(int))
            inverse = np.ldexp(inverse * np.exp(logs - p * LN2), p)
        inverse[:, ~self.x.any(axis=1)] = 0.0
        inverse[~self.x.any(axis=0)] = 0.0
        return inverse


class Check(NamedTuple):
    """One named residual compared against its threshold."""

    name: str
    value: float
    threshold: float
    passed: bool
    informational: bool


class PropertyReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        """True when every non-informational check passed."""
        return all(c.passed for c in self.checks if not c.informational)


def _route(x: np.ndarray, method: str, decomposition: ScalingDecomposition | None) -> RgaResult:
    """x * pinv(x).T, the RGA every route computes, from :func:`scaled_pinv`."""
    x, x_pinv, exponent, rank = scaled_pinv(x)
    rga = x * x_pinv.T
    return RgaResult(
        rga=rga,
        method=method,
        numerical_rank=rank,
        row_sums=rga.sum(axis=1),
        col_sums=rga.sum(axis=0),
        element_sum=float(rga.sum()),
        x=x,
        x_pinv=x_pinv,
        exponent=exponent,
        decomposition=decomposition,
    )


def rga_strict(g) -> RgaResult:
    """Classical RGA g * inv(g).T of a nonsingular square matrix, computed by
    the unit-consistent route, which equals it on such input.

    SingularMatrixError (pointing at :func:`rga_mp` / :func:`rga_uc`) is
    raised when the balanced core's numerical rank under the cutoff
    ``svd.RANK_TOL`` falls short of the dimension; the core does not depend on
    the units of ``g``, so neither does that decision.
    """
    return strict_from_uc(rga_uc(g))


def rga_mp(g) -> RgaResult:
    """RGA generalized through the Moore-Penrose pseudoinverse: g * pinv(g).T.

    Defined for any shape and rank, but not invariant under diagonal
    rescaling of rows or columns (see :func:`scaling_invariance_residual`).
    """
    return _route(as_matrix(g), "mp", None)


def rga_uc(g) -> RgaResult:
    """RGA generalized through the unit-consistent inverse: g * uc_inverse(g).T,
    computed as core * pinv(core).T over the balanced core of ``g``.

    Defined for any shape and rank, invariant under diagonal rescaling, and
    equal to :func:`rga_strict` on nonsingular square input. Balancing runs to
    the constant ``balance.BALANCE_TOL``; failing to reach it (possible only for
    adversarial sparsity patterns) is reported in ``balancer_converged``, not raised.
    """
    dec = balance(g)
    return _route(dec.core, "uc", dec)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse under the rank cutoff: the ``inverse`` of :func:`rga_mp`."""
    return rga_mp(a).inverse


def uc_inverse(a) -> np.ndarray:
    """Unit-consistent generalized inverse (n-by-m for m-by-n input): the
    ``inverse`` of :func:`rga_uc`.

    Equals the ordinary inverse for nonsingular square input. The
    Moore-Penrose pseudoinverse commutes with orthonormal transformations but
    not with diagonal rescaling; this one, for nonsingular diagonal D and E,
    satisfies the complementary identity

        uc_inverse(D @ a @ E) == inv(E) @ uc_inverse(a) @ inv(D)

    With a = inv(D) @ core @ inv(E) from balancing, it is E @ pinv(core) @ D.
    """
    return rga_uc(a).inverse


def uc_consistency_residual(a, d, e) -> float:
    """Residual of the diagonal-consistency identity.

    Computes diag(e) @ uc_inverse(diag(d) @ a @ diag(e)) @ diag(d) and returns
    its relative max-abs difference from uc_inverse(a). Zero in exact
    arithmetic for any nonsingular diagonal scalings; the same construction
    with the Moore-Penrose inverse substituted is violated by order one.
    NaN where uc_inverse(a) itself overflows, with numpy's overflow and
    invalid-value warnings (say, on [[5e-324, 0], [0, 1]]).
    """
    a = as_matrix(a)
    rescaled, shift = _rescaled_copy(a, d, e)
    # its inverse maps back to 2**(back - shift) * uc_inverse(a), undone exactly
    mapped, back = _rescaled_copy(uc_inverse(rescaled), e, d)
    return relative_change(np.ldexp(mapped, shift - back), uc_inverse(a))


def strict_from_uc(result: RgaResult) -> RgaResult:
    """The UC RGA ``result`` as the strict RGA: square input, full-rank core."""
    m, n = result.rga.shape
    if m != n:
        raise DimensionError(f"strict RGA needs a square matrix, got {m}x{n}")
    if result.numerical_rank < n:
        raise SingularMatrixError(
            f"matrix is numerically singular (rank {result.numerical_rank} of {n}); "
            "use rga_mp or rga_uc instead"
        )
    return result._replace(method="strict")


def rga_routes(g, methods) -> dict[str, RgaResult]:
    """The RGA by each route named in ``methods`` ('strict', 'mp' or 'uc'),
    keyed in that order.

    Each computation behind them (``COMPUTATION``) runs once: strict takes
    uc's :func:`rga_uc` result through :func:`strict_from_uc`.
    """
    if isinstance(methods, str):
        raise TypeError(
            f"methods must be a sequence of names such as ({methods!r},), not a string"
        )
    methods = tuple(methods)  # read twice, so an iterator is read once first
    for method in methods:
        if method not in COMPUTATION:
            raise ValueError(f"method must be 'strict', 'mp' or 'uc', got {method!r}")
    names = dict.fromkeys(COMPUTATION[method] for method in methods)
    computed = {name: rga_mp(g) if name == "mp" else rga_uc(g) for name in names}
    return {m: strict_from_uc(computed["uc"]) if m == "strict" else computed[m] for m in methods}


def scaling_invariance_residual(g, base: dict[str, RgaResult], d, e) -> dict[str, float]:
    """Relative max-abs change of each RGA in ``base`` (as :func:`rga_routes`
    gave them for ``g``) when its computation runs again on g under row
    scaling ``d`` and column scaling ``e``, keyed like ``base``.

    Zero in exact arithmetic for uc, whose result strict reads, so the copy
    meets no rank gate; typically order one for the Moore-Penrose route
    whenever rank deficiency or rescaling matters.

    No RGA depends on an overall constant factor, so the computations run
    on the copy :func:`_rescaled_copy` forms.
    """
    # an unknown name passes through, for rga_routes to refuse
    copy = _rescaled_copy(as_matrix(g), d, e)[0]
    scaled = rga_routes(copy, [COMPUTATION.get(method, method) for method in base])
    return {m: relative_change(scaled[COMPUTATION[m]].rga, r.rga) for m, r in base.items()}


def _rescaled_copy(g: np.ndarray, d, e) -> tuple[np.ndarray, int]:
    """2**s * diag(d) @ g @ diag(e) and the s that puts its nonzeros in
    float64's normal range (0 if they lie there); ValueError if no s can.

    The mantissas of d, g and e multiply within [1/8, 1), rounding as the full
    product does where that is normal; its exponent plus theirs is the product's."""
    d, e = as_scaling(d, g.shape[0]), as_scaling(e, g.shape[1])
    (d_mant, d_exp), (g_mant, g_exp), (e_mant, e_exp) = np.frexp(d), np.frexp(g), np.frexp(e)
    mant, exp = np.frexp(d_mant[:, None] * g_mant * e_mant)
    exp += d_exp[:, None] + g_exp + e_exp
    # normal magnitudes, [2**-1022, 2**1024), have frexp exponents -1021 to 1024
    nonzero = exp[mant != 0.0]
    low, high = (int(nonzero.min()), int(nonzero.max())) if nonzero.size else (0, 0)
    if high - low > 1024 + 1021:
        raise ValueError("rescaled copy not representable in float64: it spans more than its range")
    # centre [2**(low-1), 2**high) on 1, raised at spans over 2,043 to keep low normal
    shift = 0 if -1021 <= low and high <= 1024 else max((1 - low - high) // 2, -1021 - low)
    return np.ldexp(mant, exp + shift), shift


def rga_summary(result: RgaResult) -> PropertyReport:
    """Structural checks on an RGA result, each at the 1e-7 threshold.

    Row and column sums equal 1 only when the input is square with full
    numerical rank; for singular or rectangular input those two checks are
    marked informational, because a short row (say, an all-zero one) provably
    cannot sum to what the columns sum to. The element-sum-versus-rank check
    holds for every route and every shape and is never informational.
    """
    m, n = result.rga.shape
    full_rank_square = m == n == result.numerical_rank
    row_dev = float(np.abs(result.row_sums - 1.0).max())
    col_dev = float(np.abs(result.col_sums - 1.0).max())
    rank_dev = float(abs(result.element_sum - result.numerical_rank))
    return PropertyReport(
        checks=tuple(
            Check(name, value, SUMMARY_TOL, value <= SUMMARY_TOL, informational)
            for name, value, informational in (
                ("row_sum_deviation", row_dev, not full_rank_square),
                ("col_sum_deviation", col_dev, not full_rank_square),
                ("element_sum_vs_rank", rank_dev, False),
            )
        )
    )


def property_reports(g, base: dict[str, RgaResult], orders, d, e) -> dict[str, PropertyReport]:
    """The property suite of each result in ``base`` (as :func:`rga_routes`
    gave them for ``g``), keyed like ``base``: the :func:`rga_summary`
    checks, equivariance under the row and column permutation ``orders``,
    invariance under row scaling ``d`` and column scaling ``e`` (see
    :func:`scaling_invariance_residual`), and the generalized-inverse
    identities of the pair ``result.x`` and ``result.x_pinv`` the RGA was
    formed from: the identities are homogeneous, and pinv(x), unlike
    pinv(g), cannot overflow.

    Each computation behind ``base`` runs once on the permuted copy of g and
    once on the rescaled one and makes one report, which strict shares with uc.
    """
    results = {COMPUTATION.get(method, method): result for method, result in base.items()}
    permuted = rga_routes(permute(g, *orders), list(results))
    scaled = scaling_invariance_residual(g, results, d, e)
    reports = {}
    for method, result in results.items():
        moved = relative_change(permuted[method].rga, permute(result.rga, *orders))
        residuals = check_gi_identities(result.x, result.x_pinv)
        checks = (
            Check(name, value, threshold, value <= threshold, False)
            for name, value, threshold in (
                ("permutation_equivariance", moved, PERMUTATION_TOL),
                ("scaling_invariance", scaled[method], SCALING_TOL),
                ("inverse_identity_aga", residuals.residual_axa, IDENTITY_TOL),
                ("inverse_identity_gag", residuals.residual_xax, IDENTITY_TOL),
            )
        )
        reports[method] = PropertyReport(rga_summary(result).checks + tuple(checks))
    return {method: reports[COMPUTATION[method]] for method in base}
