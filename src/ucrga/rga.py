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
cancel exactly. Each result keeps pinv(x) and the scaling, so the generalized
inverse the RGA was formed from is at hand as ``result.inverse`` without a
second factorization; :func:`pinv` and :func:`uc_inverse` read it off
:func:`rga_mp` and :func:`rga_uc`, and :func:`uc_consistency_residual` checks the latter.

The strict RGA is the UC result relabelled (:func:`strict_from_uc`), so
:func:`rga_routes`, which computes any set of routes by name, balances and
factors once for strict and uc together.

For every route the element sum of the result equals the numerical rank used
to form the inverse; for nonsingular square input every row and column sums
to 1. :func:`rga_summary` packages those checks per matrix, and
:func:`scaling_invariance_residual` quantifies how much each of a set of
results moves under a given diagonal rescaling.
"""

from dataclasses import dataclass, replace

import numpy as np

from .balance import ScalingDecomposition, balance
from .inverse import relative_change
from .matrix import DimensionError, apply_diag, as_matrix, as_scaling
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
]

SUMMARY_TOL = 1e-7


class SingularMatrixError(ValueError):
    """Raised when the strict RGA is requested for a numerically singular matrix."""


@dataclass(frozen=True)
class RgaResult:
    """An RGA matrix with the summary statistics used by the property checks.

    ``numerical_rank`` is the rank actually used to form the inverse: the
    rank of the input under the cutoff for the Moore-Penrose route, and the
    rank of the balanced core for the unit-consistent and strict routes (for
    strict always the full dimension). ``x_pinv`` is pinv(x) for the x =
    X / 2**exponent the RGA was formed from, and ``decomposition`` the
    balancing that gave X (None for the Moore-Penrose route, whose X is g).
    """

    rga: np.ndarray
    method: str
    numerical_rank: int
    row_sums: np.ndarray
    col_sums: np.ndarray
    element_sum: float
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
        pinv(g) for the Moore-Penrose route, E @ pinv(core) @ D otherwise."""
        x_pinv = np.ldexp(self.x_pinv, -self.exponent)
        if (dec := self.decomposition) is None:
            return x_pinv
        return x_pinv * np.exp(dec.right_log[:, None] + dec.left_log[None, :])


@dataclass(frozen=True)
class Check:
    """One named residual compared against its threshold."""

    name: str
    value: float
    threshold: float
    passed: bool
    informational: bool


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        """True when every non-informational check passed."""
        return all(c.passed for c in self.checks if not c.informational)


def _route(x: np.ndarray, method: str, decomposition: ScalingDecomposition | None) -> RgaResult:
    """x * pinv(x).T, the RGA every route computes, from :func:`scaled_pinv`."""
    x, x_pinv, exponent, info = scaled_pinv(x)
    rga = x * x_pinv.T
    return RgaResult(
        rga=rga,
        method=method,
        numerical_rank=info.numerical_rank,
        row_sums=rga.sum(axis=1),
        col_sums=rga.sum(axis=0),
        element_sum=float(rga.sum()),
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
    """
    a = as_matrix(a)
    d = as_scaling(d, a.shape[0])
    e = as_scaling(e, a.shape[1])
    base = uc_inverse(a)
    mapped = apply_diag(e, uc_inverse(apply_diag(d, a, e)), d)
    return relative_change(mapped, base)


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
    return replace(result, method="strict")


def rga_routes(g, methods) -> dict[str, RgaResult]:
    """The RGA by each route named in ``methods`` ('strict', 'mp' or 'uc'),
    keyed in that order.

    Strict and uc share one :func:`rga_uc` result, strict taking it through
    :func:`strict_from_uc`.
    """
    if isinstance(methods, str):
        raise TypeError(
            f"methods must be a sequence of names such as ({methods!r},), not a string"
        )
    for method in methods:
        if method not in ("strict", "mp", "uc"):
            raise ValueError(f"method must be 'strict', 'mp' or 'uc', got {method!r}")
    results = {}
    uc = None
    for method in methods:
        if method == "mp":
            results[method] = rga_mp(g)
            continue
        if uc is None:
            uc = rga_uc(g)
        results[method] = strict_from_uc(uc) if method == "strict" else uc
    return results


def scaling_invariance_residual(g, base: dict[str, RgaResult], d, e) -> dict[str, float]:
    """Relative max-abs change of each RGA in ``base`` (as :func:`rga_routes`
    gave them for ``g``) when the routes run again on g under row scaling
    ``d`` and column scaling ``e``, keyed like ``base``.

    Zero in exact arithmetic for the unit-consistent route (and for the
    strict route on nonsingular input); typically order one for the
    Moore-Penrose route whenever rank deficiency or rescaling matters.

    No route's RGA depends on an overall constant factor, so g is first
    shifted by the power of two :func:`_range_shift` picks, or ValueError raised.
    """
    g = np.asarray(g, dtype=float)
    d, e = as_scaling(d, g.shape[0]), as_scaling(e, g.shape[1])
    rescaled = apply_diag(d, np.ldexp(g, _range_shift(g, d, e)), e)
    scaled = rga_routes(rescaled, list(base))
    return {method: relative_change(scaled[method].rga, r.rga) for method, r in base.items()}


def _range_shift(g: np.ndarray, d: np.ndarray, e: np.ndarray) -> int:
    """The s for which the nonzeros of 2**s * g, of it scaled by d, and of
    that scaled by e all lie in float64's normal range, 0 when they already
    do; ValueError when no s can fit them, as the copy would overflow or lose
    a subnormal entry."""
    k_g, k_d, k_e = np.frexp(g)[1], np.frexp(d)[1][:, None], np.frexp(e)[1]
    steps = np.stack([k_g, k_g + k_d, k_g + k_d + k_e])[:, g != 0.0]
    # a product of up to three numbers whose binary exponents sum to k lies
    # in [2**(k-3), 2**k); normal magnitudes are [2**-1022, 2**1024). The
    # range also takes in 2**0, which fits, so an all-zero g gives s = 0.
    low, high = int(steps.min(initial=0)) - 3, int(steps.max(initial=0))
    if high - low > 1023 + 1022:
        raise ValueError("rescaled copy not representable in float64: it spans more than its range")
    return 0 if -1022 <= low and high <= 1023 else (1 - low - high) // 2


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
