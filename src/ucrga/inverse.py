"""Residual checks for the algebraic identities any generalized inverse must
satisfy: a @ x @ a == a and x @ a @ x == x.

The generalized inverses themselves come with the RGA they form: every
:class:`~ucrga.rga.RgaResult` carries its own as ``result.inverse``, and
:func:`~ucrga.rga.pinv` and :func:`~ucrga.rga.uc_inverse` read it off
:func:`~ucrga.rga.rga_mp` and :func:`~ucrga.rga.rga_uc`.
"""

from typing import NamedTuple

import numpy as np

from .matrix import DimensionError, as_matrix

__all__ = [
    "GiResiduals",
    "check_gi_identities",
]

# floor for relative-residual denominators so an all-zero matrix yields 0, not NaN
TINY = 1e-300


def relative_change(new: np.ndarray, base: np.ndarray) -> float:
    """Max-abs change from ``base`` to ``new``, relative to the largest |base|."""
    return float(np.abs(new - base).max() / max(np.abs(base).max(), TINY))


class GiResiduals(NamedTuple):
    """Relative residuals of the two defining generalized-inverse identities."""

    residual_axa: float
    residual_xax: float


def check_gi_identities(a, g) -> GiResiduals:
    """Measure how well ``g`` behaves as a generalized inverse of ``a``.

    Returns max-abs residuals of a@g@a == a and g@a@g == g, each normalized
    by the max-abs of the matrix being reproduced.
    """
    a = as_matrix(a)
    g = as_matrix(g)
    if g.shape != (a.shape[1], a.shape[0]):
        raise DimensionError(
            f"inverse candidate must have shape {(a.shape[1], a.shape[0])}, got {g.shape}"
        )
    residual_axa = relative_change(a @ g @ a, a)
    residual_xax = relative_change(g @ a @ g, g)
    return GiResiduals(residual_axa=residual_axa, residual_xax=residual_xax)
