"""Tests of the benchmark's oracle, which checks every benchmark output.

    python -m pytest -q perfbench/test_oracle.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import oracle  # noqa: E402
from golden import COLUMN_FACTORS, EXACT_RGA_PLANT, PLANT  # noqa: E402
from ucrga import rga_strict  # noqa: E402


@pytest.mark.parametrize("route", [oracle.uc_rga, oracle.mp_rga])
def test_reproduces_exact_cofactor_rga(route):
    assert np.abs(route(PLANT) - EXACT_RGA_PLANT).max() < 1e-12


def test_uc_route_is_unit_invariant():
    scaled = np.array([1e-6, 1.0, 1e4])[:, None] * PLANT * COLUMN_FACTORS
    assert np.abs(oracle.uc_rga(scaled) - EXACT_RGA_PLANT).max() < 1e-12


def test_sparse_balance_centres_every_row_and_column():
    rng = np.random.default_rng(7)
    g = np.triu(rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-4, 4, (6, 6)))
    core, _, _ = oracle.balanced_core(g)
    logs = np.where(g != 0, np.log(np.abs(core), where=g != 0, out=np.zeros(g.shape)), 0.0)
    counts = (g != 0).sum(axis=1), (g != 0).sum(axis=0)
    assert np.abs(logs.sum(axis=1) / counts[0]).max() < 1e-12
    assert np.abs(logs.sum(axis=0) / counts[1]).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_matches_rga_strict_on_nonsingular_plants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
    if seed % 2:
        # a sparse support that keeps the diagonal, to exercise the lstsq balance
        g *= (rng.random((n, n)) < 0.5) | np.eye(n, dtype=bool)
    expected = rga_strict(g).rga
    scale = max(1.0, np.abs(expected).max())
    for route in (oracle.uc_rga, oracle.mp_rga):
        assert np.abs(route(g) - expected).max() <= 1e-9 * scale


def test_flags_an_rga_shifted_by_1e6():
    assert oracle.rga_matches(oracle.uc_rga(PLANT), EXACT_RGA_PLANT)
    shifted = EXACT_RGA_PLANT.copy()
    shifted[1, 2] += 1e-6
    assert not oracle.rga_matches(shifted, EXACT_RGA_PLANT)
    assert not oracle.rga_matches(EXACT_RGA_PLANT + 1e-6, EXACT_RGA_PLANT)
