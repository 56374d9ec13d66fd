"""The benchmark's workloads: seeded input families, the operation each one
times, and the untimed checks of every operation's output.

Every workload has uniform cost: each operation does the same work on one
plant from a single seeded family, so the median and the 90th percentile of
its latency fall within one cost mode. A plant is kept only when its rank,
known by construction, sits well clear of the rank cutoff both for the raw
matrix (the Moore-Penrose route) and for its balanced core (the
unit-consistent route), so that no rank decision can flip between seeds, and
when no entry of its oracle RGAs exceeds RGA_MAX, so that a 1e-6 error in
any output stands far above rounding (see oracle.RGA_RTOL).
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import ucrga
import ucrga.cli

import oracle

# singular values must clear the rank cutoff by this factor on both sides
RANK_MARGIN = 100.0

# larger RGA entries mean a plant nearly singular beyond its constructed rank
RGA_MAX = 100.0

# the element sum of an RGA equals the rank used to form it
SUM_RTOL = 1e-9

# range of the seeded diagonal rescaling in the unit-invariance check
INVARIANCE_DECADES = 3.0

CLI_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Plant:
    """A plant, its rank by construction, and the oracle's RGAs of it."""

    g: np.ndarray
    rank: int
    mp_rga: np.ndarray
    uc_rga: np.ndarray


def _log_uniform(rng, size, decades):
    return 10.0 ** rng.uniform(-decades, decades, size)


def _signs(rng, size):
    return rng.choice((-1.0, 1.0), size)


def _rescaled(rng, pattern):
    """diag(d) @ pattern @ diag(e) with d and e log-uniform over 1e+-2."""
    m, n = pattern.shape
    return _log_uniform(rng, m, 2.0)[:, None] * pattern * _log_uniform(rng, n, 2.0)[None, :]


def dense_wide_plant(rng):
    """A dense Gaussian 30x1000 plant of full row rank."""
    return rng.standard_normal((30, 1000)), 30


def bidiagonal_plant(rng, n=12):
    """Upper bidiagonal n x n with random signs, rows and columns rescaled."""
    i = np.arange(n)
    pattern = np.zeros((n, n))
    pattern[i, i] = _signs(rng, n)
    pattern[i[:-1], i[:-1] + 1] = _signs(rng, n - 1)
    return _rescaled(rng, pattern), n


def staircase_plant(rng, m=12):
    """Staircase m x (m+1), entries (i, i) and (i, i+1), rows and columns rescaled."""
    i = np.arange(m)
    pattern = np.zeros((m, m + 1))
    pattern[i, i] = _signs(rng, m)
    pattern[i, i + 1] = _signs(rng, m)
    return _rescaled(rng, pattern), m


def banded_deficient_plant(rng, n=20):
    """Tridiagonal n x n of rank n-1: a lower times an upper bidiagonal factor
    of width n-1, entries of magnitude 0.5..2 with random signs, then rows and
    columns rescaled."""
    k = np.arange(n - 1)
    lower = np.zeros((n, n - 1))
    upper = np.zeros((n - 1, n))
    for factor, rows, cols in ((lower, k, k), (lower, k + 1, k), (upper, k, k), (upper, k, k + 1)):
        factor[rows, cols] = rng.uniform(0.5, 2.0, n - 1) * _signs(rng, n - 1)
    return _rescaled(rng, lower @ upper), n - 1


def cli_plant(rng):
    """A dense square 60x60 plant of rank 45."""
    return rng.standard_normal((60, 45)) @ rng.standard_normal((45, 60)), 45


def _validated(g, rank):
    """The plant with its oracle RGAs, or None if it is not well posed."""
    for matrix in (g, oracle.balanced_core(g)[0]):
        kept, dropped = oracle.rank_margins(matrix, rank)
        if kept < RANK_MARGIN or dropped > 1.0 / RANK_MARGIN:
            return None
    mp_rga, uc_rga = oracle.mp_rga(g), oracle.uc_rga(g)
    if max(np.abs(mp_rga).max(), np.abs(uc_rga).max()) > RGA_MAX:
        return None
    return Plant(g, rank, mp_rga, uc_rga)


def draw_plants(rng, families, count):
    """``count`` validated plants, cycling through ``families``; a plant that
    is not well posed is drawn again from the same family."""
    plants = []
    while len(plants) < count:
        plant = _validated(*families[len(plants) % len(families)](rng))
        if plant is not None:
            plants.append(plant)
    return plants


def _rga_ok(plant, rga, expected, rank, element_sum):
    """The RGA matches the oracle's, was formed at the constructed rank, and
    its element sum equals that rank."""
    scale = max(1.0, float(np.abs(rga).sum()))
    return (
        oracle.rga_matches(rga, expected)
        and rank == plant.rank
        and abs(element_sum - plant.rank) <= SUM_RTOL * scale
    )


class LibraryWorkload:
    """Each operation runs rga_mp and then rga_uc on one plant, each followed
    by rga_summary."""

    spawns_process = False

    def __init__(self, plants, seed):
        self.plants = plants
        self.seed = seed
        self._invariant = set()

    def operation(self, i):
        g = self.plants[i].g
        mp = ucrga.rga_mp(g)
        mp_report = ucrga.rga_summary(mp)
        uc = ucrga.rga_uc(g)
        uc_report = ucrga.rga_summary(uc)
        return mp, mp_report, uc, uc_report

    in_process = operation

    def check(self, i, output):
        mp, mp_report, uc, uc_report = output
        plant = self.plants[i]
        ok = (
            _rga_ok(plant, mp.rga, plant.mp_rga, mp.numerical_rank, mp.element_sum)
            and _rga_ok(plant, uc.rga, plant.uc_rga, uc.numerical_rank, uc.element_sum)
            and uc.balancer_converged
            and mp_report.all_passed
            and uc_report.all_passed
        )
        if ok and i not in self._invariant:
            # unit invariance, once per plant: the program's UC-RGA of a
            # rescaled copy of the plant equals that of the plant
            rng = np.random.default_rng([self.seed, i])
            m, n = plant.g.shape
            d = _log_uniform(rng, m, INVARIANCE_DECADES)
            e = _log_uniform(rng, n, INVARIANCE_DECADES)
            ok = oracle.rga_matches(ucrga.rga_uc(d[:, None] * plant.g * e[None, :]).rga, uc.rga)
            self._invariant.add(i)
        return ok

    def close(self):
        pass


class CliWorkload:
    """Each operation is one ``python -m ucrga check --method uc --output json``
    subprocess on a CSV file written during set-up."""

    spawns_process = True

    def __init__(self, plants, root, workdir):
        self.plants = plants
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, plant in enumerate(plants):
            path = workdir / f"plant{i}.csv"
            np.savetxt(path, plant.g, fmt="%.17g", delimiter=",")
            self.paths.append(path)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _argv(self, i):
        return ["check", "--method", "uc", "--output", "json", "--input", str(self.paths[i])]

    def operation(self, i):
        proc = subprocess.run(
            [sys.executable, "-m", "ucrga", *self._argv(i)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def in_process(self, i):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = ucrga.cli.main(self._argv(i))
        return code, stdout.getvalue()

    def check(self, i, output):
        code, stdout = output
        if code != 0:
            return False
        try:
            report = json.loads(stdout)
            rga = np.array(report["rga"]["data"], dtype=float).reshape(
                report["rga"]["rows"], report["rga"]["cols"]
            )
            checks_passed = all(c["passed"] for c in report["checks"] if not c["informational"])
            rank, element_sum = report["rank"], report["element_sum"]
            converged = report["balancer_converged"]
        except (ValueError, KeyError, TypeError):
            return False
        plant = self.plants[i]
        return checks_passed and converged and _rga_ok(plant, rga, plant.uc_rga, rank, element_sum)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# workload name -> (plant families, pool size)
FAMILIES = {
    "dense_wide": ((dense_wide_plant,), 4),
    "sparse_banded": ((bidiagonal_plant, staircase_plant, banded_deficient_plant), 18),
    "cli_check": ((cli_plant,), 8),
}


def build(name, seed, root: Path, workdir: Path):
    """Generate and validate the seeded inputs of workload ``name``."""
    families, count = FAMILIES[name]
    plants = draw_plants(np.random.default_rng(seed), families, count)
    if name == "cli_check":
        return CliWorkload(plants, root, workdir)
    return LibraryWorkload(plants, seed)
