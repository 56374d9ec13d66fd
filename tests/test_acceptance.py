"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a `criterion NN: PASS/FAIL`
line (run with `pytest -s` to see all of them live; failed criteria also show
their line in the captured output).

Criterion 03 compares against a published two-decimal MP-RGA table for the
wide plant. The table describes the stacked plant with its two 3x3 blocks in
the other order (rescaled block first), so the criterion computes the MP-RGA of
that matrix. One printed entry, -4.47, is a misprint for -4.45 (exact value
-378/85 = -4.4471); it is corrected through an explicit erratum record in
golden.py, and the criterion checks that the printed table's own block sums
single out exactly that entry. The exact full-precision block structure is
derived and verified in test_rga.py::test_mp_rga_stacked_closed_form.
"""

import json
from pathlib import Path

import numpy as np

from ucrga import check_gi_identities, uc_consistency_residual, uc_inverse
from ucrga.cli import EXIT_OK, EXIT_PROPERTY, EXIT_SINGULAR, main
from ucrga.matrix import matrix_from_json
from ucrga.rga import rga_mp, rga_routes, rga_strict, rga_uc, scaling_invariance_residual
from ucrga.svd import pinv

from golden import (
    COLUMN_FACTORS,
    EXACT_RGA_PLANT,
    MP_RGA_SCALED_ONES3,
    ONES3,
    PLANT,
    PUBLISHED_MP_RGA_ERRATA,
    PUBLISHED_MP_RGA_SWAPPED_X2,
    PUBLISHED_RGA_PLANT,
    PUBLISHED_UC_RGA_STACKED_X2,
    RESCALED_PLANT,
    SCALED_ONES3,
    STACKED_PLANT,
    STACKED_PLANT_SWAPPED,
)
from reference_impl import reference_uc_rga
from suites import rank_controlled_suite, rank_one_2x2_suite, scaling_pairs_for

FIXTURES = Path(__file__).resolve().parents[1] / "demos" / "matrices"

SUITE = rank_controlled_suite()
PAIRS = scaling_pairs_for(SUITE)


def report(num: int, passed: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_01_strict_rga_golden_fixture():
    rga_a = rga_strict(PLANT).rga
    rga_b = rga_strict(RESCALED_PLANT).rga
    dev_a = np.abs(rga_a - PUBLISHED_RGA_PLANT).max()
    dev_b = np.abs(rga_b - PUBLISHED_RGA_PLANT).max()
    dev_pair = np.abs(rga_a - rga_b).max()
    ok = dev_a <= 5e-3 and dev_b <= 5e-3 and dev_pair <= 1e-9
    assert report(
        1,
        ok,
        f"strict RGA vs published table {max(dev_a, dev_b):.2e} (<=5e-3), "
        f"plant vs rescaled plant {dev_pair:.2e} (<=1e-9)",
    )


def test_criterion_02_uc_rga_rectangular_golden_fixture():
    result = rga_uc(STACKED_PLANT).rga
    dev_published = np.abs(2.0 * result - PUBLISHED_UC_RGA_STACKED_X2).max()
    oracle = 0.5 * np.hstack([EXACT_RGA_PLANT, EXACT_RGA_PLANT])
    dev_oracle = np.abs(result - oracle).max()
    dev_blocks = np.abs(result[:, :3] - result[:, 3:]).max()
    ok = dev_published <= 5e-3 and dev_oracle <= 1e-7 and dev_blocks <= 1e-9
    assert report(
        2,
        ok,
        f"UC-RGA vs published {dev_published:.2e} (<=5e-3), vs exact oracle "
        f"{dev_oracle:.2e} (<=1e-7), block agreement {dev_blocks:.2e} (<=1e-9)",
    )


def test_criterion_03_mp_rga_rectangular_published_table():
    # the published table belongs to the stacked plant with its blocks in the
    # other order; it is compared as printed, apart from its listed errata
    printed = PUBLISHED_MP_RGA_SWAPPED_X2
    # the exact table from integer cofactors: the rescaled block carries the
    # share f^2/(1+f^2) of each exact RGA entry, the plant block 1/(1+f^2)
    f2 = COLUMN_FACTORS**2
    exact = 2.0 * np.hstack([EXACT_RGA_PLANT * f2 / (1.0 + f2), EXACT_RGA_PLANT / (1.0 + f2)])
    errata_consistent = all(
        printed[e.index] == e.printed
        and e.corrected != e.printed
        and round(float(e.exact), 2) == e.corrected
        and abs(float(e.exact) - exact[e.index]) <= 1e-12
        for e in PUBLISHED_MP_RGA_ERRATA
    )
    table = printed.copy()
    for e in PUBLISHED_MP_RGA_ERRATA:
        table[e.index] = e.corrected
    result = rga_mp(STACKED_PLANT_SWAPPED).rga
    dev = np.abs(2.0 * result - table).max()
    # the two shares add to one, so the printed block sums must reproduce
    # 2 * EXACT_RGA_PLANT to within 0.01 of rounding; an erratum is allowed
    # exactly where the printed numbers themselves break that
    block_sum_gap = np.abs(printed[:, :3] + printed[:, 3:] - 2.0 * EXACT_RGA_PLANT)
    broken = {(int(i), int(j)) for i, j in np.argwhere(block_sum_gap > 1e-2)}
    listed = {(e.index[0], e.index[1] % 3) for e in PUBLISHED_MP_RGA_ERRATA}
    ok = dev <= 5e-3 and errata_consistent and broken == listed
    assert report(
        3,
        ok,
        f"MP-RGA of the block-swapped stacked plant vs published table {dev:.2e} "
        f"(<=5e-3) after {len(PUBLISHED_MP_RGA_ERRATA)} erratum; printed block "
        f"sums break at {sorted(broken)}, errata listed at {sorted(listed)}; "
        "exact values verified in test_rga.py::test_mp_rga_stacked_closed_form",
    ), (
        f"published MP-RGA table deviates {dev:.3f} after errata; errata consistent "
        f"with their exact values: {errata_consistent}; block-sum breaks "
        f"{sorted(broken)} vs errata {sorted(listed)}; the full-precision block "
        "structure is asserted in test_rga.py::test_mp_rga_stacked_closed_form"
    )


def test_criterion_04_ones_matrices_golden_fixtures():
    dev_mp = np.abs(rga_mp(ONES3).rga - ONES3 / 9.0).max()
    dev_uc = np.abs(rga_uc(ONES3).rga - ONES3 / 9.0).max()
    dev_uc_scaled = np.abs(rga_uc(SCALED_ONES3).rga - ONES3 / 9.0).max()
    dev_mp_scaled = np.abs(rga_mp(SCALED_ONES3).rga - MP_RGA_SCALED_ONES3).max()
    worst = max(dev_mp, dev_uc, dev_uc_scaled, dev_mp_scaled)
    ok = worst <= 1e-9
    assert report(
        4,
        ok,
        f"ones fixtures worst deviation {worst:.2e} (<=1e-9): UC unchanged under "
        "rescaling, MP redistributed as published",
    )


def test_criterion_05_rank_one_2x2_quarter_matrix():
    worst = 0.0
    for g in rank_one_2x2_suite(count=100):
        worst = max(worst, np.abs(rga_uc(g).rga - 0.25).max())
    ok = worst <= 1e-9
    assert report(5, ok, f"100 rank-1 2x2 draws, worst deviation from 0.25: {worst:.2e} (<=1e-9)")


def test_criterion_06_unit_invariance_property_suite():
    worst_uc = 0.0
    min_mp_deficient = np.inf
    deficient = 0
    for (g, r), (d, e) in zip(SUITE, PAIRS):
        methods = ("uc", "mp") if r < min(g.shape) else ("uc",)
        moved = scaling_invariance_residual(g, rga_routes(g, methods), d, e)
        worst_uc = max(worst_uc, moved["uc"])
        if "mp" in moved:
            deficient += 1
            min_mp_deficient = min(min_mp_deficient, moved["mp"])
    ok = worst_uc <= 1e-7 and min_mp_deficient > 1e-2
    assert report(
        6,
        ok,
        f"200 draws: UC residual worst {worst_uc:.2e} (<=1e-7); MP residual over "
        f"{deficient} rank-deficient draws at least {min_mp_deficient:.2e} (>1e-2)",
    )


def test_criterion_07_structural_invariants():
    worst_sum = 0.0
    worst_strict_sums = 0.0
    worst_vs_classical = 0.0
    nonsingular = 0
    for g, r in SUITE:
        m, n = g.shape
        worst_sum = max(
            worst_sum,
            abs(rga_mp(g).element_sum - r),
            abs(rga_uc(g).element_sum - r),
        )
        if m == n and r == n:
            nonsingular += 1
            strict = rga_strict(g)
            worst_sum = max(worst_sum, abs(strict.element_sum - r))
            worst_strict_sums = max(
                worst_strict_sums,
                np.abs(strict.row_sums - 1.0).max(),
                np.abs(strict.col_sums - 1.0).max(),
            )
            # strict is computed by the UC route, so both are held against
            # the classical RGA, formed here by Gaussian elimination
            classical = g * np.linalg.inv(g).T
            for result in (strict, rga_uc(g)):
                rel = np.abs(result.rga - classical).max() / np.abs(classical).max()
                worst_vs_classical = max(worst_vs_classical, rel)
    ok = worst_sum <= 1e-7 and worst_strict_sums <= 1e-9 and worst_vs_classical <= 1e-8
    assert report(
        7,
        ok,
        f"element sum vs rank worst {worst_sum:.2e} (<=1e-7); strict sums worst "
        f"{worst_strict_sums:.2e} (<=1e-9) and UC/strict vs g * inv(g).T worst "
        f"{worst_vs_classical:.2e} (<=1e-8) over {nonsingular} nonsingular draws",
    )


def test_criterion_08_generalized_inverse_contract():
    worst_identity = 0.0
    for g, _ in SUITE:
        for candidate in (pinv(g), uc_inverse(g)):
            res = check_gi_identities(g, candidate)
            worst_identity = max(worst_identity, res.residual_axa, res.residual_xax)
    rng = np.random.default_rng(7)
    worst_unitary = 0.0
    for g, _ in SUITE[:100]:
        m, n = g.shape
        qu, _ = np.linalg.qr(rng.standard_normal((m, m)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lhs = pinv(qu @ g @ qv)
        rhs = qv.T @ pinv(g) @ qu.T
        worst_unitary = max(worst_unitary, np.abs(lhs - rhs).max() / np.abs(rhs).max())
    worst_diag = 0.0
    for (g, _), (d, e) in zip(SUITE, PAIRS):
        worst_diag = max(worst_diag, uc_consistency_residual(g, d, e))
    ok = worst_identity <= 1e-8 and worst_unitary <= 1e-8 and worst_diag <= 1e-7
    assert report(
        8,
        ok,
        f"defining identities worst {worst_identity:.2e} (<=1e-8); pinv unitary "
        f"consistency worst {worst_unitary:.2e} (<=1e-8); UC diagonal consistency "
        f"worst {worst_diag:.2e} (<=1e-7)",
    )


def test_criterion_09_reference_implementation_agreement():
    fixed = [
        PLANT,
        RESCALED_PLANT,
        STACKED_PLANT,
        ONES3,
        SCALED_ONES3,
        np.array([[1.0, 2.0], [3.0, 6.0]]),
        np.array([[2.0, -5.0], [0.0, 0.0]]),
    ]
    worst = 0.0
    for g in fixed + [g for g, _ in SUITE]:
        lib = rga_uc(g).rga
        ref, *_ = reference_uc_rga(g)
        worst = max(worst, np.abs(lib - ref).max())
    ok = worst <= 1e-9
    assert report(
        9, ok, f"UC-RGA vs loop-style reference, worst deviation {worst:.2e} (<=1e-9)"
    )


def test_criterion_10_cli_contract(capsys):
    plant = str(FIXTURES / "plant3x3.csv")
    rescaled = str(FIXTURES / "plant3x3_rescaled.csv")
    stacked = str(FIXTURES / "plant3x6.csv")
    ones = str(FIXTURES / "ones3x3.csv")
    scaled_ones = str(FIXTURES / "ones3x3_scaled.csv")
    failures = []

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    # criterion 1 through the CLI: strict on both plant fixtures
    for path in (plant, rescaled):
        code, out = run(["compute", "--input", path, "--method", "strict", "--output", "json"])
        rga = matrix_from_json(json.loads(out)["rga"])
        if code != EXIT_OK or np.abs(rga - PUBLISHED_RGA_PLANT).max() > 5e-3:
            failures.append(f"strict on {Path(path).name}")

    # criterion 2 through the CLI: UC on the stacked fixture
    code, out = run(["compute", "--input", stacked, "--method", "uc", "--output", "json"])
    rga = matrix_from_json(json.loads(out)["rga"])
    if code != EXIT_OK or np.abs(2.0 * rga - PUBLISHED_UC_RGA_STACKED_X2).max() > 5e-3:
        failures.append("uc on stacked fixture")

    # criterion 3's computation through the CLI at full precision (the
    # published table, which describes the block-swapped plant, is compared
    # in criterion 03)
    code, out = run(["compute", "--input", stacked, "--method", "mp", "--output", "json"])
    rga = matrix_from_json(json.loads(out)["rga"])
    if code != EXIT_OK or np.abs(rga - rga_mp(STACKED_PLANT).rga).max() > 1e-12:
        failures.append("mp on stacked fixture")

    # criterion 4 through the CLI: compare on the rescaled ones fixture
    code, out = run(["compare", "--input", scaled_ones, "--output", "json"])
    compare = json.loads(out)
    mp_rga = matrix_from_json(compare["mp"]["rga"])
    uc_rga = matrix_from_json(compare["uc"]["rga"])
    if (
        code != EXIT_OK
        or np.abs(mp_rga - MP_RGA_SCALED_ONES3).max() > 1e-9
        or np.abs(uc_rga - ONES3 / 9.0).max() > 1e-9
    ):
        failures.append("compare on scaled ones fixture")

    # documented exit codes
    code, _ = run(["compute", "--input", ones, "--method", "strict"])
    if code != EXIT_SINGULAR:
        failures.append(f"strict-on-singular exit {code} != {EXIT_SINGULAR}")
    code, _ = run(["check", "--input", ones, "--method", "mp", "--output", "json"])
    if code != EXIT_PROPERTY:
        failures.append(f"failed-check exit {code} != {EXIT_PROPERTY}")
    code, _ = run(["check", "--input", plant, "--output", "json"])
    if code != EXIT_OK:
        failures.append(f"passing-check exit {code} != {EXIT_OK}")

    # lossless JSON round trip
    code, out = run(["compute", "--input", stacked, "--output", "json"])
    emitted = matrix_from_json(json.loads(out)["rga"])
    if not np.array_equal(emitted, rga_uc(STACKED_PLANT).rga):
        failures.append("json round trip not exact")

    ok = not failures
    assert report(
        10,
        ok,
        "CLI reproduces the golden fixtures with documented exit codes"
        + ("" if ok else f"; failures: {failures}"),
    )
