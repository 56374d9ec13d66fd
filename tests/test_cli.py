"""Tests for the command line interface: exit codes, output formats, determinism."""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucrga.rga as rga_module
from ucrga import cli
from ucrga.cli import EXIT_INPUT, EXIT_OK, EXIT_PROPERTY, EXIT_SINGULAR, main
from ucrga.matrix import format_csv, matrix_from_json, parse_csv
from ucrga.rga import SingularMatrixError, property_reports, rga_mp, rga_routes, rga_strict, rga_uc

from golden import EXACT_RGA_PLANT, MP_RGA_SCALED_ONES3, ONES3, PLANT, UNCONVERGED_BIDIAGONAL
from suites import sparse_suite

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "demos" / "matrices"
SRC = ROOT / "src"

PLANT_CSV = str(FIXTURES / "plant3x3.csv")
PLANT_JSON = str(FIXTURES / "plant3x3.json")
STACKED_CSV = str(FIXTURES / "plant3x6.csv")
ONES_CSV = str(FIXTURES / "ones3x3.csv")
SCALED_ONES_CSV = str(FIXTURES / "ones3x3_scaled.csv")

SPARSE = sparse_suite()


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_compute_strict_json_matches_exact_values(capsys):
    code, report = run_json(
        capsys, ["compute", "--input", PLANT_CSV, "--method", "strict", "--output", "json"]
    )
    assert code == EXIT_OK
    assert report["method"] == "strict"
    assert report["shape"] == [3, 3]
    assert report["rank"] == 3
    assert report["balancer_converged"] is True
    rga = matrix_from_json(report["rga"])
    assert np.abs(rga - EXACT_RGA_PLANT).max() <= 1e-9
    assert abs(report["element_sum"] - 3.0) <= 1e-9
    assert len(report["row_sums"]) == 3 and len(report["col_sums"]) == 3
    assert all(not c["informational"] for c in report["checks"])


def test_compute_json_round_trips_losslessly(capsys):
    code, report = run_json(capsys, ["compute", "--input", PLANT_CSV, "--output", "json"])
    assert code == EXIT_OK
    in_memory = rga_uc(parse_csv(Path(PLANT_CSV).read_text()))
    assert np.array_equal(matrix_from_json(report["rga"]), in_memory.rga)


@pytest.mark.parametrize(
    "command", [["compute"], ["compute", "--method", "all"], ["compare"]], ids=" ".join
)
@pytest.mark.parametrize("fixture", sorted(FIXTURES.iterdir()), ids=lambda path: path.name)
def test_compute_csv_round_trips_exactly(capsys, fixture, command):
    # every CSV block, split on its "# method=" header, holds the bits of the
    # JSON report's rga and of the route run in memory
    argv = [*command, "--input", str(fixture)]
    code = main([*argv, "--output", "csv"])
    out = capsys.readouterr().out
    json_code, printed = run_json(capsys, [*argv, "--output", "json"])
    assert code == json_code == EXIT_OK
    if command == ["compare"]:
        printed = [printed["mp"], printed["uc"]]
    reports = printed if isinstance(printed, list) else [printed]
    head, *parts = re.split(r"^# method=(\w+)\n", out, flags=re.M)
    if parts:
        assert head == ""
        blocks = dict(zip(parts[::2], parts[1::2]))
    else:
        blocks = {reports[0]["method"]: head}
    assert list(blocks) == [r["method"] for r in reports]
    in_memory = rga_routes(cli._load_matrix(str(fixture)), list(blocks))
    for report in reports:
        exact = [matrix_from_json(report["rga"]), in_memory[report["method"]].rga]
        parsed = parse_csv(blocks[report["method"]])
        assert all((parsed.shape, parsed.tobytes()) == (a.shape, a.tobytes()) for a in exact)


def test_compute_table_respects_digits(capsys):
    code = main(
        ["compute", "--input", PLANT_CSV, "--method", "strict", "--digits", "2"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for fragment in ("-2.47", "-2.41", "5.88", "3.29", "0.94", "-3.24"):
        assert fragment in out
    assert "method: strict" in out
    assert "rank: 3" in out


def test_compute_uc_on_stacked_plant(capsys):
    code, report = run_json(
        capsys, ["compute", "--input", STACKED_CSV, "--method", "uc", "--output", "json"]
    )
    assert code == EXIT_OK
    rga = matrix_from_json(report["rga"])
    assert np.abs(rga[:, :3] - rga[:, 3:]).max() <= 1e-9
    assert np.abs(rga - 0.5 * np.hstack([EXACT_RGA_PLANT, EXACT_RGA_PLANT])).max() <= 1e-7
    assert report["rank"] == 3


def test_compute_infers_json_format(capsys):
    code, report = run_json(
        capsys, ["compute", "--input", PLANT_JSON, "--method", "strict", "--output", "json"]
    )
    assert code == EXIT_OK
    assert np.abs(matrix_from_json(report["rga"]) - EXACT_RGA_PLANT).max() <= 1e-9


@pytest.mark.parametrize(
    "name, text",
    [
        ("matrix.txt", '{"rows": 1, "cols": 2, "data": [1.0, 2.0]}'),
        ("matrix.csv", ' \n\t{"rows": 1, "cols": 2, "data": [1.0, 2.0]}'),
        ("matrix.json", "1,2\n"),
        # spreadsheets write a UTF-8 byte-order mark before the first field
        ("bom.csv", "\ufeff1,2\n"),
        ("bom.json", '\ufeff{"rows": 1, "cols": 2, "data": [1.0, 2.0]}'),
    ],
    ids=["json-in-txt", "json-after-whitespace", "csv-in-json", "bom-csv", "bom-json"],
)
def test_the_first_character_gives_the_input_format(tmp_path, capsys, name, text):
    # the file name plays no part
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, report = run_json(capsys, ["compute", "--input", str(path), "--output", "json"])
    assert code == EXIT_OK
    assert report["shape"] == [1, 2]
    assert np.abs(matrix_from_json(report["rga"]) - 0.5).max() <= 1e-15


def test_compute_all_skips_strict_on_singular(capsys):
    code = main(["compute", "--input", ONES_CSV, "--method", "all", "--output", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    reports = json.loads(captured.out)
    assert [r["method"] for r in reports] == ["mp", "uc"]
    assert "strict RGA skipped" in captured.err


def test_compute_all_includes_strict_when_nonsingular(capsys):
    code, reports = run_json(
        capsys, ["compute", "--input", PLANT_CSV, "--method", "all", "--output", "json"]
    )
    assert code == EXIT_OK
    assert [r["method"] for r in reports] == ["strict", "mp", "uc"]


def test_missing_file_exits_1(capsys):
    assert main(["compute", "--input", "no/such/file.csv"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_ragged_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    assert main(["compute", "--input", str(path)]) == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("bool.json", '{"rows": true, "cols": 1, "data": [2]}'),
        ("strings.json", '{"rows": 1, "cols": 2, "data": ["1e3", "1_0"]}'),
        ("underscore.csv", "1_000,2\n3,4\n"),
        ("arabic_indic.csv", "\u0663,2\n3,4\n"),
    ],
)
def test_non_numeric_input_exits_1_with_no_output(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["compute", "--input", str(path), "--output", "json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_deeply_nested_json_exits_1_with_no_output(capsys):
    # json.loads recurses once per level and gives up long before this depth
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["compute", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: invalid JSON:")


@pytest.mark.parametrize(
    "text, quoted",
    [
        ("1," + "x" * 5000, "'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
        ("9" * 400 + ",1", "'99999999999999999999'... (400 characters)"),
    ],
    ids=["unparsable", "non-finite"],
)
def test_a_long_csv_field_gives_one_short_error_line(tmp_path, capsys, text, quoted):
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["compute", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {path}: row 1, column ")
    assert quoted in line
    assert len(line) < 200


@pytest.mark.parametrize(
    "data",
    [
        b"[1, 2]",
        b'{"rows": 1, "cols": 2}',
        b'{"rows": 1, "cols": 1, "data": [NaN]}',
        b"\xff1,2\n",
        None,
        "directory",
    ],
    ids=[
        "json-not-an-object",
        "json-missing-data",
        "json-non-finite",
        "not-utf-8",
        "missing",
        "directory",
    ],
)
def test_every_input_error_names_the_file(tmp_path, capsys, data):
    path = tmp_path / "matrix.json"
    if data == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    assert main(["compute", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and f" {path}: " in line
    # an OSError's own text would name it a second time
    assert line.count(str(path)) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["compute"],
        ["compute", "--input", PLANT_CSV, "--method", "exact"],
        ["compute", "--input", PLANT_CSV, "--digits", "-1"],
        # 1075 and more places would only add zeros; a huge value once
        # printed part of the table, then failed in the formatting
        ["compute", "--input", PLANT_CSV, "--digits", "1075"],
        ["check", "--input", PLANT_CSV, "--seed", "-1"],
        # the sweep cap, the balancing tolerance and the rank cutoff are
        # constants, not flags
        ["compute", "--input", PLANT_CSV, "--max-iter", "1"],
        ["check", "--input", PLANT_CSV, "--balance-tol", "nan"],
        ["check", "--input", PLANT_CSV, "--rank-tol", "nan"],
        # each subcommand takes only the flags it reads
        ["compare", "--input", PLANT_CSV, "--method", "uc"],
        ["compute", "--input", PLANT_CSV, "--seed", "1"],
        # more digits than int() reads once named the parser's own function
        # and echoed the whole value
        ["check", "--input", PLANT_CSV, "--seed", "9" * 5000],
        ["compute", "--input", PLANT_CSV, "--digits", "9" * 5000],
        ["check", "--input", PLANT_CSV, "--seed", "x" * 5000],
        # the input's first character gives its format
        *(
            [command, "--input", PLANT_JSON, "--format", fmt]
            for command in ("compute", "compare", "check")
            for fmt in ("json", "csv")
        ),
    ],
    ids=[
        "missing-input",
        "unknown-method",
        "negative-digits",
        "digits-above-1074",
        "negative-seed",
        "removed-max-iter",
        "removed-balance-tol",
        "removed-rank-tol",
        "compare-takes-no-method",
        "compute-takes-no-seed",
        "seed-beyond-int-digits",
        "digits-beyond-int-digits",
        "long-non-digit-seed",
        *(
            f"{command}-removed-format-{fmt}"
            for command in ("compute", "compare", "check")
            for fmt in ("json", "csv")
        ),
    ],
)
def test_usage_errors_exit_1_before_any_output(capsys, argv):
    # argparse's own code, 2, is the one documented for strict on singular input
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    last = captured.err.splitlines()[-1]
    assert len(last) < 200
    assert re.search(r"(^|\W)_\w", last) is None, last


def test_help_exits_0(capsys):
    assert main(["check", "--help"]) == EXIT_OK
    assert "--input" in capsys.readouterr().out


def test_readme_synopsis_lists_each_subcommands_flags(capsys):
    # a flag removed from the parser cannot linger in the docs, nor a new
    # one go unlisted
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## Command line", 1)[1].split("```")[1]
    documented = {
        line.split()[1]: re.findall(r"--[a-z][a-z-]*", line)
        for line in synopsis.splitlines()
        if line.startswith("ucrga ")
    }
    parsed = {}
    for command in ("compute", "compare", "check"):
        assert main([command, "--help"]) == EXIT_OK
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        parsed[command] = re.findall(r"--[a-z][a-z-]*", usage)
    assert documented == parsed


def test_strict_on_singular_exits_2(capsys):
    code = main(["compute", "--input", ONES_CSV, "--method", "strict"])
    assert code == EXIT_SINGULAR
    err = capsys.readouterr().err
    assert "singular" in err
    assert "--method uc" in err


def test_compare_scaled_ones(capsys):
    code, report = run_json(
        capsys, ["compare", "--input", SCALED_ONES_CSV, "--output", "json"]
    )
    assert code == EXIT_OK
    mp_rga = matrix_from_json(report["mp"]["rga"])
    uc_rga = matrix_from_json(report["uc"]["rga"])
    assert np.abs(mp_rga - MP_RGA_SCALED_ONES3).max() <= 1e-9
    assert np.abs(uc_rga - ONES3 / 9.0).max() <= 1e-9
    assert abs(report["max_abs_difference"] - 1.0 / 3.0) <= 1e-9
    assert report["scaling_invariance_residual"]["uc"] <= 1e-7
    assert report["scaling_invariance_residual"]["mp"] > 1e-2
    assert report["seed"] == 42


def test_compare_nonsingular_routes_agree(capsys):
    code, report = run_json(capsys, ["compare", "--input", PLANT_CSV, "--output", "json"])
    assert code == EXIT_OK
    assert report["max_abs_difference"] <= 1e-8
    assert report["scaling_invariance_residual"]["mp"] <= 1e-7


def test_compare_csv_emits_both_blocks(capsys):
    code = main(["compare", "--input", SCALED_ONES_CSV, "--output", "csv"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "# method=mp" in out and "# method=uc" in out


def test_check_uc_on_plant_passes(capsys):
    code, report = run_json(
        capsys, ["check", "--input", PLANT_CSV, "--output", "json"]
    )
    assert code == EXIT_OK
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "row_sum_deviation",
        "col_sum_deviation",
        "element_sum_vs_rank",
        "permutation_equivariance",
        "scaling_invariance",
        "inverse_identity_aga",
        "inverse_identity_gag",
    }
    assert all(c["passed"] for c in report["checks"])


def test_check_mp_on_ones_fails_scaling_invariance(capsys):
    code, report = run_json(
        capsys, ["check", "--input", ONES_CSV, "--method", "mp", "--output", "json"]
    )
    assert code == EXIT_PROPERTY
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["scaling_invariance"]["passed"]
    assert not by_name["scaling_invariance"]["informational"]
    assert by_name["element_sum_vs_rank"]["passed"]


def test_check_zero_matrix_passes_trivially(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("0,0\n0,0\n")
    code, report = run_json(capsys, ["check", "--input", str(path), "--output", "json"])
    assert code == EXIT_OK
    assert report["rank"] == 0
    assert report["element_sum"] == 0.0


def test_check_strict_on_singular_exits_2(capsys):
    code = main(["check", "--input", ONES_CSV, "--method", "strict"])
    assert code == EXIT_SINGULAR


def test_check_all_keeps_strict_under_rescaling(tmp_path, capsys):
    # the scaling-invariance check rescales rows and columns by factors in
    # [1e-3, 1e3]; strict's rank gate reads the balanced core, which the
    # rescaling leaves alone, so strict stays and passes every check
    path = tmp_path / "gaussian50.csv"
    g = np.random.default_rng(1000).standard_normal((50, 50))
    np.savetxt(path, g, fmt="%.17g", delimiter=",")
    code, reports = run_json(
        capsys, ["check", "--input", str(path), "--method", "all", "--output", "json"]
    )
    assert [r["method"] for r in reports] == ["strict", "mp", "uc"]
    failed = [
        (r["method"], c["name"])
        for r in reports
        for c in r["checks"]
        if not c["passed"] and not c["informational"]
    ]
    # the Moore-Penrose route is not unit-invariant
    assert failed == [("mp", "scaling_invariance")]
    assert code == EXIT_PROPERTY


def test_all_balances_strict_and_uc_alike(tmp_path, capsys):
    # strict is taken from the uc result, so one balance bounds both; a dense
    # plant balances in closed form, so the plant is one the sweep does not settle
    path = tmp_path / "unconverged.csv"
    np.savetxt(path, UNCONVERGED_BIDIAGONAL, fmt="%.17g", delimiter=",")
    argv = ["compute", "--input", str(path), "--method", "all"]
    code, reports = run_json(capsys, [*argv, "--output", "json"])
    assert code == EXIT_OK
    converged = {r["method"]: r["balancer_converged"] for r in reports}
    assert converged == {"strict": False, "mp": True, "uc": False}
    assert reports[0]["rga"] == reports[2]["rga"]


@pytest.mark.parametrize("method", ["strict", "mp", "uc", "all"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES.iterdir()), ids=lambda path: path.name)
def test_check_prints_property_reports_on_its_own_draws(capsys, fixture, method):
    # a library caller reproduces the printed verdict from the documented
    # draws of random.Random(seed).random(), seed 42 by default: the row and
    # then the column order as stable argsorts, then d, then e
    code = main(["check", "--input", str(fixture), "--method", method, "--output", "json"])
    out = capsys.readouterr().out
    g = cli._load_matrix(str(fixture))
    if code in (EXIT_SINGULAR, EXIT_INPUT):
        # only strict refuses a fixture: a singular or non-square plant
        assert method == "strict" and out == ""
        with pytest.raises(ValueError):
            rga_strict(g)
        return
    base = cli._results(g, argparse.Namespace(method=method))
    m, n = g.shape
    u = random.Random(42).random
    row_keys = [u() for _ in range(m)]
    col_keys = [u() for _ in range(n)]
    orders = (np.argsort(row_keys, kind="stable"), np.argsort(col_keys, kind="stable"))
    low, high = math.log(1e-3), math.log(1e3)
    d = [math.exp(low + u() * (high - low)) for _ in range(m)]
    e = [math.exp(low + u() * (high - low)) for _ in range(n)]
    reports = property_reports(g, base, orders, d, e)
    printed = json.loads(out)
    printed = printed if isinstance(printed, list) else [printed]
    assert [(r["method"], r["checks"]) for r in printed] == [
        (route, [asdict(c) for c in report.checks]) for route, report in reports.items()
    ]
    passed = all(report.all_passed for report in reports.values())
    assert code == (EXIT_OK if passed else EXIT_PROPERTY)


@pytest.mark.parametrize(
    "argv, balances, factorizations",
    [
        # base, permuted and rescaled; the identity checks read the base
        # result's own inverse
        (["check", "--method", "uc"], 3, 3),
        # each route's base result and its rescaled copy
        (["compare"], 2, 4),
        # the base uc result (strict is taken from it) and the base mp result,
        # then the permuted and rescaled copies: mp 0 and 2, uc 2 and 2, and
        # strict takes uc's
        (["check", "--method", "all"], 3, 6),
        # strict is taken from the uc result
        (["compute", "--method", "all"], 1, 2),
        # base, permuted and rescaled, none balanced
        (["check", "--method", "mp"], 0, 3),
        # the uc route's base, permuted and rescaled results
        (["check", "--method", "strict"], 3, 3),
    ],
)
def test_cli_computes_each_result_once(monkeypatch, capsys, argv, balances, factorizations):
    # the package re-exports balance under its module's name, so the modules
    # are taken from the import system; every factorization runs through
    # svd.scaled_pinv
    modules = [
        importlib.import_module(f"ucrga.{name}")
        for name in ("balance", "svd", "inverse", "rga", "cli")
    ]
    originals = {"balance": modules[0].balance, "scaled_pinv": modules[1].scaled_pinv}
    calls = Counter()

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    for module in modules:
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name))
    assert main([*argv, "--input", PLANT_CSV, "--output", "json"]) == EXIT_OK
    capsys.readouterr()
    assert (calls["balance"], calls["scaled_pinv"]) == (balances, factorizations)


def test_check_all_builds_one_report_per_computation(monkeypatch, capsys):
    # strict's report is uc's, so each check runs for uc and mp only
    calls = Counter()
    for name in ("check_gi_identities", "rga_summary"):

        def counted(*args, _name=name, _original=getattr(rga_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rga_module, name, counted)
    assert main(["check", "--method", "all", "--input", PLANT_CSV, "--output", "json"]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"check_gi_identities": 2, "rga_summary": 2}


def rank_boundary_plant():
    """g(t) = u @ diag(1, 0.5, 0.3, t) @ v.T, u and v the Q factors of two
    Gaussian 4x4 draws from default_rng(0), and the least t found, in 60
    bisection steps over [1e-14, 1e-9], at which the balanced core has rank 4."""
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)))[0]

    def g(t):
        return (u * [1, 0.5, 0.3, t]) @ v.T

    low, high = 1e-14, 1e-9
    for _ in range(60):
        mid = (low + high) / 2
        low, high = (low, mid) if rga_uc(g(mid)).numerical_rank == 4 else (mid, high)
    return g, high


def test_check_gates_only_the_input_at_the_rank_cutoff(monkeypatch, tmp_path, capsys):
    # a permuted or rescaled copy of a plant at the cutoff can read rank 3;
    # strict once put each copy through its rank gate and exited 2 on an
    # input compute --method strict accepts, for most seeds
    g, flip = rank_boundary_plant()
    ranks = []

    def recorded(x, _original=rga_module.rga_uc):
        result = _original(x)
        ranks.append(result.numerical_rank)
        return result

    monkeypatch.setattr(rga_module, "rga_uc", recorded)
    path = tmp_path / "boundary.csv"
    copy_ranks = set()
    for t in (flip + k * np.spacing(flip) for k in (0, 16, 256, 4096)):
        plant = g(t)
        try:
            rga_strict(plant)
        except SingularMatrixError:
            continue
        path.write_text(format_csv(plant))
        for seed in range(8):
            for method in ("strict", "all"):
                ranks.clear()
                argv = ["check", "--input", str(path), "--method", method, "--seed", str(seed)]
                code = main([*argv, "--output", "json"])
                assert code != EXIT_SINGULAR, (t, seed, method)
                reports = json.loads(capsys.readouterr().out)
                # the input's rank, then the copies'
                assert ranks[0] == 4
                copy_ranks.update(ranks[1:])
                if method == "all":
                    strict, _, uc = reports
                    assert strict["checks"] == uc["checks"]
    # otherwise no copy fell below the input's rank, and nothing was tested
    assert 3 in copy_ranks


def test_check_csv_output_lists_checks(capsys):
    code = main(["check", "--input", PLANT_CSV, "--output", "csv"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "name,value,threshold,passed,informational"
    assert any(line.startswith("uc:scaling_invariance,") for line in out.splitlines())


def test_machine_output_is_deterministic(capsys):
    argv = ["check", "--input", STACKED_CSV, "--output", "json", "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_seed_changes_randomized_checks_only(capsys):
    _, report1 = run_json(
        capsys, ["check", "--input", STACKED_CSV, "--output", "json", "--seed", "1"]
    )
    _, report2 = run_json(
        capsys, ["check", "--input", STACKED_CSV, "--output", "json", "--seed", "2"]
    )
    assert report1["rga"] == report2["rga"]
    v1 = [c["value"] for c in report1["checks"] if c["name"] == "scaling_invariance"]
    v2 = [c["value"] for c in report2["checks"] if c["name"] == "scaling_invariance"]
    assert v1 != v2


@pytest.mark.parametrize(
    "text",
    ["1e308,1\n1,1\n", "5e-324,0\n0,1\n", "1e-310,1e-310\n1e-310,2e-310\n", "5e-324\n"],
    ids=["overflowing-row", "subnormal-entry", "subnormal-2x2", "smallest-1x1"],
)
def test_rescaling_checks_stay_in_the_float_range(tmp_path, capsys, text):
    # the rescaled copy once overflowed (exit 1), or flushed the subnormal
    # entry to zero, so uc failed its own invariance check (exit 3); on the
    # subnormal plants the mp identities once read pinv(g), which is inf
    # (exit 1), where they now read the scaled pair the route factored
    path = tmp_path / "extreme.csv"
    path.write_text(text)
    for argv in (["compare"], *(["check", "--method", m] for m in ("uc", "mp", "strict", "all"))):
        assert main([*argv, "--input", str(path), "--output", "json"]) == EXIT_OK, argv
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5", "42"])
def test_rescaled_copy_beyond_float64_exits_1_whatever_the_seed(tmp_path, capsys, seed):
    # g spans more than float64, so no power of two fits its rescaled copy;
    # the copy once overflowed (a warning, then a misleading exit 1) or
    # flushed 5e-324 to zero (uc failed its own check, exit 3, or compare
    # printed a uc residual of 1 and exited 0), depending on the seed
    path = tmp_path / "beyond.csv"
    path.write_text("1e308,5e-324\n")
    for argv in (["compare"], *(["check", "--method", m] for m in ("uc", "mp", "all"))):
        assert main([*argv, "--input", str(path), "--seed", seed]) == EXIT_INPUT, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "error: rescaled copy not representable in float64"
        )


def test_svd_nonconvergence_exits_1_with_one_error_line(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    assert main(["compute", "--input", PLANT_CSV]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SVD did not converge\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1e-310,1e-310\n1e-310,2e-310\n", [[2.0, -1.0], [-1.0, 2.0]]),
        ("5e-324\n", [[1.0]]),
        ("1.5e308,1.5e308\n1.5e308,1.5e308\n", [[0.25, 0.25], [0.25, 0.25]]),
    ],
    ids=["subnormal-2x2", "smallest-1x1", "huge-2x2"],
)
def test_mp_rga_at_the_ends_of_the_float_range(tmp_path, capsys, text, expected):
    # 1 / sigma once overflowed on the tiny plants, so compute and compare
    # exited 1; sigma itself overflowed on the huge one, which read rank 0
    path = tmp_path / "extreme.csv"
    path.write_text(text)
    code, report = run_json(
        capsys, ["compute", "--input", str(path), "--method", "mp", "--output", "json"]
    )
    assert code == EXIT_OK
    assert np.abs(matrix_from_json(report["rga"]) - expected).max() <= 1e-12
    code, report = run_json(capsys, ["compare", "--input", str(path), "--output", "json"])
    assert code == EXIT_OK
    assert report["max_abs_difference"] <= 1e-12


def test_uc_rga_of_a_plant_whose_core_is_beyond_float64(tmp_path, capsys):
    # exp overflowed in the closed-form balance (exit 1); the core's columns
    # 1 and 2 are equal, and its other singular value is below the cutoff
    path = tmp_path / "wide_range.csv"
    path.write_text("1,1,8.732828226623622e-189\n5e-324,5e-324,1e308\n1,1,1\n")
    code, report = run_json(
        capsys, ["compute", "--input", str(path), "--method", "uc", "--output", "json"]
    )
    assert code == EXIT_OK
    assert report["rank"] == 1
    expected = np.zeros((3, 3))
    expected[1, 2] = 1.0
    assert np.abs(matrix_from_json(report["rga"]) - expected).max() <= 1e-12


@pytest.mark.parametrize("decades", [8, 150])
@pytest.mark.parametrize("name", list(SPARSE))
def test_uc_and_strict_check_verdicts_on_sparse_plants_do_not_depend_on_units(
    tmp_path, capsys, name, decades
):
    g = SPARSE[name]
    rng = np.random.default_rng(decades)
    d = 10.0 ** rng.uniform(-decades, decades, g.shape[0])
    e = 10.0 ** rng.uniform(-decades, decades, g.shape[1])
    for method in ("uc", "strict"):
        verdicts = []
        for label, matrix in (("plant", g), ("rescaled", d[:, None] * g * e[None, :])):
            path = tmp_path / f"{label}.csv"
            path.write_text(format_csv(matrix), encoding="utf-8")
            code = main(["check", "--input", str(path), "--method", method, "--output", "json"])
            # strict on singular or rectangular input exits before any output
            out = capsys.readouterr().out
            report = json.loads(out) if out else {"checks": [], "balancer_converged": None}
            passed = {c["name"]: c["passed"] for c in report["checks"] if not c["informational"]}
            verdicts.append((code, passed, report["balancer_converged"]))
        assert verdicts[0] == verdicts[1], method


def python_env():
    """The environment of a fresh interpreter that imports ucrga from this checkout."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def run_python(args):
    return subprocess.run(
        [sys.executable, *args], env=python_env(), capture_output=True, text=True
    )


def test_module_entry_point():
    proc = run_python(["-m", "ucrga", "compute", "--input", PLANT_CSV, "--output", "json"])
    assert proc.returncode == EXIT_OK
    report = json.loads(proc.stdout)
    assert report["method"] == "uc"


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the report (about 180 KB) outgrows the pipe buffer, so the write fails
    # once the reader has closed its end
    path = tmp_path / "plant.csv"
    path.write_text(format_csv(np.random.default_rng(3).standard_normal((80, 80))))
    argv = ["-m", "ucrga", "compute", "--input", str(path), "--output", "json"]
    proc = subprocess.Popen(
        [sys.executable, *argv], env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # compare and check draw from the standard library's random, so no
    # command pays for numpy.random: neither the import nor a run loads it
    code = f"""
import contextlib, io, sys, ucrga.cli
print('numpy.random' in sys.modules)
for command in ("check", "compare"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ucrga.cli.main([command, "--input", {PLANT_CSV!r}])
    print(command, code, 'numpy.random' in sys.modules)
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "check 0 False", "compare 0 False"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", "--input", PLANT_CSV], EXIT_OK),
        (["compare", "--input", STACKED_CSV, "--output", "json"], EXIT_OK),
        (["check", "--input", "no/such/file.csv"], EXIT_INPUT),
        (["check", "--input", PLANT_CSV, "--seed", "-1"], EXIT_INPUT),
        (["check", "--input", ONES_CSV, "--method", "strict"], EXIT_SINGULAR),
        (["check", "--input", STACKED_CSV, "--method", "all"], EXIT_PROPERTY),
    ],
)
def test_module_entry_point_exits_as_main_returns(capsys, argv, expected):
    # python -m ucrga freezes the import heap before main runs, and that
    # changes no exit code, output or error line
    proc = run_python(["-m", "ucrga", *argv])
    assert main(argv) == expected
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (expected, out, err)


def test_only_the_process_entry_point_freezes_the_heap(monkeypatch, capsys):
    # a cycle made before a freeze is never collected, so main, which callers
    # run in their own process, leaves the collector as it found it
    before = gc.get_freeze_count()
    assert main(["check", "--input", PLANT_CSV]) == EXIT_OK
    assert gc.get_freeze_count() == before
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(len(frozen)))
    monkeypatch.setattr(sys, "argv", ["ucrga", "check", "--input", ONES_CSV, "--method", "mp"])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert (exit_info.value.code, frozen) == (EXIT_PROPERTY, [0])


def test_check_all_gives_each_route_its_single_route_verdict(tmp_path, capsys):
    # the rescaling draw once depended on which routes ran before, and a plant
    # failed mp's scaling check under --method mp and passed it under all; on
    # this one mp's rescaled copy reads rank 3 under seed 42's draws
    rng = np.random.default_rng(2025)
    g = rng.standard_normal((4, 4)) @ rng.standard_normal((4, 4))
    g = 10 ** rng.uniform(-3, 3, 4)[:, None] * g * 10 ** rng.uniform(-3, 3, 4)[None, :]
    path = tmp_path / "rescaled4.csv"
    np.savetxt(path, g, fmt="%.17g", delimiter=",")
    argv = ["check", "--input", str(path), "--output", "json"]
    reports = {}
    for method in ("strict", "mp", "uc"):
        code, reports[method] = run_json(capsys, [*argv, "--method", method])
        assert code == (EXIT_PROPERTY if method == "mp" else EXIT_OK)
    code, together = run_json(capsys, [*argv, "--method", "all"])
    assert code == EXIT_PROPERTY
    assert {r["method"]: r for r in together} == reports


def _extreme_unit_plant_csv(tmp_path):
    """PLANT with rows and columns rescaled so its entries span 3e-300 to 8e300."""
    path = tmp_path / "extreme.csv"
    g = np.array([1e200, 1.0, 1e-200])[:, None] * PLANT * np.array([1e-100, 1.0, 1e100])
    np.savetxt(path, g, fmt="%.17g", delimiter=",")
    return str(path)


def test_check_identities_do_not_depend_on_units(tmp_path, capsys):
    # in raw units a @ x @ a overflowed and failed uc and strict; on the
    # core, which the rescaling leaves alone, both hold to rounding
    path = _extreme_unit_plant_csv(tmp_path)
    argv = ["check", "--input", path, "--method", "all", "--output", "json"]
    code, reports = run_json(capsys, argv)
    assert code == EXIT_OK
    for report in reports:
        if report["method"] != "mp":
            identities = [c for c in report["checks"] if c["name"].startswith("inverse_identity")]
            assert len(identities) == 2 and all(c["value"] <= 1e-14 for c in identities)


@pytest.mark.parametrize("plant", ["raw", "extreme"])
def test_check_identities_catch_a_perturbed_inverse(monkeypatch, tmp_path, capsys, plant):
    # a 1e-6 relative change to any one entry of pinv(x), x the scaled core,
    # must fail an identity check, however the plant's units are chosen
    path = PLANT_CSV if plant == "raw" else _extreme_unit_plant_csv(tmp_path)
    compute = cli.rga_routes
    for i in range(3):
        for j in range(3):

            def perturb(result):
                x_pinv = result.x_pinv.copy()
                x_pinv[i, j] *= 1.0 + 1e-6
                return replace(result, x_pinv=x_pinv)

            def perturbed(*args, **kwargs):
                return {m: perturb(r) for m, r in compute(*args, **kwargs).items()}

            monkeypatch.setattr(cli, "rga_routes", perturbed)
            code, reports = run_json(
                capsys, ["check", "--input", path, "--method", "all", "--output", "json"]
            )
            assert code == EXIT_PROPERTY
            for report in reports:
                failed = {c["name"] for c in report["checks"] if not c["passed"]}
                if report["method"] != "mp":
                    assert failed and failed <= {"inverse_identity_aga", "inverse_identity_gag"}


# valid CSV fields, the extremes of float64 among them, and fields the parser
# must refuse (out of range, non-finite, non-decimal, empty)
VALID_FIELDS = st.one_of(
    st.integers(-1, 1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "5e-324", "1e-310", "2e-310"]),
)
INVALID_FIELDS = st.sampled_from(["1e309", "-1e309", "inf", "nan", "0x10", "1_0", "", " "])
FLAGS = st.sampled_from(
    [
        ("--digits", "400"),
        ("--digits", "0"),
        ("--seed", "0"),
        # removed flags, which argparse refuses
        ("--rank-tol", "1e300"),
        ("--rank-tol", "1e-300"),
        ("--max-iter", "1"),
        ("--balance-tol", "1e-300"),
        ("--format", "json"),
    ]
)


def contract_argv(command, path, method, output, flags=()):
    """``command`` on ``path`` with only the flags it reads: ``--method`` for
    compute and check (compare always runs mp and uc), and ``--seed`` from
    ``flags`` for compare and check (compute draws nothing)."""
    argv = [command, "--input", str(path), "--output", output]
    if command != "compare":
        argv += ["--method", method]
    for flag, value in flags:
        if flag != "--seed" or command != "compute":
            argv += [flag, value]
    return argv


@st.composite
def csv_texts(draw):
    """A CSV matrix of up to 3x3 fields; one in four has a field made
    invalid, and one in ten the last row cut short."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fields = draw(st.lists(VALID_FIELDS, min_size=m * n, max_size=m * n))
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.integers(0, m * n - 1))] = draw(INVALID_FIELDS)
    rows = [",".join(fields[i * n : (i + 1) * n]) for i in range(m)]
    if m > 1 and n > 1 and draw(st.integers(0, 9)) == 0:
        rows[-1] = rows[-1].rsplit(",", 1)[0]
    return "\n".join(rows) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    text=csv_texts(),
    command=st.sampled_from(["compute", "compare", "check"]),
    method=st.sampled_from(["strict", "mp", "uc", "all"]),
    output=st.sampled_from(["table", "json", "csv"]),
    flags=st.lists(FLAGS, max_size=2),
)
def test_every_input_ends_in_a_documented_exit_code(text, command, method, output, flags):
    # an input or usage error (1) and a singular strict input (2) print nothing
    # on stdout; every other outcome is success (0) or a failed check (3)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "matrix.csv"
        path.write_text(text, encoding="utf-8")
        argv = contract_argv(command, path, method, output, flags)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_SINGULAR, EXIT_PROPERTY)
    if code in (EXIT_INPUT, EXIT_SINGULAR):
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
    else:
        assert out.getvalue()


# JSON values as a file spells them; NaN, Infinity and 1e400 are tokens that
# json.loads reads as non-finite floats, and 10**400 an integer beyond float
HUGE = str(10**400)
FINITE_NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
JSON_SCALARS = st.one_of(
    FINITE_NUMBERS,
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", HUGE, "true", "false", "null"]),
    st.text(max_size=4).map(json.dumps),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
    max_leaves=6,
)


@st.composite
def json_texts(draw):
    """A JSON matrix object of up to 3x3 finite numbers, or one in ten times
    a top-level value that is not an object. One in four dimensions is
    replaced by a JSON scalar, one in four data lists has an entry
    replaced by any JSON value, and one in ten objects lacks a key."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows, cols = (
        draw(JSON_SCALARS) if draw(st.integers(0, 3)) == 0 else str(size) for size in (m, n)
    )
    data = draw(st.lists(FINITE_NUMBERS, min_size=m * n, max_size=m * n))
    if draw(st.integers(0, 3)) == 0:
        data[draw(st.integers(0, m * n - 1))] = draw(JSON_VALUES)
    fields = [f'"rows": {rows}', f'"cols": {cols}', f'"data": [{", ".join(data)}]']
    if draw(st.integers(0, 9)) == 0:
        del fields[draw(st.integers(0, 2))]
    return "{" + ", ".join(fields) + "}"


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    text=json_texts(),
    command=st.sampled_from(["compute", "compare", "check"]),
    method=st.sampled_from(["strict", "mp", "uc", "all"]),
    output=st.sampled_from(["table", "json", "csv"]),
)
def test_every_json_input_ends_in_a_documented_exit_code(text, command, method, output):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "matrix.json"
        path.write_text(text, encoding="utf-8")
        argv = contract_argv(command, path, method, output)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_SINGULAR, EXIT_PROPERTY)
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_INPUT, EXIT_SINGULAR):
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
    else:
        assert out.getvalue()
