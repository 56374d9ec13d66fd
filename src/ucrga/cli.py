"""Command line interface: compute, compare, and check relative gain arrays
from CSV or JSON matrix files.

Each route's result and checks become one report record (``_report``): the
JSON output dumps it, and the table and the CSV render it.

Exit codes: 0 success, 1 input/parse failure (usage errors included) or an
output the reader closed early, 2 strict method on a singular input (check's
copies meet no rank gate), 3 property-check failure.
"""

import argparse
import gc
import json
import math
import os
import random
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .matrix import (
    DimensionError,
    MatrixFormatError,
    _excerpt,
    format_csv,
    matrix_from_json,
    matrix_to_json,
    parse_csv,
)
from .rga import (
    COMPUTATION,
    Check,
    RgaResult,
    SingularMatrixError,
    property_reports,
    rga_routes,
    rga_summary,
    scaling_invariance_residual,
    strict_from_uc,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 2
EXIT_PROPERTY = 3

# range for the seeded random scalings used by `compare` and `check`
CHECK_SCALE_LOW = 1e-3
CHECK_SCALE_HIGH = 1e3

# any float64's exact decimal expansion ends within 1074 places
MAX_DIGITS = 1074


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucrga",
        description="Relative gain arrays of square, singular, or rectangular matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("compute", "compute the RGA of a matrix", _cmd_compute),
        ("compare", "compute both the MP and UC variants and their disagreement", _cmd_compare),
        ("check", "run the property suite (equivariance, invariance, identities, sums)", _cmd_check),
    ]
    # compare always runs mp and uc, and compute draws nothing
    for name, help_text, handler in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="path to the matrix file, JSON or CSV")
        if name != "compare":
            p.add_argument(
                "--method",
                choices=[*COMPUTATION, "all"],
                default="uc",
                help="RGA variant (default: uc)",
            )
        p.add_argument("--output", choices=["table", "json", "csv"], default="table")
        if name != "compute":
            p.add_argument("--seed", type=_non_negative_int, default=42, help="seed for randomized checks")
        p.add_argument("--digits", type=_digits, default=4, help="decimals in table output")
        p.set_defaults(handler=handler)
    return parser


def _non_negative_int(text: str) -> int:
    """A --seed or --digits value: a non-negative integer, checked before any output."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {_excerpt(text)}")
    try:
        return int(text)
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        raise argparse.ArgumentTypeError(f"has too many digits, got {_excerpt(text)}") from None


def _digits(text: str) -> int:
    """A --digits value: a non-negative integer no larger than MAX_DIGITS."""
    if (digits := _non_negative_int(text)) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DIGITS}, got {_excerpt(text)}")
    return digits


def _load_matrix(path: str) -> np.ndarray:
    """The matrix in the file at ``path``: JSON if its first non-whitespace
    character is ``{`` or ``[``, which no CSV field can begin with, else CSV.
    A UTF-8 byte-order mark, as spreadsheets write one, is dropped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's text repeats the path; a decode error's names none
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise MatrixFormatError(f"cannot read {path}: {reason}") from exc
    try:
        if not text.lstrip().startswith(("{", "[")):
            return parse_csv(text)
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # json.loads recurses once per nesting level
            raise MatrixFormatError(f"invalid JSON: {exc}") from None
        return matrix_from_json(obj)
    except ValueError as exc:
        # a MatrixFormatError, or as_matrix refusing a non-finite JSON entry
        raise MatrixFormatError(f"{path}: {exc}") from None


def _draws(seed: int, m: int, n: int) -> tuple[tuple[list, list], list, list]:
    """The orders, d and e of ``check`` and ``compare`` from stdlib
    ``random.Random(seed).random()``, drawn in turn: m and n draws whose stable
    argsorts are the row and column orders, then m for d and n for e, each
    factor exp(log 1e-3 + u * (log 1e3 - log 1e-3))."""
    u = random.Random(seed).random
    keys = [[u() for _ in range(size)] for size in (m, n)]
    low, high = math.log(CHECK_SCALE_LOW), math.log(CHECK_SCALE_HIGH)
    d, e = [[math.exp(low + u() * (high - low)) for _ in range(size)] for size in (m, n)]
    return tuple(sorted(range(len(k)), key=k.__getitem__) for k in keys), d, e


def _report(result: RgaResult, checks: tuple[Check, ...]) -> dict:
    """The report record of one route: JSON dumps it, and the table and CSV
    render it; nothing else here reads a result or a check for output."""
    return {
        "method": result.method,
        "shape": list(result.rga.shape),
        "rank": result.numerical_rank,
        "rga": matrix_to_json(result.rga),
        "row_sums": result.row_sums.tolist(),
        "col_sums": result.col_sums.tolist(),
        "element_sum": float(result.element_sum),
        "balancer_converged": bool(result.balancer_converged),
        "checks": [asdict(c) for c in checks],
    }


def _format_matrix(a: np.ndarray, digits: int) -> str:
    width = max(len(f"{x:.{digits}f}") for x in a.ravel())
    return "\n".join(
        "  " + "  ".join(f"{x:{width}.{digits}f}" for x in row) for row in a
    )


def _format_vector(v, digits: int) -> str:
    return " ".join(f"{x:.{digits}f}" for x in v)


def _print_report(report: dict, digits: int) -> None:
    m, n = report["shape"]
    print(f"method: {report['method']}")
    print(f"shape: {m}x{n}")
    print(f"rank: {report['rank']}")
    print(f"balancer converged: {'yes' if report['balancer_converged'] else 'no'}")
    print("rga:")
    print(_format_matrix(matrix_from_json(report["rga"]), digits))
    print(f"row sums: {_format_vector(report['row_sums'], digits)}")
    print(f"col sums: {_format_vector(report['col_sums'], digits)}")
    print(f"element sum: {report['element_sum']:.{digits}f}")
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        note = " (informational)" if c["informational"] else ""
        print(f"check {c['name']}: {c['value']:.3e} <= {c['threshold']:.0e} {status}{note}")


def _emit_reports(reports: list[dict], args) -> None:
    """Render report records in the --output format: one JSON object or a
    list, CSV blocks headed by their method when there are several, or tables."""
    if args.output == "json":
        print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    elif args.output == "csv":
        blocks = []
        for report in reports:
            prefix = f"# method={report['method']}\n" if len(reports) > 1 else ""
            blocks.append(prefix + format_csv(matrix_from_json(report["rga"])))
        print("\n".join(blocks), end="")
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            _print_report(report, args.digits)


def _results(g: np.ndarray, args) -> dict[str, RgaResult]:
    """The RGA by each requested method, keyed as :func:`rga_routes` keys
    them; --method all drops strict (with a warning) when it does not apply."""
    if args.method != "all":
        return rga_routes(g, [args.method])
    results = rga_routes(g, ("mp", "uc"))
    try:
        return {"strict": strict_from_uc(results["uc"]), **results}
    except (DimensionError, SingularMatrixError) as exc:
        print(f"warning: strict RGA skipped: {exc}", file=sys.stderr)
        return results


def _cmd_compute(args) -> int:
    g = _load_matrix(args.input)
    _emit_reports([_report(r, rga_summary(r).checks) for r in _results(g, args).values()], args)
    return EXIT_OK


def _cmd_compare(args) -> int:
    g = _load_matrix(args.input)
    results = rga_routes(g, ("mp", "uc"))
    _, d, e = _draws(args.seed, *g.shape)
    document = {method: _report(r, rga_summary(r).checks) for method, r in results.items()}
    mp, uc = (document[method]["rga"]["data"] for method in ("mp", "uc"))
    document["max_abs_difference"] = max(abs(x - y) for x, y in zip(mp, uc))
    document["scaling_invariance_residual"] = scaling_invariance_residual(g, results, d, e)
    document["seed"] = args.seed

    if args.output == "json":
        print(json.dumps(document, indent=2))
        return EXIT_OK
    _emit_reports([document["mp"], document["uc"]], args)
    if args.output == "table":
        print()
        print(f"max abs difference (mp vs uc): {document['max_abs_difference']:.{args.digits}f}")
        for method, value in document["scaling_invariance_residual"].items():
            print(f"scaling invariance residual {method}: {value:.3e} (seed {document['seed']})")
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _load_matrix(args.input)
    base = _results(g, args)
    # one draw per check, shared by every route, so a route's verdict does
    # not depend on which other routes ran
    orders, d, e = _draws(args.seed, *g.shape)
    properties = property_reports(g, base, orders, d, e)
    reports = [_report(base[method], p.checks) for method, p in properties.items()]
    if args.output == "csv":
        lines = ["name,value,threshold,passed,informational"] + [
            f"{r['method']}:{c['name']},{c['value']!r},{c['threshold']!r},"
            f"{c['passed']},{c['informational']}"
            for r in reports
            for c in r["checks"]
        ]
        print("\n".join(lines))
    else:
        _emit_reports(reports, args)
    return EXIT_OK if all(p.all_passed for p in properties.values()) else EXIT_PROPERTY


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a singular strict input
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun with --method uc (or mp) for singular input", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        # MatrixFormatError, DimensionError and numpy's LinAlgError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError as exc:
        # the reader closed stdout: what is still buffered goes to devnull, so
        # the interpreter's own flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: output closed early: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """The process entry point of ``python -m ucrga`` and the ``ucrga`` script."""
    # the collections at interpreter exit would walk every object the imports
    # built, and frozen objects are skipped; main never freezes, since a
    # cycle made before a freeze is never collected in a caller's process
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
