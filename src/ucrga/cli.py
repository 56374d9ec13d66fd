"""Command line interface: compute, compare, and check relative gain arrays
from CSV or JSON matrix files.

Exit codes: 0 success, 1 input/parse failure (usage errors included) or an
output the reader closed early, 2 strict method on a singular matrix, 3
property-check failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .inverse import check_gi_identities, relative_change
from .matrix import (
    DimensionError,
    MatrixFormatError,
    format_csv,
    matrix_from_json,
    matrix_to_json,
    parse_csv,
    permute,
)
from .rga import (
    Check,
    RgaResult,
    SingularMatrixError,
    rga_routes,
    rga_summary,
    scaling_invariance_residual,
    strict_from_uc,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 2
EXIT_PROPERTY = 3

PERMUTATION_TOL = 1e-9
SCALING_TOL = 1e-7
IDENTITY_TOL = 1e-8

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
        p.add_argument("--input", required=True, help="path to the matrix file")
        p.add_argument(
            "--format",
            choices=["csv", "json"],
            default=None,
            help="input format (default: inferred from the file extension)",
        )
        if name != "compare":
            p.add_argument(
                "--method",
                choices=["strict", "mp", "uc", "all"],
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


def _excerpt(text: str) -> str:
    """``text`` quoted for an error line, cut after 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _load_matrix(path: str, fmt: str | None) -> np.ndarray:
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    if fmt == "json":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # json.loads recurses once per nesting level
            raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
        return matrix_from_json(obj)
    try:
        return parse_csv(text)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


# quoted, so that importing the CLI does not load numpy.random: only the
# commands that draw numbers need it
def _log_uniform(rng: "np.random.Generator", size: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(CHECK_SCALE_LOW), np.log(CHECK_SCALE_HIGH), size))


def _report_dict(result: RgaResult, checks: list[Check]) -> dict:
    m, n = result.rga.shape
    return {
        "method": result.method,
        "shape": [m, n],
        "rank": result.numerical_rank,
        "rga": matrix_to_json(result.rga),
        "row_sums": [float(x) for x in result.row_sums],
        "col_sums": [float(x) for x in result.col_sums],
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
    return " ".join(f"{float(x):.{digits}f}" for x in v)


def _print_report(result: RgaResult, checks: list[Check], digits: int) -> None:
    m, n = result.rga.shape
    print(f"method: {result.method}")
    print(f"shape: {m}x{n}")
    print(f"rank: {result.numerical_rank}")
    print(f"balancer converged: {'yes' if result.balancer_converged else 'no'}")
    print("rga:")
    print(_format_matrix(result.rga, digits))
    print(f"row sums: {_format_vector(result.row_sums, digits)}")
    print(f"col sums: {_format_vector(result.col_sums, digits)}")
    print(f"element sum: {result.element_sum:.{digits}f}")
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        note = " (informational)" if c.informational else ""
        print(f"check {c.name}: {c.value:.3e} <= {c.threshold:.0e} {status}{note}")


def _emit_reports(pairs: list[tuple[RgaResult, list[Check]]], args) -> None:
    if args.output == "json":
        dicts = [_report_dict(r, c) for r, c in pairs]
        print(json.dumps(dicts[0] if len(dicts) == 1 else dicts, indent=2))
    elif args.output == "csv":
        blocks = []
        for result, _ in pairs:
            prefix = f"# method={result.method}\n" if len(pairs) > 1 else ""
            blocks.append(prefix + format_csv(result.rga))
        print("\n".join(blocks), end="")
    else:
        for i, (result, checks) in enumerate(pairs):
            if i:
                print()
            _print_report(result, checks, args.digits)


def _results(g: np.ndarray, args) -> list[RgaResult]:
    """The RGA by each requested method; --method all drops strict (with a
    warning) when it does not apply."""
    if args.method != "all":
        return list(rga_routes(g, [args.method]).values())
    results = rga_routes(g, ("uc", "mp"))
    try:
        strict = [strict_from_uc(results["uc"])]
    except (DimensionError, SingularMatrixError) as exc:
        print(f"warning: strict RGA skipped: {exc}", file=sys.stderr)
        strict = []
    return strict + [results["mp"], results["uc"]]


def _cmd_compute(args) -> int:
    g = _load_matrix(args.input, args.format)
    pairs = [(result, list(rga_summary(result).checks)) for result in _results(g, args)]
    _emit_reports(pairs, args)
    return EXIT_OK


def _cmd_compare(args) -> int:
    g = _load_matrix(args.input, args.format)
    m, n = g.shape
    results = rga_routes(g, ("mp", "uc"))
    difference = float(np.abs(results["mp"].rga - results["uc"].rga).max())
    rng = np.random.default_rng(args.seed)
    d, e = _log_uniform(rng, m), _log_uniform(rng, n)
    residual = scaling_invariance_residual(g, results, d, e)
    pairs = [(r, list(rga_summary(r).checks)) for r in results.values()]

    if args.output == "json":
        report = {
            "mp": _report_dict(*pairs[0]),
            "uc": _report_dict(*pairs[1]),
            "max_abs_difference": difference,
            "scaling_invariance_residual": residual,
            "seed": args.seed,
        }
        print(json.dumps(report, indent=2))
        return EXIT_OK
    _emit_reports(pairs, args)
    if args.output == "table":
        print()
        print(f"max abs difference (mp vs uc): {difference:.{args.digits}f}")
        for method, value in residual.items():
            print(f"scaling invariance residual {method}: {value:.3e} (seed {args.seed})")
    return EXIT_OK


def _property_checks(
    g: np.ndarray,
    result: RgaResult,
    permuted: RgaResult,
    scaled_change: float,
    orders: tuple[np.ndarray, np.ndarray],
) -> list[Check]:
    """The summary checks, equivariance under the permutation ``orders``
    (``permuted`` being the route's result on the permuted copy of g),
    invariance under rescaling (``scaled_change`` being the change it made),
    and the generalized-inverse identities of x = X / 2**exponent and pinv(x),
    X being g for mp and the balanced core (free of units) for uc and strict:
    the identities are homogeneous, and pinv(x), unlike pinv(g), cannot overflow."""
    checks = list(rga_summary(result).checks)
    permuted_change = relative_change(permuted.rga, permute(result.rga, *orders))
    x = g if result.decomposition is None else result.decomposition.core
    residuals = check_gi_identities(np.ldexp(x, -result.exponent), result.x_pinv)
    return checks + [
        Check(name, value, threshold, value <= threshold, False)
        for name, value, threshold in (
            ("permutation_equivariance", permuted_change, PERMUTATION_TOL),
            ("scaling_invariance", scaled_change, SCALING_TOL),
            ("inverse_identity_aga", residuals.residual_axa, IDENTITY_TOL),
            ("inverse_identity_gag", residuals.residual_xax, IDENTITY_TOL),
        )
    ]


def _cmd_check(args) -> int:
    g = _load_matrix(args.input, args.format)
    m, n = g.shape
    base = {r.method: r for r in _results(g, args)}
    # one draw per check, shared by every route, so a route's verdict does
    # not depend on which other routes ran
    rng = np.random.default_rng(args.seed)
    orders = (rng.permutation(m), rng.permutation(n))
    permuted = rga_routes(permute(g, *orders), list(base))
    d, e = _log_uniform(rng, m), _log_uniform(rng, n)
    scaled = scaling_invariance_residual(g, base, d, e)
    pairs = [
        (result, _property_checks(g, result, permuted[method], scaled[method], orders))
        for method, result in base.items()
    ]

    if args.output == "csv":
        lines = ["name,value,threshold,passed,informational"]
        for result, checks in pairs:
            for c in checks:
                lines.append(
                    f"{result.method}:{c.name},{c.value!r},{c.threshold!r},{c.passed},{c.informational}"
                )
        print("\n".join(lines))
    else:
        _emit_reports(pairs, args)

    failed = any(
        not c.passed and not c.informational for _, checks in pairs for c in checks
    )
    return EXIT_PROPERTY if failed else EXIT_OK


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


if __name__ == "__main__":
    raise SystemExit(main())
