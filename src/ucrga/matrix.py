"""Dense real matrix plumbing: validation, CSV/JSON interchange and
permutation.

Matrices are plain 2-D C-ordered float64 numpy arrays. Diagonal scalings are
1-D arrays of nonzero factors; permutations are 1-D arrays holding a bijection
of 0..n-1. Every function here is pure; a validator copies only to convert.
"""

import math
import re

import numpy as np

__all__ = [
    "MatrixFormatError",
    "DimensionError",
    "as_matrix",
    "as_scaling",
    "as_permutation",
    "parse_csv",
    "format_csv",
    "matrix_to_json",
    "matrix_from_json",
    "permute",
]


class MatrixFormatError(ValueError):
    """Raised when matrix text input (CSV or JSON form) is malformed."""


class DimensionError(ValueError):
    """Raised when operand shapes or lengths are incompatible."""


# a CSV field: [+-]digits[.digits][(e|E)[+-]digits], ASCII digits only
CSV_NUMBER = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def as_matrix(values) -> np.ndarray:
    """Validate ``values`` as a matrix: 2-D, nonempty, all entries finite.

    Returns ``values`` itself if it is a C-ordered float64 array, else a copy;
    NaN and Inf are rejected outright: they would corrupt the log-space balancing.
    """
    a = np.asarray(values, dtype=float, order="C")
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError("matrix must have at least one row and one column")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return a


def as_scaling(entries, size: int | None = None) -> np.ndarray:
    """Validate a vector of diagonal scale factors: 1-D, finite and nonzero."""
    d = np.asarray(entries, dtype=float, order="C")
    if d.ndim != 1:
        raise DimensionError(f"expected a 1-D scaling, got {d.ndim} dimension(s)")
    if size is not None and d.size != size:
        raise DimensionError(f"scaling has length {d.size}, expected {size}")
    if not np.all(np.isfinite(d)):
        raise ValueError("scaling entries must be finite")
    if np.any(d == 0.0):
        raise ValueError("scaling entries must be nonzero")
    return d


def as_permutation(mapping, size: int | None = None) -> np.ndarray:
    """Validate a 1-D index vector as a bijection on 0..n-1: 1.0 is 1, 1.9 and True no index."""
    p = np.asarray(mapping, order="C")
    if p.ndim != 1:
        raise DimensionError(f"expected a 1-D permutation, got {p.ndim} dimension(s)")
    if size is not None and p.size != size:
        raise DimensionError(f"permutation has length {p.size}, expected {size}")
    # numpy casts a list that mixes booleans and ints to int, so a list's items are read
    booleans = p.dtype == bool or (
        not isinstance(mapping, np.ndarray)
        and any(isinstance(i, (bool, np.bool_)) for i in mapping)
    )
    if booleans or not np.array_equal(np.sort(p), np.arange(p.size)):
        raise ValueError("permutation must contain each index 0..n-1 exactly once")
    return p.astype(int, copy=False)


def parse_csv(text: str) -> np.ndarray:
    """Parse comma-separated matrix text, one row per line.

    Each field is an ASCII decimal literal (see ``CSV_NUMBER``), optionally
    in scientific notation and surrounded by whitespace; ``inf``, ``nan`` and
    literals that overflow are rejected as non-finite. LF and CRLF line
    endings both work; trailing blank lines are ignored.
    """
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty input: no matrix rows found")
    width = None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise MatrixFormatError(
                f"line {lineno}: expected {width} comma-separated fields, got {len(fields)}"
            )
        row = []
        for colno, field in enumerate(fields, start=1):
            stripped = field.strip()
            try:
                value = float(stripped)
            except ValueError:
                value = None
            if value is not None and not math.isfinite(value):
                raise MatrixFormatError(
                    f"row {lineno}, column {colno}: non-finite value {_excerpt(stripped)}"
                )
            if value is None or not CSV_NUMBER.fullmatch(stripped):
                raise MatrixFormatError(
                    f"row {lineno}, column {colno}: cannot parse {_excerpt(stripped)} as a number"
                )
            row.append(value)
        rows.append(row)
    return as_matrix(rows)


def _excerpt(text: str) -> str:
    """``text`` quoted for an error line, cut after 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def format_csv(a) -> str:
    """Render a matrix as CSV text at full precision (losslessly reparseable)."""
    a = as_matrix(a)
    return "\n".join(",".join(repr(float(x)) for x in row) for row in a) + "\n"


def matrix_to_json(a) -> dict:
    """Matrix as a JSON-ready object: {"rows", "cols", "data"} with row-major data."""
    a = as_matrix(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.ravel().tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, with full validation."""
    if not isinstance(obj, dict):
        raise MatrixFormatError("JSON matrix must be an object with rows/cols/data")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise MatrixFormatError(f"JSON matrix is missing key {exc}") from None
    if not all(_is_json_number(k, int) and k > 0 for k in (rows, cols)):
        raise MatrixFormatError("JSON matrix rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(
            f"JSON matrix data must be a list of length rows*cols ({rows * cols})"
        )
    if not all(_is_json_number(x, (int, float)) for x in data):
        raise MatrixFormatError("JSON matrix data must contain only numbers")
    try:
        flat = [float(x) for x in data]
    except OverflowError:
        raise MatrixFormatError("JSON matrix data must be within the float range") from None
    return as_matrix(np.array(flat).reshape(rows, cols))


def _is_json_number(value, kinds) -> bool:
    """True for a JSON number of the given Python types; JSON true and false
    load as bool, a subclass of int, and are not numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def permute(a, row_order, col_order) -> np.ndarray:
    """Reindex: result[i, j] = a[row_order[i], col_order[j]], with ``a``
    validated by :func:`as_matrix`."""
    a = as_matrix(a)
    row_order = as_permutation(row_order, a.shape[0])
    col_order = as_permutation(col_order, a.shape[1])
    return a[np.ix_(row_order, col_order)]
