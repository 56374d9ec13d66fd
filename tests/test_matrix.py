"""Tests for matrix validation, CSV/JSON interchange and permutation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ucrga.matrix import (
    DimensionError,
    MatrixFormatError,
    as_matrix,
    as_permutation,
    as_scaling,
    format_csv,
    matrix_from_json,
    matrix_to_json,
    parse_csv,
    permute,
)

from golden import PLANT


# ---------------------------------------------------------------- validation

def test_as_matrix_accepts_lists():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a.shape == (2, 2)


_ROWS = np.arange(1.0, 25.0).reshape(4, 6)


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize(
    "values",
    [_ROWS.copy(), _read_only(_ROWS.copy()), _ROWS[1:3]],
    ids=["float64", "read-only", "row-slice"],
)
def test_as_matrix_returns_a_valid_array_itself(values):
    assert as_matrix(values) is values


@pytest.mark.parametrize(
    "values",
    [
        _ROWS.tolist(),
        _ROWS.astype(int),
        _ROWS.astype(np.float32),
        np.asfortranarray(_ROWS),
        _ROWS[::2, ::3],
    ],
    ids=["list", "int", "float32", "fortran", "strided"],
)
def test_as_matrix_converts_into_a_new_c_ordered_array(values):
    a = as_matrix(values)
    assert a.dtype == np.float64 and a.flags.c_contiguous
    np.testing.assert_array_equal(a, values)
    assert not np.shares_memory(a, values)


def test_as_matrix_rejects_nan_and_inf():
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[np.inf, 1.0]])


def test_as_matrix_rejects_wrong_dimensionality():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 3)))


def test_as_scaling_rejects_zero_and_checks_length():
    with pytest.raises(ValueError, match="nonzero"):
        as_scaling([1.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            as_scaling([1.0, bad])
    with pytest.raises(DimensionError):
        as_scaling([1.0, 2.0], size=3)
    # a nested vector is refused, not flattened
    with pytest.raises(DimensionError, match="1-D"):
        as_scaling([[1.0, 2.0], [3.0, 4.0]], size=4)
    with pytest.raises(DimensionError, match="1-D"):
        as_scaling(3.0)
    np.testing.assert_array_equal(as_scaling([2, -3], size=2), [2.0, -3.0])


_FACTORS = np.array([2.0, -3.0, 0.5, 7.0])


@pytest.mark.parametrize(
    "entries", [_FACTORS.copy(), _read_only(_FACTORS.copy())], ids=["float64", "read-only"]
)
def test_as_scaling_returns_a_valid_array_itself(entries):
    assert as_scaling(entries, size=4) is entries


@pytest.mark.parametrize(
    "entries",
    [
        _FACTORS.tolist(),
        np.array([2, -3, 1, 7]),
        _FACTORS.astype(np.float32),
        np.repeat(_FACTORS, 2)[::2],
    ],
    ids=["list", "int", "float32", "strided"],
)
def test_as_scaling_converts_into_a_new_c_ordered_array(entries):
    d = as_scaling(entries, size=4)
    assert d.dtype == np.float64 and d.flags.c_contiguous
    np.testing.assert_array_equal(d, entries)
    assert not np.shares_memory(d, entries)


def test_as_permutation_rejects_non_bijection():
    with pytest.raises(ValueError, match="exactly once"):
        as_permutation([0, 0, 2])
    with pytest.raises(DimensionError):
        as_permutation([0, 1], size=3)
    with pytest.raises(DimensionError, match="1-D"):
        as_permutation([[1, 0]], size=2)
    with pytest.raises(DimensionError, match="1-D"):
        as_permutation(np.eye(2, dtype=int))


@pytest.mark.parametrize("mapping", [[0.0, 1.9], [0.5, 1.5], [True, False], [True, 0]])
def test_as_permutation_rejects_non_integer_indices(mapping):
    # a cast to int once truncated the first two to [0, 1], a silent identity,
    # and booleans sort to [0, 1], a silent swap, also where numpy casts a
    # list mixing booleans and ints to int
    with pytest.raises(ValueError, match="exactly once"):
        as_permutation(mapping)
    with pytest.raises(ValueError, match="exactly once"):
        permute(np.diag([1.0, 2.0]), mapping, [0, 1])


def test_as_permutation_returns_integer_valued_entries_as_ints():
    p = as_permutation([1.0, 0.0])
    assert p.dtype.kind == "i" and p.tolist() == [1, 0]


_ORDER = np.array([2, 0, 3, 1])


@pytest.mark.parametrize(
    "mapping", [_ORDER.copy(), _read_only(_ORDER.copy())], ids=["int", "read-only"]
)
def test_as_permutation_returns_a_valid_array_itself(mapping):
    assert as_permutation(mapping, size=4) is mapping


@pytest.mark.parametrize(
    "mapping",
    [
        _ORDER.tolist(),
        _ORDER.astype(np.int32),
        _ORDER.astype(np.float32),
        np.repeat(_ORDER, 2)[::2],
    ],
    ids=["list", "int32", "float32", "strided"],
)
def test_as_permutation_converts_into_a_new_c_ordered_array(mapping):
    p = as_permutation(mapping, size=4)
    assert p.dtype == int and p.flags.c_contiguous
    np.testing.assert_array_equal(p, mapping)
    assert not np.shares_memory(p, mapping)


# ----------------------------------------------------------------------- csv

def test_parse_csv_basic():
    np.testing.assert_array_equal(parse_csv("1,2\n3,4"), [[1.0, 2.0], [3.0, 4.0]])


def test_parse_csv_plant_fixture():
    np.testing.assert_array_equal(parse_csv("7,4,8\n7,2,5\n3,8,8"), PLANT)


def test_parse_csv_ragged_names_line():
    with pytest.raises(MatrixFormatError, match="line 2"):
        parse_csv("1,2\n3")


def test_parse_csv_bad_field_names_position():
    with pytest.raises(MatrixFormatError, match="row 2, column 1"):
        parse_csv("1,2\nx,4")


def test_parse_csv_empty_input():
    with pytest.raises(MatrixFormatError, match="empty input"):
        parse_csv("")
    with pytest.raises(MatrixFormatError, match="empty input"):
        parse_csv("\n\n")


def test_parse_csv_whitespace_scientific_crlf():
    a = parse_csv(" 1e3 ,\t-2.5E-2\r\n 4 , 5 \r\n")
    np.testing.assert_array_equal(a, [[1000.0, -0.025], [4.0, 5.0]])


def test_parse_csv_rejects_non_finite_fields():
    with pytest.raises(MatrixFormatError, match="non-finite"):
        parse_csv("1,inf")


@pytest.mark.parametrize("field", ["1_000", "\u0663", "0x10", ".5", "5.", "1e", "1.5e+", "--1"])
def test_parse_csv_takes_only_ascii_decimal_literals(field):
    # float() reads the first two (1000 and the Arabic-Indic digit three)
    with pytest.raises(MatrixFormatError, match="cannot parse"):
        parse_csv(f"{field},2\n3,4")


def test_parse_csv_accepts_signed_and_exponent_forms():
    np.testing.assert_array_equal(parse_csv("+1,-0.5\n2e3,7.25E-1"), [[1.0, -0.5], [2000.0, 0.725]])


def test_parse_csv_overflow_is_non_finite():
    with pytest.raises(MatrixFormatError, match="non-finite"):
        parse_csv("1e400,1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,x", "row 1, column 2: cannot parse 'x' as a number"),
        ("1e400,1", "row 1, column 1: non-finite value '1e400'"),
        ("x" * 20, f"row 1, column 1: cannot parse {'x' * 20!r} as a number"),
        ("x" * 21, f"row 1, column 1: cannot parse {'x' * 20!r}... (21 characters) as a number"),
        ("9" * 400, f"row 1, column 1: non-finite value {'9' * 20!r}... (400 characters)"),
    ],
    ids=["unparsable", "non-finite", "20-characters", "21-characters", "400-digits"],
)
def test_parse_csv_quotes_at_most_20_characters_of_a_field(text, message):
    with pytest.raises(MatrixFormatError) as info:
        parse_csv(text)
    assert str(info.value) == message


def test_format_csv_round_trips_exactly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, (4, 3))
    assert np.array_equal(parse_csv(format_csv(a)), a)


# ---------------------------------------------------------------------- json

def test_json_round_trip_exact():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 5))
    assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)


def test_json_form_contents():
    obj = matrix_to_json([[1.0, 2.0], [3.0, 4.0]])
    assert obj == {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [1.0]},
        {"rows": 2.0, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 1, "cols": 2, "data": [1.0, "x"]},
        # JSON true and false load as Python bools, which are ints
        {"rows": True, "cols": 1, "data": [2]},
        {"rows": 2, "cols": True, "data": [1.0, 2.0]},
        {"rows": 1, "cols": 1, "data": [True]},
        # strings float() would read as numbers
        {"rows": 1, "cols": 2, "data": ["1e3", "1_0"]},
        {"rows": 1, "cols": 1, "data": [None]},
        # an integer beyond the float range
        {"rows": 1, "cols": 1, "data": [10**400]},
    ],
)
def test_json_malformed_rejected(obj):
    with pytest.raises(MatrixFormatError):
        matrix_from_json(obj)


# ---------------------------------------------------------------- operations

def test_permute_examples():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(permute(a, [0, 1], [0, 1]), a)
    np.testing.assert_array_equal(permute(a, [1, 0], [0, 1]), [[3.0, 4.0], [1.0, 2.0]])


@pytest.mark.parametrize(
    "a, row_order, col_order",
    [(np.ones(3), [0, 1, 2], [0]), (np.ones((2, 2, 2)), [0, 1], [0, 1])],
    ids=["1-D", "3-D"],
)
def test_permute_refuses_a_non_matrix(a, row_order, col_order):
    with pytest.raises(DimensionError, match="expected a 2-D matrix"):
        permute(a, row_order, col_order)


# ---------------------------------------------------------------- properties

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_with_permutations(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    a = draw(arrays(np.float64, (m, n), elements=finite_floats))
    rows = draw(st.permutations(range(m)))
    cols = draw(st.permutations(range(n)))
    return a, np.array(rows), np.array(cols)


@given(matrix_with_permutations())
def test_permute_round_trips_exactly(case):
    a, rows, cols = case
    inverse_rows = np.argsort(rows)
    inverse_cols = np.argsort(cols)
    assert np.array_equal(permute(permute(a, rows, cols), inverse_rows, inverse_cols), a)
