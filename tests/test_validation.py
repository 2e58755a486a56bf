"""Tests for input validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_1d_array,
    as_2d_array,
    check_consistent_length,
    check_fraction,
    check_horizon,
    check_positive_int,
    has_missing,
    has_negative,
)
from repro.exceptions import DataQualityError, InvalidParameterError


class TestAs2dArray:
    def test_1d_input_becomes_single_column(self):
        result = as_2d_array([1.0, 2.0, 3.0])
        assert result.shape == (3, 1)

    def test_2d_input_preserved(self):
        result = as_2d_array([[1.0, 2.0], [3.0, 4.0]])
        assert result.shape == (2, 2)

    def test_list_of_ints_coerced_to_float(self):
        result = as_2d_array([1, 2, 3])
        assert result.dtype == float

    def test_string_input_raises_data_quality_error(self):
        with pytest.raises(DataQualityError):
            as_2d_array(["a", "b", "c"])

    def test_empty_input_raises(self):
        with pytest.raises(DataQualityError):
            as_2d_array(np.empty((0, 1)))

    def test_3d_input_raises(self):
        with pytest.raises(DataQualityError):
            as_2d_array(np.zeros((2, 2, 2)))

    def test_nan_rejected_when_disallowed(self):
        with pytest.raises(DataQualityError):
            as_2d_array([1.0, np.nan], allow_nan=False)

    def test_nan_allowed_by_default(self):
        result = as_2d_array([1.0, np.nan])
        assert np.isnan(result[1, 0])


class TestAs1dArray:
    def test_column_vector_squeezed(self):
        assert as_1d_array(np.ones((5, 1))).shape == (5,)

    def test_matrix_raises(self):
        with pytest.raises(DataQualityError):
            as_1d_array(np.ones((5, 2)))


class TestScalarChecks:
    def test_positive_int_accepts_valid(self):
        assert check_positive_int(3, "x") == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(0, "x")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(True, "x")

    def test_positive_int_rejects_float(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(2.5, "x")

    def test_fraction_bounds(self):
        assert check_fraction(0.2, "f") == 0.2
        with pytest.raises(InvalidParameterError):
            check_fraction(0.0, "f")
        with pytest.raises(InvalidParameterError):
            check_fraction(1.0, "f")

    def test_horizon(self):
        assert check_horizon(5) == 5
        with pytest.raises(InvalidParameterError):
            check_horizon(0)


class TestArrayPredicates:
    def test_consistent_length_passes(self):
        check_consistent_length([1, 2], [3, 4])

    def test_consistent_length_fails(self):
        with pytest.raises(DataQualityError):
            check_consistent_length([1, 2], [3, 4, 5])

    def test_has_missing(self):
        assert has_missing(np.array([1.0, np.nan]))
        assert not has_missing(np.array([1.0, 2.0]))

    def test_has_negative(self):
        assert has_negative(np.array([[1.0], [-0.5]]))
        assert not has_negative(np.array([[0.0], [2.0]]))
