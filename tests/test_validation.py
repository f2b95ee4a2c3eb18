"""Unit tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_1d_float_array,
    as_1d_float_array_allow_nan,
    check_choice,
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_positive_int,
)
from repro.exceptions import ValidationError


class TestAs1dFloatArray:
    def test_accepts_list(self):
        out = as_1d_float_array([1, 2, 3], name="x")
        assert out.dtype == float
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_accepts_ndarray(self):
        out = as_1d_float_array(np.arange(5), name="x")
        assert out.shape == (5,)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            as_1d_float_array(np.zeros((2, 2)), name="x")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            as_1d_float_array([1.0, np.nan], name="x")

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_1d_float_array([1.0, np.inf], name="x")

    def test_rejects_too_short(self):
        with pytest.raises(ValidationError, match="at least 5"):
            as_1d_float_array([1, 2], name="x", min_length=5)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError, match="numeric"):
            as_1d_float_array(["a", "b"], name="x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ValidationError, match="myparam"):
            as_1d_float_array(np.zeros((2, 2)), name="myparam")


class TestAllowNan:
    def test_nan_allowed(self):
        out = as_1d_float_array_allow_nan([1.0, np.nan, 3.0], name="x")
        assert np.isnan(out[1])

    def test_inf_still_rejected(self):
        with pytest.raises(ValidationError, match="infinite"):
            as_1d_float_array_allow_nan([1.0, np.inf], name="x")


class TestScalarChecks:
    def test_positive_ok(self):
        assert check_positive(2.5, name="x") == 2.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0.0, name="x")

    def test_positive_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, name="x")

    def test_nonnegative_accepts_zero(self):
        assert check_nonnegative(0.0, name="x") == 0.0

    def test_nonnegative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_nonnegative(-0.1, name="x")

    def test_finite_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_finite(float("nan"), name="x")

    def test_finite_rejects_none(self):
        with pytest.raises(ValidationError):
            check_finite(None, name="x")

    def test_finite_coerces_int(self):
        assert check_finite(3, name="x") == 3.0


class TestPositiveInt:
    def test_ok(self):
        assert check_positive_int(4, name="n") == 4

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, name="n")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.0, name="n")

    def test_respects_minimum(self):
        with pytest.raises(ValidationError, match=">= 3"):
            check_positive_int(2, name="n", minimum=3)

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(7), name="n") == 7


class TestInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, name="x", low=0.0, high=1.0) == 0.0
        assert check_in_range(1.0, name="x", low=0.0, high=1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, name="x", low=0.0, high=1.0, inclusive_low=False)
        with pytest.raises(ValidationError):
            check_in_range(1.0, name="x", low=0.0, high=1.0, inclusive_high=False)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_in_range(2.0, name="x", low=0.0, high=1.0)


class TestChoice:
    def test_ok(self):
        assert check_choice("a", name="x", choices=("a", "b")) == "a"

    def test_rejects(self):
        with pytest.raises(ValidationError, match="must be one of"):
            check_choice("c", name="x", choices=("a", "b"))
