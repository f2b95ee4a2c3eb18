"""Shared argument-validation helpers.

Every public entry point in the library validates its arguments eagerly so
errors surface at the call site with a message naming the offending
parameter, instead of deep inside numpy with an inscrutable broadcast
error.  These helpers centralise the checks; they all raise
:class:`repro.exceptions.ValidationError`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exceptions import ValidationError


def as_1d_float_array(values, *, name: str, min_length: int = 1) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array and check its length.

    Accepts any sequence or array-like.  Rejects arrays with more than one
    dimension, arrays containing NaN or infinity, and arrays shorter than
    ``min_length``.
    """
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numeric, got {type(values).__name__}") from exc
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_length:
        raise ValidationError(f"{name} must have at least {min_length} samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def as_1d_float_array_allow_nan(values, *, name: str, min_length: int = 1) -> np.ndarray:
    """Like :func:`as_1d_float_array` but NaN values are allowed (gaps)."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numeric, got {type(values).__name__}") from exc
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_length:
        raise ValidationError(f"{name} must have at least {min_length} samples, got {arr.size}")
    if np.any(np.isinf(arr)):
        raise ValidationError(f"{name} contains infinite values")
    return arr


def check_positive(value: float, *, name: str) -> float:
    """Require ``value`` to be a finite number strictly greater than zero."""
    value = check_finite(value, name=name)
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(value: float, *, name: str) -> float:
    """Require ``value`` to be a finite number greater than or equal to zero."""
    value = check_finite(value, name=name)
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return value


def check_finite(value: float, *, name: str) -> float:
    """Require ``value`` to be a finite real number."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def check_positive_int(value, *, name: str, minimum: int = 1) -> int:
    """Require ``value`` to be an integer at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_in_range(
    value: float, *, name: str, low: float, high: float,
    inclusive_low: bool = True, inclusive_high: bool = True,
) -> float:
    """Require ``low`` (<|<=) ``value`` (<|<=) ``high``."""
    value = check_finite(value, name=name)
    ok_low = value >= low if inclusive_low else value > low
    ok_high = value <= high if inclusive_high else value < high
    if not (ok_low and ok_high):
        lo_b = "[" if inclusive_low else "("
        hi_b = "]" if inclusive_high else ")"
        raise ValidationError(f"{name} must lie in {lo_b}{low}, {high}{hi_b}, got {value}")
    return value


def check_choice(value, *, name: str, choices: Iterable) -> object:
    """Require ``value`` to be one of ``choices``."""
    options = tuple(choices)
    if value not in options:
        raise ValidationError(f"{name} must be one of {options!r}, got {value!r}")
    return value
