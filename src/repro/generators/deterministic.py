"""Deterministic fractal test signals with known pointwise regularity.

:func:`weierstrass` has uniform Hölder exponent ``h`` at *every* point —
the cleanest possible target for a local Hölder estimator (no sampling
variability in the truth).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_in_range, check_positive, check_positive_int


def weierstrass(
    n: int,
    h: float = 0.5,
    *,
    gamma: float = 2.0,
    n_terms: int = 60,
    t_max: float = 1.0,
) -> np.ndarray:
    """Sample the Weierstrass function ``W(t) = sum gamma^{-k h} cos(gamma^k t)``.

    For ``gamma > 1`` and ``0 < h < 1`` the function is continuous,
    nowhere differentiable, with Hölder exponent exactly ``h`` at every
    point.

    Parameters
    ----------
    n:
        Number of uniformly spaced samples on ``[0, t_max]``.
    h:
        The target uniform Hölder exponent, in (0, 1).
    gamma:
        Lacunarity parameter (> 1).
    n_terms:
        Truncation of the infinite sum; 60 terms with gamma = 2 reaches
        far below double-precision resolution.
    """
    check_positive_int(n, name="n", minimum=2)
    check_in_range(h, name="h", low=0.0, high=1.0, inclusive_low=False, inclusive_high=False)
    check_positive(t_max, name="t_max")
    if gamma <= 1.0:
        from ..exceptions import ValidationError

        raise ValidationError(f"gamma must exceed 1, got {gamma}")
    check_positive_int(n_terms, name="n_terms")

    t = np.linspace(0.0, t_max, n)
    out = np.zeros(n)
    # Sum highest-frequency terms first so the small terms are not lost
    # to floating-point absorption.
    for k in reversed(range(n_terms)):
        out += gamma ** (-k * h) * np.cos((gamma**k) * 2.0 * np.pi * t)
    return out
