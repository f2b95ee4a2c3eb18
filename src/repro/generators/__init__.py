"""Synthetic signal generators with analytically known fractal properties.

These signals are the library's ground truth: each generator documents the
exact Hurst exponent, scaling function tau(q), or pointwise Hölder
regularity of its output, and the test suite checks that every estimator
in :mod:`repro.fractal` and :mod:`repro.core` recovers those values.

Monofractal
-----------
:func:`fgn` / :func:`fbm`
    Fractional Gaussian noise / Brownian motion (Davies–Harte circulant
    embedding, with Cholesky and Hosking fallbacks), ``H`` exact.

Multifractal
------------
:func:`binomial_cascade`
    Deterministic/random binomial measure; tau(q) in closed form via
    :func:`binomial_cascade_tau`.
:func:`mrw`
    Multifractal random walk (Bacry–Delour–Muzy) with intermittency
    lambda²; tau(q) in closed form via :func:`mrw_tau`.

Deterministic test signals
--------------------------
:func:`weierstrass`
    Uniform Hölder exponent ``h`` everywhere.
"""

from .fgn import fgn, fbm
from .cascades import binomial_cascade, binomial_cascade_tau
from .mrw import mrw, mrw_tau
from .deterministic import weierstrass

__all__ = [
    "fgn",
    "fbm",
    "binomial_cascade",
    "binomial_cascade_tau",
    "mrw",
    "mrw_tau",
    "weierstrass",
]
