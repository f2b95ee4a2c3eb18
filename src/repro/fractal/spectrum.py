"""Multifractal spectra: partition functions and the Legendre transform.

Two routes to the singularity spectrum ``f(alpha)``:

* From a *measure* (histogram-like positive data, e.g. a cascade or the
  increments of a resource counter): the box-method partition function
  ``Z(q, s) = sum_boxes mu(box)^q ~ s^{tau(q)}`` via
  :func:`partition_function_tau`.
* From any estimated ``tau(q)`` (MFDFA, wavelet leaders, partition
  function): the numerical Legendre transform ``alpha = tau'(q)``,
  ``f(alpha) = q alpha - tau(q)`` via :func:`legendre_spectrum`.

The *width* of the spectrum (:func:`spectrum_width`) is the scalar
multifractality indicator used in the aged-vs-healthy comparison
(experiment T2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_1d_float_array, check_positive_int
from ..exceptions import AnalysisError, ValidationError
from ..stats.regression import fit_line


@dataclass(frozen=True)
class SingularitySpectrum:
    """The Legendre spectrum (alpha, f(alpha)) with its source tau(q).

    Attributes
    ----------
    alpha:
        Singularity strengths (Hölder exponents), one per interior q.
    f:
        Spectrum values f(alpha); the Hausdorff-dimension profile.
    q:
        Interior moment orders each (alpha, f) pair came from.
    tau:
        The tau(q) values at those orders.
    """

    alpha: np.ndarray
    f: np.ndarray
    q: np.ndarray
    tau: np.ndarray

    @property
    def width(self) -> float:
        """alpha_max - alpha_min over the estimated support."""
        return float(np.max(self.alpha) - np.min(self.alpha))

    @property
    def alpha_peak(self) -> float:
        """The alpha at which f(alpha) is maximal (the typical exponent)."""
        return float(self.alpha[np.argmax(self.f)])

    @property
    def asymmetry(self) -> float:
        """(right width - left width) / total width, in [-1, 1].

        Positive values mean the spectrum extends further towards weak
        singularities (large alpha).
        """
        peak = self.alpha_peak
        left = peak - float(np.min(self.alpha))
        right = float(np.max(self.alpha)) - peak
        total = left + right
        return 0.0 if total == 0 else (right - left) / total


def legendre_spectrum(q, tau) -> SingularitySpectrum:
    """Numerical Legendre transform of a scaling function.

    ``alpha(q) = d tau / d q`` (central differences) and
    ``f(alpha) = q alpha - tau``.  The endpoints of q are dropped
    (one-sided derivatives there are too noisy to trust).

    Raises :class:`AnalysisError` if tau is so non-concave that the
    transform would be meaningless (alpha must be non-increasing in q up
    to estimation noise).
    """
    q_arr = as_1d_float_array(q, name="q", min_length=5)
    tau_arr = as_1d_float_array(tau, name="tau", min_length=5)
    if q_arr.size != tau_arr.size:
        raise ValidationError("q and tau must have equal length")
    if np.any(np.diff(q_arr) <= 0):
        raise ValidationError("q must be strictly increasing")

    alpha = np.gradient(tau_arr, q_arr)
    # Keep the interior.
    alpha_in = alpha[1:-1]
    q_in = q_arr[1:-1]
    tau_in = tau_arr[1:-1]
    f = q_in * alpha_in - tau_in

    # Sanity: a legitimate tau(q) is concave, so alpha(q) decreases.
    increases = np.diff(alpha_in)
    tol = 0.05 * (np.max(np.abs(alpha_in)) + 1e-12)
    if np.any(increases > tol * 5):
        raise AnalysisError(
            "tau(q) is badly non-concave; the Legendre spectrum is not defined "
            "(estimation failed or the scaling range is invalid)"
        )
    return SingularitySpectrum(alpha=alpha_in, f=f, q=q_in, tau=tau_in)


def spectrum_width(q, tau) -> float:
    """Convenience: width of the Legendre spectrum of ``tau(q)``."""
    return legendre_spectrum(q, tau).width


def partition_function_tau(
    measure,
    *,
    q=None,
    min_exponent: int = 1,
    max_exponent: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Box-method scaling function tau(q) of a positive measure.

    The measure is given as cell masses on a uniform grid whose length
    must be a power of two.  Boxes of size ``2**k`` are formed by dyadic
    aggregation, and ``log2 Z(q, s)`` is regressed on ``log2 s``.

    Returns
    -------
    (q, tau, tau_stderr)
    """
    mu = as_1d_float_array(measure, name="measure", min_length=8)
    if np.any(mu < 0):
        raise ValidationError("measure cells must be non-negative")
    total = mu.sum()
    if total <= 0:
        raise ValidationError("measure has zero total mass")
    mu = mu / total
    n = mu.size
    n_levels = int(np.log2(n))
    if 2**n_levels != n:
        raise ValidationError(f"measure length must be a power of two, got {n}")

    q_arr = np.linspace(-5.0, 5.0, 21) if q is None else np.asarray(q, dtype=float)
    check_positive_int(min_exponent, name="min_exponent")
    if max_exponent is None:
        max_exponent = n_levels - 2
    if max_exponent <= min_exponent:
        raise ValidationError(
            f"exponent range [{min_exponent}, {max_exponent}] is empty"
        )

    exponents = np.arange(min_exponent, max_exponent + 1)
    log_z = np.full((q_arr.size, exponents.size), np.nan)
    for j, k in enumerate(exponents):
        box = mu.reshape(-1, 2**k).sum(axis=1)
        positive = box[box > 1e-300]
        if positive.size < 2:
            raise AnalysisError(f"fewer than 2 occupied boxes at scale 2^{k}")
        logs = np.log2(positive)
        for i, qi in enumerate(q_arr):
            log_z[i, j] = _log2_sum_exp2(qi * logs)

    log_s = exponents.astype(float) - n_levels  # log2 of box size relative to [0,1]
    tau = np.empty(q_arr.size)
    tau_err = np.empty(q_arr.size)
    for i in range(q_arr.size):
        fit = fit_line(log_s, log_z[i])
        tau[i] = fit.slope
        tau_err[i] = fit.stderr_slope
    return q_arr, tau, tau_err


def _log2_sum_exp2(values: np.ndarray) -> float:
    """log2(sum(2**values)) without overflow."""
    peak = np.max(values)
    return float(peak + np.log2(np.sum(np.exp2(values - peak))))
