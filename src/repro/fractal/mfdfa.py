"""Multifractal detrended fluctuation analysis (Kantelhardt et al. 2002).

MFDFA generalises DFA to q-th order moments of the box fluctuations:

``F_q(s) = ( mean_v [F^2(v, s)]^{q/2} )^{1/q} ~ s^{h(q)}``

(with the logarithmic mean at q = 0).  A q-dependent ``h(q)`` signals
multifractality; the scaling function is ``tau(q) = q h(q) - 1`` and the
singularity spectrum follows by Legendre transform
(:func:`repro.fractal.spectrum.legendre_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .._validation import as_1d_float_array, check_positive_int
from ..exceptions import AnalysisError, ValidationError
from ..stats.regression import fit_line
from .dfa import default_scales


@dataclass(frozen=True)
class MfdfaResult:
    """MFDFA output.

    Attributes
    ----------
    q:
        Moment orders analysed.
    hq:
        Generalised Hurst exponents h(q) (slopes per q).
    hq_stderr:
        Standard errors of the h(q) slopes.
    tau:
        Scaling function tau(q) = q h(q) - 1.
    scales:
        Box sizes used.
    fluctuations:
        F_q(s) matrix of shape (len(q), len(scales)).
    """

    q: np.ndarray
    hq: np.ndarray
    hq_stderr: np.ndarray
    tau: np.ndarray
    scales: np.ndarray
    fluctuations: np.ndarray

    @property
    def hurst(self) -> float:
        """h(2), the classical Hurst-like exponent."""
        idx = int(np.argmin(np.abs(self.q - 2.0)))
        return float(self.hq[idx])

    @property
    def delta_h(self) -> float:
        """h(q_min) - h(q_max): a scalar multifractality strength measure."""
        return float(self.hq[0] - self.hq[-1])

    def as_dict(self) -> Dict[str, np.ndarray]:
        """Plain-dict view for serialisation."""
        return {
            "q": self.q, "hq": self.hq, "tau": self.tau,
            "scales": self.scales, "fluctuations": self.fluctuations,
        }


def default_q() -> np.ndarray:
    """Conventional q grid: -5..5 excluding nothing (q=0 handled specially)."""
    return np.linspace(-5.0, 5.0, 21)


def mfdfa(
    values,
    *,
    q=None,
    order: int = 1,
    scales=None,
    integrate: bool = True,
) -> MfdfaResult:
    """Run MFDFA on ``values``.

    Parameters
    ----------
    values:
        Input series (noise-like; see ``integrate``).
    q:
        Moment orders; defaults to 21 values in [-5, 5].
    order:
        Detrending polynomial order per box.
    scales:
        Box sizes; defaults to log-spaced sizes in ``[8, len/4]``.
    integrate:
        Analyse the profile (cumulative sum of mean-removed values) when
        True — the standard convention.

    Notes
    -----
    Negative q orders amplify the *smallest* fluctuations, so boxes with
    exactly zero variance would blow up; such degenerate boxes are
    excluded with a floor guard and an error is raised if fewer than
    half the boxes survive.
    """
    x = as_1d_float_array(values, name="values", min_length=64)
    check_positive_int(order, name="order")
    q_arr = default_q() if q is None else np.asarray(q, dtype=float)
    if q_arr.ndim != 1 or q_arr.size < 3:
        raise ValidationError("q must be a 1-D grid with at least 3 orders")

    profile = np.cumsum(x - np.mean(x)) if integrate else x.copy()
    n = profile.size
    scales_arr = default_scales(n) if scales is None else np.unique(np.asarray(scales, dtype=int))
    if scales_arr.size < 3:
        raise ValidationError("need at least 3 distinct scales")
    if scales_arr[0] < order + 2 or scales_arr[-1] > n // 2:
        raise ValidationError(
            f"scales must lie in [{order + 2}, {n // 2}], got "
            f"[{scales_arr[0]}, {scales_arr[-1]}]"
        )

    fq = np.empty((q_arr.size, scales_arr.size))
    for j, s in enumerate(scales_arr):
        variances = _box_variances(profile, int(s), order)
        positive = variances[variances > 1e-300]
        if positive.size < max(2, variances.size // 2):
            raise AnalysisError(
                f"too many zero-fluctuation boxes at scale {s} "
                f"({variances.size - positive.size}/{variances.size})"
            )
        for i, qi in enumerate(q_arr):
            if abs(qi) < 1e-12:
                fq[i, j] = np.exp(0.5 * np.mean(np.log(positive)))
            else:
                fq[i, j] = np.mean(positive ** (qi / 2.0)) ** (1.0 / qi)

    log_s = np.log2(scales_arr)
    hq = np.empty(q_arr.size)
    hq_err = np.empty(q_arr.size)
    for i in range(q_arr.size):
        fit = fit_line(log_s, np.log2(fq[i]))
        hq[i] = fit.slope
        hq_err[i] = fit.stderr_slope

    tau = q_arr * hq - 1.0
    return MfdfaResult(
        q=q_arr, hq=hq, hq_stderr=hq_err, tau=tau,
        scales=scales_arr, fluctuations=fq,
    )


def _box_variances(profile: np.ndarray, s: int, order: int) -> np.ndarray:
    """Detrended variance per box (forward and backward passes)."""
    n = profile.size
    n_boxes = n // s
    if n_boxes < 2:
        raise AnalysisError(f"scale {s} leaves fewer than 2 boxes for length {n}")
    t = np.arange(s, dtype=float)
    basis = np.vander(t, order + 1)
    q_mat, _ = np.linalg.qr(basis)

    def box_var(segment: np.ndarray) -> np.ndarray:
        boxes = segment[: n_boxes * s].reshape(n_boxes, s)
        resid = boxes - (boxes @ q_mat) @ q_mat.T
        return np.mean(resid**2, axis=1)

    return np.concatenate([box_var(profile), box_var(profile[::-1])])
