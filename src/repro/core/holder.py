"""Local (pointwise) Hölder exponent estimation.

The Hölder exponent ``h(t0)`` measures the regularity of a signal at one
point: the largest h such that ``|X(t) - P(t)| <= C |t - t0|^h`` near t0
for some polynomial P.  Two estimators are provided, following the
methodology of the DSN'03 paper (which used wavelet-based pointwise
estimates in the FracLab tradition):

* :func:`wavelet_holder` — regress ``log |W(a, t)|`` on ``log a`` over a
  band of fine scales, where W is the CWT with a derivative-of-Gaussian
  wavelet.  Inside the cone of influence of a singularity the modulus
  scales as ``a^{h + 1/2}`` (unit-energy normalisation), so
  ``h(t) = slope - 1/2``.  The modulus is stabilised by taking the
  supremum over the cone ``|t' - t| <= a`` at each scale.
* :func:`oscillation_holder` — the direct definition: the oscillation
  ``osc_r(t) = max - min`` of the signal over balls of radius r scales
  as ``r^{h(t)}``.

Both return one exponent per sample.  :func:`holder_trajectory` applies
an estimator over a sliding window and summarises each window, producing
the (mean h, variance h) trajectories that the aging indicators consume.

:func:`holder_tail` returns only the newest exponents of
:func:`wavelet_holder` — what the online monitor reads per emit — from a
short trailing segment, at a fraction of the CWT work.  With an even
``dog_order`` it transforms that segment as one real-even DCT pair
instead of the complex FFT route (equal to ~1e-15 relative), so its
exponents match :func:`wavelet_holder` to ~1e-11 either way; odd
orders, short windows and :func:`wavelet_holder` itself stay on
:func:`~repro.fractal.wavelets.cwt`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .._validation import (
    as_1d_float_array,
    check_choice,
    check_finite,
    check_positive,
    check_positive_int,
)
from ..exceptions import AnalysisError, ValidationError
from ..trace.series import TimeSeries
from ..fractal.wavelets import _cwt_even_dog, cwt


def wavelet_holder(
    values,
    *,
    min_scale: float = 2.0,
    max_scale: float = 32.0,
    n_scales: int = 12,
    dog_order: int = 2,
    cone_supremum: bool = True,
) -> np.ndarray:
    """Pointwise Hölder exponents via wavelet-modulus regression.

    Parameters
    ----------
    values:
        The signal (a path; pass a cumulated counter, or the raw counter
        when it is already path-like, e.g. AvailableBytes).
    min_scale, max_scale, n_scales:
        The fine-scale band regressed over (log-spaced).
    dog_order:
        Vanishing moments of the analysing wavelet; must exceed the
        local polynomial trend order.
    cone_supremum:
        Replace ``|W(a, t)|`` by its supremum over the cone
        ``|t' - t| <= a`` (more faithful to the Hölder definition and
        markedly less noisy; on by default).

    Returns
    -------
    Array of h estimates, one per sample (edge samples use the shrunken
    cone that fits).
    """
    x = as_1d_float_array(values, name="values", min_length=64)
    scales = _scale_band(min_scale, max_scale, n_scales)
    if max_scale > x.size / 4:
        raise ValidationError(
            f"max_scale ({max_scale}) too coarse for series of length {x.size}"
        )
    return _modulus_slopes(x, scales,
                           _cone_halves(min_scale, max_scale, n_scales),
                           dog_order, cone_supremum)


#: Margin between a truncated segment's left edge and the first exponent
#: :func:`holder_tail` returns, in units of ``max_scale``: ten standard
#: deviations of the DOG wavelet, where its amplitude is ~e^-50 — below
#: double-precision resolution of the modulus it would perturb.
SUPPORT_MARGIN = 10.0


def holder_tail(
    values,
    tail: int,
    *,
    min_scale: float = 2.0,
    max_scale: float = 32.0,
    n_scales: int = 12,
    dog_order: int = 2,
    cone_supremum: bool = True,
) -> np.ndarray:
    """The newest ``tail`` exponents of :func:`wavelet_holder`.

    Equals ``wavelet_holder(values, ...)[-tail:]`` to machine precision
    while transforming only the trailing segment of
    ``tail + round(max_scale) + ceil(SUPPORT_MARGIN * max_scale)``
    samples (at least 64).  That is safe because:

    * the CWT reflect-pads ``[x, reversed x]``, so the segment and the
      full window share their right boundary extension exactly;
    * every returned position sits ``SUPPORT_MARGIN * max_scale``
      samples from the segment's left edge, where the wavelet has
      decayed below double precision;
    * the cone-supremum rolling max reads at most ``round(max_scale)``
      neighbours, which the segment also covers.

    With an even ``dog_order`` the segment's CWT runs as one real-even
    DCT pair (:func:`~repro.fractal.wavelets._cwt_even_dog`, ~1e-15
    relative from the complex FFT route, in under a third of its time);
    odd orders take :func:`~repro.fractal.wavelets.cwt`.  What remains
    is FFT-size rounding in the modulus; the exponents agree to ~1e-11
    at the default scale band.  A window no longer than the segment runs
    :func:`wavelet_holder` itself — there is nothing to truncate.
    """
    x = as_1d_float_array(values, name="values", min_length=64)
    check_positive_int(tail, name="tail", minimum=1)
    check_positive_int(dog_order, name="dog_order")
    scales = _scale_band(min_scale, max_scale, n_scales)
    segment = max(tail + max(int(round(max_scale)), 1)
                  + int(math.ceil(SUPPORT_MARGIN * max_scale)), 64)
    if x.size <= segment:
        h = wavelet_holder(x, min_scale=min_scale, max_scale=max_scale,
                           n_scales=n_scales, dog_order=dog_order,
                           cone_supremum=cone_supremum)
        return h[-tail:]
    return _modulus_slopes(x[-segment:], scales,
                           _cone_halves(min_scale, max_scale, n_scales),
                           dog_order, cone_supremum, tail=tail)


@functools.lru_cache(maxsize=16)
def _scale_band(min_scale: float, max_scale: float,
                n_scales: int) -> np.ndarray:
    """Validated log-spaced scale band of the wavelet estimators (cached
    read-only: the online monitor asks for the same band every emit)."""
    check_positive(min_scale, name="min_scale")
    check_finite(max_scale, name="max_scale")
    if max_scale <= min_scale:
        raise ValidationError(f"max_scale ({max_scale}) must exceed min_scale ({min_scale})")
    check_positive_int(n_scales, name="n_scales", minimum=3)
    scales = np.geomspace(min_scale, max_scale, n_scales)
    scales.flags.writeable = False
    return scales


@functools.lru_cache(maxsize=16)
def _cone_halves(min_scale: float, max_scale: float,
                 n_scales: int) -> tuple:
    """Cone half-width ``max(round(a), 1)`` of each scale of
    :func:`_scale_band` (cached beside it: the band's cone is the same
    every emit)."""
    return tuple(max(int(round(a)), 1)
                 for a in _scale_band(min_scale, max_scale, n_scales))


def _modulus_slopes(x: np.ndarray, scales: np.ndarray, halves: tuple,
                    dog_order: int, cone_supremum: bool, *,
                    tail=None) -> np.ndarray:
    """Wavelet modulus -> log2 -> per-sample slope on log2 scale, minus
    1/2; only the last ``tail`` samples when given, whose segment
    transforms as a real-even DCT pair for an even ``dog_order``."""
    if tail is not None and dog_order % 2 == 0:
        modulus = np.abs(_cwt_even_dog(x, scales, dog_order))
    else:
        modulus = np.abs(cwt(x, scales, wavelet="dog", dog_order=dog_order))

    if cone_supremum:
        modulus = _window_extrema(modulus, halves, np.maximum, tail=tail)
    elif tail is not None:
        modulus = modulus[:, -tail:]

    # Floor the modulus: exact zeros happen on locally polynomial stretches.
    tiny = np.finfo(float).tiny
    log_mod = np.log2(np.maximum(modulus, tiny))
    log_a = np.log2(scales)

    # Per-sample regression of log|W| on log a, vectorised:
    # slope_t = cov(log_a, log_mod[:, t]) / var(log_a).
    la = log_a - log_a.mean()
    denom = np.sum(la**2)
    slopes = (la @ log_mod) / denom
    return slopes - 0.5


def oscillation_holder(
    values,
    *,
    radii=(4, 8, 16, 32, 64),
) -> np.ndarray:
    """Pointwise Hölder exponents from the oscillation scaling.

    ``osc_r(t) = max_{|u-t|<=r} X - min_{|u-t|<=r} X ~ r^{h(t)}``; the
    slope of ``log osc`` on ``log r`` across the given radii estimates
    h(t).  Simple and assumption-light, but carries a known finite-scale
    upward bias of order +0.1 to +0.2 (the oscillation converges to its
    scaling regime slowly), so it serves as the qualitative cross-check
    while :func:`wavelet_holder` is the quantitative estimator.
    """
    x = as_1d_float_array(values, name="values", min_length=64)
    radii_arr = np.asarray(radii, dtype=int)
    if radii_arr.ndim != 1 or radii_arr.size < 3:
        raise ValidationError("need at least 3 radii")
    if np.any(radii_arr < 1) or np.any(np.diff(radii_arr) <= 0):
        raise ValidationError("radii must be positive and strictly increasing")
    if radii_arr[-1] >= x.size // 2:
        raise ValidationError(f"largest radius {radii_arr[-1]} too big for length {x.size}")

    tiny = np.finfo(float).tiny
    rows = np.broadcast_to(x, (radii_arr.size, x.size))
    osc = (_window_extrema(rows, radii_arr, np.maximum)
           - _window_extrema(rows, radii_arr, np.minimum))
    log_osc = np.log2(np.maximum(osc, tiny))
    log_r = np.log2(radii_arr.astype(float))
    lr = log_r - log_r.mean()
    denom = np.sum(lr**2)
    return (lr @ log_osc) / denom


def local_holder(values, *, method: str = "wavelet", **kwargs) -> np.ndarray:
    """Dispatch to :func:`wavelet_holder` or :func:`oscillation_holder`."""
    check_choice(method, name="method", choices=("wavelet", "oscillation"))
    if method == "wavelet":
        return wavelet_holder(values, **kwargs)
    return oscillation_holder(values, **kwargs)


@dataclass(frozen=True)
class HolderTrajectory:
    """Pointwise Hölder exponents of a series plus its sampling times.

    Attributes
    ----------
    times:
        Sample times carried over from the source series.
    h:
        Pointwise Hölder estimates, one per sample.
    method:
        Which estimator produced them.
    source_name:
        Name of the analysed counter.
    """

    times: np.ndarray
    h: np.ndarray
    method: str
    source_name: str

    def as_series(self) -> TimeSeries:
        """View the trajectory as a :class:`TimeSeries` named ``<src>.holder``."""
        return TimeSeries(
            times=self.times, values=self.h,
            name=f"{self.source_name}.holder", units="exponent",
        )

    def __len__(self) -> int:
        return int(self.times.size)


def holder_trajectory(
    ts: TimeSeries,
    *,
    method: str = "wavelet",
    **kwargs,
) -> HolderTrajectory:
    """Compute the pointwise Hölder trajectory of a (gap-free) series.

    The series must be gap-free and uniformly sampled — run it through
    :func:`repro.trace.fill_gaps` / :func:`repro.trace.resample_uniform`
    first if needed.
    """
    if ts.has_gaps:
        raise AnalysisError(
            f"series {ts.name!r} has gaps; fill them before Hölder estimation"
        )
    h = local_holder(ts.values, method=method, **kwargs)
    return HolderTrajectory(
        times=ts.times.copy(), h=h, method=method, source_name=ts.name,
    )


# ---------------------------------------------------------------------------
# Windowed extrema (one sparse-table kernel for every row and width)
# ---------------------------------------------------------------------------


def _window_extrema(rows, halves, op, *, tail=None) -> np.ndarray:
    """Centred window max (``op=np.maximum``) or min (``np.minimum``) of
    each row: ``out[j, i] = op`` over ``rows[j, i - halves[j] : i +
    halves[j] + 1]``, the window clipped to the row.

    One kernel answers every row and half width.  Power-of-two window
    extrema are built once, in place, over a copy of the rows padded
    with the operation's identity (``-inf`` for max, ``+inf`` for min,
    which is the same as clipping the window); rows are visited in
    half-width order, so each doubling step touches only the rows that
    still need a wider window.  Row ``j`` is then answered by two
    overlapping power-of-two windows that together cover exactly its
    centred window.  Only the last ``tail`` columns are computed when
    given (all of them otherwise).  A max or min is exact in any
    order, so the result equals the brute-force clipped-window scan
    bit for bit.

    ``rows`` is read, never written (a broadcast view is fine).
    """
    rows = np.asarray(rows, dtype=float)
    n_rows, n = rows.shape
    n_out = n if tail is None else min(int(tail), n)
    # A half width of n - 1 already covers the whole row.
    halves = [min(int(h), n - 1) for h in halves]
    order = sorted(range(n_rows), key=halves.__getitem__)
    pad = halves[order[-1]]
    # Table row k holds rows[order[k]]; table column m is row column lo + m.
    lo = n - n_out - pad
    width = n_out + 2 * pad
    table = np.full((n_rows, width), -np.inf if op is np.maximum else np.inf)
    first = max(lo, 0)
    table[:, first - lo:n - lo] = rows[order, first:]

    out = np.empty((n_rows, n_out))
    level = 0  # table[k, m] is op over table columns [m, m + 2**level)
    for k, j in enumerate(order):
        h = halves[j]
        while (2 * h + 1) >> (level + 1):
            span = 1 << level
            live = table[k:]
            op(live[:, :width - span], live[:, span:],
               out=live[:, :width - span])
            level += 1
        left = pad - h
        right = pad + h - (1 << level) + 1
        op(table[k, left:left + n_out], table[k, right:right + n_out],
           out=out[j])
    return out
