"""Sliding-window multifractal analysis.

The experiments compare the multifractal signature of *segments*
(healthy head vs aged tail); this module generalises that to a
*trajectory*: MFDFA run over a window sliding along the series, yielding
time series of h(2), the generalized-Hurst span and the spectrum width.
Used by the F6 benchmark (evolution of the spectrum under aging) and
available to downstream users as a drift monitor in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_int
from ..exceptions import AnalysisError
from ..trace.series import TimeSeries
from .mfdfa import mfdfa
from .spectrum import legendre_spectrum


@dataclass(frozen=True)
class SlidingMfdfaResult:
    """Trajectories of multifractal summary statistics.

    Attributes
    ----------
    times:
        Right-edge time of each window.
    h2:
        Generalized Hurst exponent h(2) per window.
    delta_h:
        Generalized-Hurst span h(q_min) - h(q_max) per window.
    width:
        Legendre spectrum width per window (NaN where the spectrum was
        not defined, e.g. a badly non-concave tau in a noisy window).
    """

    times: np.ndarray
    h2: np.ndarray
    delta_h: np.ndarray
    width: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)


def sliding_mfdfa(
    ts: TimeSeries,
    *,
    window: int = 2048,
    step: int = 512,
    q=None,
    difference_first: bool = True,
) -> SlidingMfdfaResult:
    """Run MFDFA over a sliding window of a series.

    Parameters
    ----------
    ts:
        Gap-free series (fill/resample first).
    window, step:
        Window length and stride, in samples.
    q:
        Moment orders (default [-3, 3] in 13 steps).
    difference_first:
        Analyse increments of each window (appropriate for level-like
        counters such as AvailableBytes).
    """
    check_positive_int(window, name="window", minimum=256)
    check_positive_int(step, name="step")
    if ts.has_gaps:
        raise AnalysisError("series has gaps; fill them before sliding MFDFA")
    n = len(ts)
    if n < window:
        raise AnalysisError(f"series has {n} samples; window of {window} does not fit")
    q_arr = np.linspace(-3.0, 3.0, 13) if q is None else np.asarray(q, dtype=float)

    times, h2s, spans, widths = [], [], [], []
    for start in range(0, n - window + 1, step):
        segment = ts.values[start: start + window]
        data = np.diff(segment) if difference_first else segment
        try:
            res = mfdfa(data, q=q_arr)
        except AnalysisError:
            continue  # degenerate window (constant stretch); skip
        times.append(float(ts.times[start + window - 1]))
        h2s.append(res.hurst)
        spans.append(res.delta_h)
        try:
            widths.append(legendre_spectrum(res.q, res.tau).width)
        except AnalysisError:
            widths.append(float("nan"))
    if len(times) < 2:
        raise AnalysisError("fewer than 2 usable windows")
    return SlidingMfdfaResult(
        times=np.asarray(times),
        h2=np.asarray(h2s),
        delta_h=np.asarray(spans),
        width=np.asarray(widths),
    )
