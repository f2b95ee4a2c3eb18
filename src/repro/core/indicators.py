"""Aging indicators derived from a Hölder trajectory.

The paper's central statistic is the **windowed second moment of the
Hölder exponent series**: a sliding window slides over ``h(t)`` and each
position reports the variance inside the window.  Under healthy operation
the multifractal structure of the counter is stationary and the variance
series is flat; as aging degrades the memory subsystem, the regularity of
the counter destabilises and the variance jumps — the "fractal collapse"
precursor.

:func:`windowed_moments` computes mean/variance (and optional higher
moments) trajectories in O(n) with prefix sums;
:func:`holder_variance_series` / :func:`holder_mean_series` are the
convenience entry points used by the detectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .._validation import check_positive_int
from ..exceptions import AnalysisError
from ..trace.series import TimeSeries
from .holder import HolderTrajectory


@dataclass(frozen=True)
class IndicatorSeries:
    """An aging-indicator series with provenance.

    Attributes
    ----------
    series:
        The indicator values over time (right-edge aligned: the value at
        time t uses only samples at or before t, so the series is causal
        and usable online).
    window:
        Window length in samples of the source trajectory.
    step:
        Stride between window positions, in trajectory samples.
        Consecutive indicator values share ``window - step`` samples, so
        roughly ``window / step`` consecutive indicator points are one
        effective observation — detectors use this to decimate.
    statistic:
        ``"variance"``, ``"mean"``, ``"skewness"`` or ``"kurtosis"``.
    source_name:
        Name of the counter the Hölder trajectory came from.
    """

    series: TimeSeries
    window: int
    step: int
    statistic: str
    source_name: str

    @property
    def decorrelation_stride(self) -> int:
        """Indicator samples per effectively independent observation."""
        return max(1, int(np.ceil(self.window / max(self.step, 1))))


def windowed_moments(
    trajectory: HolderTrajectory,
    *,
    window: int,
    step: int = 1,
) -> Dict[str, TimeSeries]:
    """Sliding-window moments of a Hölder trajectory.

    Returns a dict with ``"mean"``, ``"variance"``, ``"skewness"`` and
    ``"kurtosis"`` series.  Window positions are right-edge aligned:
    the sample at output time ``t`` summarises the ``window`` Hölder
    values ending at ``t``.  Runs in O(n) via prefix sums.
    """
    check_positive_int(window, name="window", minimum=4)
    check_positive_int(step, name="step")
    n = len(trajectory)
    if n < window:
        raise AnalysisError(
            f"trajectory has {n} samples; window of {window} does not fit"
        )
    h = trajectory.h
    if not np.all(np.isfinite(h)):
        raise AnalysisError("Hölder trajectory contains non-finite values")

    # Prefix-sum raw moments are numerically fragile: a large common
    # offset makes `m2 - m1**2` cancel catastrophically, and extreme
    # magnitudes (|h| ~ 1e-100 or 1e+100) drive h**4 out of float range,
    # turning the standardized moments into infinities.  Shift by the
    # global mean and scale to |g| <= 1 first; the raw-moment algebra
    # then runs on well-conditioned O(1) numbers and the window moments
    # are recovered exactly (mean is shift-equivariant, variance
    # scale-equivariant, skewness/kurtosis invariant).
    shift = float(np.mean(h))
    centered = h - shift
    scale = float(np.max(np.abs(centered)))
    if not np.isfinite(scale) or scale == 0.0:
        scale = 1.0
    g = centered / scale

    # Prefix sums of powers 1..4 of the conditioned values.
    p1 = np.concatenate([[0.0], np.cumsum(g)])
    p2 = np.concatenate([[0.0], np.cumsum(g**2)])
    p3 = np.concatenate([[0.0], np.cumsum(g**3)])
    p4 = np.concatenate([[0.0], np.cumsum(g**4)])

    ends = np.arange(window, n + 1, step)  # exclusive end indices
    starts = ends - window
    w = float(window)
    m1 = (p1[ends] - p1[starts]) / w
    m2 = (p2[ends] - p2[starts]) / w
    m3 = (p3[ends] - p3[starts]) / w
    m4 = (p4[ends] - p4[starts]) / w

    var_g = np.maximum(m2 - m1**2, 0.0)
    # Central moments from raw moments (of the conditioned values).
    mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    denom_skew = var_g**1.5
    denom_kurt = var_g**2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        skew = np.divide(mu3, denom_skew,
                         out=np.zeros_like(mu3), where=denom_skew > 0)
        kurt = np.divide(mu4, denom_kurt,
                         out=np.full_like(mu4, 3.0), where=denom_kurt > 0) - 3.0
    # Near-degenerate windows can still push the standardized ratios
    # past their mathematical bounds (|g1| <= sqrt(w), g2 <= w) through
    # rounding in the tiny denominators; clamp to those bounds so the
    # indicator series is always finite.
    skew = np.clip(np.nan_to_num(skew, nan=0.0), -np.sqrt(w), np.sqrt(w))
    kurt = np.clip(np.nan_to_num(kurt, nan=0.0), -3.0, w)

    mean = shift + scale * m1
    var = scale**2 * var_g

    times = trajectory.times[ends - 1]
    base = trajectory.source_name

    def mk(vals: np.ndarray, stat: str) -> TimeSeries:
        return TimeSeries(times=times, values=vals, name=f"{base}.h_{stat}", units="")

    return {
        "mean": mk(mean, "mean"),
        "variance": mk(var, "variance"),
        "skewness": mk(skew, "skewness"),
        "kurtosis": mk(kurt, "kurtosis"),
    }


def holder_variance_series(
    trajectory: HolderTrajectory, *, window: int, step: int = 1,
) -> IndicatorSeries:
    """The paper's indicator: windowed variance of the Hölder trajectory."""
    moments = windowed_moments(trajectory, window=window, step=step)
    return IndicatorSeries(
        series=moments["variance"], window=window, step=step,
        statistic="variance", source_name=trajectory.source_name,
    )


def holder_mean_series(
    trajectory: HolderTrajectory, *, window: int, step: int = 1,
) -> IndicatorSeries:
    """Windowed mean of the Hölder trajectory (drift companion indicator)."""
    moments = windowed_moments(trajectory, window=window, step=step)
    return IndicatorSeries(
        series=moments["mean"], window=window, step=step,
        statistic="mean", source_name=trajectory.source_name,
    )
