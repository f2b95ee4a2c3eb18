"""Preprocessing transforms on :class:`~repro.trace.series.TimeSeries`.

These are the standard conditioning steps applied before fractal analysis:
gap filling, resampling onto a uniform grid, detrending and differencing,
plus segmentation into contiguous pieces.
"""

from __future__ import annotations

from typing import List, Literal

import numpy as np

from .._validation import check_choice, check_positive, check_positive_int
from ..exceptions import AnalysisError, ValidationError
from .series import TimeSeries

DetrendMode = Literal["mean", "linear", "poly2"]


def detrend(ts: TimeSeries, mode: DetrendMode = "linear") -> TimeSeries:
    """Remove a global trend from the series.

    ``mode`` selects the trend model: the mean, a least-squares line, or a
    quadratic.  Gaps are preserved (the fit ignores them).
    """
    check_choice(mode, name="mode", choices=("mean", "linear", "poly2"))
    values = ts.values.copy()
    mask = ~np.isnan(values)
    if mask.sum() < 3:
        raise AnalysisError("detrend needs at least 3 non-gap samples")
    t = ts.times[mask]
    v = values[mask]
    degree = {"mean": 0, "linear": 1, "poly2": 2}[mode]
    # Centre/scale time for numerical conditioning of the polynomial fit.
    t0, tspan = t[0], max(t[-1] - t[0], 1.0)
    coeffs = np.polyfit((t - t0) / tspan, v, deg=degree)
    trend = np.polyval(coeffs, (ts.times - t0) / tspan)
    values = values - trend
    return ts.with_values(values, name=f"{ts.name}.detrended")


def difference(ts: TimeSeries, order: int = 1) -> TimeSeries:
    """Return the ``order``-th difference of the series.

    The result keeps the time stamps of the *later* sample of each pair,
    so the output has ``len(ts) - order`` samples.  Gaps propagate.
    """
    check_positive_int(order, name="order")
    if len(ts) <= order:
        raise AnalysisError(f"series too short to difference {order} times")
    values = np.diff(ts.values, n=order)
    return TimeSeries(
        times=ts.times[order:], values=values,
        name=f"{ts.name}.diff{order}", units=ts.units,
    )


def fill_gaps(ts: TimeSeries, method: Literal["interpolate", "ffill"] = "interpolate") -> TimeSeries:
    """Replace NaN gaps by linear interpolation or forward fill.

    Leading gaps are filled with the first observed value in both modes.
    """
    check_choice(method, name="method", choices=("interpolate", "ffill"))
    values = ts.values.copy()
    mask = np.isnan(values)
    if not mask.any():
        return ts
    if mask.all():
        raise AnalysisError(f"series {ts.name!r} is all gaps")
    good = np.flatnonzero(~mask)
    if method == "interpolate":
        values[mask] = np.interp(ts.times[mask], ts.times[good], values[good])
    else:
        # Forward fill: index of the most recent good sample at each position.
        last_good = np.maximum.accumulate(np.where(~mask, np.arange(len(values)), -1))
        first = good[0]
        last_good[last_good < 0] = first
        values = values[last_good]
    return ts.with_values(values)


def resample_uniform(ts: TimeSeries, dt: float | None = None) -> TimeSeries:
    """Resample onto a uniform grid by linear interpolation.

    ``dt`` defaults to the series' median sampling interval.  Gap samples
    are dropped before interpolating.
    """
    clean = ts.dropna()
    if len(clean) < 2:
        raise AnalysisError("resample_uniform needs at least 2 non-gap samples")
    if dt is None:
        dt = clean.dt
    check_positive(dt, name="dt")
    n = int(np.floor((clean.times[-1] - clean.times[0]) / dt)) + 1
    grid = clean.times[0] + dt * np.arange(n)
    values = np.interp(grid, clean.times, clean.values)
    return TimeSeries(times=grid, values=values, name=ts.name, units=ts.units)


def segment(ts: TimeSeries, n_segments: int) -> List[TimeSeries]:
    """Split into ``n_segments`` contiguous, near-equal-length pieces."""
    check_positive_int(n_segments, name="n_segments")
    if len(ts) < n_segments:
        raise ValidationError(
            f"cannot split {len(ts)} samples into {n_segments} segments"
        )
    bounds = np.linspace(0, len(ts), n_segments + 1).astype(int)
    pieces = []
    for i in range(n_segments):
        lo, hi = bounds[i], bounds[i + 1]
        pieces.append(TimeSeries(
            times=ts.times[lo:hi], values=ts.values[lo:hi],
            name=f"{ts.name}.seg{i}", units=ts.units,
        ))
    return pieces
