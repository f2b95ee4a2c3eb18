"""Trend-extrapolation exhaustion prediction (Vaidyanathan & Trivedi 1998).

The classical measurement-based rejuvenation trigger: a depleting
resource (here `Available Bytes`, which trends downward as leaks
accumulate) is fitted with a robust slope over a sliding history window;
the zero-crossing of the fitted line predicts the exhaustion time; the
detector alarms when that prediction comes within ``horizon`` seconds of
now *and* the trend is statistically significant (Mann–Kendall).

This is the baseline the multifractal detector is compared against in
experiment T4.  Its known weaknesses — which the comparison surfaces —
are (a) bursty counters give noisy slopes, so predictions whipsaw, and
(b) trim/thrash dynamics near death *raise* AvailableBytes transiently,
stalling the extrapolation exactly when it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import check_in_range, check_positive, check_positive_int
from ..exceptions import AnalysisError
from ..stats.trend import mann_kendall, sen_slope
from ..trace.series import TimeSeries


@dataclass(frozen=True)
class TrendAlarm:
    """Outcome of the trend detector over one counter series.

    Attributes
    ----------
    alarm_time:
        First time the predicted exhaustion came within the horizon
        (None when it never did).
    predicted_exhaustion:
        The exhaustion-time prediction made at the alarm (None without
        an alarm).
    slope_at_alarm:
        Sen slope (units/second) at the alarm.
    source_name:
        The analysed counter.
    """

    alarm_time: Optional[float]
    predicted_exhaustion: Optional[float]
    slope_at_alarm: float
    source_name: str

    @property
    def fired(self) -> bool:
        """True when an alarm was raised."""
        return self.alarm_time is not None


def _sen_extrapolation(
    times: np.ndarray, values: np.ndarray, floor: float,
) -> Optional[tuple[float, float]]:
    """``(exhaustion_time, slope)``: a Sen-slope fit through the medians,
    extrapolated to ``floor``; None when the slope is non-negative."""
    slope = sen_slope(times, values)
    if slope >= 0:
        return None
    level = float(np.median(values))
    anchor = float(np.median(times))
    return anchor + (floor - level) / slope, slope


@dataclass
class TrendExhaustionDetector:
    """Sliding-window Sen-slope exhaustion predictor.

    Parameters
    ----------
    window_seconds:
        History length used for each prediction.
    step_seconds:
        How often a new prediction is made.
    horizon_seconds:
        Alarm when predicted time-to-exhaustion falls below this.
    floor:
        Counter level considered "exhausted" (0 for AvailableBytes).
    alpha:
        Mann–Kendall significance level required of the trend.
    min_samples:
        Minimum samples per window.
    """

    window_seconds: float = 3600.0
    step_seconds: float = 300.0
    horizon_seconds: float = 7200.0
    floor: float = 0.0
    alpha: float = 0.05
    min_samples: int = 64

    def __post_init__(self) -> None:
        check_positive(self.window_seconds, name="window_seconds")
        check_positive(self.step_seconds, name="step_seconds")
        check_positive(self.horizon_seconds, name="horizon_seconds")
        check_in_range(self.alpha, name="alpha", low=0.0, high=1.0,
                       inclusive_low=False, inclusive_high=False)
        check_positive_int(self.min_samples, name="min_samples", minimum=8)
        self._memo = None

    def run(self, ts: TimeSeries) -> TrendAlarm:
        """Scan the series; return the first within-horizon prediction."""
        for now, fit in self._scan(ts):
            if fit is not None:
                exhaustion, slope = fit
                if exhaustion - now <= self.horizon_seconds:
                    return TrendAlarm(
                        alarm_time=now,
                        predicted_exhaustion=exhaustion,
                        slope_at_alarm=slope,
                        source_name=ts.name,
                    )
        return TrendAlarm(
            alarm_time=None, predicted_exhaustion=None,
            slope_at_alarm=float("nan"), source_name=ts.name,
        )

    def decision_scores(self, ts: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        """Per-prediction urgency score along the same scan :meth:`run` does.

        At each prediction step the score is ``horizon_seconds /
        (exhaustion - now)`` when the trend is significantly decreasing
        and the extrapolation predicts future exhaustion (0 otherwise, and
        capped at 1e6 when the prediction is already past) — so the
        configured alarm sits at score 1.  It reads the same window fits
        as :meth:`run`, so calling both on one series fits each window
        once.
        """
        out_t: list[float] = []
        out_s: list[float] = []
        for now, fit in self._scan(ts):
            score = 0.0
            if fit is not None:
                remaining = fit[0] - now
                score = (1e6 if remaining <= 0
                         else min(self.horizon_seconds / remaining, 1e6))
            out_t.append(now)
            out_s.append(score)
        return np.asarray(out_t), np.asarray(out_s)

    def _scan(self, ts: TimeSeries):
        """Yield ``(now, fit)`` at every prediction step; ``fit`` is
        :meth:`_predict`'s result, None for windows short of
        ``min_samples``.

        Fits are made lazily and kept for the last series scanned (``ts``
        is immutable), so a second scan of it replays them, and an early
        stop in :meth:`run` fits no window past the alarm.  A window
        whose fit raises is not kept, so every later scan raises again.
        """
        params = (self.window_seconds, self.step_seconds, self.floor,
                  self.alpha, self.min_samples)
        if (self._memo is None or self._memo[0] is not ts
                or self._memo[1] != params):
            clean = ts.dropna()
            if len(clean) < self.min_samples:
                raise AnalysisError(
                    f"series {ts.name!r} has {len(clean)} samples; "
                    f"need >= {self.min_samples}"
                )
            self._memo = (ts, params, clean, [])
        __, __, clean, done = self._memo
        yield from done
        now = (done[-1][0] + self.step_seconds if done
               else clean.times[0] + self.window_seconds)
        t_end = clean.times[-1]
        while now <= t_end:
            window = clean.slice_time(now - self.window_seconds, now + 1e-9)
            done.append((now, self._predict(window)
                         if len(window) >= self.min_samples else None))
            yield done[-1]
            now += self.step_seconds

    def _predict(self, window: TimeSeries) -> Optional[tuple[float, float]]:
        """``(exhaustion_time, slope)`` when the window's trend is
        significantly decreasing (Mann–Kendall) and extrapolates to the
        floor; None otherwise."""
        if mann_kendall(window.values, alpha=self.alpha).trend != "decreasing":
            return None
        return _sen_extrapolation(window.times, window.values, self.floor)
