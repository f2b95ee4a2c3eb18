"""Crash-warning detectors on aging-indicator series.

The detection protocol follows the paper's operational story: a machine
runs, the analyst watches the windowed Hölder variance, and raises a
warning when it departs from the level established while the system was
healthy.  Concretely:

1. **Calibrate** on the first ``calibration_fraction`` of the indicator
   series (the system is assumed healthy at the start of a run).
2. **Monitor** the remainder with one of three schemes:
   ``"threshold"`` (fixed multiple of the calibration level), ``"cusum"``
   or ``"ewma"`` (the control charts from :mod:`repro.stats.changepoint`).
3. The first alarm time is the **warning**; the lead time is the crash
   time minus the warning time.

:func:`detect_fractal_collapse` is the one-call wrapper; the
:class:`HolderVarianceDetector` object form keeps the calibration around
for inspection and reuse across counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._validation import check_choice, check_in_range, check_positive
from ..exceptions import AnalysisError
from ..stats.changepoint import CusumDetector, EwmaDetector
from .indicators import IndicatorSeries


@dataclass(frozen=True)
class DetectorConfig:
    """Detector knobs.

    Attributes
    ----------
    scheme:
        ``"threshold"``, ``"cusum"`` or ``"ewma"``.
    direction:
        ``"up"``, ``"down"`` or ``"both"`` (default): which way the
        indicator must move to count as an alarm.  Aging lowers the mean
        Hölder exponent but raises its variance, so the combined default
        watches both sides.
    warmup_fraction:
        Leading fraction of the indicator series discarded entirely:
        freshly booted systems show a startup transient (memory filling,
        caches warming) that is neither healthy baseline nor aging.
    robust_calibration:
        Estimate the baseline level/scale with median and MAD instead of
        mean and standard deviation; resists the occasional spikes the
        variance indicator produces even in health.
    calibration_fraction:
        Fraction of the indicator series (after warmup) treated as the
        healthy baseline.
    threshold_multiplier:
        For the threshold scheme: alarm when the indicator exceeds
        ``baseline_mean + threshold_multiplier * baseline_std``.
    cusum_k, cusum_h:
        CUSUM allowance and decision interval (in baseline sigmas).
    ewma_lambda, ewma_L:
        EWMA smoothing factor and control-limit width.
    min_consecutive:
        Threshold scheme only: require this many consecutive exceedances
        before alarming (debounces single-sample spikes).
    """

    scheme: str = "cusum"
    direction: str = "both"
    warmup_fraction: float = 0.05
    robust_calibration: bool = False
    calibration_fraction: float = 0.3
    threshold_multiplier: float = 4.0
    cusum_k: float = 1.5
    cusum_h: float = 8.0
    ewma_lambda: float = 0.2
    ewma_L: float = 5.0
    min_consecutive: int = 5

    def __post_init__(self) -> None:
        check_choice(self.scheme, name="scheme", choices=("threshold", "cusum", "ewma"))
        check_choice(self.direction, name="direction", choices=("up", "down", "both"))
        check_in_range(self.warmup_fraction, name="warmup_fraction", low=0.0, high=0.5)
        check_in_range(self.calibration_fraction, name="calibration_fraction",
                       low=0.02, high=0.8)
        check_positive(self.threshold_multiplier, name="threshold_multiplier")
        check_positive(self.cusum_h, name="cusum_h")
        check_positive(self.ewma_L, name="ewma_L")


@dataclass(frozen=True)
class AgingAlarm:
    """Outcome of running a detector over one indicator series.

    Attributes
    ----------
    alarm_time:
        First warning time (seconds), or None if no alarm fired.
    calibration_end_time:
        Time at which calibration ended and monitoring began.
    baseline_mean, baseline_std:
        The healthy-level statistics used for the decision.
    statistic_at_alarm:
        The indicator value at the alarm sample (NaN when no alarm).
    scheme:
        Which monitoring scheme fired.
    source_name:
        Counter whose indicator was monitored.
    """

    alarm_time: Optional[float]
    calibration_end_time: float
    baseline_mean: float
    baseline_std: float
    statistic_at_alarm: float
    scheme: str
    source_name: str

    @property
    def fired(self) -> bool:
        """True when a warning was raised."""
        return self.alarm_time is not None

    def lead_time(self, crash_time: float) -> Optional[float]:
        """Crash time minus alarm time; None when no alarm fired."""
        if self.alarm_time is None:
            return None
        return float(crash_time) - float(self.alarm_time)


@dataclass
class HolderVarianceDetector:
    """Calibrate-then-monitor detector over an indicator series."""

    config: DetectorConfig = field(default_factory=DetectorConfig)

    def _prepare(self, indicator: IndicatorSeries):
        """Shared warmup/decimation/calibration for run() and
        decision_scores(); returns ``(times, values, n_cal, mean, std)``."""
        series = indicator.series
        if self.config.scheme != "threshold":
            # Decimate toward independent samples, but never below ~50
            # monitoring decisions per run — with very long windows full
            # decorrelation would leave too few points to detect anything.
            stride = min(indicator.decorrelation_stride,
                         max(1, series.values.size // 50))
        else:
            stride = 1
        n_warm = int(np.floor(series.values.size * self.config.warmup_fraction))
        values = series.values[n_warm:][::stride]
        times = series.times[n_warm:][::stride]
        n = values.size
        n_cal = int(np.floor(n * self.config.calibration_fraction))
        if n_cal < 8:
            raise AnalysisError(
                f"calibration window has only {n_cal} samples; need >= 8 "
                "(indicator series too short or calibration_fraction too small)"
            )
        baseline = values[:n_cal]
        if self.config.robust_calibration:
            mean = float(np.median(baseline))
            mad = float(np.median(np.abs(baseline - mean)))
            std = 1.4826 * mad  # consistent scale estimate under normality
        else:
            mean = float(np.mean(baseline))
            std = float(np.std(baseline, ddof=1))
        if std == 0:
            # A perfectly constant baseline makes every scheme degenerate;
            # use a tiny floor so a later change still alarms.
            std = max(abs(mean) * 1e-6, 1e-12)
        return times, values, n_cal, mean, std

    def run(self, indicator: IndicatorSeries) -> AgingAlarm:
        """Calibrate on the head of the series, monitor the tail.

        Consecutive indicator samples from overlapping windows are
        heavily autocorrelated, which would let the accumulating schemes
        (CUSUM/EWMA) count one excursion many times over.  Those schemes
        therefore monitor the series decimated to one sample per
        ``indicator.decorrelation_stride``; the level-based threshold
        scheme keeps the full rate.
        """
        times, values, n_cal, mean, std = self._prepare(indicator)
        monitored = values[n_cal:]
        mon_times = times[n_cal:]

        # Directional handling: every scheme is built one-sided (upward).
        # A downward watch runs the same scheme on the series mirrored
        # about the baseline mean; "both" runs both and takes the earlier
        # alarm.  Aging can push an indicator either way (roughening
        # lowers the mean Hölder exponent, destabilisation raises its
        # variance), so "both" is the safe default.
        scheme = self.config.scheme
        candidates = []
        directions = ("up", "down") if self.config.direction == "both" \
            else (self.config.direction,)
        for direction in directions:
            data = monitored if direction == "up" else 2.0 * mean - monitored
            if scheme == "threshold":
                alarm, stat = self._run_threshold(mon_times, data, mean, std)
            elif scheme == "cusum":
                det = CusumDetector(k=self.config.cusum_k, h=self.config.cusum_h)
                det.calibrate_from_moments(mean, std)
                alarm, stat = _stream(det, mon_times, data)
            else:
                det = EwmaDetector(lam=self.config.ewma_lambda, L=self.config.ewma_L)
                det.calibrate_from_moments(mean, std)
                alarm, stat = _stream(det, mon_times, data)
            if alarm is not None and direction == "down":
                stat = 2.0 * mean - stat  # report the original-scale value
            candidates.append((alarm, stat))
        fired = [(a, s) for a, s in candidates if a is not None]
        if fired:
            alarm_time, stat = min(fired, key=lambda pair: pair[0])
        else:
            alarm_time, stat = None, float("nan")

        return AgingAlarm(
            alarm_time=alarm_time,
            calibration_end_time=float(times[n_cal - 1]),
            baseline_mean=mean,
            baseline_std=std,
            statistic_at_alarm=stat,
            scheme=scheme,
            source_name=indicator.source_name,
        )

    def decision_scores(self, indicator: IndicatorSeries) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample decision statistic over the monitored segment.

        Returns ``(times, scores)`` for the same monitored samples
        :meth:`run` inspects, with the score expressed in the scheme's
        own alarm units so a threshold sweep is meaningful:

        * ``threshold`` — baseline z-score; the configured alarm sits at
          ``threshold_multiplier`` (consecutive-sample debouncing is an
          alarm-path nicety, not part of the statistic).
        * ``cusum`` — the accumulated statistic ``g_t`` (alarm at
          ``cusum_h``), run over the full segment without the alarm
          latch.
        * ``ewma`` — the smoothed deviation in steady-state EWMA sigmas
          (alarm at ``ewma_L``).

        For ``direction="both"`` the score is the pointwise max of the
        upward and mirrored-downward statistics.  This is a pure
        observation: it never feeds back into :meth:`run`, whose alarms
        stay bit-identical whether or not scores are collected.
        """
        times, values, n_cal, mean, std = self._prepare(indicator)
        monitored = values[n_cal:]
        mon_times = times[n_cal:]
        directions = ("up", "down") if self.config.direction == "both" \
            else (self.config.direction,)
        per_direction = []
        for direction in directions:
            data = monitored if direction == "up" else 2.0 * mean - monitored
            z = (data - mean) / std
            if self.config.scheme == "threshold":
                scores = z
            elif self.config.scheme == "cusum":
                scores = np.empty_like(z)
                g = 0.0
                for i, zi in enumerate(z):
                    g = max(0.0, g + zi - self.config.cusum_k)
                    scores[i] = g
            else:  # ewma
                lam = self.config.ewma_lambda
                sigma_z = std * np.sqrt(lam / (2.0 - lam))
                scores = np.empty_like(z)
                smoothed = mean
                for i, x in enumerate(data):
                    smoothed = (1.0 - lam) * smoothed + lam * float(x)
                    scores[i] = (smoothed - mean) / sigma_z
            per_direction.append(scores)
        combined = per_direction[0] if len(per_direction) == 1 \
            else np.maximum(per_direction[0], per_direction[1])
        return mon_times, combined

    def _run_threshold(
        self, times: np.ndarray, values: np.ndarray, mean: float, std: float,
    ) -> tuple[Optional[float], float]:
        """Fixed-threshold monitoring with consecutive-sample debouncing."""
        limit = mean + self.config.threshold_multiplier * std
        above = values > limit
        needed = self.config.min_consecutive
        run_length = 0
        for i, flag in enumerate(above):
            run_length = run_length + 1 if flag else 0
            if run_length >= needed:
                return float(times[i]), float(values[i])
        return None, float("nan")


def _stream(detector, times: np.ndarray, values: np.ndarray) -> tuple[Optional[float], float]:
    """Feed a calibrated control chart; return (first alarm time, stat)."""
    for t, v in zip(times, values):
        if detector.update(v):
            return float(t), float(v)
    return None, float("nan")


def detect_fractal_collapse(
    indicator: IndicatorSeries,
    *,
    config: DetectorConfig | None = None,
) -> AgingAlarm:
    """One-call wrapper: run the configured detector over an indicator."""
    detector = HolderVarianceDetector(config=config or DetectorConfig())
    return detector.run(indicator)
