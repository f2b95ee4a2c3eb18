"""Streaming (online) aging monitor.

The offline pipeline (:mod:`repro.core.pipeline`) analyses a completed
trace.  Production monitoring needs the same decision *as samples
arrive*; :class:`OnlineAgingMonitor` provides it:

* counter samples are pushed one at a time (:meth:`update`);
* every ``chunk_size`` samples, the newest ``indicator_window`` local
  Hölder exponents of the trailing ``history`` samples are computed with
  :func:`~repro.core.holder.holder_tail` (which transforms only the
  wavelet support those exponents need) and summarised into one
  indicator point (mean or variance of h);
* the first ``n_calibration`` indicator points — after ``n_warmup``
  discarded ones — calibrate the baseline; thereafter each point feeds
  a two-sided CUSUM, and the first excursion raises the alarm.

The recompute-on-chunk design keeps the amortised cost per sample at
``O(segment / chunk_size)`` wavelet work, a few microseconds at the
default settings.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .._validation import check_choice, check_positive_int
from ..exceptions import AnalysisError
from ..obs import get_logger
from ..obs import session as _obs
from ..stats.changepoint import CusumDetector
from .holder import _scale_band, holder_tail

_log = get_logger("core.online")


@dataclass
class OnlineAgingMonitor:
    """Push-based aging monitor over one performance counter.

    Parameters
    ----------
    chunk_size:
        Samples between successive Hölder recomputations (also the
        spacing of indicator points, so points are near-independent).
    history:
        Trailing samples the Hölder estimator sees each recomputation.
    indicator_window:
        Newest Hölder values summarised into each indicator point.
    indicator:
        ``"mean"`` or ``"variance"`` of the windowed Hölder values.
    n_warmup:
        Leading indicator points discarded (startup transient).
    n_calibration:
        Indicator points forming the healthy baseline.
    cusum_k, cusum_h:
        CUSUM allowance and decision threshold, in baseline sigmas.
    holder_kwargs:
        Extra arguments for :func:`repro.core.holder.holder_tail` (the
        scale band and wavelet of
        :func:`~repro.core.holder.wavelet_holder`).
    on_indicator:
        Optional callback ``(time, value)`` invoked for every indicator
        point (live watchers stream these).
    on_state_change:
        Optional callback ``(time, old_state, new_state)`` invoked on
        every :attr:`state` transition.
    """

    chunk_size: int = 256
    history: int = 4096
    indicator_window: int = 512
    indicator: str = "mean"
    n_warmup: int = 2
    n_calibration: int = 12
    cusum_k: float = 1.5
    cusum_h: float = 8.0
    holder_kwargs: dict = field(default_factory=dict)
    on_indicator: Optional[Callable[[float, float], None]] = None
    on_state_change: Optional[Callable[[float, str, str], None]] = None

    def __post_init__(self) -> None:
        check_positive_int(self.chunk_size, name="chunk_size", minimum=16)
        check_positive_int(self.history, name="history", minimum=256)
        check_positive_int(self.indicator_window, name="indicator_window", minimum=16)
        check_choice(self.indicator, name="indicator", choices=("mean", "variance"))
        check_positive_int(self.n_calibration, name="n_calibration", minimum=4)
        if self.indicator_window > self.history:
            raise AnalysisError("indicator_window cannot exceed history")
        # Bad Hölder arguments fail construction instead of the first
        # recomputation, thousands of samples into a live run.
        try:
            band = inspect.signature(holder_tail).bind(
                None, self.indicator_window, **self.holder_kwargs)
        except TypeError as exc:
            raise AnalysisError(
                f"holder_kwargs not supported by holder_tail: {exc}") from exc
        band.apply_defaults()
        max_scale = float(band.arguments["max_scale"])
        _scale_band(band.arguments["min_scale"], max_scale,
                    band.arguments["n_scales"])
        # The Hölder estimator needs max_scale <= history / 4.
        if self.history < 4 * max_scale:
            raise AnalysisError(
                f"history ({self.history}) is shorter than the wavelet "
                f"support: need at least 4 * max_scale = {4 * max_scale:.0f} "
                f"samples"
            )
        self._times: List[float] = []
        self._values: List[float] = []
        self._since_recompute = 0
        self._indicator_points: List[float] = []
        self._indicator_times: List[float] = []
        self._detectors: Optional[List[CusumDetector]] = None
        self._baseline_mean = float("nan")
        self._alarm_time: Optional[float] = None

    # -- state ---------------------------------------------------------------

    @property
    def alarm_time(self) -> Optional[float]:
        """First alarm time, or None while quiet."""
        return self._alarm_time

    @property
    def alarmed(self) -> bool:
        """True once the alarm has fired (latched)."""
        return self._alarm_time is not None

    @property
    def calibrated(self) -> bool:
        """True once the baseline has been established."""
        return self._detectors is not None

    @property
    def state(self) -> str:
        """Detector lifecycle state.

        ``"buffering"`` (filling the first history window, no indicator
        points yet) → ``"calibrating"`` (accumulating baseline points) →
        ``"watching"`` (armed) → ``"alarmed"`` (latched).
        """
        if self.alarmed:
            return "alarmed"
        if self.calibrated:
            return "watching"
        if self._indicator_points:
            return "calibrating"
        return "buffering"

    @property
    def n_samples(self) -> int:
        """Counter samples consumed so far."""
        return len(self._values)

    @property
    def indicator_history(self) -> np.ndarray:
        """All indicator points produced so far (diagnostics)."""
        return np.asarray(self._indicator_points)

    @property
    def indicator_times(self) -> np.ndarray:
        """Sample times of the indicator points (diagnostics)."""
        return np.asarray(self._indicator_times)

    @property
    def baseline_mean(self) -> float:
        """Calibrated baseline mean (NaN before calibration)."""
        return self._baseline_mean

    # -- feeding ---------------------------------------------------------------

    def update(self, time: float, value: float) -> bool:
        """Push one counter sample; returns True when the alarm is up."""
        time = float(time)
        value = float(value)
        if not math.isfinite(time) or not math.isfinite(value):
            raise AnalysisError(
                f"samples must be finite (got t={time}, value={value}); "
                "drop or impute collector gaps before feeding the monitor"
            )
        if self._times and time <= self._times[-1]:
            raise AnalysisError(
                f"samples must arrive in time order ({time} after {self._times[-1]})"
            )
        before = self.state
        self._times.append(time)
        self._values.append(value)
        self._since_recompute += 1
        if (self._since_recompute >= self.chunk_size
                and len(self._values) >= self.history):
            self._since_recompute = 0
            self._emit_indicator_point()
        after = self.state
        if after != before and self.on_state_change is not None:
            self.on_state_change(time, before, after)
        return self.alarmed

    def update_many(self, times, values) -> bool:
        """Push a batch of samples; returns True when the alarm is up.

        Equivalent to calling :meth:`update` per sample — identical
        indicator points, state transitions and callback invocations at
        the same sample times — but validated with one vectorised pass
        and appended in bulk, advancing straight from one emit boundary
        to the next.  Unlike the per-sample path, an invalid batch
        (non-finite or out-of-order samples) is rejected *whole*, before
        anything is consumed.
        """
        if not hasattr(times, "__len__"):
            times = list(times)
        if not hasattr(values, "__len__"):
            values = list(values)
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise AnalysisError(
                f"times and values must be 1-D and equally long "
                f"(got {t.shape} and {v.shape})"
            )
        if t.size == 0:
            return self.alarmed
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise AnalysisError(
                "samples must be finite; drop or impute collector gaps "
                "before feeding the monitor"
            )
        if (self._times and t[0] <= self._times[-1]) \
                or np.any(np.diff(t) <= 0):
            raise AnalysisError("samples must arrive in strict time order")

        i = 0
        n = int(t.size)
        while i < n:
            # Samples until the next possible emit: the chunk stride and
            # the history fill must *both* be satisfied, so the binding
            # constraint is their max (>= 1 keeps degenerate configs
            # moving).  This reproduces the per-sample emit positions
            # exactly.
            need = max(self.chunk_size - self._since_recompute,
                       self.history - len(self._values), 1)
            take = min(need, n - i)
            before = self.state
            self._times.extend(t[i:i + take].tolist())
            self._values.extend(v[i:i + take].tolist())
            self._since_recompute += take
            if (self._since_recompute >= self.chunk_size
                    and len(self._values) >= self.history):
                self._since_recompute = 0
                self._emit_indicator_point()
            after = self.state
            if after != before and self.on_state_change is not None:
                self.on_state_change(float(t[i + take - 1]), before, after)
            i += take
        return self.alarmed

    # -- internals ---------------------------------------------------------------

    def _emit_indicator_point(self) -> None:
        window = np.asarray(self._values[-self.history:])
        recent = holder_tail(window, self.indicator_window,
                             **self.holder_kwargs)
        point = float(np.mean(recent)) if self.indicator == "mean" \
            else float(np.var(recent))
        self._indicator_points.append(point)
        self._indicator_times.append(self._times[-1])
        _obs.counter("online.indicator_points").inc()
        if self.on_indicator is not None:
            self.on_indicator(self._times[-1], point)

        usable = len(self._indicator_points) - self.n_warmup
        if usable == self.n_calibration and self._detectors is None:
            self._calibrate()
            _log.debug("online monitor calibrated",
                       baseline_mean=self._baseline_mean,
                       sim_time=self._indicator_times[-1])
            return
        if self._detectors is None or self.alarmed:
            return
        # Two-sided: one CUSUM on the point, one on its mirror image.
        for detector, signed in zip(self._detectors, (1.0, -1.0)):
            monitored = self._baseline_mean + signed * (point - self._baseline_mean)
            if detector.update(monitored):
                self._alarm_time = self._indicator_times[-1]
                _log.info("online alarm", sim_time=self._alarm_time,
                          indicator=self.indicator, point=point,
                          baseline_mean=self._baseline_mean)
                _obs.counter("online.alarms").inc()
                _obs.record_event("online_alarm", sim_time=self._alarm_time,
                                  indicator=self.indicator, point=point)
                return

    def _calibrate(self) -> None:
        baseline = np.asarray(self._indicator_points[self.n_warmup:])
        mean = float(np.mean(baseline))
        std = float(np.std(baseline, ddof=1))
        if std == 0:
            std = max(abs(mean) * 1e-6, 1e-12)
        self._baseline_mean = mean
        detectors = []
        for _ in range(2):
            det = CusumDetector(k=self.cusum_k, h=self.cusum_h)
            det.calibrate_from_moments(mean, std)
            detectors.append(det)
        self._detectors = detectors
