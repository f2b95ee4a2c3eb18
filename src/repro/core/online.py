"""Streaming (online) aging monitor.

The offline pipeline (:mod:`repro.core.pipeline`) analyses a completed
trace.  Production monitoring needs the same decision *as samples
arrive*; :class:`OnlineAgingMonitor` provides it:

* counter samples are pushed one at a time (:meth:`update`) or in runs
  (:meth:`update_many`);
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
default settings.  Memory is fixed: samples live in a numpy ring of
``history + chunk_size`` values, and only the newest
:data:`INDICATOR_POINTS_KEPT` indicator points are kept, so a monitor
that runs as long as its host does not grow.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .._validation import check_choice, check_positive_int
from ..exceptions import AnalysisError
from ..obs import get_logger
from ..obs import session as _obs
from ..stats.changepoint import CusumDetector
from .holder import _scale_band, holder_tail

_log = get_logger("core.online")

#: Indicator points a monitor keeps for diagnostics (more when
#: ``n_warmup + n_calibration`` is larger: calibration reads them all).
INDICATOR_POINTS_KEPT = 1024


def _checked_batch(times, values,
                   after: Optional[float]) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, values)`` as float arrays, or :class:`AnalysisError`
    unless both are 1-D and equally long, finite, and strictly increasing
    in time, all after ``after`` (None: no sample taken yet)."""
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
        return t, v
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise AnalysisError(
            "samples must be finite; drop or impute collector gaps "
            "before feeding the monitor"
        )
    if after is not None and t[0] <= after:
        raise AnalysisError(
            f"samples must arrive in strict time order ({t[0]} after {after})")
    if t.size > 1:
        late = np.flatnonzero(t[1:] <= t[:-1])
        if late.size:
            i = int(late[0])
            raise AnalysisError(f"samples must arrive in strict time order "
                                f"({t[i + 1]} after {t[i]})")
    return t, v


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
        check_positive_int(band.arguments["dog_order"], name="dog_order")
        # The Hölder estimator needs max_scale <= history / 4.
        if self.history < 4 * max_scale:
            raise AnalysisError(
                f"history ({self.history}) is shorter than the wavelet "
                f"support: need at least 4 * max_scale = {4 * max_scale:.0f} "
                f"samples"
            )
        # The newest samples are ring[end - history:end] (fewer while
        # filling); _append moves them to the front when the ring is full.
        self._ring = np.empty(self.history + self.chunk_size)
        self._end = 0
        self._last_time: Optional[float] = None
        self._n_samples = 0
        self._since_recompute = 0
        kept = max(INDICATOR_POINTS_KEPT, self.n_warmup + self.n_calibration)
        self._indicator_points: deque = deque(maxlen=kept)
        self._indicator_times: deque = deque(maxlen=kept)
        self._n_indicators = 0
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
        if self._n_indicators:
            return "calibrating"
        return "buffering"

    @property
    def n_samples(self) -> int:
        """Counter samples consumed so far."""
        return self._n_samples

    @property
    def n_indicators(self) -> int:
        """Indicator points produced so far."""
        return self._n_indicators

    @property
    def samples_to_emit(self) -> int:
        """Samples to push until the next indicator point, counting the
        sample that produces it."""
        # An emit needs both a full chunk stride and a full history, so
        # the later of the two binds (>= 1 keeps degenerate configs
        # moving).
        return max(self.chunk_size - self._since_recompute,
                   self.history - self._n_samples, 1)

    @property
    def indicator_history(self) -> np.ndarray:
        """The newest indicator points, oldest first (diagnostics).

        Every point produced so far while there are at most
        :data:`INDICATOR_POINTS_KEPT` (or ``n_warmup + n_calibration``,
        if larger); only that many of the newest afterwards.
        """
        return np.asarray(self._indicator_points, dtype=float)

    @property
    def indicator_times(self) -> np.ndarray:
        """Sample times of :attr:`indicator_history` (diagnostics)."""
        return np.asarray(self._indicator_times, dtype=float)

    @property
    def baseline_mean(self) -> float:
        """Calibrated baseline mean (NaN before calibration)."""
        return self._baseline_mean

    # -- feeding ---------------------------------------------------------------

    def check_batch(self, times, values) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` as float arrays if :meth:`update_many`
        would take them next; raises :class:`AnalysisError` otherwise.

        A batch must be 1-D, equally long, finite, and strictly
        increasing in time after the newest sample taken so far.  Nothing
        is consumed.
        """
        return _checked_batch(times, values, self._last_time)

    def update(self, time: float, value: float) -> bool:
        """Push one counter sample; returns True when the alarm is up."""
        t, v = _checked_batch((time,), (value,), self._last_time)
        before = self.state
        self._append(t, v)
        if (self._since_recompute >= self.chunk_size
                and self._n_samples >= self.history):
            self._since_recompute = 0
            self._emit_indicator_point()
        after = self.state
        if after != before and self.on_state_change is not None:
            self.on_state_change(self._last_time, before, after)
        return self.alarmed

    def update_many(self, times, values) -> bool:
        """Push a batch of samples; returns True when the alarm is up.

        Equivalent to calling :meth:`update` per sample — identical
        indicator points, state transitions and callback invocations at
        the same sample times.  The samples between two indicator points
        are appended in bulk; each sample that produces a point goes
        through :meth:`update`, the one place points are emitted and
        state changes fire.  Unlike the per-sample path, an invalid batch
        (see :meth:`check_batch`) is rejected *whole*, before anything
        is consumed.
        """
        t, v = self.check_batch(times, values)
        return self._update_checked(t, v)

    def _update_checked(self, t: np.ndarray, v: np.ndarray) -> bool:
        """:meth:`update_many` on a batch that :meth:`check_batch` has
        already returned (a caller that validated a longer run once hands
        its pieces here)."""
        i, n = 0, int(t.size)
        while i < n:
            k = self.samples_to_emit
            if k > n - i:
                self._append(t[i:], v[i:])
                break
            if k > 1:
                self._append(t[i:i + k - 1], v[i:i + k - 1])
            i += k
            self.update(t[i - 1], v[i - 1])
        return self.alarmed

    # -- internals ---------------------------------------------------------------

    def _append(self, t: np.ndarray, v: np.ndarray) -> None:
        """Take validated samples that produce no indicator point."""
        ring, end, k = self._ring, self._end, int(v.size)
        if end + k > ring.size:
            # Move the newest history - k held samples to the front: with
            # the k new ones they make up the next window.
            keep = max(min(end, self.history - k), 0)
            ring[:keep] = ring[end - keep:end]
            end = keep
            if k > self.history:
                v = v[-self.history:]
        ring[end:end + v.size] = v
        self._end = end + v.size
        self._n_samples += k
        self._since_recompute += k
        self._last_time = float(t[-1])

    def _emit_indicator_point(self) -> None:
        window = self._ring[self._end - self.history:self._end]
        recent = holder_tail(window, self.indicator_window,
                             **self.holder_kwargs)
        point = float(np.mean(recent)) if self.indicator == "mean" \
            else float(np.var(recent))
        time = self._last_time
        self._n_indicators += 1
        self._indicator_points.append(point)
        self._indicator_times.append(time)
        _obs.counter("online.indicator_points").inc()
        if self.on_indicator is not None:
            self.on_indicator(time, point)

        usable = self._n_indicators - self.n_warmup
        if usable == self.n_calibration and self._detectors is None:
            self._calibrate()
            _log.debug("online monitor calibrated",
                       baseline_mean=self._baseline_mean,
                       sim_time=time)
            return
        if self._detectors is None or self.alarmed:
            return
        # Two-sided: one CUSUM on the point, one on its mirror image.
        for detector, signed in zip(self._detectors, (1.0, -1.0)):
            monitored = self._baseline_mean + signed * (point - self._baseline_mean)
            if detector.update(monitored):
                self._alarm_time = time
                _log.info("online alarm", sim_time=self._alarm_time,
                          indicator=self.indicator, point=point,
                          baseline_mean=self._baseline_mean)
                _obs.counter("online.alarms").inc()
                _obs.record_event("online_alarm", sim_time=self._alarm_time,
                                  indicator=self.indicator, point=point)
                return

    def _calibrate(self) -> None:
        # The kept points are every point so far: calibration runs at
        # point n_warmup + n_calibration, within INDICATOR_POINTS_KEPT.
        baseline = np.asarray(self._indicator_points)[self.n_warmup:]
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
