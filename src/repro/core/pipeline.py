"""End-to-end aging analysis: trace in, warnings out.

``analyze_counter`` runs the full chain on one performance counter:

    fill gaps -> resample -> Hölder trajectory -> windowed variance
    indicator -> calibrated detector -> alarm

``analyze_run`` applies it to every requested counter of a
:class:`~repro.trace.series.TraceBundle` and combines the per-counter
alarms (the run-level warning is the earliest counter alarm, mirroring
the paper's practice of monitoring several memory counters at once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .._validation import check_positive_int
from ..exceptions import AnalysisError
from ..obs import get_logger
from ..obs import session as _obs
from ..trace.series import TimeSeries, TraceBundle
from ..trace.preprocess import fill_gaps, resample_uniform
from .holder import HolderTrajectory, holder_trajectory
from .indicators import IndicatorSeries, holder_mean_series, holder_variance_series
from .detectors import AgingAlarm, DetectorConfig, HolderVarianceDetector

_log = get_logger("core.pipeline")


@dataclass(frozen=True)
class AgingAnalysis:
    """Full analysis artefacts for one counter.

    Attributes
    ----------
    counter:
        The preprocessed (gap-free, uniform) series that was analysed.
    trajectory:
        Pointwise Hölder exponents.
    indicator:
        The windowed-variance indicator series.
    alarm:
        Detector outcome.
    """

    counter: TimeSeries
    trajectory: HolderTrajectory
    indicator: IndicatorSeries
    alarm: AgingAlarm


@dataclass
class AgingReport:
    """Run-level report: one analysis per counter plus the combined alarm."""

    analyses: Dict[str, AgingAnalysis] = field(default_factory=dict)
    crash_time: Optional[float] = None

    @property
    def first_alarm_time(self) -> Optional[float]:
        """Earliest alarm across counters, or None when nothing fired."""
        times = [
            a.alarm.alarm_time for a in self.analyses.values() if a.alarm.fired
        ]
        return min(times) if times else None

    @property
    def alarmed_counters(self) -> list[str]:
        """Names of counters whose detector fired, in alarm-time order."""
        fired = [
            (a.alarm.alarm_time, name)
            for name, a in self.analyses.items()
            if a.alarm.fired
        ]
        return [name for _, name in sorted(fired)]

    def lead_time(self) -> Optional[float]:
        """Crash time minus first alarm; None without both."""
        if self.crash_time is None or self.first_alarm_time is None:
            return None
        return float(self.crash_time) - float(self.first_alarm_time)


def analyze_counter(
    ts: TimeSeries,
    *,
    holder_method: str = "wavelet",
    holder_kwargs: Optional[dict] = None,
    indicator: str = "mean",
    indicator_window: int = 512,
    indicator_step: int = 8,
    detector_config: Optional[DetectorConfig] = None,
) -> AgingAnalysis:
    """Run the full aging-analysis chain on one counter series.

    Parameters
    ----------
    ts:
        The raw counter (gaps and slight sampling jitter are handled).
    holder_method:
        ``"wavelet"`` or ``"oscillation"``.
    holder_kwargs:
        Extra arguments for the Hölder estimator (scales, radii, ...).
    indicator:
        Which Hölder moment to monitor: ``"mean"`` (default — on the
        simulator substrate the first moment of h(t) carries the
        cleanest aging signature, declining as paging roughens the
        counters) or ``"variance"`` (the paper's original windowed
        second moment).
    indicator_window, indicator_step:
        Sliding-window geometry of the indicator, in samples.
    detector_config:
        Detector knobs; defaults to the two-sided CUSUM scheme.
    """
    from .._validation import check_choice

    check_choice(indicator, name="indicator", choices=("mean", "variance"))
    check_positive_int(indicator_window, name="indicator_window", minimum=8)
    check_positive_int(indicator_step, name="indicator_step")
    with _obs.span("analyze-counter", counter=ts.name, indicator=indicator):
        with _obs.span("preprocess", counter=ts.name):
            clean = ts
            if clean.has_gaps:
                clean = fill_gaps(clean)
            if not clean.is_uniform:
                clean = resample_uniform(clean)
        if len(clean) < 4 * indicator_window:
            raise AnalysisError(
                f"counter {ts.name!r} has {len(clean)} usable samples; "
                f"need >= {4 * indicator_window} for window {indicator_window}"
            )

        with _obs.span("holder", counter=ts.name, method=holder_method):
            trajectory = holder_trajectory(
                clean, method=holder_method, **(holder_kwargs or {}))
        with _obs.span("indicator", counter=ts.name, statistic=indicator):
            make_series = (holder_mean_series if indicator == "mean"
                           else holder_variance_series)
            indicator_series = make_series(
                trajectory, window=indicator_window, step=indicator_step
            )
        with _obs.span("detector", counter=ts.name):
            detector = HolderVarianceDetector(
                config=detector_config or DetectorConfig())
            alarm = detector.run(indicator_series)

    if _obs.telemetry_enabled():
        _obs.counter("analysis.counters_analyzed").inc()
        _obs.counter("analysis.samples_processed").inc(len(clean))
        _obs.counter("analysis.indicator_windows").inc(
            len(indicator_series.series))
        if alarm.fired:
            _obs.counter("analysis.alarms_fired").inc()
            _obs.record_event("alarm", counter=ts.name,
                              sim_time=alarm.alarm_time, scheme=alarm.scheme,
                              statistic=indicator_series.statistic)
    if alarm.fired:
        _log.info("alarm fired", counter=ts.name, sim_time=alarm.alarm_time,
                  scheme=alarm.scheme)
    else:
        _log.debug("no alarm", counter=ts.name,
                   samples=len(clean), windows=len(indicator_series.series))
    return AgingAnalysis(
        counter=clean, trajectory=trajectory, indicator=indicator_series, alarm=alarm,
    )


def analyze_run(
    bundle: TraceBundle,
    *,
    counters: Optional[Sequence[str]] = None,
    **kwargs,
) -> AgingReport:
    """Analyse several counters of a run and combine their alarms.

    ``counters`` defaults to every series in the bundle.  The bundle's
    ``crash_time`` metadata (written by the simulator) is carried into
    the report so lead times can be computed.
    """
    names = list(counters) if counters is not None else bundle.names
    if not names:
        raise AnalysisError("no counters to analyse")
    crash_time = bundle.metadata.get("crash_time")
    report = AgingReport(
        crash_time=float(crash_time) if crash_time is not None else None
    )
    for name in names:
        report.analyses[name] = analyze_counter(bundle[name], **kwargs)
    return report
