"""First-class named detectors for campaign tournaments.

The campaign engine historically hard-wired one detector family (the
Hölder variance detector behind :func:`repro.core.pipeline.analyze_counter`).
This registry turns every detector the repo knows into a named
competitor with one uniform contract, so campaigns can sweep the full
scenario × detector grid and the scoreboard can rank families against
each other:

========================  =====================================================
name                      detector
========================  =====================================================
``holder``                Hölder variance detector with the spec's own
                          :class:`~repro.core.detectors.DetectorConfig`
                          (the legacy default — alarms bit-identical to the
                          pre-registry campaign path)
``holder-threshold``      Hölder detector forced to the threshold scheme
``holder-cusum``          Hölder detector forced to the CUSUM scheme
``holder-ewma``           Hölder detector forced to the EWMA scheme
``trend``                 Sen-slope exhaustion extrapolation
                          (:class:`~repro.baselines.TrendExhaustionDetector`)
``naive``                 raw-counter threshold rule
                          (:class:`~repro.baselines.RawThresholdDetector`)
``entropy``               CHAOS-style rolling increment entropy
                          (:class:`~repro.baselines.RollingEntropyDetector`)
========================  =====================================================

Each evaluation returns the detector's first alarm time plus — when
score collection is on — the *peak decision statistic* over the run's
healthy and pre-crash segments.  Campaign runs persist those two floats
per (run, detector); ROC threshold sweeps then replay entirely from the
stored peaks (:func:`repro.stats.roc.roc_curve`), with no re-simulation.

Evaluation is observation-only by construction: alarm times come from
each detector's unmodified ``run`` path, and the score pass never feeds
back into it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..baselines import (
    RawThresholdDetector,
    RollingEntropyDetector,
    TrendExhaustionDetector,
)
from ..core import analyze_counter
from ..core.detectors import HolderVarianceDetector
from ..exceptions import ValidationError
from ..trace.series import TraceBundle

__all__ = [
    "PRECRASH_FRACTION",
    "DetectorEvaluation",
    "detector_names",
    "evaluate_detector",
    "register_detector",
    "split_peak_scores",
]

# Fraction of a crashed run's lifetime (counted back from the crash)
# whose decision scores are pooled as ROC positives; everything earlier
# counts as the run's own healthy segment.
PRECRASH_FRACTION = 0.25


@dataclass(frozen=True)
class DetectorEvaluation:
    """One detector's verdict on one run.

    Attributes
    ----------
    detector:
        Registry name of the detector that produced this evaluation.
    alarm_time:
        First alarm time (seconds), or None when it never fired.
    peak_healthy:
        Peak decision statistic over the healthy segment (the whole
        monitored run when it never crashed, the early
        ``1 - PRECRASH_FRACTION`` of life when it did); None when score
        collection was off or the segment held no monitored samples.
    peak_precrash:
        Peak decision statistic over the last ``PRECRASH_FRACTION`` of a
        crashed run's life; None for healthy runs or without scores.
    """

    detector: str
    alarm_time: Optional[float]
    peak_healthy: Optional[float] = None
    peak_precrash: Optional[float] = None


def split_peak_scores(
    times: np.ndarray,
    scores: np.ndarray,
    *,
    crash_time: Optional[float],
    precrash_fraction: float = PRECRASH_FRACTION,
) -> Tuple[Optional[float], Optional[float]]:
    """Split a decision-score series into (peak_healthy, peak_precrash).

    For a crashed run the pre-crash segment is the final
    ``precrash_fraction`` of its life; scores before that boundary are
    the run's healthy evidence.  A run that never crashed is healthy
    throughout.  Empty segments yield None rather than a fake peak.
    """
    times = np.asarray(times, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if times.size == 0:
        return None, None
    if crash_time is None:
        return float(np.max(scores)), None
    cutoff = float(crash_time) * (1.0 - precrash_fraction)
    healthy = scores[times < cutoff]
    precrash = scores[(times >= cutoff) & (times <= float(crash_time))]
    peak_healthy = float(np.max(healthy)) if healthy.size else None
    peak_precrash = float(np.max(precrash)) if precrash.size else None
    return peak_healthy, peak_precrash


class _HolderDetector:
    """Adapter for the Hölder variance detector (optionally forcing a
    scheme over the spec's configuration)."""

    def __init__(self, name: str, scheme: Optional[str] = None) -> None:
        self.name = name
        self._scheme = scheme

    def _config(self, spec):
        if self._scheme is None:
            return spec.detector
        return replace(spec.detector, scheme=self._scheme)

    def evaluate(self, bundle: TraceBundle, spec, *,
                 collect_scores: bool = True) -> DetectorEvaluation:
        config = self._config(spec)
        analysis = analyze_counter(
            bundle[spec.counter],
            indicator=spec.indicator,
            detector_config=config,
        )
        peak_healthy = peak_precrash = None
        if collect_scores:
            times, scores = HolderVarianceDetector(
                config=config).decision_scores(analysis.indicator)
            peak_healthy, peak_precrash = split_peak_scores(
                times, scores, crash_time=_crash_time(bundle))
        return DetectorEvaluation(
            detector=self.name,
            alarm_time=analysis.alarm.alarm_time,
            peak_healthy=peak_healthy,
            peak_precrash=peak_precrash,
        )


class _BaselineDetector:
    """Adapter for the raw-counter baselines (trend/naive/entropy).

    ``factory`` builds a fresh detector per evaluation; ``first_alarm``
    maps its ``run`` result to an alarm time (the baselines disagree on
    return shape).
    """

    def __init__(self, name: str, factory: Callable[[], object],
                 first_alarm: Callable[[object], Optional[float]]) -> None:
        self.name = name
        self._factory = factory
        self._first_alarm = first_alarm

    def evaluate(self, bundle: TraceBundle, spec, *,
                 collect_scores: bool = True) -> DetectorEvaluation:
        ts = bundle[spec.counter]
        detector = self._factory()
        alarm_time = self._first_alarm(detector.run(ts))
        peak_healthy = peak_precrash = None
        if collect_scores:
            times, scores = detector.decision_scores(ts)
            peak_healthy, peak_precrash = split_peak_scores(
                times, scores, crash_time=_crash_time(bundle))
        return DetectorEvaluation(
            detector=self.name,
            alarm_time=alarm_time,
            peak_healthy=peak_healthy,
            peak_precrash=peak_precrash,
        )


def _crash_time(bundle: TraceBundle) -> Optional[float]:
    crash_time = bundle.metadata.get("crash_time")
    return None if crash_time is None else float(crash_time)


_REGISTRY: Dict[str, object] = {}


def register_detector(adapter) -> None:
    """Add a detector adapter (``.name`` + ``.evaluate``) to the registry.

    Registering an existing name replaces it — deliberate, so downstream
    studies can swap in tuned variants under the canonical names.
    """
    if not getattr(adapter, "name", None):
        raise ValidationError("detector adapter needs a non-empty .name")
    _REGISTRY[adapter.name] = adapter


def detector_names() -> Tuple[str, ...]:
    """Registered detector names, sorted."""
    return tuple(sorted(_REGISTRY))


def evaluate_detector(name: str, bundle: TraceBundle, spec, *,
                      collect_scores: bool = True) -> DetectorEvaluation:
    """Run one named detector over one run's trace bundle.

    ``spec`` supplies the monitored counter and (for the Hölder family)
    the indicator/detector configuration.  ``collect_scores=False``
    skips the decision-statistic pass entirely — alarm times are
    identical either way.
    """
    try:
        adapter = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown detector {name!r}; registered: {detector_names()}"
        ) from None
    return adapter.evaluate(bundle, spec, collect_scores=collect_scores)


register_detector(_HolderDetector("holder"))
register_detector(_HolderDetector("holder-threshold", scheme="threshold"))
register_detector(_HolderDetector("holder-cusum", scheme="cusum"))
register_detector(_HolderDetector("holder-ewma", scheme="ewma"))
register_detector(_BaselineDetector(
    "trend", TrendExhaustionDetector, lambda alarm: alarm.alarm_time))
register_detector(_BaselineDetector(
    "naive", RawThresholdDetector, lambda alarm: alarm))
register_detector(_BaselineDetector(
    "entropy", RollingEntropyDetector, lambda alarm: alarm))
