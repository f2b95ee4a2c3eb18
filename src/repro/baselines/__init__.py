"""Baseline aging detectors the paper's method is compared against.

* :class:`TrendExhaustionDetector` — the measurement-based approach of
  Vaidyanathan & Trivedi (1998)/Garg et al.: detect a monotone trend in
  a resource counter (Mann–Kendall), estimate its slope robustly (Sen),
  extrapolate to exhaustion, and alarm when the predicted time to
  exhaustion drops below a horizon.
* :class:`RawThresholdDetector` — the naive operator rule: alarm when
  the raw counter itself crosses a fixed fraction of its healthy level.
* :class:`RollingEntropyDetector` — the CHAOS-style rival (arXiv
  1502.00781): alarm when the Shannon entropy of the counter's
  short-term increments departs from its healthy level.

Every detector also exposes ``decision_scores`` — the per-sample
decision statistic the scoreboard's ROC sweeps reuse without
re-simulation (see :mod:`repro.analysis.scoreboard`).
"""

from .trend import TrendExhaustionDetector, TrendAlarm
from .naive import RawThresholdDetector
from .entropy import RollingEntropyDetector, rolling_entropy

__all__ = [
    "TrendExhaustionDetector",
    "TrendAlarm",
    "RawThresholdDetector",
    "RollingEntropyDetector",
    "rolling_entropy",
]
