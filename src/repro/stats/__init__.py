"""Statistics toolkit supporting the aging analysis.

Contents
--------
``regression``
    Ordinary and weighted least squares on log-log scaling plots, with
    standard errors — every fractal estimator funnels through
    :func:`fit_line`.
``trend``
    Mann–Kendall trend test and Sen's (Theil–Sen) robust slope, the
    machinery behind the Vaidyanathan–Trivedi baseline detector.
``changepoint``
    Online CUSUM and EWMA detectors, used on Hölder-exponent summary
    series.
``roc``
    Detection/false-alarm scoring across runs for detector comparison.
"""

from .regression import LineFit, fit_line, fit_line_wls
from .trend import MannKendallResult, mann_kendall, sen_slope
from .changepoint import CusumDetector, EwmaDetector
from .roc import DetectionOutcome, score_detections, roc_curve, auc
from .tails import hill_estimator, tail_quantile_ratio

__all__ = [
    "LineFit",
    "fit_line",
    "fit_line_wls",
    "MannKendallResult",
    "mann_kendall",
    "sen_slope",
    "CusumDetector",
    "EwmaDetector",
    "DetectionOutcome",
    "score_detections",
    "roc_curve",
    "auc",
    "hill_estimator",
    "tail_quantile_ratio",
]
