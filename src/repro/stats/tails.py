"""Heavy-tail analysis: Hill estimator and tail diagnostics.

The workload model rests on Pareto ON/OFF durations (tail index
``alpha`` in (1, 2) gives LRD aggregate demand); these tools verify the
heavy-tailedness assumption on simulated or measured quantities:

* :func:`hill_estimator` — the classical Hill estimate of the tail index
  from the k largest order statistics, with its standard error.
* :func:`tail_quantile_ratio` — a quick scalar diagnostic: the
  99.9%/99% quantile ratio, far larger for power-law tails than for
  exponential ones.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._validation import as_1d_float_array, check_positive_int
from ..exceptions import AnalysisError


def hill_estimator(values, k: int | None = None) -> Tuple[float, float]:
    """Hill estimate of the tail index of a positive sample.

    Parameters
    ----------
    values:
        Sample (only strictly positive entries are used).
    k:
        Number of upper order statistics; defaults to ``sqrt(n)``
        (a standard compromise between bias and variance).

    Returns
    -------
    (alpha_hat, stderr):
        The tail index estimate and its asymptotic standard error
        ``alpha / sqrt(k)``.
    """
    x = as_1d_float_array(values, name="values", min_length=32)
    x = x[x > 0]
    if x.size < 32:
        raise AnalysisError("need at least 32 positive samples for Hill")
    n = x.size
    if k is None:
        k = int(np.sqrt(n))
    check_positive_int(k, name="k", minimum=5)
    if k >= n:
        raise AnalysisError(f"k ({k}) must be smaller than the sample size ({n})")

    order = np.sort(x)[::-1]  # descending
    top = order[: k + 1]
    logs = np.log(top[:-1]) - np.log(top[-1])
    mean_excess = float(np.mean(logs))
    if mean_excess <= 0:
        raise AnalysisError("degenerate upper tail (ties at the maximum?)")
    alpha = 1.0 / mean_excess
    return alpha, alpha / np.sqrt(k)


def tail_quantile_ratio(values, *, q_hi: float = 0.999, q_lo: float = 0.99) -> float:
    """Ratio of two extreme quantiles — a scale-free tail-weight score.

    For an exponential tail the ratio approaches
    ``log(1-q_hi)/log(1-q_lo)`` slowly (≈ 1.5 here); for a Pareto(alpha)
    tail it is ``((1-q_lo)/(1-q_hi))^(1/alpha)`` (≈ 3.2 at alpha = 2,
    10 at alpha = 1).
    """
    x = as_1d_float_array(values, name="values", min_length=128)
    if not (0.5 < q_lo < q_hi < 1.0):
        raise AnalysisError("need 0.5 < q_lo < q_hi < 1")
    lo, hi = np.quantile(x, [q_lo, q_hi])
    if lo <= 0:
        raise AnalysisError("lower quantile is non-positive; shift the sample")
    return float(hi / lo)
