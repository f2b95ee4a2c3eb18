"""Nonparametric trend estimation: Mann–Kendall test and Sen's slope.

These are the workhorses of the *measurement-based* software-aging
literature (Garg et al. 1998; Vaidyanathan & Trivedi 1998): detect a
monotone trend in a resource counter with Mann–Kendall, quantify its rate
with Sen's robust slope, then extrapolate to exhaustion.  They serve here
as the classical baseline against which the paper's multifractal detector
is compared (experiment T4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import ndtr

from .._validation import as_1d_float_array
from ..exceptions import AnalysisError

#: Longer series are tested on an evenly spaced subsample of this many points.
_MAX_EXACT_N = 3000


@dataclass(frozen=True)
class MannKendallResult:
    """Outcome of the Mann–Kendall trend test.

    Attributes
    ----------
    s:
        The MK S statistic (sum of pairwise sign concordances).
    z:
        Normal-approximation z score with tie correction and the
        continuity correction.
    p_value:
        Two-sided p value.
    trend:
        ``"increasing"``, ``"decreasing"`` or ``"none"`` at the supplied
        significance level.
    """

    s: float
    z: float
    p_value: float
    trend: str


def mann_kendall(values, alpha: float = 0.05) -> MannKendallResult:
    """Two-sided Mann–Kendall test for monotone trend.

    S is counted exactly over every pair in O(n log^2 n) time and O(n)
    memory (:func:`_pair_sign_sum`).  Series longer than
    ``_MAX_EXACT_N`` are tested on an evenly spaced subsample of that
    many points (the test is then approximate but remains consistent for
    monotone alternatives).
    """
    x = as_1d_float_array(values, name="values", min_length=4)
    if x.size > _MAX_EXACT_N:
        idx = np.linspace(0, x.size - 1, _MAX_EXACT_N).astype(int)
        x = x[idx]
    n = x.size
    __, ranks, counts = np.unique(x, return_inverse=True, return_counts=True)

    # Variance with tie correction.
    tie_term = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var_s <= 0:
        raise AnalysisError("Mann-Kendall variance is zero (constant series?)")
    s = float(_pair_sign_sum(ranks, counts.size))

    if s > 0:
        z = (s - 1) / np.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / np.sqrt(var_s)
    else:
        z = 0.0
    p_value = float(2.0 * (1.0 - ndtr(abs(z))))

    if p_value < alpha:
        trend = "increasing" if z > 0 else "decreasing"
    else:
        trend = "none"
    return MannKendallResult(s=s, z=float(z), p_value=p_value, trend=trend)


def _pair_sign_sum(ranks: np.ndarray, n_ranks: int) -> int:
    """``sum(sign(ranks[j] - ranks[i]) for i < j)``, exactly.

    A bottom-up merge count: at block width ``w`` every element of an
    odd-numbered block is compared with the whole of the block before it
    (which is full), so each pair ``i < j`` is counted at exactly one
    width.  Sorting ``block * n_ranks + rank`` lays every block out in
    rank order, and two ``searchsorted`` probes per width count the
    earlier block's smaller and larger ranks for all elements at once.
    """
    n = ranks.size
    position = np.arange(n)
    total = 0
    width = 1
    while width < n:
        block = position // width
        block_keys = block * n_ranks + ranks
        ordered = np.sort(block_keys)
        later = block % 2 == 1
        probe = block_keys[later] - n_ranks  # same rank, previous block
        start = (block[later] - 1) * width   # previous block's first slot
        smaller = np.searchsorted(ordered, probe, side="left") - start
        not_larger = np.searchsorted(ordered, probe, side="right") - start
        total += int(np.sum(smaller)) - int(np.sum(width - not_larger))
        width *= 2
    return total


def sen_slope(times, values, max_pairs: int = 250_000) -> float:
    """Sen's (Theil–Sen) slope: the median of all pairwise slopes.

    Robust to outliers and to the bursty noise that dominates memory
    counters.  When the series has more than ``max_pairs`` pairs, the
    median is taken over ``max_pairs`` index pairs drawn uniformly with a
    fixed seed instead (so repeat calls agree), keeping only the drawn
    pairs with ``i < j`` -- about half of them.
    """
    t = as_1d_float_array(times, name="times", min_length=2)
    x = as_1d_float_array(values, name="values", min_length=2)
    if t.size != x.size:
        raise AnalysisError("times and values must have equal length")
    n = t.size

    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        i, j = _drawn_pairs(n, max_pairs)
    dt = t[j] - t[i]
    valid = dt != 0
    if not valid.any():
        raise AnalysisError("all sampled pairs have identical times")
    slopes = (x[j][valid] - x[i][valid]) / dt[valid]
    return float(np.median(slopes))


@functools.lru_cache(maxsize=4)
def _drawn_pairs(n: int, max_pairs: int) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded pseudo-random ``(i, j)`` pair draw of :func:`sen_slope`, pairs
    with ``i >= j`` dropped.

    It depends only on ``(n, max_pairs)``, and a trend scan fits many
    windows of one length, so it is drawn once per key and handed out
    read-only (int32 when ``n`` allows, which indexes identically).
    """
    rng = np.random.default_rng(12345)
    i = rng.integers(0, n - 1, size=max_pairs)
    j = rng.integers(1, n, size=max_pairs)
    keep = i < j
    if not keep.any():
        raise AnalysisError("pair subsampling produced no valid pairs")
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    i, j = i[keep].astype(dtype), j[keep].astype(dtype)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j
