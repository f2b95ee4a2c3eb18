"""Change detection used on Hölder-exponent summary series.

Two online detectors (CUSUM, EWMA) raise alarms as soon as a monitored
statistic drifts from its calibrated baseline — these power the paper-core
"fractal collapse" warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._validation import (
    as_1d_float_array,
    check_nonnegative,
    check_positive,
)
from ..exceptions import AnalysisError


@dataclass
class CusumDetector:
    """One-sided (upward) tabular CUSUM detector.

    Monitors ``x_t`` for an upward mean shift relative to a baseline mean
    ``mu0`` and standard deviation ``sigma0``:

    ``g_t = max(0, g_{t-1} + (x_t - mu0)/sigma0 - k)``; alarm when
    ``g_t > h``.

    Parameters
    ----------
    k:
        Reference value (allowance) in baseline standard deviations; half
        the shift magnitude one wants to detect quickly.  Default 0.5.
    h:
        Decision threshold in baseline standard deviations.  Default 5.0,
        the classical choice giving a long in-control run length.
    """

    k: float = 0.5
    h: float = 5.0
    _mu0: Optional[float] = field(default=None, repr=False)
    _sigma0: Optional[float] = field(default=None, repr=False)
    _g: float = field(default=0.0, repr=False)
    _alarmed: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        check_nonnegative(self.k, name="k")
        check_positive(self.h, name="h")

    def calibrate(self, baseline) -> None:
        """Set the in-control mean/std from a baseline sample."""
        x = as_1d_float_array(baseline, name="baseline", min_length=4)
        sigma = float(np.std(x, ddof=1))
        if sigma == 0:
            raise AnalysisError("baseline is constant; CUSUM cannot be calibrated")
        self.calibrate_from_moments(float(np.mean(x)), sigma)

    def calibrate_from_moments(self, mean: float, std: float) -> None:
        """Set the in-control mean/std directly."""
        if std <= 0:
            raise AnalysisError(f"baseline std must be positive, got {std}")
        self._mu0 = float(mean)
        self._sigma0 = float(std)
        self.reset()

    def reset(self) -> None:
        """Clear the accumulated statistic and the alarm latch."""
        self._g = 0.0
        self._alarmed = False

    @property
    def statistic(self) -> float:
        """Current value of the CUSUM statistic g_t."""
        return self._g

    @property
    def alarmed(self) -> bool:
        """True once the threshold has been crossed (latched)."""
        return self._alarmed

    def update(self, x: float) -> bool:
        """Feed one observation; return True if the alarm is (now) raised."""
        if self._mu0 is None or self._sigma0 is None:
            raise AnalysisError("CUSUM used before calibrate()")
        z = (float(x) - self._mu0) / self._sigma0
        self._g = max(0.0, self._g + z - self.k)
        if self._g > self.h:
            self._alarmed = True
        return self._alarmed

    def run(self, times, values) -> Optional[float]:
        """Stream a whole series; return the first alarm time, or None."""
        t = as_1d_float_array(times, name="times", min_length=1)
        x = as_1d_float_array(values, name="values", min_length=1)
        if t.size != x.size:
            raise AnalysisError("times and values must have equal length")
        for ti, xi in zip(t, x):
            if self.update(xi):
                return float(ti)
        return None


@dataclass
class EwmaDetector:
    """Exponentially weighted moving average control chart (upward).

    ``z_t = (1-lam) z_{t-1} + lam x_t``; alarm when ``z_t`` exceeds
    ``mu0 + L * sigma_z``, with the steady-state EWMA standard deviation
    ``sigma_z = sigma0 * sqrt(lam / (2 - lam))``.
    """

    lam: float = 0.2
    L: float = 3.0
    _mu0: Optional[float] = field(default=None, repr=False)
    _limit: Optional[float] = field(default=None, repr=False)
    _z: Optional[float] = field(default=None, repr=False)
    _alarmed: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise AnalysisError(f"lam must lie in (0, 1], got {self.lam}")
        check_positive(self.L, name="L")

    def calibrate(self, baseline) -> None:
        """Set the in-control mean and control limit from a baseline sample."""
        x = as_1d_float_array(baseline, name="baseline", min_length=4)
        sigma = float(np.std(x, ddof=1))
        if sigma == 0:
            raise AnalysisError("baseline is constant; EWMA cannot be calibrated")
        self.calibrate_from_moments(float(np.mean(x)), sigma)

    def calibrate_from_moments(self, mean: float, std: float) -> None:
        """Set the in-control mean and control limit directly."""
        if std <= 0:
            raise AnalysisError(f"baseline std must be positive, got {std}")
        self._mu0 = float(mean)
        sigma_z = std * np.sqrt(self.lam / (2.0 - self.lam))
        self._limit = self._mu0 + self.L * sigma_z
        self.reset()

    def reset(self) -> None:
        """Clear the smoothed state and the alarm latch."""
        self._z = self._mu0
        self._alarmed = False

    @property
    def statistic(self) -> float:
        """Current smoothed value z_t."""
        if self._z is None:
            raise AnalysisError("EWMA used before calibrate()")
        return self._z

    @property
    def alarmed(self) -> bool:
        """True once the control limit has been crossed (latched)."""
        return self._alarmed

    def update(self, x: float) -> bool:
        """Feed one observation; return True if the alarm is (now) raised."""
        if self._z is None or self._limit is None:
            raise AnalysisError("EWMA used before calibrate()")
        self._z = (1.0 - self.lam) * self._z + self.lam * float(x)
        if self._z > self._limit:
            self._alarmed = True
        return self._alarmed

    def run(self, times, values) -> Optional[float]:
        """Stream a whole series; return the first alarm time, or None."""
        t = as_1d_float_array(times, name="times", min_length=1)
        x = as_1d_float_array(values, name="values", min_length=1)
        if t.size != x.size:
            raise AnalysisError("times and values must have equal length")
        for ti, xi in zip(t, x):
            if self.update(xi):
                return float(ti)
        return None
