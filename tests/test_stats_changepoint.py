"""Unit tests for the CUSUM and EWMA control charts."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.stats import CusumDetector, EwmaDetector


def shifted_series(rng, n_before=200, n_after=100, shift=3.0):
    before = rng.standard_normal(n_before)
    after = shift + rng.standard_normal(n_after)
    return before, np.concatenate([before, after])


class TestCusum:
    def test_detects_upward_shift(self, rng):
        before, full = shifted_series(rng)
        det = CusumDetector()
        det.calibrate(before)
        alarm = det.run(np.arange(full.size, dtype=float), full)
        assert alarm is not None
        assert 200 <= alarm <= 220  # shortly after the shift

    def test_no_alarm_in_control(self, rng):
        x = rng.standard_normal(500)
        det = CusumDetector(h=8.0)
        det.calibrate(x[:100])
        assert det.run(np.arange(500.0), x) is None

    def test_alarm_latches(self, rng):
        before, full = shifted_series(rng)
        det = CusumDetector()
        det.calibrate(before)
        for v in full:
            det.update(v)
        assert det.alarmed

    def test_reset_clears(self, rng):
        det = CusumDetector()
        det.calibrate(rng.standard_normal(50))
        det.update(100.0)
        det.update(100.0)
        det.update(100.0)
        assert det.alarmed
        det.reset()
        assert not det.alarmed
        assert det.statistic == 0.0

    def test_use_before_calibrate_raises(self):
        with pytest.raises(AnalysisError):
            CusumDetector().update(1.0)

    def test_constant_baseline_rejected(self):
        with pytest.raises(AnalysisError):
            CusumDetector().calibrate(np.ones(20))

    def test_calibrate_from_moments(self):
        det = CusumDetector(k=0.5, h=3.0)
        det.calibrate_from_moments(0.0, 1.0)
        fired = False
        for _ in range(10):
            fired = det.update(5.0)
        assert fired

    def test_bad_moments_rejected(self):
        with pytest.raises(AnalysisError):
            CusumDetector().calibrate_from_moments(0.0, 0.0)

    def test_higher_k_slower(self, rng):
        before, full = shifted_series(rng, shift=1.5)
        times = np.arange(full.size, dtype=float)
        lo = CusumDetector(k=0.25, h=5.0)
        lo.calibrate(before)
        hi = CusumDetector(k=1.25, h=5.0)
        hi.calibrate(before)
        a_lo, a_hi = lo.run(times, full), hi.run(times, full)
        assert a_lo is not None
        assert a_hi is None or a_hi >= a_lo


class TestEwma:
    def test_detects_shift(self, rng):
        before, full = shifted_series(rng)
        det = EwmaDetector()
        det.calibrate(before)
        alarm = det.run(np.arange(full.size, dtype=float), full)
        assert alarm is not None and alarm >= 200

    def test_in_control_quiet(self, rng):
        x = rng.standard_normal(400)
        det = EwmaDetector(L=4.0)
        det.calibrate(x[:100])
        assert det.run(np.arange(400.0), x) is None

    def test_invalid_lambda(self):
        with pytest.raises(AnalysisError):
            EwmaDetector(lam=0.0)
        with pytest.raises(AnalysisError):
            EwmaDetector(lam=1.5)

    def test_statistic_tracks_level(self, rng):
        det = EwmaDetector(lam=0.5)
        det.calibrate(rng.standard_normal(50))
        for _ in range(50):
            det.update(2.0)
        assert det.statistic == pytest.approx(2.0, abs=0.05)

    def test_use_before_calibrate_raises(self):
        with pytest.raises(AnalysisError):
            EwmaDetector().update(1.0)
