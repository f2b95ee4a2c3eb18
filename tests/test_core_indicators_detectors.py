"""Tests for aging indicators and fractal-collapse detectors."""

import numpy as np
import pytest

from repro.core.detectors import (
    AgingAlarm,
    DetectorConfig,
    HolderVarianceDetector,
    detect_fractal_collapse,
)
from repro.core.holder import HolderTrajectory
from repro.core.indicators import (
    IndicatorSeries,
    holder_mean_series,
    holder_variance_series,
    windowed_moments,
)
from repro.exceptions import AnalysisError, ValidationError


def make_trajectory(h_values, dt=1.0):
    h = np.asarray(h_values, dtype=float)
    return HolderTrajectory(
        times=dt * np.arange(h.size), h=h, method="wavelet", source_name="test",
    )


def synthetic_collapse_trajectory(rng, n_healthy=3000, n_sick=600):
    """Stationary h then destabilised h (variance x9)."""
    healthy = 0.5 + 0.05 * rng.standard_normal(n_healthy)
    sick = 0.5 + 0.15 * rng.standard_normal(n_sick)
    return make_trajectory(np.concatenate([healthy, sick]))


class TestWindowedMoments:
    def test_mean_and_variance_match_numpy(self, rng):
        traj = make_trajectory(rng.standard_normal(100))
        out = windowed_moments(traj, window=20, step=1)
        # Check one interior window exactly.
        k = 37
        seg = traj.h[k - 20 + 1: k + 1]
        idx = k - 19
        assert out["mean"].values[idx] == pytest.approx(np.mean(seg))
        assert out["variance"].values[idx] == pytest.approx(np.var(seg))

    def test_right_edge_alignment(self, rng):
        traj = make_trajectory(rng.standard_normal(50), dt=2.0)
        out = windowed_moments(traj, window=10, step=5)
        assert out["mean"].times[0] == traj.times[9]

    def test_step_thins_output(self, rng):
        traj = make_trajectory(rng.standard_normal(100))
        dense = windowed_moments(traj, window=10, step=1)["variance"]
        sparse = windowed_moments(traj, window=10, step=10)["variance"]
        assert len(sparse) < len(dense)

    def test_constant_trajectory_zero_variance(self):
        traj = make_trajectory(np.full(50, 0.5))
        out = windowed_moments(traj, window=10)
        np.testing.assert_allclose(out["variance"].values, 0.0, atol=1e-15)
        np.testing.assert_allclose(out["skewness"].values, 0.0)
        np.testing.assert_allclose(out["kurtosis"].values, 0.0)

    def test_skewness_sign(self, rng):
        skewed = rng.exponential(1.0, size=2000)
        traj = make_trajectory(skewed)
        out = windowed_moments(traj, window=500, step=100)
        assert np.mean(out["skewness"].values) > 0.5

    def test_window_too_large(self, rng):
        traj = make_trajectory(rng.standard_normal(10))
        with pytest.raises(AnalysisError):
            windowed_moments(traj, window=20)

    def test_series_naming(self, rng):
        traj = make_trajectory(rng.standard_normal(60))
        out = windowed_moments(traj, window=10)
        assert out["variance"].name == "test.h_variance"


class TestIndicatorHelpers:
    def test_variance_indicator(self, rng):
        traj = make_trajectory(rng.standard_normal(200))
        ind = holder_variance_series(traj, window=50, step=5)
        assert isinstance(ind, IndicatorSeries)
        assert ind.statistic == "variance"
        assert ind.window == 50

    def test_mean_indicator(self, rng):
        traj = make_trajectory(rng.standard_normal(200))
        ind = holder_mean_series(traj, window=50)
        assert ind.statistic == "mean"


class TestDetectorConfig:
    def test_defaults_valid(self):
        DetectorConfig()

    def test_bad_scheme(self):
        with pytest.raises(ValidationError):
            DetectorConfig(scheme="oracle")

    def test_bad_calibration_fraction(self):
        with pytest.raises(ValidationError):
            DetectorConfig(calibration_fraction=0.95)


class TestHolderVarianceDetector:
    @pytest.mark.parametrize("scheme", ["threshold", "cusum", "ewma"])
    def test_detects_collapse(self, scheme, rng):
        traj = synthetic_collapse_trajectory(rng)
        ind = holder_variance_series(traj, window=200, step=4)
        cfg = DetectorConfig(scheme=scheme)
        alarm = HolderVarianceDetector(cfg).run(ind)
        assert alarm.fired
        # Alarm must come after the true onset (t=3000) minus window slack.
        assert alarm.alarm_time > 2800

    @pytest.mark.parametrize("scheme", ["threshold", "cusum", "ewma"])
    def test_quiet_on_stationary(self, scheme, rng):
        h = 0.5 + 0.05 * rng.standard_normal(4000)
        ind = holder_variance_series(make_trajectory(h), window=200, step=4)
        alarm = HolderVarianceDetector(DetectorConfig(scheme=scheme)).run(ind)
        assert not alarm.fired

    def test_alarm_fields(self, rng):
        traj = synthetic_collapse_trajectory(rng)
        ind = holder_variance_series(traj, window=200, step=4)
        alarm = detect_fractal_collapse(ind)
        assert isinstance(alarm, AgingAlarm)
        assert alarm.baseline_std > 0
        assert alarm.source_name == "test"
        assert np.isfinite(alarm.statistic_at_alarm)
        assert alarm.calibration_end_time < alarm.alarm_time

    def test_lead_time_helper(self, rng):
        traj = synthetic_collapse_trajectory(rng)
        ind = holder_variance_series(traj, window=200, step=4)
        alarm = detect_fractal_collapse(ind)
        lead = alarm.lead_time(crash_time=3600.0)
        assert lead == pytest.approx(3600.0 - alarm.alarm_time)

    def test_lead_time_none_without_alarm(self):
        alarm = AgingAlarm(
            alarm_time=None, calibration_end_time=10.0, baseline_mean=0.0,
            baseline_std=1.0, statistic_at_alarm=float("nan"),
            scheme="cusum", source_name="x",
        )
        assert alarm.lead_time(100.0) is None
        assert not alarm.fired

    def test_short_indicator_rejected(self, rng):
        ind = holder_variance_series(
            make_trajectory(rng.standard_normal(40)), window=10, step=1)
        with pytest.raises(AnalysisError, match="calibration"):
            HolderVarianceDetector(DetectorConfig(calibration_fraction=0.05)).run(ind)

    def test_constant_baseline_floor(self, rng):
        # A constant indicator baseline must not divide by zero.
        h = np.concatenate([np.full(2000, 0.5), 0.5 + rng.standard_normal(500)])
        ind = holder_variance_series(make_trajectory(h), window=100, step=4)
        alarm = HolderVarianceDetector().run(ind)
        assert alarm.fired
