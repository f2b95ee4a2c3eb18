"""End-to-end pipeline tests and baseline-detector tests on real runs."""

import numpy as np
import pytest

import repro.baselines.trend as trend_module
from repro.analysis import ExperimentSpec, evaluate_detector
from repro.analysis.detector_registry import split_peak_scores
from repro.baselines import RawThresholdDetector, TrendExhaustionDetector
from repro.core import AgingReport, analyze_counter, analyze_run
from repro.core.detectors import DetectorConfig
from repro.core.holder import wavelet_holder
from repro.exceptions import AnalysisError
from repro.stats import mann_kendall, sen_slope
from repro.trace import TimeSeries


class TestAnalyzeCounter:
    def test_full_chain_on_crash_run(self, nt4_run):
        analysis = analyze_counter(nt4_run.bundle["AvailableBytes"])
        assert len(analysis.trajectory) == len(analysis.counter)
        assert analysis.indicator.statistic == "mean"
        assert analysis.alarm.scheme == "cusum"

    def test_alarm_before_crash(self, nt4_run):
        analysis = analyze_counter(nt4_run.bundle["AvailableBytes"])
        assert analysis.alarm.fired
        assert analysis.alarm.alarm_time < nt4_run.crash_time

    def test_lead_time_positive_and_substantial(self, nt4_run):
        analysis = analyze_counter(nt4_run.bundle["AvailableBytes"])
        lead = analysis.alarm.lead_time(nt4_run.crash_time)
        assert lead is not None
        assert lead > 60.0  # at least a minute of warning

    def test_gaps_handled(self, nt4_run):
        # The raw bundle has dropped samples; the chain must cope.
        ts = nt4_run.bundle["AvailableBytes"]
        assert analyze_counter(ts).counter.has_gaps is False

    def test_too_short_counter_rejected(self):
        ts = TimeSeries.from_values(np.random.default_rng(0).standard_normal(100))
        with pytest.raises(AnalysisError):
            analyze_counter(ts)

    def test_wavelet_trajectory_is_wavelet_holder(self, nt4_run):
        analysis = analyze_counter(nt4_run.bundle["AvailableBytes"],
                                   holder_kwargs={"n_scales": 8})
        np.testing.assert_array_equal(
            analysis.trajectory.h,
            wavelet_holder(analysis.counter.values, n_scales=8))
        np.testing.assert_array_equal(analysis.trajectory.times,
                                      analysis.counter.times)

    def test_oscillation_method_works(self, nt4_run):
        analysis = analyze_counter(
            nt4_run.bundle["AvailableBytes"],
            holder_method="oscillation",
            indicator_window=256,
        )
        assert np.all(np.isfinite(analysis.trajectory.h))


class TestAnalyzeRun:
    def test_report_structure(self, nt4_run):
        report = analyze_run(nt4_run.bundle, counters=["AvailableBytes", "PagesPerSec"])
        assert isinstance(report, AgingReport)
        assert set(report.analyses) == {"AvailableBytes", "PagesPerSec"}
        assert report.crash_time == pytest.approx(nt4_run.crash_time)

    def test_first_alarm_is_min(self, nt4_run):
        report = analyze_run(nt4_run.bundle, counters=["AvailableBytes", "PagesPerSec"])
        fired = [a.alarm.alarm_time for a in report.analyses.values() if a.alarm.fired]
        assert report.first_alarm_time == min(fired)

    def test_lead_time_consistent(self, nt4_run):
        report = analyze_run(nt4_run.bundle, counters=["AvailableBytes"])
        assert report.lead_time() == pytest.approx(
            nt4_run.crash_time - report.first_alarm_time)

    def test_alarmed_counters_sorted(self, nt4_run):
        report = analyze_run(nt4_run.bundle, counters=["AvailableBytes", "PagesPerSec"])
        names = report.alarmed_counters
        times = [report.analyses[n].alarm.alarm_time for n in names]
        assert times == sorted(times)

    def test_empty_counters_rejected(self, nt4_run):
        with pytest.raises(AnalysisError):
            analyze_run(nt4_run.bundle, counters=[])

    def test_healthy_run_mostly_quiet(self, healthy_run):
        report = analyze_run(
            healthy_run.bundle, counters=["AvailableBytes"],
            indicator_window=256,
        )
        # Healthy machine: the detector may fire occasionally but the
        # run-level report must carry no crash time.
        assert report.crash_time is None
        assert report.lead_time() is None


class TestTrendBaseline:
    def test_predict_exhaustion_linear(self):
        t = np.arange(0.0, 1000.0)
        v = 1000.0 - 1.0 * t
        pred, slope = trend_module._sen_extrapolation(t, v, 0.0)
        assert pred == pytest.approx(1000.0, abs=5.0)
        assert slope == pytest.approx(-1.0)

    def test_no_prediction_without_depletion(self):
        t = np.arange(0.0, 500.0)
        v = 100.0 + 0.5 * t
        assert trend_module._sen_extrapolation(t, v, 0.0) is None

    def test_detects_depletion_on_crash_run(self, nt4_run):
        det = TrendExhaustionDetector(window_seconds=3600.0, step_seconds=600.0,
                                      horizon_seconds=10_000.0)
        alarm = det.run(nt4_run.bundle["AvailableBytes"])
        assert alarm.fired
        assert alarm.alarm_time < nt4_run.crash_time
        assert alarm.slope_at_alarm < 0

    def test_quiet_on_healthy_run(self, healthy_run):
        det = TrendExhaustionDetector(window_seconds=1800.0, step_seconds=600.0,
                                      horizon_seconds=3600.0)
        alarm = det.run(healthy_run.bundle["AvailableBytes"])
        # Healthy machine shows no sustained significant depletion within horizon.
        if alarm.fired:
            # Permit borderline fires but they must predict far-future exhaustion.
            assert alarm.predicted_exhaustion > healthy_run.duration

    def test_short_series_rejected(self):
        ts = TimeSeries.from_values(np.arange(10.0), name="x")
        with pytest.raises(AnalysisError):
            TrendExhaustionDetector().run(ts)


class TestNaiveBaseline:
    def test_fires_late_on_crash_run(self, nt4_run):
        det = RawThresholdDetector(fraction_of_baseline=0.2)
        alarm_time = det.run(nt4_run.bundle["AvailableBytes"])
        assert alarm_time is not None
        assert alarm_time < nt4_run.crash_time
        # The naive alarm is late: it fires in the last third of the run.
        assert alarm_time > 0.5 * nt4_run.crash_time

    def test_quiet_on_healthy_run(self, healthy_run):
        det = RawThresholdDetector(fraction_of_baseline=0.05, min_consecutive=30)
        assert det.run(healthy_run.bundle["AvailableBytes"]) is None

    def test_short_series_rejected(self):
        ts = TimeSeries.from_values(np.arange(20.0))
        with pytest.raises(AnalysisError):
            RawThresholdDetector().run(ts)


def _linear_decline(*, start=10_000.0, slope=1.0, t_end=9_500.0, dt=10.0):
    t = np.arange(0.0, t_end, dt)
    return TimeSeries(times=t, values=start - slope * t, name="AvailableBytes")


class TestTrendAlarmSemantics:
    """The trend baseline's alarm gates, on constructed series."""

    def test_nonsignificant_trend_never_alarms(self):
        # Weak drift buried in noise: Sen slope is negative and the
        # extrapolated exhaustion is near, but Mann-Kendall cannot call
        # the trend significant -- the detector must stay quiet rather
        # than alarm off an insignificant fit.
        rng = np.random.default_rng(7)
        t = np.arange(0.0, 4000.0, 10.0)
        v = 200.0 - 0.005 * t + rng.normal(0.0, 30.0, size=t.size)
        ts = TimeSeries(times=t, values=v, name="AvailableBytes")
        det = TrendExhaustionDetector(window_seconds=1000.0,
                                      step_seconds=100.0,
                                      horizon_seconds=1e9)
        alarm = det.run(ts)
        assert not alarm.fired
        _, scores = det.decision_scores(ts)
        assert np.all(scores == 0.0)

    def test_horizon_boundary_alarm_time(self):
        # Noise-free decline from 10000 at 1 unit/s: every window's
        # extrapolation lands exhaustion at exactly t=10000, so the first
        # scan step with 10000 - now <= horizon must be the alarm.
        ts = _linear_decline()
        det = TrendExhaustionDetector(window_seconds=1000.0,
                                      step_seconds=100.0,
                                      horizon_seconds=2000.0)
        alarm = det.run(ts)
        assert alarm.fired
        assert alarm.alarm_time == pytest.approx(8000.0)
        assert alarm.predicted_exhaustion == pytest.approx(10_000.0, abs=1.0)
        # The decision score crosses 1 exactly at the alarm step.
        times, scores = det.decision_scores(ts)
        at = np.searchsorted(times, alarm.alarm_time)
        assert scores[at] >= 1.0
        assert np.all(scores[:at] < 1.0)

    def test_transient_rise_stalls_extrapolation(self):
        # A thrash/trim rebound raises AvailableBytes mid-decline; windows
        # covering it lose the significant downward trend, so the alarm
        # comes later than on the uninterrupted decline.
        base = _linear_decline()
        det = TrendExhaustionDetector(window_seconds=1000.0,
                                      step_seconds=100.0,
                                      horizon_seconds=2000.0)
        clean_alarm = det.run(base)
        v = base.values.copy()
        t = base.times
        rise = (t >= 7600.0) & (t < 8400.0)
        # rebound: climb at +3 units/s through the window, then resume
        # the decline from the higher level
        v[rise] = v[t >= 7600.0][0] + 3.0 * (t[rise] - 7600.0)
        after = t >= 8400.0
        v[after] = v[rise][-1] - (t[after] - t[rise][-1])
        bumped = TimeSeries(times=t, values=v, name="AvailableBytes")
        bump_alarm = det.run(bumped)
        assert clean_alarm.fired
        assert not bump_alarm.fired or (
            bump_alarm.alarm_time > clean_alarm.alarm_time)


def _reference_steps(det, ts):
    """``(now, fit)`` per prediction step with every window fitted from
    scratch: the scan ``run`` and ``decision_scores`` each made before
    they shared fits."""
    clean = ts.dropna()
    steps = []
    now = clean.times[0] + det.window_seconds
    while now <= clean.times[-1]:
        window = clean.slice_time(now - det.window_seconds, now + 1e-9)
        fit = None
        if (len(window) >= det.min_samples
                and mann_kendall(window.values,
                                 alpha=det.alpha).trend == "decreasing"):
            slope = sen_slope(window.times, window.values)
            if slope < 0:
                level = float(np.median(window.values))
                anchor = float(np.median(window.times))
                fit = (anchor + (det.floor - level) / slope, slope)
        steps.append((now, fit))
        now += det.step_seconds
    return steps


def _reference_alarm(det, steps):
    """``(alarm_time, predicted_exhaustion, slope)`` of the first step
    within the horizon, or None."""
    for now, fit in steps:
        if fit is not None and fit[0] - now <= det.horizon_seconds:
            return now, fit[0], fit[1]
    return None


def _reference_scores(det, steps):
    scores = [0.0 if fit is None
              else (1e6 if fit[0] - now <= 0
                    else min(det.horizon_seconds / (fit[0] - now), 1e6))
              for now, fit in steps]
    return np.asarray([now for now, __ in steps]), np.asarray(scores)


def _window_ends(det, ts):
    """Prediction times whose window holds ``min_samples`` samples."""
    clean = ts.dropna()
    now = clean.times[0] + det.window_seconds
    while now <= clean.times[-1]:
        if len(clean.slice_time(now - det.window_seconds,
                                now + 1e-9)) >= det.min_samples:
            yield now
        now += det.step_seconds


def _noisy_decline():
    # A decline with a rebound and noise: some windows are significant
    # and some are not, so the scan mixes fits and Nones.
    rng = np.random.default_rng(11)
    t = np.arange(0.0, 9_500.0, 10.0)
    v = 10_000.0 - t + rng.normal(0.0, 400.0, size=t.size)
    rebound = (t >= 5_000.0) & (t < 6_000.0)
    v[rebound] += 2.0 * (t[rebound] - 5_000.0)
    return TimeSeries(times=t, values=v, name="AvailableBytes")


class TestTrendSingleScan:
    """``run`` and ``decision_scores`` share one fit per window."""

    @staticmethod
    def _count_fits(monkeypatch):
        calls = []

        def counting(values, alpha=0.05):
            calls.append(len(values))
            return mann_kendall(values, alpha=alpha)

        monkeypatch.setattr(trend_module, "mann_kendall", counting)
        return calls

    def test_evaluate_fits_each_full_window_once(self, nt4_run, monkeypatch):
        ts = nt4_run.bundle["AvailableBytes"]
        det = TrendExhaustionDetector()
        steps = _reference_steps(det, ts)
        calls = self._count_fits(monkeypatch)
        evaluation = evaluate_detector("trend", nt4_run.bundle,
                                       ExperimentSpec(name="x", n_runs=1))
        assert len(calls) == len(list(_window_ends(det, ts)))
        alarm = _reference_alarm(det, steps)
        assert alarm is not None
        assert evaluation.alarm_time == alarm[0]
        times, scores = _reference_scores(det, steps)
        assert (evaluation.peak_healthy, evaluation.peak_precrash) == \
            split_peak_scores(times, scores, crash_time=nt4_run.crash_time)

    def test_alarm_only_evaluation_stops_at_the_alarm(self, nt4_run,
                                                      monkeypatch):
        ts = nt4_run.bundle["AvailableBytes"]
        det = TrendExhaustionDetector()
        alarm = _reference_alarm(det, _reference_steps(det, ts))
        calls = self._count_fits(monkeypatch)
        evaluation = evaluate_detector("trend", nt4_run.bundle,
                                       ExperimentSpec(name="x", n_runs=1),
                                       collect_scores=False)
        assert evaluation.alarm_time == alarm[0]
        assert len(calls) == sum(1 for now in _window_ends(det, ts)
                                 if now <= alarm[0])

    @pytest.mark.parametrize("make_series", [_linear_decline, _noisy_decline])
    @pytest.mark.parametrize("order", [
        ("run",), ("scores",), ("run", "scores"), ("scores", "run"),
        ("run", "run", "scores", "scores"),
    ])
    def test_any_call_order_matches_two_scans(self, make_series, order):
        ts = make_series()
        det = TrendExhaustionDetector(window_seconds=1000.0,
                                      step_seconds=100.0,
                                      horizon_seconds=2000.0)
        steps = _reference_steps(det, ts)
        want_alarm = _reference_alarm(det, steps)
        want_t, want_s = _reference_scores(det, steps)
        for call in order:
            if call == "run":
                alarm = det.run(ts)
                got = (None if not alarm.fired else
                       (alarm.alarm_time, alarm.predicted_exhaustion,
                        alarm.slope_at_alarm))
                assert got == want_alarm
            else:
                times, scores = det.decision_scores(ts)
                np.testing.assert_array_equal(times, want_t)
                np.testing.assert_array_equal(scores, want_s)

    def test_changed_parameters_refit(self):
        ts = _noisy_decline()
        det = TrendExhaustionDetector(window_seconds=1000.0,
                                      step_seconds=100.0,
                                      horizon_seconds=2000.0)
        det.decision_scores(ts)
        det.window_seconds = 2000.0
        fresh = TrendExhaustionDetector(window_seconds=2000.0,
                                        step_seconds=100.0,
                                        horizon_seconds=2000.0)
        for got, want in zip(det.decision_scores(ts),
                             fresh.decision_scores(ts)):
            np.testing.assert_array_equal(got, want)

    def test_failing_window_raises_on_every_scan(self):
        # Declines to t=6000, then flat: windows wholly in the flat part
        # have no Mann-Kendall variance.  The alarm (t=5000) comes before
        # them, so run returns it; a full scan raises each time.
        t = np.arange(0.0, 8_000.0, 10.0)
        v = 10_000.0 - np.minimum(t, 6_000.0)
        ts = TimeSeries(times=t, values=v, name="AvailableBytes")
        det = TrendExhaustionDetector(window_seconds=1000.0,
                                      step_seconds=100.0,
                                      horizon_seconds=5000.0)
        assert det.run(ts).alarm_time == pytest.approx(5000.0)
        for __ in range(2):
            with pytest.raises(AnalysisError):
                det.decision_scores(ts)
        assert det.run(ts).alarm_time == pytest.approx(5000.0)


class TestNaiveAlarmSemantics:
    """Debounce and alarm-time semantics of the raw-threshold rule."""

    @staticmethod
    def _series(values):
        return TimeSeries(times=np.arange(float(len(values))),
                          values=np.asarray(values, dtype=float),
                          name="AvailableBytes")

    def test_rebound_resets_debounce(self):
        # 100-sample series, calibration = first 20 samples (median 100),
        # limit = 50.  Two below-limit samples, a rebound, then three in a
        # row: the alarm must come from the *second* excursion.
        v = [100.0] * 100
        v[60] = v[61] = 40.0          # two consecutive: not enough
        v[70] = v[71] = v[72] = 40.0  # three consecutive: alarm at t=72
        det = RawThresholdDetector(fraction_of_baseline=0.5,
                                   min_consecutive=3)
        assert det.run(self._series(v)) == pytest.approx(72.0)

    def test_alarm_time_is_nth_consecutive_sample(self):
        v = [100.0] * 80 + [10.0] * 20
        det = RawThresholdDetector(fraction_of_baseline=0.5,
                                   min_consecutive=5)
        # below-limit run starts at t=80; the 5th consecutive hit is t=84
        assert det.run(self._series(v)) == pytest.approx(84.0)

    def test_decision_scores_alarm_level(self):
        # Scores are depletion fractions: the configured alarm threshold
        # sits at 1 - fraction_of_baseline on the score scale.
        v = [100.0] * 80 + [10.0] * 20
        det = RawThresholdDetector(fraction_of_baseline=0.5)
        times, scores = det.decision_scores(self._series(v))
        assert times[0] == pytest.approx(20.0)  # monitoring starts post-cal
        assert scores[np.searchsorted(times, 80.0)] == pytest.approx(0.9)
        assert np.all(scores[times < 80.0] <= 1.0 - det.fraction_of_baseline)

    def test_nonpositive_baseline_rejected_for_scores(self):
        v = [0.0] * 50 + [10.0] * 50
        det = RawThresholdDetector()
        with pytest.raises(AnalysisError):
            det.decision_scores(self._series(v))


class TestDetectorComparison:
    def test_multifractal_warns_before_naive(self, nt4_run):
        """The paper's headline comparison, on one run."""
        mf = analyze_counter(nt4_run.bundle["AvailableBytes"],
                             detector_config=DetectorConfig(scheme="cusum"))
        naive = RawThresholdDetector(fraction_of_baseline=0.1).run(
            nt4_run.bundle["AvailableBytes"])
        assert mf.alarm.fired
        if naive is not None:
            assert mf.alarm.alarm_time <= naive
