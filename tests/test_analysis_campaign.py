"""Tests for scenarios, sliding MFDFA, tails and campaigns."""

import math

import numpy as np
import pytest

from repro.analysis import (
    CellResult,
    ExperimentSpec,
    RunRecord,
    cells_payload,
    load_results,
    results_table,
    run_campaign,
    save_results,
)
from repro.exceptions import AnalysisError, TraceError, ValidationError
from repro.fractal import sliding_mfdfa
from repro.memsim import SCENARIO_NAMES, build_scenario
from repro.stats import hill_estimator, tail_quantile_ratio
from repro.trace import TimeSeries


class TestScenarios:
    def test_all_scenarios_buildable(self):
        for name in SCENARIO_NAMES:
            machine = build_scenario(name, seed=1, max_run_seconds=1000.0)
            assert machine.config.max_run_seconds == 1000.0

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError):
            build_scenario("mainframe")

    def test_scenarios_have_distinct_workloads(self):
        web = build_scenario("webserver", seed=1)
        db = build_scenario("database", seed=1)
        assert web.config.workload != db.config.workload

    def test_fault_factor_scales(self):
        base = build_scenario("stress", seed=1)
        hot = build_scenario("stress", seed=1, fault_factor=2.0)
        assert hot.config.faults.heap_leak_fraction == pytest.approx(
            2 * base.config.faults.heap_leak_fraction)

    def test_config_overrides_win(self):
        machine = build_scenario(
            "stress", seed=1, config_overrides={"sampling_interval": 2.0})
        assert machine.config.sampling_interval == 2.0

    @pytest.mark.slow
    def test_webserver_crashes_and_batch_runs(self):
        machine = build_scenario("webserver", seed=31, max_run_seconds=60_000)
        result = machine.run()
        assert result.crashed


class TestSlidingMfdfa:
    def _series(self, n=8192):
        rng = np.random.default_rng(0)
        # Two regimes: persistent then antipersistent-ish.
        from repro.generators import fgn

        a = np.cumsum(fgn(n // 2, 0.8, rng=rng))
        b = a[-1] + np.cumsum(fgn(n // 2, 0.3, rng=rng))
        return TimeSeries.from_values(np.concatenate([a, b]), name="x")

    def test_detects_regime_change(self):
        ts = self._series()
        res = sliding_mfdfa(ts, window=2048, step=512)
        assert len(res) >= 5
        # h2 of early windows (H=0.8 regime) above late windows (H=0.3).
        assert res.h2[0] > res.h2[-1] + 0.2

    def test_times_right_aligned(self):
        ts = self._series()
        res = sliding_mfdfa(ts, window=2048, step=1024)
        assert res.times[0] == ts.times[2047]

    def test_gaps_rejected(self):
        values = np.random.default_rng(1).standard_normal(4096)
        values[7] = np.nan
        ts = TimeSeries.from_values(values)
        with pytest.raises(AnalysisError, match="gaps"):
            sliding_mfdfa(ts, window=1024, step=512)

    def test_too_short_rejected(self):
        ts = TimeSeries.from_values(np.random.default_rng(2).standard_normal(512))
        with pytest.raises(AnalysisError):
            sliding_mfdfa(ts, window=1024)


class TestTails:
    def test_hill_recovers_pareto_index(self):
        rng = np.random.default_rng(3)
        for alpha_true in (1.2, 1.8, 2.5):
            x = 1.0 + rng.pareto(alpha_true, size=50_000)
            alpha, err = hill_estimator(x, k=500)
            assert alpha == pytest.approx(alpha_true, rel=0.15)
            assert err > 0

    def test_hill_exponential_has_light_tail(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(1.0, size=50_000)
        alpha, __ = hill_estimator(x, k=200)
        assert alpha > 3.0  # effectively light-tailed

    def test_hill_validation(self, rng):
        with pytest.raises((AnalysisError, ValidationError)):
            hill_estimator(rng.standard_normal(10))
        with pytest.raises(AnalysisError):
            hill_estimator(1.0 + rng.random(100), k=200)

    def test_quantile_ratio_orders_tails(self):
        rng = np.random.default_rng(6)
        pareto = 1.0 + rng.pareto(1.5, size=100_000)
        expo = rng.exponential(1.0, size=100_000)
        assert tail_quantile_ratio(pareto) > 2 * tail_quantile_ratio(expo)

    def test_onoff_durations_are_heavy(self):
        # The workload's Pareto draw must itself pass the Hill check.
        from repro.memsim.workloads import _pareto

        rng = np.random.default_rng(7)
        samples = np.array([_pareto(rng, 1.4, 20.0) for _ in range(20_000)])
        alpha, __ = hill_estimator(samples, k=300)
        assert alpha == pytest.approx(1.4, rel=0.2)


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        specs = [
            ExperimentSpec(name="aging", n_runs=2, base_seed=1,
                           max_run_seconds=40_000.0),
            ExperimentSpec(name="healthy", n_runs=2, base_seed=60,
                           fault_factor=0.0, max_run_seconds=12_000.0),
        ]
        return run_campaign(specs)

    def test_aging_cell_detects(self, small_campaign):
        cell = small_campaign["aging"]
        assert cell.n_crashed == 2
        assert cell.outcome is not None
        assert cell.outcome.n_detected == 2
        assert cell.median_lead > 600

    def test_healthy_cell_quiet(self, small_campaign):
        cell = small_campaign["healthy"]
        assert cell.n_crashed == 0
        assert cell.outcome is None
        assert cell.false_alarms <= 1

    def test_results_table_rows(self, small_campaign):
        rows = results_table(small_campaign)
        assert len(rows) == 2
        assert {row[0] for row in rows} == {"aging", "healthy"}

    def test_json_round_trip(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_results(small_campaign, path)
        back = load_results(path)
        assert set(back) == set(small_campaign)
        for name in back:
            orig, loaded = small_campaign[name], back[name]
            assert isinstance(loaded, CellResult)
            assert loaded.spec == orig.spec
            assert loaded.false_alarms == orig.false_alarms
            assert [r.seed for r in loaded.runs] == [r.seed for r in orig.runs]
            if orig.outcome is None:
                assert loaded.outcome is None
            else:
                assert loaded.outcome.lead_times == orig.outcome.lead_times
            if math.isnan(orig.median_lead):
                assert math.isnan(loaded.median_lead)
            else:
                assert loaded.median_lead == orig.median_lead

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99, "cells": {}}')
        with pytest.raises(TraceError, match="schema version"):
            load_results(path)

    def test_duplicate_names_rejected(self):
        spec = ExperimentSpec(name="x", n_runs=1)
        with pytest.raises(ValidationError, match="duplicate"):
            run_campaign([spec, spec])

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValidationError):
            run_campaign([])

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(name="")
        with pytest.raises(ValidationError):
            ExperimentSpec(name="x", scenario="mainframe")
        with pytest.raises(ValidationError):
            ExperimentSpec(name="x", fault_factor=-1.0)

    @staticmethod
    def _record(seed, lead):
        crash = 1000.0
        return RunRecord(
            seed=seed, crashed=True, crash_time=crash, crash_reason="memory",
            alarm_time=None if lead is None else crash - lead,
            lead_time=lead, duration=crash,
        )

    def test_median_lead_counts_zero_lead_detections(self):
        # Regression: a `> 0` filter silently dropped alarms that fired at
        # the crash instant, biasing the median optimistic.
        cell = CellResult(
            spec=ExperimentSpec(name="x", n_runs=3),
            runs=[self._record(1, 0.0), self._record(2, 100.0),
                  self._record(3, 200.0)],
            outcome=None, false_alarms=0,
        )
        assert cell.median_lead == pytest.approx(100.0)

    def test_median_lead_nan_when_no_detections(self):
        cell = CellResult(
            spec=ExperimentSpec(name="x", n_runs=1),
            runs=[self._record(1, None)], outcome=None, false_alarms=0,
        )
        assert math.isnan(cell.median_lead)

    def test_cells_payload_is_json_ready(self, small_campaign):
        import json

        payload = cells_payload(small_campaign)
        assert set(payload) == set(small_campaign)
        aging = payload["aging"]
        assert len(aging["runs"]) == 2
        assert aging["detected"] == 2
        assert all(r["crashed"] for r in aging["runs"])
        assert payload["healthy"]["median_lead"] is None
        json.dumps(payload)  # must serialise without default= hooks


class TestRunCellErrorHandling:
    """The analysis fallback must swallow only expected failures.

    Detector dispatch moved into the registry, so the Hölder analysis
    entry point is patched there (campaign code calls it through
    ``evaluate_detector``).
    """

    SPEC = ExperimentSpec(name="tiny", n_runs=1, base_seed=2,
                          max_run_seconds=9_000.0)

    def test_expected_analysis_failure_scores_no_alarm(self, monkeypatch):
        from repro.analysis import campaign as campaign_mod
        from repro.analysis import detector_registry
        from repro.obs import session as _obs

        def bust(*args, **kwargs):
            raise AnalysisError("window too short")

        monkeypatch.setattr(detector_registry, "analyze_counter", bust)
        with _obs.telemetry_session() as session:
            result = campaign_mod.run_campaign([self.SPEC])["tiny"]
            failures = session.metrics.counter(
                "campaign.analysis_failures").value
        assert result.runs[0].alarm_time is None
        assert result.runs[0].lead_time is None
        assert failures == 1

    def test_unexpected_exception_propagates(self, monkeypatch):
        from repro.analysis import campaign as campaign_mod
        from repro.analysis import detector_registry

        def crash(*args, **kwargs):
            raise ZeroDivisionError("a genuine bug")

        monkeypatch.setattr(detector_registry, "analyze_counter", crash)
        with pytest.raises(ZeroDivisionError):
            campaign_mod.run_campaign([self.SPEC])
