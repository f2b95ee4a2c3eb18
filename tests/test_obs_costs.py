"""Tests for cross-worker cost attribution (repro.obs.costs): span
phase classification, self-time folding over merged span trees,
per-worker splits, share normalisation and the CLI table — plus
end-to-end profiles from real telemetry sessions, which must classify
every span path the program runs."""

import math

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ValidationError
from repro.obs.costs import (
    COSTS_SCHEMA,
    PHASES,
    build_cost_profile,
    classify_span,
    cost_table,
)


def span(path, duration, *, worker=None, count=1):
    attrs = {} if worker is None else {"worker_ordinal": worker}
    return [{"path": path, "duration": duration, "attrs": attrs}
            for _ in range(count)]


class TestClassification:
    @pytest.mark.parametrize("path, phase", [
        ("machine-run", "simulate"),
        ("cell-run/machine-setup", "simulate"),
        ("analyze-counter/holder", "cwt-holder"),
        ("analyze-counter/preprocess", "analysis"),
        ("analyze-counter/detector", "analysis"),
        ("machine-collect", "trace-io"),
        ("cell-run/write-trace", "trace-io"),
        ("simulate/write-trace", "trace-io"),
        ("watch/read-trace", "trace-io"),
        ("analyze/read-trace", "trace-io"),
        ("shard-simulate", "simulate"),
        ("shard-simulate/fleet-vec-run", "simulate"),
        ("campaign-pool/campaign-worker/shard-simulate/fleet-vec-run",
         "simulate"),
        ("campaign-pool/campaign-worker/cell-run/detector-score", "analysis"),
        ("campaign-pool", "pool-overhead"),
        ("campaign-pool/campaign-worker/cell-run", "pool-overhead"),
        # Unlisted leaf inherits its nearest classified ancestor.
        ("analyze-counter/custom-step", "analysis"),
        ("mystery", "other"),
    ])
    def test_classify_span(self, path, phase):
        assert classify_span(path) == phase


class TestBuildCostProfile:
    def test_no_completed_spans_rejected(self):
        with pytest.raises(ValidationError, match="no completed spans"):
            build_cost_profile([])
        with pytest.raises(ValidationError, match="no completed spans"):
            build_cost_profile([{"path": "open-span", "duration": None,
                                 "attrs": {}}])

    def test_self_time_subtracts_children(self):
        spans = (span("analyze-counter", 10.0)
                 + span("analyze-counter/holder", 6.0)
                 + span("analyze-counter/holder/inner", 2.0)
                 + span("analyze-counter/detector", 1.0))
        costs = build_cost_profile(spans)
        by_path = {c["path"]: c for c in costs["top_cost_centers"]}
        assert by_path["analyze-counter"]["self_seconds"] == pytest.approx(3.0)
        assert by_path["analyze-counter/holder"]["self_seconds"] == (
            pytest.approx(4.0))
        assert by_path["analyze-counter/holder/inner"]["self_seconds"] == (
            pytest.approx(2.0))
        assert costs["wall_seconds"] == pytest.approx(10.0)  # single root
        assert costs["attributed_seconds"] == pytest.approx(10.0)
        assert costs["n_spans"] == 4

    def test_self_time_clamped_for_concurrent_children(self):
        # A pool span's workers run concurrently: their summed duration
        # exceeds the parent's wall time.  Self time clamps at zero.
        spans = (span("campaign-pool", 4.0)
                 + span("campaign-pool/campaign-worker/cell-run", 3.5,
                        worker=0)
                 + span("campaign-pool/campaign-worker/cell-run", 3.5,
                        worker=1))
        costs = build_cost_profile(spans)
        by_path = {c["path"]: c for c in costs["top_cost_centers"]}
        assert by_path["campaign-pool"]["self_seconds"] == 0.0

    def test_phantom_worker_level_rolls_up(self):
        # campaign-worker has no span record of its own; the cell-run
        # still rolls up to campaign-pool (longest *recorded* prefix).
        spans = (span("campaign-pool", 10.0)
                 + span("campaign-pool/campaign-worker/cell-run", 4.0,
                        worker=0)
                 + span("campaign-pool/campaign-worker/cell-run/machine-run",
                        3.0, worker=0))
        costs = build_cost_profile(spans)
        by_path = {c["path"]: c for c in costs["top_cost_centers"]}
        assert by_path["campaign-pool"]["self_seconds"] == pytest.approx(6.0)
        assert by_path[
            "campaign-pool/campaign-worker/cell-run"
        ]["self_seconds"] == pytest.approx(1.0)

    def test_phase_shares_sum_to_one(self):
        spans = (span("campaign-pool", 10.0)
                 + span("campaign-pool/campaign-worker/cell-run/machine-run",
                        5.0, worker=0)
                 + span("campaign-pool/campaign-worker/cell-run/holder",
                        3.0, worker=0))
        costs = build_cost_profile(spans)
        shares = [stats["share"] for stats in costs["phases"].values()
                  if stats["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)
        assert set(costs["phases"]) == set(PHASES)
        assert costs["phases"]["simulate"]["self_seconds"] == (
            pytest.approx(5.0))
        assert costs["phases"]["cwt-holder"]["self_seconds"] == (
            pytest.approx(3.0))
        assert costs["phases"]["pool-overhead"]["self_seconds"] == (
            pytest.approx(2.0))
        for stats in costs["phases"].values():
            if stats["share"] is not None:
                assert not math.isnan(stats["share"])

    def test_per_worker_split(self):
        spans = (span("campaign-pool", 10.0)
                 + span("campaign-pool/campaign-worker/machine-run", 4.0,
                        worker=0)
                 + span("campaign-pool/campaign-worker/machine-run", 2.0,
                        worker=1))
        costs = build_cost_profile(spans)
        assert sorted(costs["workers"]) == ["parent", "w0", "w1"]
        assert costs["workers"]["w0"]["simulate"]["self_seconds"] == (
            pytest.approx(4.0))
        assert costs["workers"]["w1"]["simulate"]["self_seconds"] == (
            pytest.approx(2.0))
        # Parent self time is the pool minus its children's rollup.
        assert costs["workers"]["parent"]["pool-overhead"][
            "self_seconds"] == pytest.approx(10.0)
        w0 = costs["workers"]["w0"]
        assert sum(s["share"] for s in w0.values()
                   if s["share"] is not None) == pytest.approx(1.0)

    def test_top_list_ordered_and_bounded(self):
        spans = []
        for i in range(20):
            spans += span(f"path-{i:02d}", float(i + 1))
        costs = build_cost_profile(spans, top=5)
        tops = costs["top_cost_centers"]
        assert len(tops) == 5
        selfs = [c["self_seconds"] for c in tops]
        assert selfs == sorted(selfs, reverse=True)
        assert tops[0]["path"] == "path-19"

    def test_wall_is_max_root_duration(self):
        spans = span("root-a", 4.0) + span("root-b", 9.0)
        costs = build_cost_profile(spans)
        assert costs["wall_seconds"] == pytest.approx(9.0)

    def test_call_counts_aggregate(self):
        costs = build_cost_profile(span("machine-run", 1.0, count=3))
        center = costs["top_cost_centers"][0]
        assert center["calls"] == 3
        assert center["total_seconds"] == pytest.approx(3.0)

    def test_no_profiler_no_cpu_view(self):
        costs = build_cost_profile(span("machine-run", 1.0))
        assert "cpu" not in costs
        assert costs["schema"] == COSTS_SCHEMA


class TestCostTable:
    def test_rows(self):
        spans = span("machine-run", 3.0) + span("holder", 1.0)
        rows = cost_table(build_cost_profile(spans))
        assert rows[0] == ["machine-run", "simulate", "1", "3.0000", "75.0%"]
        assert rows[1] == ["holder", "cwt-holder", "1", "1.0000", "25.0%"]

    def test_none_share_renders_dash(self):
        rows = cost_table({"top_cost_centers": [
            {"path": "p", "phase": "other", "calls": 1,
             "self_seconds": 0.0, "share": None}]})
        assert rows[0][-1] == "—"


class TestSessionIntegration:
    def test_profile_from_live_session(self):
        session = obs.enable_telemetry()
        try:
            with obs.span("analyze-counter"):
                with obs.span("holder"):
                    pass
                with obs.span("detector"):
                    pass
            costs = build_cost_profile(session.spans.to_list())
        finally:
            obs.disable_telemetry()
        assert costs["n_spans"] == 3
        paths = {c["path"] for c in costs["top_cost_centers"]}
        assert paths == {"analyze-counter", "analyze-counter/holder",
                         "analyze-counter/detector"}
        shares = [s["share"] for s in costs["phases"].values()
                  if s["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)

    @pytest.mark.parametrize("engine, simulate_span", [
        ("object", "machine-run"), ("vector", "fleet-vec-run"),
    ], ids=["object", "vector"])
    def test_campaign_spans_all_classified(self, engine, simulate_span):
        from repro.analysis import ExperimentSpec, detector_grid, run_campaign

        families = ["holder", "trend", "entropy"]
        specs = detector_grid([ExperimentSpec(name=engine, n_runs=2,
                                              max_run_seconds=3_000.0,
                                              engine=engine)], families)
        with obs.telemetry_session() as session:
            run_campaign(specs, workers=1)
            spans = session.spans.to_list()
        paths = {s["path"] for s in spans}
        assert (f"campaign-pool/campaign-worker/shard-simulate/{simulate_span}"
                in paths)
        assert {p: classify_span(p) for p in paths
                if classify_span(p) == "other"} == {}
        scored = [s["attrs"]["family"] for s in spans
                  if s["path"].endswith("/cell-run/detector-score")]
        assert sorted(scored) == sorted(families * 2)

    @pytest.mark.parametrize("target", ["run.csv", "run"])
    def test_library_read_path_spans_all_classified(self, tmp_path, target):
        from repro.core.pipeline import analyze_counter
        from repro.trace import TimeSeries, TraceBundle, read_bundle, write_bundle

        rng = np.random.default_rng(3)
        bundle = TraceBundle()
        bundle.add(TimeSeries.from_values(np.cumsum(rng.normal(size=1024)),
                                          dt=10.0, name="available_bytes"))
        path = write_bundle(bundle, tmp_path / target)
        with obs.telemetry_session() as session:
            ts = read_bundle(path)["available_bytes"]
            analyze_counter(ts, indicator_window=64)
            spans = session.spans.to_list()
        by_phase = {s["path"]: classify_span(s["path"]) for s in spans}
        assert by_phase["read-trace"] == "trace-io"
        assert by_phase["analyze-counter/holder"] == "cwt-holder"
        assert "other" not in by_phase.values()
        assert build_cost_profile(spans)["phases"]["other"]["share"] == 0.0
