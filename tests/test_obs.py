"""Tests for the observability layer (repro.obs)."""

import io
import json
import logging
import time

import pytest

from repro import obs
from repro.exceptions import TraceError, ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry off and logging reset."""
    obs.disable_telemetry()
    obs.reset_logging()
    yield
    obs.disable_telemetry()
    obs.reset_logging()


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.events")
        c.inc()
        c.inc(4)
        assert c.value == 5.0
        assert reg.counter("sim.events") is c

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_gauge_tracks_max(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2.0
        assert g.max_value == 10.0

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_histogram_quantiles(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1000):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["p50"] == pytest.approx(499.5)
        assert snap["p90"] == pytest.approx(899.1)
        assert snap["p99"] == pytest.approx(989.01)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 999.0

    def test_histogram_quantile_validation(self):
        h = MetricsRegistry().histogram("lat")
        with pytest.raises(ValidationError):
            h.quantile(1.5)
        import math
        assert math.isnan(h.quantile(0.5))  # empty histogram
        assert h.snapshot()["p50"] is None

    def test_histogram_reservoir_decimates_deterministically(self):
        h = MetricsRegistry().histogram("big")
        n = 3 * h.RESERVOIR_CAP
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        # Decimated but still statistically faithful on a uniform ramp.
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.01)
        assert h.quantile(0.9) == pytest.approx(0.9 * n, rel=0.01)
        # Same stream twice -> identical reservoir (no RNG involved).
        h2 = MetricsRegistry().histogram("big")
        for v in range(n):
            h2.observe(float(v))
        assert h2.quantile(0.5) == h.quantile(0.5)
        assert h2.quantile(0.99) == h.quantile(0.99)

    def test_type_conflict_is_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")

    def test_empty_name_is_error(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("")

    def test_disabled_registry_is_null(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        c.inc(100)  # no-op, no error
        reg.gauge("g").set(5)
        assert reg.snapshot() == {}
        assert len(reg) == 0

    def test_snapshot_sorted_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert list(reg.snapshot()) == ["a", "b"]
        reg.reset()
        assert len(reg) == 0


class TestSpans:
    def test_nesting_builds_paths(self):
        col = SpanCollector()
        with col.span("outer"):
            with col.span("inner", counter="AvailableBytes"):
                pass
        records = col.records
        assert [r.path for r in records] == ["outer", "outer/inner"]
        assert records[0].depth == 0
        assert records[1].depth == 1
        assert records[1].attrs == {"counter": "AvailableBytes"}

    def test_timing_monotonicity(self):
        col = SpanCollector()
        with col.span("parent"):
            with col.span("child"):
                time.sleep(0.005)
        parent, child = col.records
        assert child.start >= parent.start
        assert child.end <= parent.end
        assert child.duration > 0
        assert parent.duration >= child.duration

    def test_error_status_on_exception(self):
        col = SpanCollector()
        with pytest.raises(RuntimeError):
            with col.span("boom"):
                raise RuntimeError("x")
        assert col.records[0].status == "error"
        assert col.records[0].end is not None

    def test_disabled_collector_records_nothing(self):
        col = SpanCollector(enabled=False)
        with col.span("x"):
            pass
        assert col.records == []

    def test_slash_in_name_rejected(self):
        with pytest.raises(ValidationError):
            SpanCollector().span("a/b")

    def test_total_seconds_sums_same_name(self):
        col = SpanCollector()
        for _ in range(3):
            with col.span("stage"):
                pass
        assert col.total_seconds("stage") == pytest.approx(
            sum(r.duration for r in col.records))

    def test_reset_refuses_open_spans(self):
        col = SpanCollector()
        cm = col.span("open")
        cm.__enter__()
        with pytest.raises(ValidationError):
            col.reset()
        cm.__exit__(None, None, None)
        col.reset()
        assert col.records == []


class TestSession:
    def test_default_session_is_disabled(self):
        assert not obs.telemetry_enabled()
        obs.counter("x").inc()     # all helpers degrade to no-ops
        obs.record_event("whatever")
        with obs.span("nothing"):
            pass
        assert obs.current_session().events == []

    def test_enable_disable_cycle(self):
        session = obs.enable_telemetry()
        assert obs.telemetry_enabled()
        obs.counter("hits").inc(2)
        obs.record_event("crash", sim_time=10.0)
        assert session.metrics.counter("hits").value == 2.0
        assert session.events_of("crash")[0]["sim_time"] == 10.0
        obs.disable_telemetry()
        assert not obs.telemetry_enabled()

    def test_context_manager_restores_previous(self):
        assert not obs.telemetry_enabled()
        with obs.telemetry_session() as session:
            assert obs.telemetry_enabled()
            assert obs.current_session() is session
        assert not obs.telemetry_enabled()

    def test_machine_run_is_instrumented(self):
        from repro.memsim import Machine, MachineConfig

        with obs.telemetry_session() as session:
            result = Machine(
                MachineConfig.nt4(seed=11, max_run_seconds=3000)).run()
        paths = [r.path for r in session.spans.records]
        assert "machine-setup" in paths
        assert "machine-run" in paths
        assert "machine-collect" in paths
        snap = session.metrics.snapshot()
        assert snap["sim.events_fired"]["value"] > 0
        assert snap["memsim.samples_collected"]["value"] > 0
        assert not result.crashed  # 3000 s is well inside the healthy phase

    def test_analyze_counter_records_stage_spans(self):
        import numpy as np

        from repro.core import analyze_counter
        from repro.generators import fgn
        from repro.trace import TimeSeries

        ts = TimeSeries.from_values(
            np.cumsum(fgn(4096, 0.7, rng=np.random.default_rng(0))), name="c")
        with obs.telemetry_session() as session:
            analyze_counter(ts, indicator_window=256)
        names = {r.name for r in session.spans.records}
        assert {"analyze-counter", "preprocess", "holder",
                "indicator", "detector"} <= names
        assert session.metrics.counter(
            "analysis.counters_analyzed").value == 1.0


class TestLogger:
    def test_human_format_with_fields(self):
        stream = io.StringIO()
        obs.configure_logging("info", stream=stream)
        obs.get_logger("test").info("hello", seed=7, lead=12.5)
        line = stream.getvalue()
        assert "repro.test: hello" in line
        assert "seed=7" in line
        assert "lead=12.5" in line

    def test_level_filtering(self):
        stream = io.StringIO()
        obs.configure_logging("warning", stream=stream)
        log = obs.get_logger("test")
        log.info("quiet")
        log.warning("loud")
        out = stream.getvalue()
        assert "quiet" not in out
        assert "loud" in out
        assert log.is_enabled_for("warning")
        assert not log.is_enabled_for("info")

    def test_off_silences_everything(self):
        stream = io.StringIO()
        obs.configure_logging("off", stream=stream)
        obs.get_logger("test").error("nope")
        assert stream.getvalue() == ""

    def test_json_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        obs.configure_logging("info", stream=io.StringIO(),
                              json_path=str(path))
        obs.get_logger("memsim").info("crash", sim_time=42.0, reason="pool")
        obs.reset_logging()  # flush + close the file handler
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert records[0]["msg"] == "crash"
        assert records[0]["sim_time"] == 42.0
        assert records[0]["level"] == "info"
        assert records[0]["logger"] == "repro.memsim"

    def test_invalid_level_rejected(self):
        with pytest.raises(ValidationError):
            obs.configure_logging("chatty")

    def test_unconfigured_library_is_silent(self):
        root = logging.getLogger("repro")
        assert all(isinstance(h, logging.NullHandler) for h in root.handlers)
        assert root.propagate is False


class TestManifest:
    def _session_with_activity(self):
        session = obs.TelemetrySession()
        with session.spans.span("simulate"):
            with session.spans.span("machine-run", seed=3):
                pass
        session.metrics.counter("sim.events_fired").inc(100)
        session.metrics.gauge("sim.queue_depth").set(7)
        session.record_event("crash", sim_time=5000.0, reason="commit")
        return session

    def test_build_freezes_session(self):
        session = self._session_with_activity()
        manifest = obs.build_manifest(
            session, command="simulate", config={"seed": 3}, seed=3,
            outcome={"crashed": True},
        )
        assert manifest.command == "simulate"
        assert manifest.wall_seconds is not None
        assert manifest.versions["repro"]
        assert len(manifest.spans) == 2
        assert manifest.metrics["sim.events_fired"]["value"] == 100.0
        assert manifest.events[0]["kind"] == "crash"
        assert manifest.stage_durations()["simulate/machine-run"] >= 0.0

    def test_round_trip(self, tmp_path):
        manifest = obs.build_manifest(
            self._session_with_activity(), command="simulate", seed=3)
        path = obs.write_manifest(manifest, tmp_path / "run")
        back = obs.read_manifest(path)
        assert back.command == manifest.command
        assert back.seed == 3
        assert back.spans == manifest.spans
        assert back.metrics == manifest.metrics
        assert back.events == manifest.events
        assert back.wall_seconds == pytest.approx(manifest.wall_seconds)

    def test_events_jsonl_is_line_per_event(self, tmp_path):
        session = self._session_with_activity()
        session.record_event("alarm", sim_time=4000.0)
        obs.write_manifest(
            obs.build_manifest(session, command="simulate"), tmp_path)
        lines = (tmp_path / obs.EVENTS_FILENAME).read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "alarm"

    def test_load_manifests_over_directory(self, tmp_path):
        for i, cmd in enumerate(("simulate", "analyze")):
            m = obs.build_manifest(
                obs.TelemetrySession(), command=cmd, seed=i)
            m.started_at = float(i)  # force deterministic ordering
            obs.write_manifest(m, tmp_path / f"run{i}")
        manifests = obs.load_manifests(tmp_path)
        assert [m.command for m in manifests] == ["simulate", "analyze"]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": "bogus/9", "command": "x"}))
        with pytest.raises(TraceError):
            obs.read_manifest(path)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            obs.load_manifests(tmp_path / "nope")
        with pytest.raises(TraceError):
            obs.load_manifests(tmp_path)  # exists but holds no manifests
