"""Tests for live watch sessions (repro.obs.live) and their timeline stream."""

import json

import numpy as np
import pytest

from repro.core import OnlineAgingMonitor
from repro.exceptions import ReproError, TraceError
from repro.generators import fbm
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.live import LiveWatcher, validate_watch_timeline
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    TimelineRecorder,
    read_timeline,
    validate_timeline,
)


def fast_monitor(**overrides):
    kwargs = dict(chunk_size=128, history=512, indicator_window=256,
                  n_warmup=1, n_calibration=10)
    kwargs.update(overrides)
    return OnlineAgingMonitor(**kwargs)


_RECORDERS = []


@pytest.fixture(autouse=True)
def _finalize_recorders():
    """Finalize every recorder a test made, so no frame thread or
    note listener outlives the test."""
    yield
    while _RECORDERS:
        _RECORDERS.pop().finalize()


def memory_recorder():
    """A memory-only recorder whose ring holds a whole test session."""
    recorder = TimelineRecorder(None, interval=60.0, ring=100_000)
    _RECORDERS.append(recorder)
    return recorder


def make_watcher(**overrides):
    kwargs = dict(timeline=memory_recorder(), counter="x", status_every=0.0)
    kwargs.update(overrides)
    return LiveWatcher(fast_monitor(), **kwargs)


def annotations(watcher, event=None):
    """The watch annotations a watcher recorded (optionally one event)."""
    return [r for r in watcher.timeline.records()
            if r["kind"] == "annotation"
            and (event is None or r["event"] == event)]


def watch_stream(*events, end=None):
    """A hand-built watch timeline: header, one annotation per event
    (``t`` counting up from 1), then ``end`` when given."""
    records = [{"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0,
                "fields": {"counter": "x", "source": {}, "monitor": {},
                           "rules": []}}]
    for i, event in enumerate(events, start=1):
        records.append({"kind": "annotation", "t": float(i), **event})
    if end is not None:
        records.append({"kind": "end", "t": float(len(events) + 1), **end})
    return records


GOOD_END = {"sim_t": 9.0, "n_samples": 1, "n_indicators": 0,
            "state": "buffering", "alarm_time": None, "crash_time": 9.0,
            "lead_time": None, "alerts": {}}


class TestValidation:
    """The disk-side checks a watch timeline gets when it is read back."""

    def test_good_events_pass(self):
        counts = validate_watch_timeline(watch_stream(
            {"event": "sample", "sim_t": 1.0, "value": 3.0},
            {"event": "crash", "sim_t": 9.0, "reason": "memory"},
            end=GOOD_END))
        assert counts == {"sample": 1, "crash": 1, "end": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown watch event"):
            validate_watch_timeline(watch_stream(
                {"event": "mystery", "sim_t": 0.0}))

    def test_missing_fields_rejected(self):
        with pytest.raises(TraceError, match="missing"):
            validate_watch_timeline(watch_stream(
                {"event": "sample", "sim_t": 0.0}))
        with pytest.raises(TraceError, match="end missing"):
            validate_watch_timeline(watch_stream(
                end={"sim_t": 1.0, "n_samples": 0}))

    def test_nonfinite_time_rejected(self):
        for sim_t in (float("nan"), float("inf"), None, "1.0", True):
            with pytest.raises(TraceError, match="finite"):
                validate_watch_timeline(watch_stream(
                    {"event": "sample", "sim_t": sim_t, "value": 1.0}))

    def test_non_numeric_value_rejected(self):
        with pytest.raises(TraceError, match="numeric"):
            validate_watch_timeline(watch_stream(
                {"event": "sample", "sim_t": 0.0, "value": "big"}))
        with pytest.raises(TraceError, match="numeric"):
            validate_watch_timeline(watch_stream(
                {"event": "alarm", "sim_t": 0.0, "indicator": 0.1,
                 "value": 0.1, "baseline": None}))

    def test_foreign_schema_rejected(self):
        records = watch_stream()
        records[0]["schema"] = "foo/9"
        with pytest.raises(ReproError, match="schema"):
            validate_watch_timeline(records)
        # A timeline that is not a watch session (a campaign's) is
        # refused by its header identity.
        campaign = [{"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0}]
        with pytest.raises(TraceError, match="not a watch timeline"):
            validate_watch_timeline(campaign)

    def test_stream_must_open_with_header(self):
        with pytest.raises(ReproError, match="header"):
            validate_watch_timeline([{"kind": "annotation", "t": 0.0,
                                      "event": "sample", "sim_t": 0.0,
                                      "value": 1.0}])

    def test_stream_time_monotonicity(self):
        with pytest.raises(TraceError, match="backwards"):
            validate_watch_timeline(watch_stream(
                {"event": "sample", "sim_t": 5.0, "value": 1.0},
                {"event": "sample", "sim_t": 4.0, "value": 1.0}))
        # The end record's sim_t counts too.
        with pytest.raises(TraceError, match="backwards"):
            validate_watch_timeline(watch_stream(
                {"event": "sample", "sim_t": 10.0, "value": 1.0},
                end=GOOD_END))

    def test_empty_stream_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            validate_watch_timeline([])


class TestLiveWatcher:
    def test_header_required_before_feed(self):
        watcher = make_watcher()
        with pytest.raises(TraceError, match="header"):
            watcher.feed(0.0, 1.0)

    def test_nonfinite_samples_dropped_not_fatal(self):
        watcher = make_watcher()
        watcher.write_header({"type": "test"})
        watcher.feed(0.0, 1.0)
        watcher.feed(1.0, float("nan"))
        watcher.feed(2.0, float("inf"))
        watcher.feed(3.0, 2.0)
        assert watcher.n_samples == 2
        assert watcher.n_dropped == 2
        assert not watcher.monitor.alarmed

    def test_sample_decimation(self):
        watcher = make_watcher(sample_every=4)
        watcher.write_header({"type": "test"})
        for i in range(16):
            watcher.feed(float(i), float(i))
        samples = annotations(watcher, "sample")
        assert [r["sim_t"] for r in samples] == [0.0, 4.0, 8.0, 12.0]
        # The monitor still saw every sample.
        assert watcher.monitor.n_samples == 16

    def test_full_session_produces_valid_stream(self):
        rng = np.random.default_rng(21)
        healthy = fbm(5000, 0.7, rng=rng)
        sick = healthy[-1] + 50.0 * rng.standard_normal(2000)
        x = np.concatenate([healthy, sick])

        engine = AlertEngine([AlertRule(
            name="ind-low", signal="indicator", kind="threshold",
            op="lt", value=0.0, severity="warning")])
        watcher = make_watcher(engine=engine, sample_every=8,
                               status_every=1000.0)
        watcher.write_header({"type": "test"})
        for i, value in enumerate(x):
            watcher.feed(float(i), float(value))
        end = watcher.finalize(crash_time=float(x.size), crash_reason="memory")

        records = watcher.timeline.records()
        assert validate_timeline(records)["end"] == 1
        counts = validate_watch_timeline(records)
        assert counts["crash"] == 1
        assert counts["end"] == 1
        assert counts["indicator"] >= 1
        assert counts["detector_state"] >= 2
        # The detector alarmed on the regime change, before the "crash".
        assert counts["alarm"] == 1
        assert end["alarm_time"] is not None
        assert end["lead_time"] > 0
        assert end["state"] == "alarmed"
        # The summary is the end record's payload.
        assert {k: records[-1][k] for k in end} == end
        assert records[0]["fields"]["source"] == {"type": "test"}
        assert records[0]["fields"]["rules"][0]["name"] == "ind-low"
        # detector_state transitions arrive in lifecycle order.
        states = [r["state"] for r in annotations(watcher, "detector_state")]
        assert states[0] == "calibrating"
        assert states[-1] == "alarmed"

    def test_status_heartbeats(self):
        lines = []
        watcher = make_watcher(status_every=100.0, on_status=lines.append)
        watcher.write_header({"type": "test"})
        for i in range(401):
            watcher.feed(float(i), 1.0 + 0.01 * i)
        assert len(annotations(watcher, "status")) == 4
        assert len(lines) == 4
        assert lines[0]["state"] in ("buffering", "calibrating")
        assert lines[0]["t"] == 100.0

    def test_finalize_without_crash(self):
        watcher = make_watcher()
        watcher.write_header({"type": "test"})
        watcher.feed(0.0, 1.0)
        end = watcher.finalize()
        assert end["crash_time"] is None
        assert end["lead_time"] is None
        assert annotations(watcher, "crash") == []

    def test_finalize_twice_rejected(self):
        watcher = make_watcher()
        watcher.write_header({"type": "test"})
        watcher.finalize()
        with pytest.raises(TraceError, match="finalized"):
            watcher.finalize()

    def test_no_recorder_keeps_no_records(self):
        watcher = LiveWatcher(fast_monitor(), counter="x", status_every=10.0)
        watcher.write_header({"type": "test"})
        for i in range(600):
            watcher.feed(float(i), 100.0 + (i % 7))
        end = watcher.finalize(crash_time=600.0, crash_reason="memory")
        assert end["n_samples"] == 600
        assert end["sim_t"] == 600.0
        assert end["crash_time"] == 600.0


class TestLiveAttachment:
    @pytest.fixture(scope="class")
    def watched_run(self):
        from repro.memsim.scenarios import build_scenario

        machine = build_scenario("stress", seed=7, max_run_seconds=20_000.0)
        monitor = OnlineAgingMonitor(chunk_size=128, history=2048,
                                     indicator_window=512, n_calibration=10)
        watcher = LiveWatcher(monitor, timeline=memory_recorder(),
                              sample_every=8)
        watcher.attach(machine)
        machine.run()
        end = watcher.finalize()
        return machine, watcher, end

    def test_stream_valid_and_alarm_precedes_crash(self, watched_run):
        machine, watcher, end = watched_run
        counts = validate_watch_timeline(watcher.timeline.records())
        assert counts["alarm"] == 1
        assert counts["crash"] == 1
        assert end["alarm_time"] < end["crash_time"]
        assert end["lead_time"] > 0
        assert end["crash_time"] == pytest.approx(machine.crash_time)

    def test_watcher_saw_every_sample(self, watched_run):
        machine, watcher, _ = watched_run
        times, _ = machine.sampler.samples_of("AvailableBytes")
        assert watcher.n_samples == len(times)

    def test_replay_reproduces_live_detection(self, watched_run):
        _, _, live_end = watched_run
        from repro.memsim.scenarios import build_scenario

        machine = build_scenario("stress", seed=7, max_run_seconds=20_000.0)
        result = machine.run()
        monitor = OnlineAgingMonitor(chunk_size=128, history=2048,
                                     indicator_window=512, n_calibration=10)
        watcher = LiveWatcher(monitor, timeline=memory_recorder(),
                              sample_every=0)
        end = watcher.replay(result.bundle)
        assert end["alarm_time"] == live_end["alarm_time"]
        assert end["crash_time"] == pytest.approx(live_end["crash_time"])
        header = watcher.timeline.records()[0]
        assert header["fields"]["source"]["type"] == "replay"

    def test_replay_unknown_counter_rejected(self, watched_run):
        monitor = fast_monitor()
        watcher = LiveWatcher(monitor, counter="NoSuchCounter")
        from repro.memsim.scenarios import build_scenario

        m2 = build_scenario("stress", seed=3, max_run_seconds=300.0)
        result = m2.run()
        with pytest.raises(TraceError, match="NoSuchCounter"):
            watcher.replay(result.bundle)


class TestRoundTrip:
    def test_read_events_validates(self, tmp_path):
        path = tmp_path / "watch.jsonl"
        watcher = LiveWatcher(fast_monitor(), counter="x",
                              timeline=TimelineRecorder(path, interval=60.0))
        watcher.write_header({"type": "test"})
        watcher.feed(0.0, 1.0)
        watcher.finalize(crash_time=5.0, crash_reason="memory")
        records = read_timeline(path)
        assert records[0]["kind"] == "header"
        assert records[-1]["kind"] == "end"
        assert records[-1]["crash_time"] == 5.0
        counts = validate_watch_timeline(records)
        assert counts == {"sample": 1, "crash": 1, "end": 1}

    def test_read_events_rejects_bad_json(self, tmp_path):
        path = tmp_path / "watch.jsonl"
        header = {"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0}
        path.write_text(json.dumps(header) + '\n{"kind": "annot\n'
                        + json.dumps({"kind": "end", "t": 1.0}) + "\n")
        with pytest.raises(ReproError, match="corrupt"):
            read_timeline(path)

    def test_prometheus_export(self):
        from repro.obs.export import timeline_to_prometheus

        engine = AlertEngine([AlertRule(
            name="low", signal="x", kind="threshold", op="lt", value=0.5,
            severity="critical")])
        watcher = make_watcher(engine=engine)
        watcher.write_header({"type": "test"})
        watcher.feed(0.0, 1.0)
        watcher.feed(1.0, 0.1)
        watcher.finalize(crash_time=10.0, crash_reason="memory")
        text = timeline_to_prometheus(watcher.timeline.records())
        assert 'repro_timeline_annotations_total{event="sample"} 2' in text
        assert ('repro_watch_alerts_fired_total{rule="low",'
                'severity="critical"} 1') in text
        assert "repro_watch_crash_time_seconds 10.0" in text
        # No alarm: the gauge is omitted, not exported as a fake value.
        assert "repro_watch_alarm_time_seconds" not in text
        assert "repro_watch_lead_seconds" not in text
        assert text.rstrip().endswith("# EOF")


class TestSamplerCursor:
    def test_read_since(self):
        from repro.memsim.scenarios import build_scenario

        machine = build_scenario("stress", seed=5, max_run_seconds=300.0)
        machine.run()
        sampler = machine.sampler
        times, values, cursor = sampler.read_since("AvailableBytes", 0)
        assert len(times) == len(values) == cursor > 0
        tail_t, tail_v, cursor2 = sampler.read_since("AvailableBytes", cursor)
        assert tail_t == [] or len(tail_t) == cursor2 - cursor
        with pytest.raises(TraceError, match="non-negative"):
            sampler.read_since("AvailableBytes", -1)

