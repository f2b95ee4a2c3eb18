"""Tests for the telemetry exporters (repro.obs.export)."""

import csv
import io
import json
import re

import pytest

from repro import obs
from repro.exceptions import ValidationError
from repro.obs.export import (
    PrometheusWriter,
    flatten_metrics,
    manifests_to_csv,
    manifests_to_json,
    manifests_to_prometheus,
    session_to_prometheus,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


def _session_with_activity():
    session = obs.TelemetrySession()
    with session.spans.span("simulate"):
        with session.spans.span("machine-run", seed=3):
            pass
    session.metrics.counter("sim.events_fired").inc(100)
    session.metrics.gauge("sim.queue_depth").set(7)
    hist = session.metrics.histogram("sim.latency")
    for v in range(1, 101):
        hist.observe(float(v))
    session.record_event("crash", sim_time=5000.0, reason="commit")
    session.record_event("crash", sim_time=6000.0, reason="commit")
    return session


def _manifest(**kwargs):
    defaults = dict(command="simulate", seed=3)
    defaults.update(kwargs)
    return obs.build_manifest(_session_with_activity(), **defaults)


# -- a minimal exposition-format parser for round-trip checks ------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text):
    """Parse exposition text into {type: ..., samples: [(name, labels, val)]}.

    Strict about structure: every non-comment line must be a valid
    sample whose family was declared by a preceding # TYPE line, and the
    document must end with # EOF.
    """
    families = {}
    samples = []
    lines = text.splitlines()
    assert lines[-1] == "# EOF", "exposition must terminate with # EOF"
    for line in lines[:-1]:
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, mtype = rest.split(" ")
            assert name not in families, f"family {name} declared twice"
            families[name] = mtype
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), f"unknown comment: {line!r}"
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"malformed sample line: {line!r}"
        base = m.group("name")
        for suffix in ("_total", "_count", "_sum"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
                break
        assert base in families, f"sample {m.group('name')} has no # TYPE"
        labels = dict(_LABEL_RE.findall(m.group("labels") or ""))
        samples.append((m.group("name"), labels, float(m.group("value"))))
    return {"families": families, "samples": samples}


class TestFlatten:
    def test_matches_registry_snapshot(self):
        session = _session_with_activity()
        snap = session.metrics.snapshot()
        flat = flatten_metrics(snap)
        assert flat["sim.events_fired.value"] == 100.0
        assert flat["sim.queue_depth.value"] == 7.0
        assert flat["sim.queue_depth.max"] == 7.0
        assert flat["sim.latency.count"] == 100
        assert flat["sim.latency.p50"] == snap["sim.latency"]["p50"]
        # nothing invented: every flat key unparses to a snapshot field
        for key, value in flat.items():
            name, _, field = key.rpartition(".")
            assert snap[name][field] == value

    def test_drops_type_and_none(self):
        flat = flatten_metrics({"empty.hist": {
            "type": "histogram", "count": 0, "min": None, "p50": None,
        }})
        assert flat == {"empty.hist.count": 0}


class TestJsonCsv:
    def test_json_records_shape(self):
        records = manifests_to_json([_manifest(), _manifest(command="analyze")])
        assert [r["command"] for r in records] == ["simulate", "analyze"]
        rec = records[0]
        assert rec["run"] == 0
        assert rec["seed"] == 3
        assert rec["n_events"] == 2
        assert rec["metrics"]["sim.events_fired.value"] == 100.0
        assert "simulate/machine-run" in rec["stage_seconds"]
        json.dumps(records)  # must be serialisable as-is

    def test_csv_rows_match_snapshot(self):
        manifest = _manifest()
        rows = list(csv.reader(io.StringIO(manifests_to_csv([manifest]))))
        assert rows[0] == ["run", "command", "seed", "metric", "value"]
        by_metric = {r[3]: r[4] for r in rows[1:]}
        flat = flatten_metrics(manifest.metrics)
        for name, value in flat.items():
            assert float(by_metric[name]) == pytest.approx(float(value))
        assert "run.wall_seconds" in by_metric
        assert "stage.simulate/machine-run.seconds" in by_metric
        assert all(r[0] == "0" and r[1] == "simulate" for r in rows[1:])


class TestPrometheusWriter:
    def test_counter_gets_total_suffix(self):
        w = PrometheusWriter()
        w.sample("events_fired", "counter", 5)
        text = w.render()
        assert "# TYPE repro_events_fired counter" in text
        assert "repro_events_fired_total 5.0" in text

    def test_type_conflict_rejected(self):
        w = PrometheusWriter()
        w.sample("x", "counter", 1)
        with pytest.raises(ValidationError):
            w.sample("x", "gauge", 2)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            PrometheusWriter().sample("x", "wavelet", 1)

    def test_label_escaping(self):
        w = PrometheusWriter()
        w.sample("x", "gauge", 1, labels={"path": 'a"b\\c\nd'})
        line = [l for l in w.render().splitlines() if l.startswith("repro_x{")][0]
        assert r'path="a\"b\\c\nd"' in line

    def test_invalid_name_chars_sanitised(self):
        w = PrometheusWriter()
        w.sample("sim.queue-depth", "gauge", 1)
        assert "# TYPE repro_sim_queue_depth gauge" in w.render()


class TestManifestExposition:
    def test_round_trips_through_parser(self):
        manifest = _manifest()
        parsed = parse_openmetrics(manifests_to_prometheus([manifest]))
        families = parsed["families"]
        assert families["repro_run_wall_seconds"] == "gauge"
        assert families["repro_stage_seconds"] == "gauge"
        assert families["repro_events"] == "counter"
        assert families["repro_sim_events_fired"] == "counter"
        assert families["repro_sim_latency"] == "summary"
        by_name = {}
        for name, labels, value in parsed["samples"]:
            by_name.setdefault(name, []).append((labels, value))
        [(labels, value)] = by_name["repro_sim_events_fired_total"]
        assert value == 100.0
        assert labels == {"run": "0", "command": "simulate", "seed": "3"}
        [(labels, value)] = by_name["repro_events_total"]
        assert labels["kind"] == "crash" and value == 2.0
        quantiles = {
            labels["quantile"]: value
            for labels, value in by_name["repro_sim_latency"]
        }
        assert set(quantiles) == {"0.5", "0.9", "0.99"}
        assert quantiles["0.5"] == pytest.approx(50.5)

    def test_summary_count_and_sum(self):
        text = manifests_to_prometheus([_manifest()])
        assert "repro_sim_latency_count" in text
        assert "repro_sim_latency_sum" in text
        assert text.endswith("# EOF\n")

    def test_multi_run_series_share_families(self):
        manifests = [_manifest(), _manifest(seed=4)]
        parsed = parse_openmetrics(manifests_to_prometheus(manifests))
        runs = {
            labels["run"]
            for name, labels, _ in parsed["samples"]
            if name == "repro_sim_events_fired_total"
        }
        assert runs == {"0", "1"}

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            manifests_to_prometheus([])

    def test_session_export(self):
        parsed = parse_openmetrics(
            session_to_prometheus(_session_with_activity()))
        assert "repro_sim_latency" in parsed["families"]
        assert "repro_sim_events_fired" in parsed["families"]


_LEGAL_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


class TestNameSanitisation:
    """Regression tests: grid-campaign instruments are named after
    ``<cell>@<detector>`` pairs; every exported name must still match
    the exposition grammar ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""

    def test_cell_at_detector_names_export_legal(self):
        session = obs.TelemetrySession()
        session.metrics.counter(
            "campaign.stress-aging@entropy.runs_completed").inc(2)
        session.metrics.counter(
            "scoreboard.w2k@page-faults+cusum.alarms").inc()
        session.metrics.gauge("resources.worker.0.rss_bytes").set(5.0)
        text = session_to_prometheus(session)
        parsed = parse_openmetrics(text)  # already strict about names
        for name in parsed["families"]:
            assert _LEGAL_NAME_RE.fullmatch(name), name
        for name, _, _ in parsed["samples"]:
            assert _LEGAL_NAME_RE.fullmatch(name), name
        assert "repro_campaign_stress_aging_entropy_runs_completed" in (
            parsed["families"])
        counts = {
            name: value for name, _, value in parsed["samples"]
            if name.startswith("repro_scoreboard_")
        }
        assert counts == {
            "repro_scoreboard_w2k_page_faults_cusum_alarms_total": 1.0}

    def test_colliding_raw_names_merge_into_one_family(self):
        # "cell@a" and "cell.a" both sanitize to cell_a: one # TYPE
        # declaration, both samples kept.
        w = PrometheusWriter()
        w.sample("cell@a", "counter", 1)
        w.sample("cell.a", "counter", 2)
        text = w.render()
        assert text.count("# TYPE repro_cell_a counter") == 1
        assert len(parse_openmetrics(text)["samples"]) == 2

    def test_colliding_raw_names_with_conflicting_types_raise(self):
        w = PrometheusWriter()
        w.sample("cell@a", "counter", 1)
        with pytest.raises(ValidationError, match="already declared"):
            w.sample("cell.a", "gauge", 2)

    def test_leading_digit_guarded(self):
        w = PrometheusWriter(prefix="")
        w.sample("0weird", "gauge", 1)
        assert "# TYPE _0weird gauge" in w.render()

    def test_timestamp_appended_to_sample_line(self):
        w = PrometheusWriter()
        w.sample("x", "gauge", 1, timestamp=123.5)
        assert "repro_x 1.0 123.5" in w.render()


# Timestamped exposition lines: "name{labels} value timestamp".
_STAMPED_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<stamp>[^ ]+))?$"
)


class TestTimelineExposition:
    def _records(self):
        def frame(seq, t, done, parent_rss, worker_rss):
            return {
                "kind": "frame", "seq": seq, "t": t, "wall_time": 5e9 + t,
                "counters": {}, "deltas": {},
                "progress": {"units_done": done, "units_failed": 0,
                             "units_remaining": 4 - done,
                             "units_per_second": 1.0, "eta_seconds": 4 - done},
                "resources": {"parent_rss_bytes": parent_rss,
                              "workers": [{"ordinal": 0,
                                           "rss_bytes": worker_rss}]},
            }
        from repro.obs.timeline import TIMELINE_SCHEMA
        return [
            {"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0},
            frame(0, 1.0, 1, 1000, 400),
            {"kind": "annotation", "t": 1.5, "event": "retry"},
            {"kind": "annotation", "t": 1.7, "event": "retry"},
            {"kind": "annotation", "t": 2.5, "event": "worker-death"},
            frame(1, 2.0, 2, 1100, 600),
            {"kind": "end", "t": 3.0, "status": "ok"},
        ]

    def test_frames_export_timestamped_gauges(self):
        from repro.obs.export import timeline_to_prometheus

        text = timeline_to_prometheus(self._records())
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        samples = []
        for line in lines:
            m = _STAMPED_RE.match(line)
            assert m, f"malformed sample line: {line!r}"
            assert _LEGAL_NAME_RE.fullmatch(m.group("name"))
            samples.append(m)
        done = [m for m in samples
                if m.group("name") == "repro_timeline_units_done"]
        assert [m.group("value") for m in done] == ["1.0", "2.0"]
        assert [m.group("stamp") for m in done] == [
            repr(5e9 + 1.0), repr(5e9 + 2.0)]
        rss = [m for m in samples
               if m.group("name") == "repro_timeline_rss_bytes"]
        assert {m.group("labels") for m in rss} == {
            'process="parent"', 'process="worker0"'}

    def test_annotations_export_as_event_counters(self):
        from repro.obs.export import timeline_to_prometheus

        text = timeline_to_prometheus(self._records())
        assert ('repro_timeline_annotations_total{event="retry"} 2'
                in text)
        assert ('repro_timeline_annotations_total{event="worker-death"} 1'
                in text)

    def test_no_frames_rejected(self):
        from repro.obs.export import timeline_to_prometheus

        with pytest.raises(ValidationError, match="no timeline frames"):
            timeline_to_prometheus([{"kind": "header"}])
