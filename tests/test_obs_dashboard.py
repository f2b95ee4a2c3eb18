"""Tests for the self-contained HTML dashboards (repro.obs.dashboard)."""

import re

import numpy as np
import pytest

from repro.core import OnlineAgingMonitor
from repro.exceptions import TraceError, ValidationError
from repro.generators import fbm
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.dashboard import (
    campaign_cells_from_manifests,
    render_campaign_dashboard,
    render_run_dashboard,
    write_dashboard,
)
from repro.obs.live import LiveWatcher
from repro.obs.manifest import RunManifest
from repro.obs.timeline import TimelineRecorder


def memory_recorder():
    """A memory-only recorder whose ring holds a whole test session."""
    return TimelineRecorder(None, interval=60.0, ring=100_000)


@pytest.fixture(scope="module")
def watch_events():
    """A realistic alarmed-then-crashed watch stream (module-scoped: slow)."""
    rng = np.random.default_rng(31)
    healthy = fbm(5000, 0.7, rng=rng)
    sick = healthy[-1] + 50.0 * rng.standard_normal(2000)
    x = np.concatenate([healthy, sick])
    monitor = OnlineAgingMonitor(chunk_size=128, history=512,
                                 indicator_window=256, n_warmup=1,
                                 n_calibration=10)
    engine = AlertEngine([AlertRule(
        name="ind-low", signal="indicator", kind="threshold", op="lt",
        value=0.0, severity="critical")])
    watcher = LiveWatcher(monitor, timeline=memory_recorder(),
                          counter="x", engine=engine, sample_every=8,
                          status_every=1000.0)
    watcher.write_header({"type": "test", "seed": 31})
    for i, value in enumerate(x):
        watcher.feed(float(i), float(value))
    watcher.finalize(crash_time=float(x.size), crash_reason="memory")
    return watcher.timeline.records()


def cells_fixture():
    return {
        "stress-aging": {
            "scenario": "stress", "profile": "nt4", "fault_factor": 1.0,
            "runs": [
                {"seed": 1, "crashed": True, "crash_time": 9000.0,
                 "alarm_time": 4000.0, "lead_time": 5000.0,
                 "duration": 9000.0},
                {"seed": 2, "crashed": True, "crash_time": 8000.0,
                 "alarm_time": None, "lead_time": None, "duration": 8000.0},
            ],
            "crashed": 2, "detected": 1, "missed": 1, "median_lead": 5000.0,
            "false_alarms": 0, "lead_times": [5000.0],
        },
        "stress-healthy": {
            "scenario": "stress", "profile": "nt4", "fault_factor": 0.0,
            "runs": [
                {"seed": 60, "crashed": False, "crash_time": None,
                 "alarm_time": 7000.0, "lead_time": None,
                 "duration": 14000.0},
            ],
            "crashed": 0, "detected": 0, "missed": 0, "median_lead": None,
            "false_alarms": 1, "lead_times": [],
        },
    }


class TestRunDashboard:
    def test_renders_self_contained_html(self, watch_events):
        html = render_run_dashboard(watch_events)
        assert html.startswith("<!DOCTYPE html>")
        # No external resources of any kind.
        assert not re.search(r'(?:href|src)\s*=\s*"(?:https?:)?//', html)
        assert "<link" not in html
        assert "@import" not in html
        # Inline SVG charts for counter + indicator.
        assert html.count("<svg") == 2
        # Alarm and crash markers plus the alert table.
        assert "alarm" in html
        assert "crash" in html
        assert "ind-low" in html
        # KPI tiles include the lead time.
        assert "Lead time" in html

    def test_dark_mode_and_palette_tokens(self, watch_events):
        html = render_run_dashboard(watch_events)
        assert "prefers-color-scheme: dark" in html
        assert "--series-1" in html
        assert "--status-critical" in html

    def test_table_view_present(self, watch_events):
        # Contrast relief for the indicator series: a data table exists.
        html = render_run_dashboard(watch_events)
        assert "table view" in html

    def test_custom_title_escaped(self, watch_events):
        html = render_run_dashboard(watch_events,
                                    title="<script>alert(1)</script>")
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_rejects_invalid_stream(self):
        with pytest.raises(ValidationError):
            render_run_dashboard([{"kind": "sample", "t": 0.0, "value": 1.0}])
        # A campaign timeline is not a watch session.
        with pytest.raises(TraceError, match="not a watch timeline"):
            render_run_dashboard([{"kind": "header", "t": 0.0,
                                   "schema": "repro.timeline/1"}])

    def test_quiet_run_renders(self):
        # A short, healthy watch (no alarm, no crash, no alerts).
        monitor = OnlineAgingMonitor(chunk_size=128, history=512,
                                     indicator_window=256, n_warmup=1,
                                     n_calibration=10)
        watcher = LiveWatcher(monitor, timeline=memory_recorder(),
                              counter="x")
        watcher.write_header({"type": "test"})
        for i in range(300):
            watcher.feed(float(i), 100.0 + (i % 7))
        watcher.finalize()
        html = render_run_dashboard(watcher.timeline.records())
        assert "no alerts fired" in html
        assert "survived" in html


class TestCampaignDashboard:
    def test_renders_from_manifests(self):
        manifest = RunManifest(command="campaign",
                               outcome={"cells": cells_fixture()})
        html = render_campaign_dashboard([manifest])
        assert html.startswith("<!DOCTYPE html>")
        assert "stress-aging" in html
        assert "stress-healthy" in html
        # Detection rate and false-alarm accounting.
        assert "Detection rate" in html
        assert "False alarms" in html
        # Lead-time strip plot dots carry per-run tooltips.
        assert "Lead-time distribution" in html

    def test_renders_from_cells_directly(self):
        html = render_campaign_dashboard(cells=cells_fixture())
        assert "stress-aging" in html

    def test_false_alarm_rows(self):
        html = render_campaign_dashboard(cells=cells_fixture())
        # The healthy run that alarmed at t=7000 appears in the table.
        assert "7,000s" in html

    def test_non_campaign_manifests_rejected(self):
        with pytest.raises(TraceError, match="no campaign cells"):
            render_campaign_dashboard([RunManifest(command="simulate")])

    def test_cells_extraction_skips_foreign_manifests(self):
        good = RunManifest(command="campaign",
                           outcome={"cells": cells_fixture()})
        noise = RunManifest(command="simulate", outcome={"crashed": True})
        cells = campaign_cells_from_manifests([noise, good])
        assert set(cells) == set(cells_fixture())

    def test_duplicate_cell_names_suffixed(self):
        m1 = RunManifest(command="campaign",
                         outcome={"cells": cells_fixture()})
        m2 = RunManifest(command="campaign",
                         outcome={"cells": cells_fixture()})
        cells = campaign_cells_from_manifests([m1, m2])
        assert len(cells) == 4
        assert "stress-aging#2" in cells


class TestWriteDashboard:
    def test_writes_file(self, tmp_path, watch_events):
        html = render_run_dashboard(watch_events)
        path = write_dashboard(html, tmp_path / "sub" / "report.html")
        with open(path) as handle:
            assert handle.read() == html

    def test_rejects_non_dashboard_text(self, tmp_path):
        with pytest.raises(ValidationError, match="doctype"):
            write_dashboard("<p>hello</p>", tmp_path / "x.html")


class TestGoldenBytes:
    """Byte-identity freeze: extracting the shared chart helpers into
    repro.obs._chart and adding timeline/cost panels must not change a
    single byte of existing dashboards.  These hashes were taken from
    the pre-refactor renderer on fixed synthetic inputs.  RUN_SHA was
    retaken when watch sessions moved onto the timeline stream: the page
    differs from the old one in its footer line only."""

    RUN_SHA = ("f3c7d3606f4d8156d7d35fdc60a3a4ef8bbcfde1"
               "976037140db95f37ec957e2c")
    CAMPAIGN_SHA = ("2fe933a2d2e274f1347cab2577687218aefa095b"
                    "8d6a8624b3a04ccbaedb4de9")

    def _golden_events(self):
        monitor = OnlineAgingMonitor(chunk_size=128, history=512,
                                     indicator_window=256, n_warmup=1,
                                     n_calibration=10)
        watcher = LiveWatcher(monitor, timeline=memory_recorder(),
                              counter="x")
        watcher.write_header({"type": "golden", "seed": 0})
        for i in range(600):
            watcher.feed(float(i), 100.0 + (i % 7) - (i % 13))
        watcher.finalize()
        return watcher.timeline.records()

    def test_run_dashboard_bytes_frozen(self):
        import hashlib

        html = render_run_dashboard(self._golden_events(),
                                    title="golden-run")
        digest = hashlib.sha256(html.encode("utf-8")).hexdigest()
        assert digest == self.RUN_SHA

    def test_campaign_dashboard_bytes_frozen(self):
        import hashlib

        html = render_campaign_dashboard(cells=cells_fixture(),
                                         title="golden-campaign")
        digest = hashlib.sha256(html.encode("utf-8")).hexdigest()
        assert digest == self.CAMPAIGN_SHA

    def test_absent_history_changes_nothing(self):
        base = render_campaign_dashboard(cells=cells_fixture())
        again = render_campaign_dashboard(cells=cells_fixture(),
                                          timeline=None, costs=None)
        assert again == base


class TestMultiLineChart:
    def test_series_polylines_and_legend(self):
        from repro.obs._chart import multi_line_chart

        html = multi_line_chart("rss", "Resident set size", [
            ("parent", [0.0, 1.0, 2.0], [100.0, 110.0, 120.0]),
            ("worker 0", [0.0, 1.0, 2.0], [50.0, 55.0, 60.0]),
        ])
        assert html.count("<polyline") == 2
        assert 'class="line s1"' in html
        assert 'class="line s3"' in html
        assert "parent" in html and "worker 0" in html
        assert html.count('class="swatch') == 2
        assert 'data-chart="rss"' in html

    def test_empty_series_render_placeholder(self):
        from repro.obs._chart import multi_line_chart

        html = multi_line_chart("rss", "Resident set size", [
            ("parent", [], []),
        ])
        assert "no data" in html
        assert "<svg" not in html

    def test_markers_render_dots_and_event_lines(self):
        from repro.obs._chart import _Marker, multi_line_chart

        html = multi_line_chart("x", "t", [
            ("a", [0.0, 10.0], [1.0, 2.0]),
        ], markers=[
            _Marker(2.0, "retry", "warning", dot=True, title="retry #1"),
            _Marker(5.0, "died", "crash", title="worker death"),
        ])
        assert '<circle class="mark warning"' in html
        assert '<line class="event crash"' in html
        assert "retry #1" in html

    def test_label_escaped(self):
        from repro.obs._chart import multi_line_chart

        html = multi_line_chart("x", 'a<b>"t"', [
            ("<s>", [0.0], [1.0]),
        ])
        assert "<b>" not in html
        assert "<s>" not in html


def timeline_records():
    """A hand-built valid repro.timeline/1 stream with annotations."""
    from repro.obs.timeline import TIMELINE_SCHEMA

    def frame(seq, t, done, rate, eta, parent_rss, worker_rss):
        return {
            "kind": "frame", "seq": seq, "t": t, "wall_time": 5e9 + t,
            "counters": {"campaign.runs_completed": done}, "deltas": {},
            "progress": {
                "state": "running", "total_units": 4, "units_done": done,
                "units_failed": 0, "units_remaining": 4 - done,
                "units_per_second": rate, "eta_seconds": eta,
                "last_progress_at": 5e9 + t,
            },
            "resources": {
                "parent_rss_bytes": parent_rss, "parent_cpu_seconds": t,
                "workers": [{"ordinal": 0, "rss_bytes": worker_rss,
                             "cpu_seconds": t / 2}],
            },
        }

    return [
        {"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0,
         "wall_time": 5e9, "pid": 1, "interval": 1.0},
        frame(0, 1.0, 1, 1.0, 3.0, 1000, 400),
        {"kind": "annotation", "t": 1.5, "wall_time": 5e9 + 1.5,
         "event": "retry", "index": 2, "attempt": 1},
        frame(1, 2.0, 2, 1.2, 1.7, 1100, 600),
        {"kind": "annotation", "t": 2.5, "wall_time": 5e9 + 2.5,
         "event": "worker-death", "index": 3},
        frame(2, 3.0, 4, 0.9, 0.0, 900, 500),
        {"kind": "end", "t": 3.5, "wall_time": 5e9 + 3.5, "status": "ok",
         "frames": 3, "annotations": 2},
    ]


def costs_fixture():
    from repro.obs.costs import build_cost_profile

    spans = [
        {"path": "campaign-pool", "duration": 10.0, "attrs": {}},
        {"path": "campaign-pool/campaign-worker/cell-run/machine-run",
         "duration": 5.0, "attrs": {"worker_ordinal": 0}},
        {"path": "campaign-pool/campaign-worker/cell-run/holder",
         "duration": 3.0, "attrs": {"worker_ordinal": 0}},
    ]
    return build_cost_profile(spans)


class TestTimelineDashboard:
    def test_renders_self_contained_page(self):
        from repro.obs.dashboard import render_timeline_dashboard

        html = render_timeline_dashboard(timeline_records())
        assert html.startswith("<!DOCTYPE html>")
        assert not re.search(r'(?:href|src)\s*=\s*"(?:https?:)?//', html)
        assert "Campaign timeline" in html
        for chart_id in ("tl-throughput", "tl-rss", "tl-eta"):
            assert f'data-chart="{chart_id}"' in html
        # Per-worker RSS legend and the disruption tile.
        assert "worker 0" in html
        assert "Disruptions" in html

    def test_annotations_become_markers(self):
        from repro.obs.dashboard import render_timeline_dashboard

        html = render_timeline_dashboard(timeline_records())
        # retry -> baseline dot, worker-death -> full-height event line.
        assert '<circle class="mark warning"' in html
        assert '<line class="event crash"' in html

    def test_costs_panel_included_when_given(self):
        from repro.obs.dashboard import render_timeline_dashboard

        base = render_timeline_dashboard(timeline_records())
        html = render_timeline_dashboard(timeline_records(),
                                         costs=costs_fixture())
        assert "Cost attribution" not in base
        assert "Cost attribution" in html
        assert "pool-overhead" in html
        assert "cwt-holder" in html

    def test_rejects_invalid_stream(self):
        from repro.obs.dashboard import render_timeline_dashboard

        with pytest.raises(ValidationError):
            render_timeline_dashboard([{"kind": "frame", "seq": 0,
                                        "t": 0.0}])

    def test_campaign_dashboard_gains_history_section(self):
        html = render_campaign_dashboard(cells=cells_fixture(),
                                         timeline=timeline_records(),
                                         costs=costs_fixture())
        assert "stress-aging" in html  # cells still there
        assert "Campaign timeline" in html
        assert "Cost attribution" in html

    def test_costs_alone_render_without_timeline(self):
        html = render_campaign_dashboard(cells=cells_fixture(),
                                         costs=costs_fixture())
        assert "Cost attribution" in html
        assert "Campaign timeline" not in html
