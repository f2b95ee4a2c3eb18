"""Tests for the live status surface (repro.obs.statusd): the progress
board, the HTTP endpoints, and the control plane wired end to end around
a real parallel campaign — including the bit-identical guarantee."""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.analysis import cells_payload, execute_campaign
from repro.analysis.campaign import ExperimentSpec
from repro.exceptions import ValidationError
from repro.obs.resources import ResourceSampler, compact_resources
from repro.obs.statusd import STATUS_SCHEMA, StatusBoard, StatusServer
from repro.obs.timeline import TimelineRecorder
from repro.perf.pool import pool_worker_pids


@pytest.fixture(autouse=True)
def _clean_control_plane():
    obs.uninstall_flight_recorder()
    obs.disable_telemetry()
    yield
    obs.uninstall_flight_recorder()
    obs.disable_telemetry()


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def http_get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode()


class TestStatusBoard:
    def test_alpha_validated(self):
        with pytest.raises(ValidationError, match="ewma_alpha"):
            StatusBoard(ewma_alpha=0.0)
        with pytest.raises(ValidationError, match="ewma_alpha"):
            StatusBoard(ewma_alpha=1.5)

    def test_idle_snapshot(self):
        snap = StatusBoard(kind="watch").snapshot()
        assert snap["kind"] == "watch"
        assert snap["state"] == "idle"
        assert snap["total_units"] == 0
        assert snap["eta_seconds"] is None
        assert snap["last_progress_at"] is None

    def test_progress_eta_and_heartbeat(self):
        clock = FakeClock()
        board = StatusBoard(ewma_alpha=1.0, clock=clock)
        board.begin(total_units=4, cells={"aging": 2, "healthy": 2})
        clock.tick(10.0)
        board.unit_finished(cell="aging")
        snap = board.snapshot()
        assert snap["state"] == "running"
        assert snap["units_done"] == 1
        assert snap["units_remaining"] == 3
        assert snap["cells"]["aging"]["done"] == 1
        assert snap["last_progress_at"] == clock.now
        # alpha=1 makes the EWMA the last interval exactly: 10s x 3 left.
        assert snap["eta_seconds"] == pytest.approx(30.0)
        assert snap["units_per_second"] == pytest.approx(0.1)

    def test_failed_units_tracked(self):
        board = StatusBoard()
        board.begin(total_units=2, cells={"a": 2})
        board.unit_failed(cell="a", error="worker died")
        snap = board.snapshot()
        assert snap["units_failed"] == 1
        assert snap["cells"]["a"]["failed"] == 1
        assert snap["last_error"] == "worker died"

    def test_resumed_units_shrink_remaining(self):
        board = StatusBoard()
        board.begin(total_units=4, resumed=3)
        assert board.snapshot()["units_remaining"] == 1

    def test_remaining_never_negative(self):
        board = StatusBoard()
        board.begin(total_units=1)
        board.unit_finished()
        board.unit_finished()
        assert board.snapshot()["units_remaining"] == 0

    def test_unknown_cell_ignored(self):
        board = StatusBoard()
        board.begin(total_units=1, cells={"a": 1})
        board.unit_finished(cell="not-a-cell")  # must not raise
        assert board.snapshot()["units_done"] == 1

    def test_fields_merge_and_finish(self):
        board = StatusBoard()
        board.begin(total_units=1, journal="/tmp/j.jsonl")
        board.update(workers=2)
        board.finish("complete", missing_units=0)
        snap = board.snapshot()
        assert snap["state"] == "complete"
        assert snap["journal"] == "/tmp/j.jsonl"
        assert snap["workers"] == 2
        assert snap["missing_units"] == 0

    # -- ETA edge cases: never negative, never NaN ------------------------------

    @staticmethod
    def _assert_sane_eta(snap):
        eta = snap["eta_seconds"]
        rate = snap["units_per_second"]
        for value in (eta, rate):
            if value is not None:
                assert value == value, "ETA fields must never be NaN"
                assert value >= 0.0, "ETA fields must never be negative"

    def test_zero_duration_units(self):
        # Every unit finishes at the same clock instant (cache-hot
        # replays): the EWMA interval is 0, the ETA 0 or None — not NaN.
        clock = FakeClock()
        board = StatusBoard(clock=clock)
        board.begin(total_units=4)
        for _ in range(3):
            board.unit_finished()
        snap = board.snapshot()
        self._assert_sane_eta(snap)
        assert snap["eta_seconds"] in (None, 0.0)
        assert snap["units_remaining"] == 1

    def test_single_unit_campaign(self):
        clock = FakeClock()
        board = StatusBoard(clock=clock)
        board.begin(total_units=1)
        self._assert_sane_eta(board.snapshot())
        clock.tick(3.0)
        board.unit_finished()
        snap = board.snapshot()
        self._assert_sane_eta(snap)
        assert snap["eta_seconds"] is None  # nothing remaining
        assert snap["units_remaining"] == 0

    def test_resume_with_everything_done(self):
        # Resuming a finished campaign: zero pending units, no
        # unit_finished calls ever arrive.
        board = StatusBoard()
        board.begin(total_units=4, resumed=4)
        snap = board.snapshot()
        self._assert_sane_eta(snap)
        assert snap["eta_seconds"] is None
        assert snap["units_remaining"] == 0

    def test_eta_sane_under_clock_regression(self):
        # A clock stepping backwards between finishes must not produce a
        # negative interval, ETA or rate.
        clock = FakeClock()
        board = StatusBoard(ewma_alpha=1.0, clock=clock)
        board.begin(total_units=3)
        clock.tick(5.0)
        board.unit_finished()
        clock.tick(-10.0)
        board.unit_finished()
        snap = board.snapshot()
        self._assert_sane_eta(snap)
        assert snap["eta_seconds"] == pytest.approx(0.0)


class TestStatusServer:
    def test_port_validated(self):
        with pytest.raises(ValidationError, match="port"):
            StatusServer(port=70000)

    def test_unstarted_has_no_port(self):
        server = StatusServer()
        assert server.port is None
        assert server.url is None
        server.stop()  # idempotent no-op

    def test_endpoints(self):
        obs.enable_telemetry()
        obs.counter("campaign.runs_completed").inc(3)
        obs.counter("core.irrelevant").inc()
        board = StatusBoard()
        board.begin(total_units=3)
        sampler = ResourceSampler()
        sampler.sample_once()
        with StatusServer(board=board, resources=sampler) as server:
            assert server.port > 0

            code, body = http_get(server.url + "/healthz")
            assert code == 200
            assert json.loads(body) == {"status": "ok"}

            code, body = http_get(server.url + "/status")
            payload = json.loads(body)
            assert code == 200
            assert payload["schema"] == STATUS_SCHEMA
            assert payload["total_units"] == 3
            assert payload["counters"]["campaign.runs_completed"] == 3.0
            assert "core.irrelevant" not in payload["counters"]
            assert payload["resources"]["parent"]["pid"] == os.getpid()

            code, body = http_get(server.url + "/metrics")
            assert code == 200
            assert "# TYPE" in body
            assert body.endswith("# EOF\n")

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(server.url + "/nope")
            assert excinfo.value.code == 404
            assert "/status" in json.loads(excinfo.value.read())["paths"]
        assert server.port is None

    def test_stop_leaves_no_threads(self):
        server = StatusServer()
        server.start()
        server.stop()
        server.stop()  # idempotent
        assert "repro-statusd" not in {t.name for t in threading.enumerate()}


@pytest.fixture(scope="module")
def specs():
    return [
        ExperimentSpec(name="aging", scenario="stress", n_runs=2,
                       base_seed=31, max_run_seconds=20_000.0),
        ExperimentSpec(name="healthy", scenario="stress", n_runs=2,
                       base_seed=131, fault_factor=0.0,
                       max_run_seconds=6_000.0),
    ]


@pytest.fixture(scope="module")
def reference(specs):
    """The calm no-control-plane payload every instrumented run must equal."""
    return cells_payload(execute_campaign(specs).results)


class TestCampaignControlPlane:
    def test_live_scrapes_during_campaign(self, specs, reference, tmp_path):
        """Scrape /status and /metrics from a client thread while a real
        2-worker campaign runs with the full control plane attached."""
        session = obs.enable_telemetry()
        recorder = obs.install_flight_recorder(
            obs.FlightRecorder(path=tmp_path / "flight.json"))
        board = StatusBoard()
        sampler = ResourceSampler(worker_pids=pool_worker_pids)
        timeline = TimelineRecorder(interval=0.2, board=board,
                                    resources=sampler).start()
        server = StatusServer(board=board, resources=sampler,
                              timeline=timeline)
        port = server.start()

        stop = threading.Event()
        statuses, metrics_pages, errors = [], [], []

        def scrape():
            base = f"http://127.0.0.1:{port}"
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                            base + "/status", timeout=10) as resp:
                        statuses.append(json.loads(resp.read()))
                    with urllib.request.urlopen(
                            base + "/metrics", timeout=10) as resp:
                        metrics_pages.append(resp.read().decode())
                except Exception as exc:  # pragma: no cover - fail the test
                    errors.append(exc)
                time.sleep(0.05)

        client = threading.Thread(target=scrape)
        client.start()
        try:
            outcome = execute_campaign(specs, workers=2, status=board,
                                       timeline=timeline)
        finally:
            stop.set()
            client.join(timeout=30)
            server.stop()
            timeline.finalize()

        assert not errors
        assert outcome.complete

        # The control plane observed without perturbing: bit-identical
        # payload to the run with nothing attached.
        assert cells_payload(outcome.results) == reference

        # Every /status scrape was a valid, monotone document.
        assert statuses
        assert all(p["schema"] == STATUS_SCHEMA for p in statuses)
        dones = [p["units_done"] for p in statuses]
        assert dones == sorted(dones)
        assert any(p["state"] == "running" for p in statuses)

        # Every /metrics scrape was valid OpenMetrics text.
        assert metrics_pages
        assert all(page.endswith("# EOF\n") for page in metrics_pages)

        # The final document reports completion under the campaign trace.
        final = server.status_payload()
        assert final["state"] == "complete"
        assert final["units_done"] == 4
        assert final["units_remaining"] == 0
        assert final["trace_id"] == session.trace_id
        assert session.trace_id is not None
        assert final["counters"]["campaign.runs_completed"] == 4.0
        assert final["resources"]["parent"]["rss_bytes"] > 0
        # /status serves the sweep the recorder's last frame took.
        last_frame = [r for r in timeline.records()
                      if r["kind"] == "frame"][-1]
        assert last_frame["resources"] == compact_resources(
            final["resources"])

        # The recorder saw unit outcomes; a clean run dumps nothing.
        assert any(r["kind"] == "unit" for r in recorder.records())
        assert not (tmp_path / "flight.json").exists()

        # Clean shutdown: no control-plane threads survive.
        names = {t.name for t in threading.enumerate()}
        assert "repro-statusd" not in names
        assert "repro-timeline" not in names

    def test_resume_surfaces_last_progress(self, tmp_path):
        specs = [ExperimentSpec(name="quick", scenario="stress", n_runs=1,
                                base_seed=9, fault_factor=0.0,
                                max_run_seconds=2_000.0)]
        journal = tmp_path / "j.jsonl"
        before = time.time()
        execute_campaign(specs, journal=journal)

        board = StatusBoard()
        outcome = execute_campaign(specs, journal=journal, resume=True,
                                   status=board)
        assert outcome.resumed_units == 1
        assert outcome.resumed_last_progress_at is not None
        assert before <= outcome.resumed_last_progress_at <= time.time()
        snap = board.snapshot()
        assert snap["units_resumed"] == 1
        assert (snap["resumed_last_progress_at"]
                == outcome.resumed_last_progress_at)
