"""Tests for process resource telemetry (repro.obs.resources):
/proc parsing against a synthetic fixture, the no-/proc fallback,
worker ordinal assignment, and the self-watch detector loop."""

import os

import pytest

from repro import obs
from repro.obs.resources import (
    DEFAULT_SELF_WATCH_RULES,
    ProcessSample,
    ResourceSampler,
    SelfWatch,
    read_proc_stat,
    sample_process,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


def write_proc_entry(root, pid, *, comm="campaign (w0)", utime=50, stime=25,
                     threads=3, rss_pages=1000, n_fds=4):
    """A synthetic /proc/<pid> with a stat file and an fd directory.

    The comm deliberately contains spaces and parentheses — the parser
    must split at the *last* ``)``.
    """
    entry = root / str(pid)
    (entry / "fd").mkdir(parents=True)
    for i in range(n_fds):
        (entry / "fd" / str(i)).write_text("")
    fields = ["S"] + ["0"] * 24
    fields[11] = str(utime)      # utime (field 14 in proc(5))
    fields[12] = str(stime)      # stime (field 15)
    fields[17] = str(threads)    # num_threads (field 20)
    fields[21] = str(rss_pages)  # rss pages (field 24)
    (entry / "stat").write_text(f"{pid} ({comm}) " + " ".join(fields) + "\n")
    return entry


class TestReadProcStat:
    def test_parses_synthetic_stat(self, tmp_path):
        write_proc_entry(tmp_path, 4321, utime=100, stime=50, threads=7,
                         rss_pages=2048)
        stat = read_proc_stat(4321, proc_root=str(tmp_path))
        ticks = os.sysconf("SC_CLK_TCK") or 100
        page = os.sysconf("SC_PAGE_SIZE") or 4096
        assert stat["cpu_seconds"] == pytest.approx(150 / ticks)
        assert stat["num_threads"] == 7
        assert stat["rss_bytes"] == 2048 * page

    def test_missing_pid_is_none(self, tmp_path):
        assert read_proc_stat(99999, proc_root=str(tmp_path)) is None

    def test_truncated_stat_is_none(self, tmp_path):
        entry = tmp_path / "17"
        entry.mkdir()
        (entry / "stat").write_text("17 (x) S 0 0 0\n")
        assert read_proc_stat(17, proc_root=str(tmp_path)) is None

    def test_real_proc_if_present(self):
        if not os.path.exists(f"/proc/{os.getpid()}/stat"):
            pytest.skip("no /proc on this platform")
        stat = read_proc_stat(os.getpid())
        assert stat["rss_bytes"] > 0
        assert stat["num_threads"] >= 1


class TestSampleProcess:
    def test_synthetic_sample(self, tmp_path):
        write_proc_entry(tmp_path, 4321, n_fds=6)
        sample = sample_process(4321, proc_root=str(tmp_path))
        assert sample.pid == 4321
        assert sample.source == "proc"
        assert sample.open_fds == 6
        assert sample.rss_bytes > 0
        payload = sample.to_dict()
        assert payload["pid"] == 4321
        assert payload["source"] == "proc"

    def test_self_falls_back_to_rusage(self, tmp_path):
        sample = sample_process(os.getpid(), proc_root=str(tmp_path / "none"))
        assert sample is not None
        assert sample.source == "rusage"
        assert sample.pid == os.getpid()
        assert sample.num_threads >= 1

    def test_foreign_pid_without_proc_is_none(self, tmp_path):
        assert sample_process(1, proc_root=str(tmp_path / "none")) is None


class TestResourceSampler:
    def test_sample_once_publishes_gauges(self):
        session = obs.enable_telemetry()
        sampler = ResourceSampler()
        snapshot = sampler.sample_once()
        assert snapshot["parent"]["pid"] == os.getpid()
        assert snapshot["workers"] == []
        assert snapshot["self_watch"] is None
        assert sampler.latest() is snapshot
        metrics = session.metrics.snapshot()
        assert metrics["resources.parent.rss_bytes"]["value"] > 0
        assert metrics["resources.parent.pid"]["value"] == os.getpid()
        assert metrics["resources.samples"]["value"] == 1

    def test_worker_ordinals_are_sticky(self, tmp_path):
        session = obs.enable_telemetry()
        write_proc_entry(tmp_path, 111, rss_pages=100)
        write_proc_entry(tmp_path, 222, rss_pages=200)
        pids = [111, 222]
        sampler = ResourceSampler(worker_pids=lambda: list(pids),
                                  proc_root=str(tmp_path))
        first = sampler.sample_once()
        assert [w["ordinal"] for w in first["workers"]] == [0, 1]
        assert [w["pid"] for w in first["workers"]] == [111, 222]

        # Worker 111 dies; 222 keeps its ordinal (its series continues).
        pids.remove(111)
        second = sampler.sample_once()
        assert [(w["ordinal"], w["pid"]) for w in second["workers"]] \
            == [(1, 222)]
        metrics = session.metrics.snapshot()
        page = os.sysconf("SC_PAGE_SIZE") or 4096
        assert metrics["resources.worker.1.rss_bytes"]["value"] == 200 * page
        assert metrics["resources.worker.1.pid"]["value"] == 222


class TestSelfWatch:
    def test_default_rule_fires_on_fast_growth(self):
        watch = SelfWatch()
        assert watch.state == "buffering"
        watch.observe(0.0, 1.0e8)
        watch.observe(1.0, 2.5e8)  # +150 MB/s > the 100 MB/s rule
        assert watch.alerts_fired >= 1
        assert watch.state == "warning"
        snapshot = watch.snapshot()
        assert snapshot["state"] == "warning"
        assert snapshot["alerts_fired"] == watch.alerts_fired
        assert snapshot["alarm_time"] is None

    def test_slow_growth_stays_quiet(self):
        watch = SelfWatch()
        for t in range(16):
            watch.observe(float(t), 1.0e8 + t * 1.0e6)  # +1 MB/s
        assert watch.alerts_fired == 0
        assert watch.state == watch.monitor.state

    def test_ignores_none_and_duplicate_times(self):
        watch = SelfWatch()
        watch.observe(1.0, None)
        watch.observe(1.0, float("nan"))
        watch.observe(1.0, 1.0e8)
        watch.observe(1.0, 1.1e8)  # duplicate time: rules see it, monitor not
        assert watch.monitor.n_samples == 1

    def test_default_rules_watch_parent_rss(self):
        assert [r.signal for r in DEFAULT_SELF_WATCH_RULES] == ["self.rss"]

    def test_leaky_loop_reaches_warning(self):
        """The harness catches itself leaking: a deliberately leaky
        allocation loop drives real RSS samples through the detector."""
        session = obs.enable_telemetry()
        clock = iter(float(i) for i in range(100))
        sampler = ResourceSampler(self_watch=True,
                                  clock=lambda: next(clock))
        sampler.sample_once()  # baseline
        leak = []
        for _ in range(2):
            # 150 MB per "second" of fake clock: well above the
            # 100 MB/s default rule, tiny next to any real test host.
            leak.append(bytearray(150 * 1024 * 1024))
            sampler.sample_once()
        try:
            assert sampler.self_watch.alerts_fired >= 1
            assert sampler.self_watch.state == "warning"
            snapshot = sampler.latest()["self_watch"]
            assert snapshot["state"] == "warning"
            assert snapshot["alerts_fired"] >= 1
            counters = session.metrics.snapshot()
            assert counters["resources.self_watch_alerts"]["value"] >= 1
        finally:
            leak.clear()
