"""Run-at-a-time ingest on the watch path, checked against per-sample
oracles, and the online monitor's fixed memory.

* :meth:`LiveWatcher.feed_many` must record exactly what a loop of
  :meth:`LiveWatcher.feed` calls records — annotations, callbacks,
  counters and the ``end`` summary, in the same order;
* :meth:`OnlineAgingMonitor.update_many` must emit exactly what a loop
  of :meth:`OnlineAgingMonitor.update` calls emits, and each indicator
  point must be the Hölder tail of the trailing ``history`` samples;
* neither keeps memory that grows with the number of samples.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import online
from repro.core.holder import holder_tail
from repro.core.online import OnlineAgingMonitor
from repro.exceptions import AnalysisError, TraceError
from repro.generators import fbm
from repro.obs import session as _obs
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.live import LiveWatcher, validate_watch_timeline
from repro.obs.resources import SelfWatch
from repro.obs.timeline import TimelineRecorder

#: Record keys stamped from the wall clock, not the sample stream.
_WALL_KEYS = ("t", "wall_time", "pid")


def _signal(n, seed, *, gap_share=0.0):
    """A healthy fBm stretch, then a noisier regime; ``gap_share`` of the
    samples get a NaN value or time (collector gaps)."""
    rng = np.random.default_rng(seed)
    size = max(n, 16)
    split = (3 * size) // 5
    healthy = 1e3 + 10.0 * fbm(split, 0.7, rng=rng)
    sick = healthy[-1] + 200.0 * rng.standard_normal(size - split)
    values = np.concatenate([healthy, sick])
    times = 100.0 + np.cumsum(rng.uniform(0.5, 1.5, size=size))
    if gap_share:
        gaps = np.flatnonzero(rng.random(size) < gap_share)
        values[gaps[::2]] = np.nan
        times[gaps[1::2]] = np.inf
    return times[:n], values[:n]


def _rules(values):
    """Rules over the counter (threshold, rate, sustained) and the
    indicator, tuned to fire a few times on :func:`_signal`."""
    finite = values[np.isfinite(values)]
    low = float(np.quantile(finite, 0.2)) if finite.size else 0.0
    return [
        AlertRule(name="low", signal="x", kind="threshold", op="lt",
                  value=low, cooldown=50.0, severity="critical"),
        AlertRule(name="drop", signal="x", kind="rate", op="lt",
                  value=-150.0, severity="warning"),
        AlertRule(name="stuck-low", signal="x", kind="sustained", op="lt",
                  value=low, window=5.0, severity="info"),
        AlertRule(name="ind", signal="indicator", kind="threshold",
                  op="gt", value=0.0, severity="warning"),
    ]


def _session(monitor_kwargs, values, *, rules, recorder, status_every,
             sample_every):
    statuses = []
    watcher = LiveWatcher(
        OnlineAgingMonitor(**monitor_kwargs),
        timeline=(TimelineRecorder(None, interval=3600.0, ring=1_000_000)
                  if recorder else None),
        engine=AlertEngine(_rules(values)) if rules else None,
        counter="x", status_every=status_every, sample_every=sample_every,
        on_status=statuses.append)
    watcher.write_header({"type": "test"})
    return watcher, statuses


def _outcome(watcher, statuses, session):
    """Everything a watch session shows, wall-clock stamps removed."""
    state = {
        "n_samples": watcher.n_samples, "n_dropped": watcher.n_dropped,
        "last_t": watcher._last_t, "last_value": watcher._last_value,
        "points": watcher.monitor.indicator_history.tolist(),
        "point_times": watcher.monitor.indicator_times.tolist(),
    }
    end = watcher.finalize(crash_time=None)
    records = []
    if watcher.timeline is not None:
        records = [{k: v for k, v in r.items() if k not in _WALL_KEYS}
                   for r in watcher.timeline.records()
                   if r["kind"] in ("annotation", "end")]
        watcher.timeline.finalize()
    counters = {name: session.metrics.counter(name).value
                for name in ("watch.dropped_samples", "watch.alerts_fired",
                             "watch.alarms", "online.indicator_points")}
    return {"state": state, "end": end, "statuses": statuses,
            "records": records, "counters": counters}


def _feed_loop(watcher, times, values):
    """The per-sample oracle: one :meth:`LiveWatcher.feed` per sample."""
    for t, v in zip(times, values):
        watcher.feed(t, v)


monitor_geometry = st.fixed_dictionaries({
    "chunk_size": st.sampled_from([16, 37, 64, 300]),
    "history": st.sampled_from([256, 301, 512]),
    "indicator_window": st.sampled_from([16, 64, 200]),
    "n_warmup": st.integers(0, 2),
    "n_calibration": st.integers(4, 8),
})


class TestFeedManyOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        geometry=monitor_geometry,
        n=st.integers(0, 2500),
        seed=st.integers(0, 2**16),
        gap_share=st.sampled_from([0.0, 0.01, 0.1]),
        status_every=st.sampled_from([0.0, 1.0, 7.0, 60.0, 333.5, 5000.0]),
        sample_every=st.integers(0, 5),
        rules=st.booleans(),
        recorder=st.booleans(),
        cuts=st.lists(st.integers(0, 2500), max_size=6),
        looped=st.lists(st.booleans(), max_size=7),
    )
    def test_equals_per_sample_feed(self, geometry, n, seed, gap_share,
                                    status_every, sample_every, rules,
                                    recorder, cuts, looped):
        times, values = _signal(n, seed, gap_share=gap_share)
        options = dict(rules=rules, recorder=recorder,
                       status_every=status_every, sample_every=sample_every)

        with _obs.telemetry_session() as session:
            oracle, oracle_statuses = _session(geometry, values, **options)
            _feed_loop(oracle, times, values)
            expected = _outcome(oracle, oracle_statuses, session)
        with _obs.telemetry_session() as session:
            watcher, statuses = _session(geometry, values, **options)
            bounds = [0, *sorted(c for c in cuts if c <= n), n]
            for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
                if k < len(looped) and looped[k]:
                    _feed_loop(watcher, times[a:b], values[a:b])
                else:
                    watcher.feed_many(times[a:b], values[a:b])
            got = _outcome(watcher, statuses, session)
        assert got == expected

    def test_session_exercises_every_event(self):
        # The generated signal must drive the whole lifecycle, or the
        # equivalence above would compare quiet streams.
        times, values = _signal(2500, 5, gap_share=0.01)
        watcher, statuses = _session(
            {"chunk_size": 37, "history": 256, "indicator_window": 64,
             "n_warmup": 1, "n_calibration": 5},
            values, rules=True, recorder=True, status_every=60.0,
            sample_every=3)
        watcher.feed_many(times, values)
        watcher.finalize(crash_time=float(times[-1]) + 1.0,
                         crash_reason="memory")
        counts = validate_watch_timeline(watcher.timeline.records())
        watcher.timeline.finalize()
        for event in ("sample", "indicator", "detector_state", "alarm",
                      "alert", "status", "crash", "end"):
            assert counts.get(event, 0) >= 1, (event, counts)
        assert watcher.n_dropped > 0
        assert statuses

    def test_out_of_order_run_rejected_whole(self):
        watcher, _ = _session({"chunk_size": 16, "history": 256,
                               "indicator_window": 16},
                              np.ones(4), rules=True, recorder=True,
                              status_every=1.0, sample_every=1)
        watcher.feed_many([0.0, 1.0], [5.0, 6.0])
        before = watcher.timeline.records()
        with pytest.raises(AnalysisError, match="time order"):
            watcher.feed_many([2.0, float("nan"), 4.0, 3.5],
                              [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(AnalysisError, match="time order"):
            watcher.feed_many([1.0, 5.0], [1.0, 1.0])
        assert watcher.n_samples == 2
        assert watcher.n_dropped == 0
        assert watcher.monitor.n_samples == 2
        assert watcher.timeline.records() == before
        watcher.timeline.finalize()

    def test_bad_shapes_and_missing_header_rejected(self):
        watcher = LiveWatcher(OnlineAgingMonitor(), counter="x")
        with pytest.raises(TraceError, match="header"):
            watcher.feed_many([0.0], [1.0])
        watcher.write_header({"type": "test"})
        with pytest.raises(TraceError, match="equally long"):
            watcher.feed_many([0.0, 1.0], [1.0])
        with pytest.raises(TraceError, match="1-D"):
            watcher.feed_many([[0.0]], [[1.0]])
        watcher.feed_many([], [])
        assert watcher.n_samples == 0

    def test_replay_and_drain_take_runs(self, monkeypatch):
        from repro.memsim.scenarios import build_scenario

        def refuse(*args):
            raise AssertionError("per-sample feed on a batch path")

        monkeypatch.setattr(LiveWatcher, "feed", refuse)
        machine = build_scenario("stress", seed=3, max_run_seconds=1500.0)
        watcher = LiveWatcher(OnlineAgingMonitor(), sample_every=0)
        watcher.attach(machine)
        result = machine.run()
        live = watcher.finalize()
        end = LiveWatcher(OnlineAgingMonitor(), sample_every=0).replay(
            result.bundle)
        assert live["n_samples"] + live["n_dropped"] == len(
            result.bundle["AvailableBytes"].values)
        assert (end["n_samples"], end["n_dropped"]) == (
            live["n_samples"], live["n_dropped"])


class TestUpdateManyOracle:
    @settings(max_examples=30, deadline=None)
    @given(geometry=monitor_geometry, n=st.integers(0, 3000),
           seed=st.integers(0, 2**16),
           cuts=st.lists(st.integers(0, 3000), max_size=8))
    def test_equals_update_loop(self, geometry, n, seed, cuts):
        times, values = _signal(n, seed)
        seen = {"loop": [], "runs": []}

        def monitor(key):
            log = seen[key]
            return OnlineAgingMonitor(
                **geometry,
                on_indicator=lambda t, v: log.append(("point", t, v)),
                on_state_change=lambda t, a, b: log.append(("state", t, a, b)))

        looped = monitor("loop")
        for t, v in zip(times, values):
            looped.update(t, v)
        runs = monitor("runs")
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        for a, b in zip(bounds, bounds[1:]):
            runs.update_many(times[a:b], values[a:b])
        assert seen["runs"] == seen["loop"]
        for m in (runs, looped):
            assert m.n_samples == n
            assert m.n_indicators == sum(e[0] == "point" for e in seen["loop"])
        assert runs.alarm_time == looped.alarm_time
        assert runs.state == looped.state

    @settings(max_examples=15, deadline=None)
    @given(geometry=monitor_geometry, seed=st.integers(0, 2**16),
           cuts=st.lists(st.integers(0, 3000), max_size=8))
    def test_points_are_tails_of_trailing_history(self, geometry, seed,
                                                  cuts):
        times, values = _signal(3000, seed)
        monitor = OnlineAgingMonitor(**geometry)
        bounds = [0, *sorted(cuts), 3000]
        for a, b in zip(bounds, bounds[1:]):
            monitor.update_many(times[a:b], values[a:b])
        h, chunk = geometry["history"], geometry["chunk_size"]
        ends = np.arange(max(h, chunk), 3001, chunk)
        np.testing.assert_array_equal(monitor.indicator_times, times[ends - 1])
        expected = [np.mean(holder_tail(values[e - h:e],
                                        geometry["indicator_window"]))
                    for e in ends]
        np.testing.assert_array_equal(monitor.indicator_history, expected)

    def test_each_emit_goes_through_update(self, monkeypatch):
        calls, emits = [], []
        update = OnlineAgingMonitor.update

        def counted(self, t, v):
            before = self.n_indicators
            calls.append(t)
            result = update(self, t, v)
            emits.append(self.n_indicators - before)
            return result

        monkeypatch.setattr(OnlineAgingMonitor, "update", counted)
        times, values = _signal(3000, 3)
        monitor = OnlineAgingMonitor(chunk_size=64, history=256,
                                     indicator_window=64)
        monitor.update_many(times, values)
        assert calls == monitor.indicator_times.tolist()
        assert emits == [1] * len(calls)

    def test_indicator_points_bounded(self, monkeypatch):
        times, values = _signal(6000, 7)
        geometry = dict(chunk_size=16, history=256, indicator_window=16,
                        n_warmup=3, n_calibration=9)
        full = OnlineAgingMonitor(**geometry)
        full.update_many(times, values)
        assert full.n_indicators == full.indicator_history.size > 300
        # Fewer kept points than calibration reads: it still sees all 12.
        monkeypatch.setattr(online, "INDICATOR_POINTS_KEPT", 5)
        bounded = OnlineAgingMonitor(**geometry)
        bounded.update_many(times, values)
        assert bounded.n_indicators == full.n_indicators
        kept = bounded.indicator_history.size
        assert kept == 12
        np.testing.assert_array_equal(bounded.indicator_history,
                                      full.indicator_history[-kept:])
        np.testing.assert_array_equal(bounded.indicator_times,
                                      full.indicator_times[-kept:])
        assert bounded.baseline_mean == full.baseline_mean
        assert bounded.alarm_time == full.alarm_time

    def test_rejects_as_documented(self):
        monitor = OnlineAgingMonitor(chunk_size=16, history=256,
                                     indicator_window=16)
        monitor.update(1.0, 1.0)
        with pytest.raises(AnalysisError, match="time order"):
            monitor.update(1.0, 2.0)
        with pytest.raises(AnalysisError, match="finite"):
            monitor.update(2.0, float("nan"))
        with pytest.raises(AnalysisError, match="time order"):
            monitor.update_many([2.0, 3.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(AnalysisError, match="finite"):
            monitor.update_many([2.0, float("inf")], [1.0, 1.0])
        with pytest.raises(AnalysisError, match="time order"):
            monitor.check_batch([0.5], [1.0])
        assert monitor.n_samples == 1
        t, v = monitor.check_batch([2.0, 3.0], [1, 2])
        assert t.dtype == v.dtype == np.float64
        assert monitor.n_samples == 1


def _retained(feed, n_total, step):
    """tracemalloc bytes held after feeding ``n_total`` samples in runs
    of ``step``, measured at a tenth of the way and at the end."""
    times = np.arange(n_total, dtype=float)
    values = 1e8 + np.cumsum(np.random.default_rng(1).standard_normal(n_total))
    gc.collect()
    tracemalloc.start()
    try:
        marks = []
        for start in range(0, n_total, step):
            feed(times[start:start + step], values[start:start + step])
            if start + step in (n_total // 10, n_total):
                gc.collect()
                marks.append(tracemalloc.get_traced_memory()[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return marks, peak


class TestFixedMemory:
    N = 1_000_000

    def test_watch_path_memory_flat_over_a_million_samples(self):
        monitor = OnlineAgingMonitor(chunk_size=2048, history=2048,
                                     indicator_window=64)
        watcher = LiveWatcher(monitor, counter="x", sample_every=4)
        watcher.write_header({"type": "test"})
        (early, late), peak = _retained(watcher.feed_many, self.N, 10_000)
        assert monitor.n_samples == self.N
        assert monitor.n_indicators == self.N // 2048
        # The parent kept two Python floats per sample (~65 B each).
        assert (late - early) / (0.9 * self.N) < 0.1
        assert peak < 1_000_000

    def test_per_sample_updates_keep_memory_flat(self, monkeypatch):
        # Few kept points, so the run passes the bound early on.
        monkeypatch.setattr(online, "INDICATOR_POINTS_KEPT", 32)
        monitor = OnlineAgingMonitor(chunk_size=64, history=256,
                                     indicator_window=16)

        def feed(times, values):
            for t, v in zip(times.tolist(), values.tolist()):
                monitor.update(t, v)

        (early, late), _ = _retained(feed, 40_000, 4_000)
        assert monitor.n_indicators == (40_000 - 256) // 64 + 1
        assert monitor.indicator_history.size == 32
        assert late - early < 4096


class TestSelfWatchLongRun:
    def test_stationary_rss_stays_watching(self):
        """A harness whose RSS only jitters by a few pages stays in
        ``watching`` for hours of second-scale samples, and its snapshot
        counts every indicator point, not just the kept ones."""
        watch = SelfWatch()
        rng = np.random.default_rng(4)
        pages = rng.integers(-64, 65, size=40_000)
        for t, jitter in enumerate(pages.tolist()):
            watch.observe(float(t), 2.0e8 + 4096.0 * jitter)
        snapshot = watch.snapshot()
        assert snapshot["state"] == "watching"
        assert snapshot["n_samples"] == 40_000
        assert snapshot["n_indicators"] == (40_000 - 256) // 16 + 1
        assert snapshot["n_indicators"] > online.INDICATOR_POINTS_KEPT
        assert watch.alerts_fired == 0
