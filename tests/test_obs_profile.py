"""Tests for the hot-path profiler (repro.obs.profile)."""

import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ValidationError
from repro.obs.profile import (
    Profiler,
    active_profiler,
    peak_rss_bytes,
    profile,
    set_active_profiler,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


class TestProfiler:
    def test_measure_records_wall_cpu_calls(self):
        prof = Profiler()
        for _ in range(3):
            with prof.measure("stage"):
                time.sleep(0.002)
        rec = prof.get("stage")
        assert rec.calls == 3
        assert rec.errors == 0
        assert rec.wall_total >= 0.005
        assert rec.wall_min <= rec.wall_mean <= rec.wall_max
        assert rec.cpu_total >= 0.0

    def test_error_counted_and_propagated(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with prof.measure("boom"):
                raise RuntimeError("x")
        rec = prof.get("boom")
        assert rec.calls == 1
        assert rec.errors == 1

    def test_memory_tracking_records_peak(self):
        prof = Profiler(track_memory=True)
        with prof.measure("alloc"):
            buf = np.zeros(1_000_000)  # ~8 MB
            del buf
        rec = prof.get("alloc")
        assert rec.mem_peak_bytes is not None
        assert rec.mem_peak_bytes > 4_000_000

    def test_snapshot_shape(self):
        prof = Profiler()
        with prof.measure("b"):
            pass
        with prof.measure("a"):
            pass
        snap = prof.snapshot()
        assert list(snap["hotpaths"]) == ["a", "b"]  # sorted
        stats = snap["hotpaths"]["a"]
        assert stats["calls"] == 1
        assert stats["wall_total"] >= 0.0
        assert "cpu_total" in stats
        assert snap["track_memory"] is False

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Profiler().record("")
        with pytest.raises(ValidationError):
            profile("")

    def test_reset_drops_records(self):
        prof = Profiler()
        with prof.measure("x"):
            pass
        assert len(prof) == 1
        prof.reset()
        assert len(prof) == 0
        assert "x" not in prof


class TestProfileHook:
    def test_decorator_passthrough_without_profiler(self):
        @profile("test.fn")
        def fn(a, b=1):
            return a + b

        assert active_profiler() is None
        assert fn(2, b=3) == 5

    def test_decorator_records_with_active_profiler(self):
        @profile("test.fn")
        def fn(x):
            return x * 2

        prof = Profiler()
        set_active_profiler(prof)
        try:
            assert fn(21) == 42
            assert fn(1) == 2
        finally:
            set_active_profiler(None)
        assert prof.get("test.fn").calls == 2
        assert fn(1) == 2  # deactivated again
        assert prof.get("test.fn").calls == 2

    def test_context_manager_form(self):
        prof = Profiler()
        set_active_profiler(prof)
        try:
            with profile("test.block"):
                pass
        finally:
            set_active_profiler(None)
        assert prof.get("test.block").calls == 1

    def test_session_attaches_and_detaches_profiler(self):
        assert active_profiler() is None
        with obs.telemetry_session(profile=True) as session:
            assert session.profiler is not None
            assert active_profiler() is session.profiler
        assert active_profiler() is None

    def test_plain_session_has_no_profiler(self):
        with obs.telemetry_session() as session:
            assert session.profiler is None
            assert active_profiler() is None

    def test_disabled_overhead_under_five_percent(self):
        """The inactive hook must not tax a tight loop of small calls."""
        wrapped = profile("test.overhead")(_work)
        overhead = _hook_overhead(wrapped, _work)
        assert overhead <= 0.05, (
            f"disabled profiler overhead {overhead:+.1%} exceeds 5% budget"
        )

    def test_overhead_check_catches_a_slow_disabled_path(self):
        """Negative control: a disabled path doing a fifth more work per
        call must fail the same check."""
        wrapped = profile("test.overhead")(_work)

        def slowed(n):
            sum(range(n // 5))
            return wrapped(n)

        assert _hook_overhead(slowed, _work) > 0.05


def _work(n):
    return sum(range(n))


def _hook_overhead(fn, reference, *, blocks=21, rounds=20, calls=5, n=5000):
    """Relative extra wall time of ``fn`` over ``reference``.

    The measurement is split into ``blocks`` of ``rounds`` short rounds
    (``calls`` calls each, about half a millisecond).  Within a block
    the two sides alternate which runs first and each keeps its fastest
    round; the block's estimate compares those two minimums, and the
    median over blocks is returned.  On a shared host the speed of a
    core shifts from one millisecond to the next, so a single minimum
    over the whole run can land in a fast spell the other side never
    saw, while one such block barely moves the median.
    """
    def timed(f):
        t0 = time.perf_counter()
        for _ in range(calls):
            f(n)
        return time.perf_counter() - t0

    timed(fn), timed(reference)  # warm both paths
    ratios = []
    for _ in range(blocks):
        best_fn = best_ref = float("inf")
        for i in range(rounds):
            if i % 2:
                best_fn = min(best_fn, timed(fn))
                best_ref = min(best_ref, timed(reference))
            else:
                best_ref = min(best_ref, timed(reference))
                best_fn = min(best_fn, timed(fn))
        ratios.append(best_fn / best_ref)
    return statistics.median(ratios) - 1.0


class TestHotPathIntegration:
    def test_analysis_hot_paths_profiled(self):
        from repro.core import analyze_counter
        from repro.generators import fgn
        from repro.trace import TimeSeries

        ts = TimeSeries.from_values(
            np.cumsum(fgn(2048, 0.7, rng=np.random.default_rng(0))), name="c")
        with obs.telemetry_session(profile=True) as session:
            analyze_counter(ts, indicator_window=256)
            snap = session.profiler.snapshot()
        hotpaths = snap["hotpaths"]
        assert "core.analyze_counter" in hotpaths
        assert "core.holder_trajectory" in hotpaths
        assert "fractal.cwt" in hotpaths
        assert hotpaths["core.analyze_counter"]["wall_total"] >= (
            hotpaths["core.holder_trajectory"]["wall_total"])

    def test_simulator_hot_paths_profiled(self):
        from repro.memsim import Machine, MachineConfig

        with obs.telemetry_session(profile=True) as session:
            Machine(MachineConfig.nt4(seed=3, max_run_seconds=1500)).run()
            snap = session.profiler.snapshot()
        assert "memsim.machine_run" in snap["hotpaths"]
        assert "simkernel.run_until" in snap["hotpaths"]

    def test_fractal_estimators_profiled(self):
        from repro.core.holder import wavelet_holder
        from repro.fractal.mfdfa import mfdfa
        from repro.fractal.sliding import sliding_mfdfa
        from repro.generators import fbm, fgn
        from repro.trace import TimeSeries

        rng = np.random.default_rng(1)
        with obs.telemetry_session(profile=True) as session:
            mfdfa(fgn(2048, 0.7, rng=rng))
            wavelet_holder(fbm(1024, 0.6, rng=rng))
            ts = TimeSeries.from_values(
                np.cumsum(fgn(2048, 0.7, rng=rng)), name="s")
            sliding_mfdfa(ts, window=512, step=512)
            snap = session.profiler.snapshot()
        hotpaths = snap["hotpaths"]
        assert {"fractal.mfdfa", "fractal.sliding_mfdfa",
                "fractal.cwt"} <= set(hotpaths)
        # sliding calls mfdfa once per window on top of the direct call
        assert hotpaths["fractal.mfdfa"]["calls"] > 1

    def test_profile_lands_in_manifest(self, tmp_path):
        from repro.fractal.mfdfa import mfdfa
        from repro.generators import fgn

        with obs.telemetry_session(profile=True) as session:
            mfdfa(fgn(1024, 0.5, rng=np.random.default_rng(2)))
            manifest = obs.build_manifest(session, command="test")
        assert "fractal.mfdfa" in manifest.profile["hotpaths"]
        path = obs.write_manifest(manifest, tmp_path)
        back = obs.read_manifest(path)
        assert back.profile == manifest.profile


class TestPeakRss:
    def test_reports_positive_bytes_on_posix(self):
        peak = peak_rss_bytes()
        assert peak is None or peak > 1_000_000  # a python process is > 1 MB
