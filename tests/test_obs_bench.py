"""Tests for the contract gates and trajectory files (repro.obs.bench)."""

import functools
import json
import os
import re
import time
from types import SimpleNamespace

import pytest

import repro.analysis.campaign
import repro.core.online
import repro.memsim
import repro.memsim.equivalence
import repro.trace
from repro.exceptions import AnalysisError, TraceError, ValidationError
from repro.obs import bench

GATES = {
    "memsim.fleet_vec",
    "memsim.fleet_vec_equiv",
    "campaign.parallel",
    "online.stream",
    "trace.store",
}
BASELINES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baselines")


def _payload(*, calibration=0.010, created_at="2026-08-06T10:00:00+00:00",
             sha="abcdef123456", **walls):
    """A minimal schema-valid trajectory payload with the given wall times."""
    results = {
        name: {
            "group": name.split(".")[0],
            "description": name,
            "repeats": 3,
            "n_samples": 1000,
            "wall_best": wall,
            "wall_mean": wall * 1.1,
            "cpu_best": wall,
            "samples_per_sec": 1000 / wall,
            "mem_peak_bytes": 1024,
            "calibration_seconds": [calibration] * 4,
            "wall_normalized": wall / calibration,
        }
        for name, wall in walls.items()
    }
    return {
        "schema": bench.BENCH_SCHEMA,
        "created_at": created_at,
        "repeats": 3,
        "environment": {"git_sha": sha},
        "results": results,
    }


def _stub_case(name, n_samples=1000):
    """A cheap case: allocates a little, reports ``n_samples``."""
    def setup():
        def run():
            bytearray(64 * 1024)
            return n_samples
        return run
    return bench.BenchCase(name, name.split(".")[0], f"stub {name}", setup)


class TestSuiteShape:
    def test_covers_required_hot_paths(self):
        # The suite is exactly the contract gates.
        assert set(bench.case_names()) == GATES
        assert len(bench.SUITE) == len(GATES)

    def test_select_by_substring(self):
        chosen = bench.select_cases(["memsim"])
        assert {c.name for c in chosen} == {
            "memsim.fleet_vec", "memsim.fleet_vec_equiv",
        }
        assert [c.name for c in bench.select_cases(None)] == bench.case_names()

    def test_select_no_match_rejected(self):
        with pytest.raises(ValidationError):
            bench.select_cases(["no-such-bench"])

    def test_committed_baseline_covers_every_case(self):
        path = bench.find_baseline(BASELINES)
        assert path is not None
        assert set(bench.read_bench_file(path)["results"]) == GATES


class TestRunCase:
    def test_record_fields(self):
        record = bench.run_case(_stub_case("stub.case", n_samples=4096))
        assert record["repeats"] == bench.REPEATS
        assert record["n_samples"] == 4096
        assert 0.0 < record["wall_best"] <= record["wall_mean"]
        assert record["cpu_best"] >= 0.0
        assert record["samples_per_sec"] == pytest.approx(
            record["n_samples"] / record["wall_best"])
        assert record["mem_peak_bytes"] >= 64 * 1024
        # A calibration before the first timed iteration and after each.
        cals = record["calibration_seconds"]
        assert len(cals) == bench.REPEATS + 1 and min(cals) > 0
        assert record["wall_normalized"] > 0.0
        json.dumps(record)

    def test_each_iteration_normalised_by_its_own_calibrations(
            self, monkeypatch):
        # The host slows 4x for the second iteration and recovers during
        # the third.  Each iteration is divided by the slower of its two
        # brackets: the slow one reads 4/2, like the first's 1/0.5, and
        # the median drops the third's 1/2.
        clock = iter([0.0, 1.0, 1.0, 5.0, 5.0, 6.0])
        monkeypatch.setattr(bench, "time", SimpleNamespace(
            perf_counter=lambda: next(clock), process_time=time.process_time))
        monkeypatch.setattr(bench, "_calibration_seconds",
                            iter([0.5, 0.5, 2.0, 0.5]).__next__)
        record = bench.run_case(_stub_case("stub.case"))
        assert record["calibration_seconds"] == [0.5, 0.5, 2.0, 0.5]
        assert record["wall_best"] == 1.0
        assert record["wall_normalized"] == pytest.approx(2.0)


class TestTrajectoryFiles:
    def test_filename_pattern(self):
        payload = _payload(**{"trace.store": 0.01})
        name = bench.bench_filename(payload)
        assert name == "BENCH_20260806_abcdef1.json"
        assert re.fullmatch(r"BENCH_\d{8}_[0-9a-f]{7}\.json", name)

    def test_write_read_round_trip(self, tmp_path):
        payload = _payload(**{"trace.store": 0.01, "online.stream": 0.02})
        path = bench.write_bench_file(payload, tmp_path)
        assert bench.read_bench_file(path) == payload

    def test_read_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text(json.dumps({"schema": "bogus/1"}))
        with pytest.raises(TraceError):
            bench.read_bench_file(bad)
        bad.write_text("{not json")
        with pytest.raises(TraceError):
            bench.read_bench_file(bad)

    def test_find_baseline_newest_matching(self, tmp_path):
        for day, sha in (("01", "aaaaaaa"), ("05", "ccccccc"),
                         ("03", "bbbbbbb")):
            bench.write_bench_file(
                _payload(created_at=f"2026-08-{day}T00:00:00+00:00", sha=sha,
                         **{"x.y": 0.01}), tmp_path)
        (tmp_path / "BENCH_99999999_corrupt.json").write_text("{not json")
        found = bench.find_baseline(tmp_path)
        assert found is not None and "ccccccc" in found

    def test_find_baseline_excludes_current(self, tmp_path):
        payload = _payload(**{"x.y": 0.01})
        path = bench.write_bench_file(payload, tmp_path)
        assert bench.find_baseline(tmp_path, exclude=path) is None
        assert bench.find_baseline(tmp_path) == path

    def test_find_baseline_direct_file_and_missing(self, tmp_path):
        payload = _payload(**{"x.y": 0.01})
        path = bench.write_bench_file(payload, tmp_path)
        assert bench.find_baseline(path) == path
        assert bench.find_baseline(tmp_path / "nope") is None
        assert bench.find_baseline(tmp_path / "empty") is None


class TestCompare:
    def test_regression_flagged_past_threshold(self):
        base = _payload(**{"a.b": 0.010, "c.d": 0.010})
        cur = _payload(**{"a.b": 0.014, "c.d": 0.010})  # +40% vs 25% budget
        cmp = bench.compare_runs(base, cur)
        assert cmp["threshold"] == bench.THRESHOLD == 0.25
        assert cmp["regressions"] == ["a.b"]
        by_name = {r["name"]: r for r in cmp["rows"]}
        assert by_name["a.b"]["status"] == "REGRESSION"
        assert by_name["a.b"]["ratio"] == pytest.approx(1.4)
        assert by_name["c.d"]["status"] == "ok"

    def test_improvement_and_new_cases(self):
        # A case the baseline has never seen was compared against
        # nothing: it is reported MISSING and fails the comparison.
        base = _payload(**{"a.b": 0.010})
        cur = _payload(**{"a.b": 0.005, "e.f": 0.020})
        cmp = bench.compare_runs(base, cur)
        by_name = {r["name"]: r for r in cmp["rows"]}
        assert by_name["a.b"]["status"] == "improved"
        assert by_name["e.f"]["status"] == "MISSING"
        assert by_name["e.f"]["ratio"] is None
        assert cmp["regressions"] == []
        assert cmp["missing"] == ["e.f"]

    def test_calibration_normalization(self):
        # Baseline machine twice as fast (calibration 5ms vs current 10ms):
        # current wall of 20ms vs baseline 10ms is expected hardware
        # slowdown, not a code regression.
        base = _payload(calibration=0.005, **{"a.b": 0.010})
        cur = _payload(calibration=0.010, **{"a.b": 0.020})
        cmp = bench.compare_runs(base, cur)
        assert cmp["rows"][0]["ratio"] == pytest.approx(1.0)
        assert cmp["rows"][0]["baseline_wall"] == pytest.approx(0.010)
        assert cmp["regressions"] == []
        # The same walls on equally fast machines are a regression.
        same = bench.compare_runs(_payload(**{"a.b": 0.010}),
                                  _payload(**{"a.b": 0.020}))
        assert same["rows"][0]["ratio"] == pytest.approx(2.0)
        assert same["regressions"] == ["a.b"]

    def test_render_comparison_names_regressions(self):
        base = _payload(**{"a.b": 0.010})
        cur = _payload(**{"a.b": 0.020, "e.f": 0.010})
        text = bench.render_comparison(
            bench.compare_runs(base, cur), baseline_path="BENCH_old.json")
        assert "REGRESSION" in text
        assert "1 case(s) regressed: a.b" in text
        assert "1 case(s) missing from the baseline: e.f" in text
        assert "BENCH_old.json" in text
        ok = bench.render_comparison(bench.compare_runs(base, base))
        assert "no regressions" in ok


class TestRunSuite:
    def test_quick_selected_suite_payload(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "SUITE", tuple(
            _stub_case(name) for name in ("a.one", "b.two", "c.three")))
        seen = []
        payload = bench.run_suite(
            select=["a.", "c."],
            progress=lambda name, rec: seen.append(name),
        )
        assert payload["schema"] == bench.BENCH_SCHEMA
        assert payload["repeats"] == bench.REPEATS
        assert "quick" not in payload
        assert seen == ["a.one", "c.three"]
        assert set(payload["results"]) == {"a.one", "c.three"}
        env = payload["environment"]
        assert env["python"] and env["numpy"]
        assert all(rec["wall_normalized"] > 0
                   for rec in payload["results"].values())
        path = bench.write_bench_file(payload, tmp_path)
        assert bench.read_bench_file(path)["results"] == payload["results"]

    def test_environment_fingerprint_fields(self):
        env = bench.environment_fingerprint()
        for key in ("repro", "python", "numpy", "platform", "machine",
                    "cpu_count", "git_sha"):
            assert key in env


# -- negative controls: every gate must be able to fail --------------------------
#
# The expensive simulator, reader and campaign calls are stubbed so each
# gate's check runs in milliseconds on inputs that break it.  The stub
# delays are far apart, so scheduler jitter cannot flip a verdict.

def _setup(name):
    return next(c for c in bench.SUITE if c.name == name).setup


def _sleeper(seconds, result=None):
    def call(*args, **kwargs):
        time.sleep(seconds)
        return result
    return call


class TestFleetVecGate:
    @staticmethod
    def _stub(monkeypatch, object_s, vector_s):
        monkeypatch.setattr(repro.memsim, "run_fleet", _sleeper(object_s))
        monkeypatch.setattr(
            repro.memsim, "VectorFleet",
            lambda config, n_hosts: SimpleNamespace(
                run=_sleeper(vector_s, [])))

    def test_passes_when_vector_path_is_fast(self, monkeypatch):
        # 2 hosts in 50 ms vs 128 hosts in 10 ms: 320x.
        self._stub(monkeypatch, object_s=0.05, vector_s=0.01)
        assert _setup("memsim.fleet_vec")()() == 128

    def test_fast_object_path_trips_floor(self, monkeypatch):
        self._stub(monkeypatch, object_s=0.0, vector_s=0.05)
        with pytest.raises(AnalysisError, match="below the 10x floor"):
            _setup("memsim.fleet_vec")()

    def test_slow_vector_path_trips_floor(self, monkeypatch):
        # 2 hosts in 10 ms vs 128 hosts in 500 ms: ~1.3x.
        self._stub(monkeypatch, object_s=0.01, vector_s=0.5)
        with pytest.raises(AnalysisError, match="below the 10x floor"):
            _setup("memsim.fleet_vec")()


class TestFleetVecEquivGate:
    @staticmethod
    def _stub(monkeypatch, shift):
        def hosts(n, offset=0.0):
            return [SimpleNamespace(crashed=True,
                                    crash_time=1_000.0 + 100.0 * i + offset,
                                    crash_reason="commit")
                    for i in range(n)]

        monkeypatch.setattr(repro.memsim, "check_batch_decomposition",
                            lambda config, n_hosts: None)
        monkeypatch.setattr(repro.memsim, "run_fleet",
                            lambda config, n, workers: hosts(n))
        monkeypatch.setattr(
            repro.memsim.equivalence, "VectorFleet",
            lambda config, n, crash_grace: SimpleNamespace(
                run=lambda: hosts(n, offset=shift)))

    def test_passes_when_crash_times_agree(self, monkeypatch):
        self._stub(monkeypatch, shift=0.0)
        assert _setup("memsim.fleet_vec_equiv")()() == 6

    def test_perturbed_vector_crash_times_trip_ks(self, monkeypatch):
        self._stub(monkeypatch, shift=5_000.0)
        with pytest.raises(AnalysisError, match="KS test rejects"):
            _setup("memsim.fleet_vec_equiv")()


class TestOnlineStreamGate:
    def test_shifted_holder_tail_trips_oracle(self, monkeypatch):
        real = repro.core.online.holder_tail

        @functools.wraps(real)  # the monitor binds holder_tail's signature
        def shifted(*args, **kwargs):
            return real(*args, **kwargs) + 0.05

        monkeypatch.setattr(repro.core.online, "holder_tail", shifted)
        with pytest.raises(AnalysisError, match="diverged"):
            _setup("online.stream")()


class TestTraceStoreGate:
    @staticmethod
    def _stub(monkeypatch, csv_s, store_s):
        monkeypatch.setattr(repro.trace, "write_bundle",
                            lambda bundle, path: path)

        def read_bundle(path):
            time.sleep(store_s if path.endswith(".store") else csv_s)

        monkeypatch.setattr(repro.trace, "read_bundle", read_bundle)

    def test_passes_when_columnar_read_is_fast(self, monkeypatch):
        self._stub(monkeypatch, csv_s=0.06, store_s=0.0)
        assert _setup("trace.store")()() == 4 * 50_000

    def test_slow_columnar_read_trips_floor(self, monkeypatch):
        self._stub(monkeypatch, csv_s=0.01, store_s=0.02)
        with pytest.raises(AnalysisError, match="below the 5x floor"):
            _setup("trace.store")()


class TestCampaignParallelGate:
    @staticmethod
    def _stub(monkeypatch, *, sequential_s=0.0, pooled_s=0.0,
              crashed=True, pooled_alarm=100.0, cores=2):
        """Stub campaign: 2 cells x 2 runs, each payload tagged by mode.

        Returns the worker count of every ``run_campaign`` call.
        """
        calls = []

        def run_campaign(specs, workers):
            calls.append(workers)
            time.sleep(pooled_s if workers > 1 else sequential_s)
            return {"specs": specs, "pooled": workers > 1}

        def cells_payload(results):
            alarm = pooled_alarm if results["pooled"] else 100.0
            return {
                spec.name: {"runs": [
                    {"seed": spec.base_seed + k, "crashed": crashed,
                     "alarm_time": alarm if crashed else None}
                    for k in range(spec.n_runs)]}
                for spec in results["specs"]
            }

        monkeypatch.setattr(repro.analysis.campaign, "run_campaign",
                            run_campaign)
        monkeypatch.setattr(repro.analysis.campaign, "cells_payload",
                            cells_payload)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        return calls

    def test_passes_with_fast_identical_pool(self, monkeypatch):
        self._stub(monkeypatch, sequential_s=0.1, cores=4)
        assert _setup("campaign.parallel")()() == 4

    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    def test_timed_iteration_uses_two_workers_on_any_host(self, monkeypatch,
                                                          cores):
        # The speedup check pools with up to 4 workers, but the timed
        # iteration is the 2-worker campaign the baseline holds.
        calls = self._stub(monkeypatch, sequential_s=0.1, cores=cores)
        run = _setup("campaign.parallel")()
        assert calls == [1, min(4, cores)]
        run()
        assert calls[-1] == 2

    def test_diverging_pool_trips_equivalence(self, monkeypatch):
        self._stub(monkeypatch, pooled_alarm=101.0)
        with pytest.raises(AnalysisError, match="diverged"):
            _setup("campaign.parallel")()

    def test_slow_pool_trips_speedup_floor(self, monkeypatch):
        self._stub(monkeypatch, pooled_s=0.05, cores=4)
        with pytest.raises(AnalysisError, match="below the 1.5x floor"):
            _setup("campaign.parallel")()

    def test_runs_that_never_crash_trip_alarm_check(self, monkeypatch):
        self._stub(monkeypatch, crashed=False)
        with pytest.raises(AnalysisError, match="crash and alarm"):
            _setup("campaign.parallel")()
