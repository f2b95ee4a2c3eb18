"""Tests for surrogate-data methods, the perfmon importer, and BatchWorkload."""

import numpy as np
import pytest

from repro.exceptions import SimulationError, TraceError, ValidationError
from repro.fractal import (
    iaaft,
    multifractality_test,
    phase_randomized,
    shuffle,
)
from repro.generators import fgn, mrw
from repro.memsim import BatchWorkload, Machine, MachineConfig, MemoryManager
from repro.simkernel import RngRegistry, Simulator
from repro.trace import normalize_counter_name, read_perfmon_csv


class TestSurrogateGenerators:
    def test_shuffle_preserves_marginal(self, rng):
        x = rng.standard_normal(512)
        s = shuffle(x, rng=rng)
        np.testing.assert_allclose(np.sort(s), np.sort(x))
        assert not np.array_equal(s, x)

    def test_phase_randomized_preserves_spectrum(self, rng):
        x = rng.standard_normal(1024)
        s = phase_randomized(x, rng=rng)
        np.testing.assert_allclose(
            np.abs(np.fft.rfft(s)), np.abs(np.fft.rfft(x)), rtol=1e-8, atol=1e-8)

    def test_phase_randomized_destroys_signal(self, rng):
        # A localized impulse has broadband, highly structured phases;
        # randomizing them must smear it into a noise-like signal.
        x = np.zeros(1024)
        x[100:110] = 10.0
        s = phase_randomized(x, rng=rng)
        assert np.max(np.abs(s)) < 0.5 * np.max(np.abs(x))
        assert abs(np.corrcoef(x, s)[0, 1]) < 0.5

    def test_iaaft_preserves_marginal_exactly(self, rng):
        x = rng.exponential(1.0, size=512)  # skewed marginal
        s = iaaft(x, rng=rng)
        np.testing.assert_allclose(np.sort(s), np.sort(x))

    def test_iaaft_approximates_spectrum(self, rng):
        x = fgn(1024, 0.8, rng=rng)
        s = iaaft(x, rng=rng)
        p_x = np.abs(np.fft.rfft(x)) ** 2
        p_s = np.abs(np.fft.rfft(s)) ** 2
        # Low-frequency power (the LRD part) must be closely matched.
        lo = slice(1, 32)
        assert np.sum(p_s[lo]) == pytest.approx(np.sum(p_x[lo]), rel=0.15)


class TestMultifractalityTest:
    def test_mrw_is_significant(self):
        x = np.diff(mrw(2**14, 0.5, rng=np.random.default_rng(0)))
        result = multifractality_test(
            x, kind="iaaft", n_surrogates=8, rng=np.random.default_rng(1))
        assert result.significant
        assert result.z_score > 2.0

    def test_fgn_is_not_significant(self):
        # Gaussian LRD noise carries no multifractality beyond its linear
        # correlations; the typical z-score over seeds must be small
        # (individual seeds fluctuate, so test the median of three).
        zs = []
        for seed in (2, 3, 4):
            x = fgn(2**14, 0.7, rng=np.random.default_rng(seed))
            result = multifractality_test(
                x, kind="phase", n_surrogates=8,
                rng=np.random.default_rng(seed + 50))
            zs.append(result.z_score)
        assert np.median(zs) < 2.0

    def test_result_fields(self):
        x = np.diff(mrw(2**13, 0.4, rng=np.random.default_rng(4)))
        result = multifractality_test(
            x, kind="shuffle", n_surrogates=6, rng=np.random.default_rng(5))
        assert result.statistic_surrogates.size == 6
        assert result.surrogate_kind == "shuffle"

    def test_invalid_kind(self, rng):
        with pytest.raises(ValidationError):
            multifractality_test(rng.standard_normal(256), kind="magic")


PERFMON_SAMPLE = (
    '"(PDH-CSV 4.0) (W. Europe Standard Time)(-60)",'
    '"\\\\SRV1\\Memory\\Available Bytes","\\\\SRV1\\Memory\\Pages/sec"\n'
    '"03/10/2002 10:00:00.000","52428800","12.5"\n'
    '"03/10/2002 10:00:01.000","52420608"," "\n'
    '"03/10/2002 10:00:02.000","52412416","14.0"\n'
)


class TestPerfmonImport:
    def test_name_normalisation(self):
        assert normalize_counter_name(
            "\\\\SRV1\\Memory\\Available Bytes") == "AvailableBytes"
        assert normalize_counter_name(
            "\\\\SRV1\\Memory\\Pages/sec") == "PagesPerSec"
        assert normalize_counter_name(
            "\\\\SRV1\\Processor\\% Processor Time") != ""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "relog.csv"
        path.write_text(PERFMON_SAMPLE)
        bundle = read_perfmon_csv(path)
        assert set(bundle.names) == {"AvailableBytes", "PagesPerSec"}
        avail = bundle["AvailableBytes"]
        np.testing.assert_allclose(avail.times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(avail.values, [52428800, 52420608, 52412416])
        # The blank cell becomes a gap.
        assert np.isnan(bundle["PagesPerSec"].values[1])

    def test_counter_filter(self, tmp_path):
        path = tmp_path / "relog.csv"
        path.write_text(PERFMON_SAMPLE)
        bundle = read_perfmon_csv(path, counters=["AvailableBytes"])
        assert bundle.names == ["AvailableBytes"]

    def test_missing_counters_rejected(self, tmp_path):
        path = tmp_path / "relog.csv"
        path.write_text(PERFMON_SAMPLE)
        with pytest.raises(TraceError, match="no requested counters"):
            read_perfmon_csv(path, counters=["Bogus"])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            read_perfmon_csv(path)

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('"t","\\\\S\\M\\Available Bytes"\n"not-a-date","1"\n')
        with pytest.raises(TraceError, match="timestamp"):
            read_perfmon_csv(path)

    def test_duplicate_timestamps_nudged(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            '"t","\\\\S\\M\\Available Bytes"\n'
            '"03/10/2002 10:00:00.000","1"\n'
            '"03/10/2002 10:00:00.000","2"\n'
        )
        bundle = read_perfmon_csv(path)
        times = bundle["AvailableBytes"].times
        assert times[1] > times[0]

    def test_backwards_timestamp_rejected(self, tmp_path):
        # A log across a DST fall-back: the clock steps back an hour.
        path = tmp_path / "dst.csv"
        path.write_text(
            '"t","\\\\S\\M\\Available Bytes"\n'
            '"10/27/2002 01:59:58.000","1"\n'
            '"10/27/2002 01:59:59.000","2"\n'
            '"10/27/2002 01:00:00.000","3"\n'
            '"10/27/2002 01:00:01.000","4"\n'
        )
        with pytest.raises(TraceError, match="line 4.*earlier"):
            read_perfmon_csv(path)


class TestBatchWorkload:
    def _make(self, period=100.0, pages=500, run_time=10.0):
        sim = Simulator()
        rngs = RngRegistry(0)
        mem = MemoryManager(MachineConfig.nt4(), np.random.default_rng(0))
        batch = BatchWorkload(sim, rngs, "batch", mem,
                              period=period, pages=pages, run_time=run_time)
        return sim, mem, batch

    def test_jobs_run_periodically(self):
        sim, mem, batch = self._make()
        batch.ensure_started()
        sim.run_until(1000.0)
        assert 7 <= batch.jobs_run <= 13

    def test_memory_released_after_job(self):
        sim, mem, batch = self._make(period=10_000.0, run_time=5.0)
        batch.ensure_started()
        sim.run_until(10_000.0)
        assert batch.jobs_run == 1
        assert mem.committed_pages == 0  # job finished and freed

    def test_invalid_params(self):
        sim = Simulator()
        mem = MemoryManager(MachineConfig.nt4(), np.random.default_rng(0))
        with pytest.raises(SimulationError):
            BatchWorkload(sim, RngRegistry(0), "b", mem, period=-1.0)

    def test_attaches_to_machine(self):
        machine = Machine(MachineConfig.nt4(seed=41, max_run_seconds=4000.0))
        batch = BatchWorkload(machine.sim, machine.rngs, "batch",
                              machine.memory, period=500.0, pages=1000,
                              run_time=30.0)
        batch.ensure_started()
        result = machine.run()
        assert batch.jobs_run >= 5
        # Counters must reflect the batch spikes (allocation bursts).
        ws = result.bundle["WorkingSetBytes"].dropna()
        assert np.max(ws.values) > np.median(ws.values)
