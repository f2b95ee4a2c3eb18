"""Tests for the vectorised fleet engine and its equivalence layer.

Two equivalence levels (see :mod:`repro.memsim.equivalence`):

* exact — within the vector engine, batching and worker sharding never
  change a host's result (counter-based RNG);
* statistical — across engines, crash-time distributions agree (KS),
  crash-reason vocabularies and sample grids are identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AnalysisError, SimulationError
from repro.memsim import (
    COUNTER_NAMES,
    EquivalenceReport,
    Machine,
    MachineConfig,
    VectorFleet,
    check_batch_decomposition,
    check_cross_engine,
    fleet_equivalence_report,
    ks_2samp,
    run_fleet,
    run_fleet_vector,
)
from repro.memsim.config import FaultConfig, WorkloadConfig
from repro.obs import session as _obs


def aging_config(seed=11, budget=6_000.0, scale=6.0):
    """A config that crashes well inside ``budget`` (scaled faults)."""
    from dataclasses import replace

    base = MachineConfig.nt4(seed=seed, max_run_seconds=budget)
    return replace(base, faults=base.faults.scaled(scale))


def healthy_config(seed=21, budget=3_000.0):
    return MachineConfig.nt4(
        seed=seed, max_run_seconds=budget,
        faults=FaultConfig(heap_leak_fraction=0.0, pool_leak_rate=0.0,
                           fragmentation_rate=0.0),
    )


class TestWithSeed:
    """Satellite regression: MachineConfig.with_seed."""

    def test_changes_only_seed(self):
        from dataclasses import asdict

        cfg = MachineConfig.nt4(seed=3, max_run_seconds=1234.0)
        reseeded = cfg.with_seed(99)
        a, b = asdict(cfg), asdict(reseeded)
        assert b.pop("seed") == 99
        a.pop("seed")
        assert a == b

    def test_preserves_overrides(self):
        # The old fleet path rebuilt the config from its profile and lost
        # any field the caller had customised; with_seed must keep them.
        workload = WorkloadConfig(n_sources=5, mean_on=2.0, mean_off=4.0)
        faults = FaultConfig(heap_leak_fraction=0.0, pool_leak_rate=0.0,
                             fragmentation_rate=0.0)
        cfg = MachineConfig.nt4(seed=0, max_run_seconds=777.0,
                                workload=workload, faults=faults)
        reseeded = cfg.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.workload == workload
        assert reseeded.faults == faults
        assert reseeded.max_run_seconds == 777.0

    def test_run_fleet_derives_seeds(self):
        cfg = healthy_config(seed=5, budget=400.0)
        results = run_fleet(cfg, 2)
        seeds = [r.bundle.metadata["seed"] for r in results]
        assert seeds == [5.0, 6.0]


class TestVectorFleetBasics:
    def test_constructor_validation(self):
        cfg = healthy_config()
        with pytest.raises(SimulationError):
            VectorFleet(cfg, 0)
        with pytest.raises(SimulationError):
            VectorFleet(cfg, 2, dt=0.0)
        with pytest.raises(SimulationError):
            VectorFleet(cfg, 2, crash_grace=-1.0)
        with pytest.raises(SimulationError):
            VectorFleet(cfg, 2, ring_bins=4)
        with pytest.raises(SimulationError):
            VectorFleet(cfg, 2, dt=7.0)  # sampling_interval not a multiple
        with pytest.raises(SimulationError):
            VectorFleet(cfg, seeds=[])

    def test_determinism(self):
        cfg = healthy_config(budget=800.0)
        a = VectorFleet(cfg, 3).run()
        b = VectorFleet(cfg, 3).run()
        for ra, rb in zip(a, b):
            assert ra.crashed == rb.crashed
            for name in ra.bundle.names:
                np.testing.assert_array_equal(
                    ra.bundle[name].values, rb.bundle[name].values)

    def test_hosts_differ(self):
        cfg = healthy_config(budget=800.0)
        a, b = VectorFleet(cfg, 2).run()
        assert not np.array_equal(a.bundle["CommittedBytes"].values,
                                  b.bundle["CommittedBytes"].values)

    def test_metadata_and_grid(self):
        cfg = healthy_config(seed=9, budget=600.0)
        res = VectorFleet(cfg, 2).run()
        for i, r in enumerate(res):
            md = r.bundle.metadata
            assert md["engine"] == "vector"
            assert md["os_profile"] == "nt4"
            assert md["seed"] == float(9 + i)
            assert set(r.bundle.names) <= set(COUNTER_NAMES)
            ts = r.bundle["AvailableBytes"]
            # perfmon grid: multiples of the interval, none at t=0;
            # dropped samples leave gaps, so times are a grid *subset*.
            assert ts.times[0] >= cfg.sampling_interval
            on_grid = ts.times / cfg.sampling_interval
            assert np.allclose(on_grid, np.round(on_grid))
            assert np.all(np.diff(ts.times) > 0)

    def test_collect_traces_off(self):
        cfg = healthy_config(budget=600.0)
        res = VectorFleet(cfg, 2, collect_traces=False).run()
        for r in res:
            assert r.bundle.names == []
            assert r.bundle.metadata["engine"] == "vector"

    def test_invariants_and_metrics(self):
        cfg = aging_config(budget=3_000.0)
        with _obs.telemetry_session() as session:
            fleet = VectorFleet(cfg, 4)
            fleet.run()
            fleet.check_invariants()
            counters = session.metrics.snapshot()
        assert counters["memsim_vec.hosts"]["value"] == 4
        assert counters["memsim_vec.host_ticks"]["value"] > 0
        assert counters["memsim_vec.samples_collected"]["value"] > 0
        assert counters["memsim_vec.allocated_pages"]["value"] > 0

    def test_run_fleet_engine_dispatch(self):
        cfg = healthy_config(budget=400.0)
        vec = run_fleet(cfg, 2, engine="vector")
        ref = run_fleet_vector(cfg, 2)
        for a, b in zip(vec, ref):
            np.testing.assert_array_equal(a.bundle["CommittedBytes"].values,
                                          b.bundle["CommittedBytes"].values)
        with pytest.raises(Exception):
            run_fleet(cfg, 2, engine="nope")


class TestExactDecomposition:
    """Within-engine exactness: batching and sharding are invisible."""

    def test_batch_decomposition(self):
        check_batch_decomposition(aging_config(budget=2_500.0), 4)

    def test_worker_sharding_bit_identical(self):
        cfg = aging_config(budget=2_500.0)
        seq = run_fleet_vector(cfg, 5, workers=1)
        par = run_fleet_vector(cfg, 5, workers=3)
        assert len(seq) == len(par) == 5
        for a, b in zip(seq, par):
            assert a.crashed == b.crashed
            assert a.crash_time == b.crash_time
            assert a.crash_reason == b.crash_reason
            for name in a.bundle.names:
                np.testing.assert_array_equal(a.bundle[name].times,
                                              b.bundle[name].times)
                np.testing.assert_array_equal(a.bundle[name].values,
                                              b.bundle[name].values)


class TestTraceGrowth:
    """The per-host sample slots grow as they are written; a fleet whose
    slots were allocated for the whole budget up front is the oracle."""

    @staticmethod
    def _results(cfg, n_hosts, min_slots, monkeypatch, advance=()):
        from repro.memsim import fleet_vec

        monkeypatch.setattr(fleet_vec, "_MIN_TRACE_SLOTS", min_slots)
        fleet = VectorFleet(cfg, n_hosts)
        for until in advance:
            fleet.advance(until)
            if until == advance[0]:
                fleet.rejuvenate()
        return fleet, fleet.run()

    @pytest.mark.parametrize("min_slots", [1, 7, 1024])
    def test_grown_traces_equal_whole_budget_traces(self, monkeypatch,
                                                    min_slots):
        cfg = aging_config(budget=12_000.0)
        whole_fleet, whole = self._results(cfg, 4, 10**9, monkeypatch,
                                           advance=(700.0, 2_000.5))
        fleet, grown = self._results(cfg, 4, min_slots, monkeypatch,
                                     advance=(700.0, 2_000.5))
        assert whole_fleet._traces.shape[1] == whole_fleet._n_slots
        # Every host crashes early: most of the budget is never sampled.
        assert all(r.crashed for r in grown)
        assert fleet._traces.shape[1] < whole_fleet._n_slots / 2
        for a, b in zip(whole, grown):
            assert (a.crashed, a.crash_time, a.crash_reason, a.duration,
                    a.rejuvenation_times) == (
                b.crashed, b.crash_time, b.crash_reason, b.duration,
                b.rejuvenation_times)
            assert a.bundle.metadata == b.bundle.metadata
            assert a.bundle.names == b.bundle.names == list(COUNTER_NAMES)
            for name in a.bundle.names:
                np.testing.assert_array_equal(a.bundle[name].times,
                                              b.bundle[name].times)
                np.testing.assert_array_equal(a.bundle[name].values,
                                              b.bundle[name].values)

    def test_no_slots_before_the_first_sample(self):
        fleet = VectorFleet(aging_config(budget=80_000.0), 8)
        assert fleet._traces.shape[1] == 0
        assert all(r.bundle.names == [] for r in fleet.results())


@pytest.fixture(scope="module")
def cross_engine_report():
    """One object-vs-vector comparison fleet (module cached; the object
    half dominates the cost)."""
    return fleet_equivalence_report(aging_config(seed=31, budget=6_000.0), 10)


class TestCrossEngine:
    def test_report_agrees(self, cross_engine_report):
        rep = cross_engine_report
        assert rep.object_crashes == rep.n_hosts
        assert rep.vector_crashes == rep.n_hosts
        assert rep.object_reasons == rep.vector_reasons
        check_cross_engine(rep)  # KS + crash-fraction + reasons

    def test_crash_gap_rejected(self, cross_engine_report):
        from dataclasses import replace

        bad = replace(cross_engine_report, vector_crashes=0,
                      vector_crash_times=())
        with pytest.raises(AnalysisError):
            check_cross_engine(bad)

    def test_reason_vocab_rejected(self, cross_engine_report):
        from dataclasses import replace

        bad = replace(cross_engine_report, vector_reasons=("pool",))
        with pytest.raises(AnalysisError):
            check_cross_engine(bad)

    def test_ks_rejected(self):
        rep = EquivalenceReport(
            n_hosts=40, object_crashes=40, vector_crashes=40,
            object_crash_times=tuple(float(t) for t in range(40)),
            vector_crash_times=tuple(1000.0 + t for t in range(40)),
            ks_statistic=1.0, ks_pvalue=1e-12,
            object_reasons=("memory",), vector_reasons=("memory",))
        with pytest.raises(AnalysisError):
            check_cross_engine(rep)

    def test_ks_2samp_basics(self):
        d, p = ks_2samp([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert d == 0.0 and p == 1.0
        d, p = ks_2samp(list(range(50)), [x + 1000.0 for x in range(50)])
        assert d == 1.0 and p < 1e-6
        with pytest.raises(AnalysisError):
            ks_2samp([], [1.0])


class TestEdgeCases:
    def test_zero_duration_run(self):
        cfg = healthy_config(budget=0.5)
        res = VectorFleet(cfg, 2).run()
        for r in res:
            assert not r.crashed
            assert r.bundle.names == []  # no sample slots before t=0.5
        # object engine agrees on the degenerate shape
        obj = Machine(healthy_config(budget=0.5).with_seed(21)).run()
        assert not obj.crashed
        assert obj.bundle.names == []

    def test_survivor_fleet(self):
        res = VectorFleet(healthy_config(budget=2_000.0), 4).run()
        assert all(not r.crashed for r in res)
        assert all(r.crash_time is None and r.crash_reason is None for r in res)
        assert all(r.duration == 2_000.0 for r in res)

    def test_rejuvenation_mid_grace_window_averts_crash(self):
        # Advance until some host records its first allocation failure,
        # then rejuvenate inside the grace window: the pending crash must
        # be averted (the object model cancels the scheduled crash event).
        fleet = VectorFleet(aging_config(seed=41, budget=8_000.0), 4,
                            crash_grace=300.0)
        step = 50.0
        while not np.any(~np.isnan(fleet.first_failure) & fleet.active):
            fleet.advance(fleet.now + step)
            assert fleet.now < 8_000.0, "no host ever failed"
        failing = ~np.isnan(fleet.first_failure) & fleet.active
        deadline = np.nanmin(fleet.first_failure[failing]) + 300.0
        hosts = np.flatnonzero(failing)
        fleet.rejuvenate(hosts)
        assert np.all(np.isnan(fleet.first_failure[hosts]))
        fleet.advance(min(deadline + 60.0, 8_000.0))
        crashed_early = (~np.isnan(fleet.crash_time[hosts])
                         & (fleet.crash_time[hosts] <= deadline))
        assert not np.any(crashed_early)
        results = fleet.results()
        for h in hosts:
            assert len(results[h].rejuvenation_times) == 1
            assert results[h].bundle.metadata["n_rejuvenations"] == 1.0

    def test_rejuvenation_resets_usage(self):
        fleet = VectorFleet(aging_config(budget=4_000.0), 2)
        fleet.advance(1_000.0)
        assert np.all(fleet.committed > 0)
        fleet.rejuvenate()
        assert np.all(fleet.resident == 0)
        assert np.all(fleet.pinned == 0)
        assert np.all(fleet.pagefile == 0)
        fleet.check_invariants()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_hosts=st.integers(min_value=1, max_value=4),
           scale=st.floats(min_value=0.5, max_value=8.0))
    def test_crash_count_properties(self, seed, n_hosts, scale):
        cfg = aging_config(seed=seed, budget=1_500.0, scale=scale)
        fleet = VectorFleet(cfg, n_hosts)
        results = fleet.run()
        fleet.check_invariants()
        crashed = [r for r in results if r.crashed]
        assert 0 <= len(crashed) <= n_hosts
        for r in crashed:
            assert 0.0 < r.crash_time <= 1_500.0
            assert r.crash_reason in ("commit", "memory", "pool")
            assert r.duration == r.crash_time
        for r in results:
            if not r.crashed:
                assert r.duration == 1_500.0


class TestCampaignVector:
    def test_run_cell_vector_matches_structure(self):
        from repro.analysis.campaign import (
            ExperimentSpec, cells_payload, run_campaign,
        )

        spec_v = ExperimentSpec(name="v", scenario="stress", n_runs=2,
                                base_seed=3, fault_factor=4.0,
                                max_run_seconds=3_000.0, engine="vector")
        spec_o = ExperimentSpec(name="v", scenario="stress", n_runs=2,
                                base_seed=3, fault_factor=4.0,
                                max_run_seconds=3_000.0, engine="object")
        pv = cells_payload(run_campaign([spec_v]))["v"]
        po = cells_payload(run_campaign([spec_o]))["v"]
        assert set(pv) == set(po)
        assert len(pv["runs"]) == len(po["runs"])
        assert [r["seed"] for r in pv["runs"]] == [r["seed"] for r in po["runs"]]

    def test_execute_campaign_vector_parallel_bit_identical(self):
        from repro.analysis.campaign import (
            ExperimentSpec, cells_payload, execute_campaign,
        )

        specs = [ExperimentSpec(name="v", scenario="stress", n_runs=3,
                                base_seed=17, fault_factor=4.0,
                                max_run_seconds=3_000.0, engine="vector")]
        seq = cells_payload(execute_campaign(specs, workers=1).results)
        par = cells_payload(execute_campaign(specs, workers=2).results)
        assert seq == par

    def test_vector_journal_resume_bit_identical(self, tmp_path):
        from repro.analysis.campaign import (
            ExperimentSpec, cells_payload, execute_campaign,
        )
        from repro.testing.chaos import ChaosSpec

        # Two vector cells: two work units (one fleet shard each) at
        # workers=1, so a raise schedule can fail one and spare the other.
        specs = [ExperimentSpec(name=name, scenario="stress", n_runs=3,
                                base_seed=seed, fault_factor=4.0,
                                max_run_seconds=3_000.0, engine="vector")
                 for name, seed in (("v", 17), ("w", 117))]
        n_units = 2
        chaos = next(
            c for c in (ChaosSpec(raise_rate=0.5, seed=s) for s in range(64))
            if 0 < len(c.scheduled_faults(n_units)) < n_units)
        ref = cells_payload(execute_campaign(specs, workers=1).results)
        journal = tmp_path / "journal.jsonl"
        partial = execute_campaign(
            specs, workers=1, journal=journal, allow_partial=True,
            chaos=chaos)
        assert partial.status == "incomplete"
        assert len(partial.missing) == 3
        resumed = execute_campaign(specs, workers=1, journal=journal,
                                   resume=True)
        assert resumed.resumed_units == 3
        assert resumed.executed_units == 3
        assert cells_payload(resumed.results) == ref
