"""Tests for the online monitor and the in-sim rejuvenation machinery."""

import numpy as np
import pytest

from repro.core import OnlineAgingMonitor
from repro.exceptions import AnalysisError, SimulationError, ValidationError
from repro.generators import fbm
from repro.memsim import (
    Machine,
    MachineConfig,
    MemoryManager,
    PeriodicRejuvenator,
    PredictiveRejuvenator,
    ThresholdRejuvenator,
    attach_policy,
)


def fast_monitor(**overrides):
    # chunk_size must stay a large fraction of indicator_window: smaller
    # chunks produce heavily overlapping (correlated) indicator points
    # that drive the CUSUM to false alarms.
    kwargs = dict(chunk_size=128, history=512, indicator_window=256,
                  n_warmup=1, n_calibration=10)
    kwargs.update(overrides)
    return OnlineAgingMonitor(**kwargs)


class TestOnlineMonitor:
    def test_quiet_on_stationary_signal(self):
        monitor = fast_monitor()
        x = fbm(6000, 0.6, rng=np.random.default_rng(0))
        fired = monitor.update_many(np.arange(x.size, dtype=float), x)
        assert not fired
        assert monitor.calibrated
        assert monitor.alarm_time is None

    def test_alarms_on_regime_change(self):
        rng = np.random.default_rng(1)
        healthy = fbm(5000, 0.7, rng=rng)
        # Regime change: white-noise-like (much rougher) continuation.
        sick = healthy[-1] + np.cumsum(rng.standard_normal(3000) * 3.0)
        # Make the sick part genuinely rougher: alternate-sign jitter.
        sick = sick + 50.0 * rng.standard_normal(3000)
        x = np.concatenate([healthy, sick])
        monitor = fast_monitor()
        monitor.update_many(np.arange(x.size, dtype=float), x)
        assert monitor.alarmed
        assert monitor.alarm_time > 5000 - 512  # not before the change

    def test_alarm_latches(self):
        monitor = fast_monitor()
        rng = np.random.default_rng(2)
        healthy = fbm(5000, 0.7, rng=rng)
        sick = healthy[-1] + 50.0 * rng.standard_normal(2000)
        x = np.concatenate([healthy, sick])
        monitor.update_many(np.arange(x.size, dtype=float), x)
        t_alarm = monitor.alarm_time
        assert t_alarm is not None
        monitor.update(float(x.size + 1), 0.0)
        assert monitor.alarm_time == t_alarm

    def test_out_of_order_samples_rejected(self):
        monitor = fast_monitor()
        monitor.update(1.0, 0.0)
        with pytest.raises(AnalysisError, match="time order"):
            monitor.update(0.5, 0.0)

    def test_indicator_history_grows(self):
        monitor = fast_monitor()
        x = fbm(2048, 0.5, rng=np.random.default_rng(3))
        monitor.update_many(np.arange(x.size, dtype=float), x)
        assert monitor.indicator_history.size >= 1
        assert monitor.n_samples == 2048

    def test_invalid_geometry(self):
        with pytest.raises(AnalysisError):
            OnlineAgingMonitor(history=512, indicator_window=1024)
        with pytest.raises(ValidationError):
            OnlineAgingMonitor(indicator="median")
        with pytest.raises(ValidationError, match="history"):
            OnlineAgingMonitor(history=16, indicator_window=8)
        with pytest.raises(ValidationError, match="indicator_window"):
            OnlineAgingMonitor(indicator_window=8)
        with pytest.raises(ValidationError, match="chunk_size"):
            OnlineAgingMonitor(chunk_size=8)

    def test_history_shorter_than_wavelet_support_rejected(self):
        # The Hölder estimator needs ~4 samples per unit of its largest
        # wavelet scale; a shorter rolling history could never produce a
        # single valid estimate and must fail loudly at construction,
        # not degrade into silence (or noise) at runtime.
        with pytest.raises(AnalysisError, match="wavelet"):
            OnlineAgingMonitor(history=256, indicator_window=128,
                               chunk_size=64,
                               holder_kwargs={"max_scale": 128.0})
        # Shrinking max_scale to fit the short history is the fix.
        OnlineAgingMonitor(history=256, indicator_window=128, chunk_size=64,
                           holder_kwargs={"max_scale": 32.0})

    def test_nonfinite_samples_rejected(self):
        monitor = fast_monitor()
        monitor.update(0.0, 1.0)
        for bad_t, bad_v in ((float("nan"), 1.0), (float("inf"), 1.0),
                             (1.0, float("nan")), (1.0, float("-inf"))):
            with pytest.raises(AnalysisError, match="finite"):
                monitor.update(bad_t, bad_v)
        # The stream survives the rejected pushes.
        monitor.update(1.0, 2.0)
        assert monitor.n_samples == 2
        assert not monitor.alarmed

    def test_no_alarm_before_calibration_completes(self):
        # Even a wildly degrading signal must not alarm while the
        # detector is still collecting its calibration points: the
        # baseline does not exist yet, so any alarm would be spurious.
        monitor = fast_monitor(n_calibration=10)
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.standard_normal(4096) * np.linspace(1, 200, 4096))
        states = []
        monitor.on_state_change = lambda t, old, new: states.append(new)
        for i, value in enumerate(x):
            monitor.update(float(i), float(value))
            if not monitor.calibrated:
                assert not monitor.alarmed
                assert monitor.alarm_time is None
        # Lifecycle order is buffering -> calibrating -> watching (-> alarmed);
        # "alarmed" must never appear before "watching".
        assert "calibrating" in states
        if "alarmed" in states:
            assert states.index("alarmed") > states.index("watching")

    def test_state_property_lifecycle(self):
        monitor = fast_monitor()
        assert monitor.state == "buffering"
        x = fbm(6000, 0.6, rng=np.random.default_rng(12))
        monitor.update_many(np.arange(x.size, dtype=float), x)
        assert monitor.state == "watching"
        assert monitor.calibrated

    def test_callbacks_fire(self):
        monitor = fast_monitor()
        points, transitions = [], []
        monitor.on_indicator = lambda t, v: points.append((t, v))
        monitor.on_state_change = lambda t, old, new: transitions.append((old, new))
        x = fbm(3000, 0.6, rng=np.random.default_rng(13))
        monitor.update_many(np.arange(x.size, dtype=float), x)
        assert len(points) == monitor.indicator_history.size
        assert ("buffering", "calibrating") in transitions


class TestMemoryReset:
    def test_reset_clears_user_state(self):
        mem = MemoryManager(MachineConfig.nt4(), np.random.default_rng(0))
        mem.allocate(5000)
        mem.pin(1000)
        mem.pool_allocate(1 << 20)
        mem.add_fragmentation_loss(1 << 20)
        epoch_before = mem.epoch
        mem.reset_user_state()
        assert mem.committed_pages == 0
        assert mem.pinned_pages == 0
        assert mem.fragmentation_lost_bytes == 0
        assert mem.epoch == epoch_before + 1
        mem.check_invariants()

    def test_pin_requires_commit(self):
        mem = MemoryManager(MachineConfig.nt4(), np.random.default_rng(0))
        with pytest.raises(SimulationError):
            mem.pin(10)

    def test_pin_blocks_trim(self):
        mem = MemoryManager(MachineConfig.nt4(), np.random.default_rng(0))
        phys = mem.available_pages
        mem.allocate(phys - 100)
        mem.pin(phys - 200)
        # Nearly everything pinned: a big new allocation cannot make room.
        res = mem.allocate(phys)
        assert not res.ok
        assert res.failure_reason == "memory"


class TestRejuvenationPolicies:
    def test_unprotected_machine_crashes(self):
        result = Machine(MachineConfig.nt4(seed=5, max_run_seconds=40_000)).run()
        assert result.crashed
        assert result.rejuvenation_times == ()

    def test_periodic_policy_survives(self):
        machine = Machine(MachineConfig.nt4(seed=5, max_run_seconds=30_000))
        controller = PeriodicRejuvenator(machine.sim, machine.rngs, machine, 3000.0)
        controller.ensure_started()
        result = machine.run()
        assert not result.crashed
        assert len(result.rejuvenation_times) >= 8
        assert controller.restarts == len(result.rejuvenation_times)

    def test_rejuvenation_metadata(self):
        machine = Machine(MachineConfig.nt4(seed=5, max_run_seconds=10_000))
        PeriodicRejuvenator(machine.sim, machine.rngs, machine, 2000.0).ensure_started()
        result = machine.run()
        assert result.bundle.metadata.get("n_rejuvenations") == \
            float(len(result.rejuvenation_times))

    def test_threshold_policy_restarts_under_pressure(self):
        machine = Machine(MachineConfig.nt4(seed=5, max_run_seconds=25_000))
        controller = ThresholdRejuvenator(
            machine.sim, machine.rngs, machine, floor_bytes=16e6)
        controller.ensure_started()
        result = machine.run()
        assert controller.restarts >= 1

    def test_predictive_policy_avert_crash(self):
        machine = Machine(MachineConfig.nt4(seed=5, max_run_seconds=30_000))
        controller = PredictiveRejuvenator(machine.sim, machine.rngs, machine)
        controller.ensure_started()
        result = machine.run()
        assert not result.crashed
        assert controller.restarts >= 1
        # Restarts must be rarer than a 2000s timer would produce.
        assert controller.restarts < 15

    def test_attach_policy_dispatch(self):
        machine = Machine(MachineConfig.nt4(seed=1, max_run_seconds=5_000))
        assert attach_policy(machine, "none") is None
        ctl = attach_policy(machine, "periodic", interval=1000.0)
        assert isinstance(ctl, PeriodicRejuvenator)
        with pytest.raises(ValidationError):
            attach_policy(machine, "magic")

    def test_counters_continue_after_restart(self):
        machine = Machine(MachineConfig.nt4(seed=5, max_run_seconds=12_000))
        attach_policy(machine, "periodic", interval=4000.0)
        result = machine.run()
        avail = result.bundle["AvailableBytes"].dropna()
        # Sampling covers the whole horizon, across restarts.
        assert avail.times[-1] > 11_000
        # After each restart available memory jumps back up.
        for t_rejuv in result.rejuvenation_times:
            after = avail.slice_time(t_rejuv + 1, t_rejuv + 60)
            before = avail.slice_time(t_rejuv - 60, t_rejuv - 1)
            if len(after) and len(before):
                assert np.median(after.values) >= np.median(before.values)

    def test_determinism_with_policy(self):
        def run_once():
            machine = Machine(MachineConfig.nt4(seed=9, max_run_seconds=15_000))
            attach_policy(machine, "periodic", interval=5000.0)
            return machine.run()

        a, b = run_once(), run_once()
        np.testing.assert_array_equal(
            a.bundle["AvailableBytes"].values, b.bundle["AvailableBytes"].values)
        assert a.rejuvenation_times == b.rejuvenation_times
