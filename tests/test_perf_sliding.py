"""Equivalence guards for the truncated Hölder tail and the online
monitor's fast paths, checked against the full-window
:func:`~repro.core.holder.wavelet_holder` oracle directly."""

import math
import warnings

import numpy as np
import pytest

from repro.core import holder, online
from repro.core.holder import SUPPORT_MARGIN, holder_tail, wavelet_holder
from repro.core.online import OnlineAgingMonitor
from repro.exceptions import AnalysisError, ValidationError
from repro.fractal.wavelets import cwt
from repro.generators import fbm
from repro.obs import session as _obs


@pytest.fixture(scope="module")
def crashing_counter():
    """AvailableBytes trace of a crashing stress host (fixed seed)."""
    from repro.memsim.scenarios import build_scenario

    machine = build_scenario("stress", seed=3, max_run_seconds=20_000.0)
    result = machine.run()
    assert result.crashed, "fixture scenario must crash"
    return result.bundle["AvailableBytes"].values


def _cwt_flops(fn, *args, **kwargs):
    with _obs.telemetry_session() as session:
        fn(*args, **kwargs)
        return session.metrics.counter("fractal.cwt_flops").value


def _real_even_flops(segment, n_scales):
    """FLOP proxy of the real-even DCT route over ``segment`` samples: the
    complex route's ``(n_scales + 1) * 2n * log2(2n)``, quartered."""
    size = 2 * segment
    return (n_scales + 1) * size * math.log2(size) / 4


class TestHolderTail:
    def test_tail_matches_batch_on_crashing_trace(self, crashing_counter):
        window = crashing_counter[-4096:]
        tail = holder_tail(window, 512)
        batch = wavelet_holder(window)[-512:]
        assert tail.shape == (512,)
        np.testing.assert_allclose(tail, batch, rtol=1e-9, atol=1e-8)

    def test_tail_matches_batch_on_fbm(self):
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.normal(size=6000))
        tail = holder_tail(x, 256, max_scale=24.0, n_scales=10)
        batch = wavelet_holder(x, max_scale=24.0, n_scales=10)[-256:]
        np.testing.assert_allclose(tail, batch, rtol=1e-9, atol=1e-8)

    @pytest.mark.parametrize("kwargs", [
        {"min_scale": 3.0, "max_scale": 24.0},
        {"n_scales": 8, "max_scale": 16.0},
        {"dog_order": 4},
        {"cone_supremum": False},
    ])
    def test_holder_kwargs_plumbed_through(self, kwargs):
        rng = np.random.default_rng(29)
        x = np.cumsum(rng.normal(size=3000))
        np.testing.assert_allclose(holder_tail(x, 128, **kwargs),
                                   wavelet_holder(x, **kwargs)[-128:],
                                   rtol=1e-9, atol=1e-8)

    def test_short_window_falls_back_to_batch_exactly(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.normal(size=700))
        np.testing.assert_array_equal(
            holder_tail(x, 512), wavelet_holder(x)[-512:])
        # A tail longer than the window returns the whole trajectory.
        np.testing.assert_array_equal(holder_tail(x, 900), wavelet_holder(x))

    def test_segment_length_accounts_for_support_and_cone(self):
        segment = 512 + 32 + int(SUPPORT_MARGIN * 32)
        assert segment == 864
        x = np.cumsum(np.random.default_rng(3).normal(size=4096))
        # One real-even transform over exactly the segment: the FLOP
        # proxy grows strictly with the transformed length, so a segment
        # one sample off misses it.
        flops = _cwt_flops(holder_tail, x, 512)
        assert flops == pytest.approx(_real_even_flops(864, 12))
        for off_by_one in (863, 865):
            assert flops != pytest.approx(_real_even_flops(off_by_one, 12))
        # An odd order keeps the complex route over the same segment.
        assert _cwt_flops(holder_tail, x, 512, dog_order=3) == pytest.approx(
            _cwt_flops(wavelet_holder, x[-segment:], dog_order=3))
        # At the segment length itself nothing is truncated.
        np.testing.assert_array_equal(holder_tail(x[-segment:], 512),
                                      wavelet_holder(x[-segment:])[-512:])
        # Tiny configurations keep the estimator's 64-sample floor.
        y = x[-100:]
        flops = _cwt_flops(holder_tail, y, 8, min_scale=1.0, max_scale=2.0,
                           n_scales=3)
        assert flops == pytest.approx(_real_even_flops(64, 3))
        for off_by_one in (63, 65):
            assert flops != pytest.approx(_real_even_flops(off_by_one, 3))

    @pytest.mark.parametrize("dog_order", [1, 3])
    def test_odd_orders_stay_on_complex_route(self, monkeypatch, dog_order):
        x = np.cumsum(np.random.default_rng(8).normal(size=3000))
        expected = holder_tail(x, 256, dog_order=dog_order)
        monkeypatch.setattr(holder, "_cwt_even_dog", _complex_route)
        np.testing.assert_array_equal(
            holder_tail(x, 256, dog_order=dog_order), expected)

    def test_wavelet_holder_stays_on_complex_route(self, monkeypatch):
        x = np.cumsum(np.random.default_rng(9).normal(size=3000))
        expected = wavelet_holder(x)
        monkeypatch.setattr(holder, "_cwt_even_dog", _complex_route)
        np.testing.assert_array_equal(wavelet_holder(x), expected)

    @pytest.mark.parametrize("kwargs,name", [
        ({"min_scale": 0.0}, "min_scale"),
        ({"min_scale": -1.0}, "min_scale"),
        ({"min_scale": float("nan")}, "min_scale"),
        ({"max_scale": float("nan")}, "max_scale"),
        ({"max_scale": float("inf")}, "max_scale"),
    ])
    def test_bad_scales_rejected_by_name(self, kwargs, name):
        x = np.cumsum(np.random.default_rng(1).normal(size=256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=name):
                holder_tail(x, 10, **kwargs)

    def test_validation(self):
        x = np.cumsum(np.random.default_rng(1).normal(size=256))
        with pytest.raises(ValidationError):
            holder_tail(x, 0)
        with pytest.raises(ValidationError):
            holder_tail(x, 64, max_scale=2.0, min_scale=4.0)
        with pytest.raises(ValidationError):
            holder_tail(x, 64, n_scales=2)
        with pytest.raises(ValidationError):
            holder_tail(x[:32], 16)
        with pytest.raises(ValidationError):
            holder_tail(np.r_[x, np.nan], 64)


def _complex_route(x, scales, dog_order):
    """The real-even route's stand-in: the shared complex-FFT ``cwt``."""
    return cwt(x, scales, wavelet="dog", dog_order=dog_order)


def _drifting_signal(n, seed=7):
    rng = np.random.default_rng(seed)
    drift = np.linspace(0.0, 2.0, n) ** 2
    values = np.cumsum(rng.normal(size=n) * (1.0 + drift))
    return np.arange(n, dtype=float), values


def _regime_change_signal(seed=1):
    """fBm that turns much rougher at sample 9000 (alarms the default
    monitor a few emits later)."""
    rng = np.random.default_rng(seed)
    healthy = fbm(9_000, 0.7, rng=rng)
    sick = (healthy[-1] + np.cumsum(rng.standard_normal(4_000) * 3.0)
            + 50.0 * rng.standard_normal(4_000))
    values = np.concatenate([healthy, sick])
    return np.arange(values.size, dtype=float), values


@pytest.fixture
def full_window_oracle(monkeypatch):
    """Call ``fn`` with every monitor emit recomputing the full-window
    wavelet_holder — the oracle loop, at the monitor's own emit
    positions and through its own CUSUM."""

    def full_window_tail(window, tail, **kwargs):
        return wavelet_holder(window, **kwargs)[-tail:]

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(online, "holder_tail", full_window_tail)
            return fn(*args)

    return run


class TestMonitorEngines:
    """The monitor's Hölder estimator configuration is checked when the
    monitor is built, not at its first recomputation."""

    def test_bad_holder_kwargs_rejected_at_construction(self):
        with pytest.raises(AnalysisError, match="holder_kwargs"):
            OnlineAgingMonitor(holder_kwargs={"no_such_kwarg": 1})
        with pytest.raises(ValidationError):
            OnlineAgingMonitor(holder_kwargs={"min_scale": 8.0,
                                              "max_scale": 4.0})
        with pytest.raises(ValidationError):
            OnlineAgingMonitor(holder_kwargs={"n_scales": 2})

    @pytest.mark.parametrize("holder_kwargs,name", [
        ({"dog_order": 0}, "dog_order"),
        ({"dog_order": 2.0}, "dog_order"),
        ({"min_scale": 0.0}, "min_scale"),
        ({"min_scale": -1.0}, "min_scale"),
        ({"max_scale": float("nan")}, "max_scale"),
    ])
    def test_bad_band_or_order_rejected_before_any_sample(self, holder_kwargs,
                                                          name):
        # Construction fails, not the first emit thousands of samples in.
        with pytest.raises(ValidationError, match=name):
            OnlineAgingMonitor(holder_kwargs=holder_kwargs)


class TestMonitorOracle:
    def test_matches_full_window_oracle_indicators_and_alarm(
            self, full_window_oracle):
        t, v = _regime_change_signal()
        oracle, monitor = OnlineAgingMonitor(), OnlineAgingMonitor()
        full_window_oracle(oracle.update_many, t, v)
        monitor.update_many(t, v)
        assert len(oracle.indicator_history) > 0
        np.testing.assert_allclose(monitor.indicator_history,
                                   oracle.indicator_history,
                                   rtol=1e-9, atol=1e-8)
        np.testing.assert_array_equal(monitor.indicator_times,
                                      oracle.indicator_times)
        assert oracle.alarm_time is not None
        assert monitor.alarm_time == oracle.alarm_time

    def test_indicator_points_are_holder_tail_summaries(self):
        # Independent of the monitor's bookkeeping: every point is the
        # mean of wavelet_holder's newest exponents over the trailing
        # history at its emit sample.
        t, v = _drifting_signal(3_000, seed=23)
        monitor = OnlineAgingMonitor(chunk_size=128, history=1024,
                                     indicator_window=256)
        monitor.update_many(t, v)
        ends = np.arange(1024, t.size + 1, 128)
        np.testing.assert_array_equal(monitor.indicator_times, t[ends - 1])
        expected = [np.mean(wavelet_holder(v[end - 1024:end])[-256:])
                    for end in ends]
        np.testing.assert_allclose(monitor.indicator_history, expected,
                                   rtol=1e-9, atol=1e-8)

    def test_cuts_cwt_flops_5x_against_oracle(self, full_window_oracle):
        t, v = _drifting_signal(8_192)
        oracle, monitor = OnlineAgingMonitor(), OnlineAgingMonitor()
        oracle_flops = full_window_oracle(
            _cwt_flops, oracle.update_many, t, v)
        assert oracle_flops / _cwt_flops(monitor.update_many, t, v) >= 5.0


class TestVectorisedUpdateMany:
    def _monitor(self, **overrides):
        kwargs = dict(chunk_size=128, history=512, indicator_window=256,
                      n_warmup=1, n_calibration=10)
        kwargs.update(overrides)
        return OnlineAgingMonitor(**kwargs)

    def test_matches_per_sample_loop(self):
        t, v = _drifting_signal(3_000, seed=11)
        looped = self._monitor()
        for ti, vi in zip(t, v):
            looped.update(ti, vi)
        batched = self._monitor()
        batched.update_many(t, v)
        np.testing.assert_array_equal(looped.indicator_history,
                                      batched.indicator_history)
        np.testing.assert_array_equal(looped.indicator_times,
                                      batched.indicator_times)
        assert looped.state == batched.state
        assert looped.alarm_time == batched.alarm_time
        assert looped.n_samples == batched.n_samples

    def test_matches_across_odd_split_points(self):
        t, v = _drifting_signal(2_000, seed=13)
        whole = self._monitor()
        whole.update_many(t, v)
        pieces = self._monitor()
        for start, stop in ((0, 7), (7, 300), (300, 901), (901, 2_000)):
            pieces.update_many(t[start:stop], v[start:stop])
        np.testing.assert_array_equal(whole.indicator_history,
                                      pieces.indicator_history)
        assert whole.state == pieces.state

    def test_state_change_callbacks_fire_at_same_times(self):
        t, v = _drifting_signal(3_000, seed=19)
        seen_loop, seen_batch = [], []
        looped = self._monitor(
            on_state_change=lambda *a: seen_loop.append(a))
        for ti, vi in zip(t, v):
            looped.update(ti, vi)
        batched = self._monitor(
            on_state_change=lambda *a: seen_batch.append(a))
        batched.update_many(t, v)
        assert seen_loop == seen_batch
        assert seen_loop  # the run must actually transition

    def test_empty_batch_is_noop(self):
        monitor = self._monitor()
        assert monitor.update_many([], []) is False
        assert monitor.n_samples == 0

    def test_invalid_batch_rejected_whole(self):
        monitor = self._monitor()
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 1.0, float("nan")], [1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 1.0], [1.0])
        with pytest.raises(AnalysisError):
            monitor.update_many([[0.0, 1.0]], [[1.0, 2.0]])
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 1.0], [1.0, float("inf")])
        with pytest.raises(AnalysisError):
            monitor.update_many([1.0, 1.0], [1.0, 2.0])
        assert monitor.n_samples == 0
        monitor.update(5.0, 1.0)
        with pytest.raises(AnalysisError):
            monitor.update_many([5.0, 6.0], [1.0, 2.0])
        assert monitor.n_samples == 1

    def test_accepts_generators(self):
        monitor = self._monitor()
        monitor.update_many((float(i) for i in range(40)),
                            (float(i % 7) + i * 0.01 for i in range(40)))
        assert monitor.n_samples == 40
