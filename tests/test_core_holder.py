"""Tests for local Hölder exponent estimation (the paper core)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AnalysisError, ValidationError
from repro.core import holder as holder_module
from repro.core.holder import (
    HolderTrajectory,
    holder_tail,
    holder_trajectory,
    local_holder,
    oscillation_holder,
    wavelet_holder,
    _window_extrema,
)
from repro.generators import fbm, weierstrass
from repro.trace import TimeSeries


def brute_window_extrema(rows, halves, op, *, tail=None):
    """Oracle for ``_window_extrema``: op over each clipped centred
    window, one window at a time."""
    rows = np.asarray(rows, dtype=float)
    reduce = np.max if op is np.maximum else np.min
    n = rows.shape[1]
    out = np.array([
        [reduce(row[max(0, i - h): i + h + 1]) for i in range(n)]
        for row, h in zip(rows, halves)
    ])
    return out if tail is None else out[:, n - min(tail, n):]


class TestRollingExtrema:
    def test_max_matches_bruteforce(self, rng):
        x = rng.standard_normal(200)
        for half in (1, 3, 7, 10):
            fast = _window_extrema(x[None, :], [half], np.maximum)[0]
            slow = np.array([
                x[max(0, i - half): i + half + 1].max() for i in range(x.size)
            ])
            np.testing.assert_array_equal(fast, slow)

    def test_min_matches_bruteforce(self, rng):
        x = rng.standard_normal(200)
        for half in (1, 5, 12):
            fast = _window_extrema(x[None, :], [half], np.minimum)[0]
            slow = np.array([
                x[max(0, i - half): i + half + 1].min() for i in range(x.size)
            ])
            np.testing.assert_array_equal(fast, slow)

    def test_zero_window_identity(self, rng):
        x = rng.standard_normal(50)
        np.testing.assert_array_equal(
            _window_extrema(x[None, :], [0], np.maximum)[0], x)

    def test_input_rows_untouched(self, rng):
        rows = rng.standard_normal((3, 40))
        before = rows.copy()
        _window_extrema(rows, [4, 1, 9], np.maximum, tail=10)
        np.testing.assert_array_equal(rows, before)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 16), n=st.integers(1, 80),
           maximum=st.booleans(), ties=st.booleans(),
           tail=st.one_of(st.none(), st.integers(1, 100)))
    def test_equals_bruteforce(self, data, n_rows, n, maximum, ties, tail):
        # Half widths 0-64 against rows as short as 1 sample cover
        # windows wider than the row; small integer values and constant
        # rows cover ties.
        halves = data.draw(st.lists(st.integers(0, 64), min_size=n_rows,
                                    max_size=n_rows))
        values = (st.integers(-2, 2).map(float) if ties
                  else st.floats(-1e6, 1e6, allow_nan=False))
        rows = np.array(data.draw(st.lists(
            st.lists(values, min_size=n, max_size=n),
            min_size=n_rows, max_size=n_rows)), dtype=float)
        if data.draw(st.booleans()):
            rows[0] = rows[0, 0]
        op = np.maximum if maximum else np.minimum
        np.testing.assert_array_equal(
            _window_extrema(rows, halves, op, tail=tail),
            brute_window_extrema(rows, halves, op, tail=tail))


class TestConeMaxOracle:
    """The estimators give the same bits when their windowed extrema run
    through the brute-force oracle."""

    @pytest.fixture
    def fast(self, monkeypatch):
        """A signal and the kernel's outputs on it; the oracle replaces
        the kernel afterwards."""
        x = np.cumsum(np.random.default_rng(3).standard_normal(1500))
        out = {"full": wavelet_holder(x), "tail": holder_tail(x, 512),
               "short": holder_tail(x, 7), "osc": oscillation_holder(x)}
        monkeypatch.setattr(holder_module, "_window_extrema",
                            brute_window_extrema)
        return x, out

    def test_wavelet_holder_bit_identical(self, fast):
        x, out = fast
        np.testing.assert_array_equal(wavelet_holder(x), out["full"])

    def test_holder_tail_bit_identical(self, fast):
        x, out = fast
        np.testing.assert_array_equal(holder_tail(x, 512), out["tail"])
        np.testing.assert_array_equal(holder_tail(x, 7), out["short"])

    def test_oscillation_holder_bit_identical(self, fast):
        x, out = fast
        np.testing.assert_array_equal(oscillation_holder(x), out["osc"])


class TestWaveletHolder:
    @pytest.mark.parametrize("h_true", [0.3, 0.5, 0.7])
    def test_weierstrass_uniform_h(self, h_true):
        w = weierstrass(2**13, h_true)
        h = wavelet_holder(w)
        assert np.mean(h) == pytest.approx(h_true, abs=0.08)

    @pytest.mark.parametrize("hurst", [0.3, 0.6, 0.8])
    def test_fbm_h_equals_hurst(self, hurst):
        x = fbm(2**14, hurst, rng=np.random.default_rng(int(hurst * 10)))
        h = wavelet_holder(x)
        assert np.median(h) == pytest.approx(hurst, abs=0.1)

    def test_rough_vs_smooth_ordering(self):
        rough = weierstrass(2**12, 0.25)
        smooth = weierstrass(2**12, 0.75)
        assert np.mean(wavelet_holder(rough)) < np.mean(wavelet_holder(smooth)) - 0.3

    def test_output_length(self, rng):
        x = rng.standard_normal(1000)
        assert wavelet_holder(x).size == 1000

    def test_cone_supremum_reduces_noise(self):
        x = fbm(2**13, 0.5, rng=np.random.default_rng(5))
        h_cone = wavelet_holder(x, cone_supremum=True)
        h_raw = wavelet_holder(x, cone_supremum=False)
        assert np.std(h_cone) < np.std(h_raw)

    def test_scale_band_validation(self, rng):
        x = rng.standard_normal(256)
        with pytest.raises(ValidationError):
            wavelet_holder(x, min_scale=16.0, max_scale=8.0)
        with pytest.raises(ValidationError):
            wavelet_holder(x, max_scale=200.0)

    def test_local_singularity_detected(self):
        # A smooth signal with one jump: h should dip near the jump.
        n = 2048
        t = np.linspace(0, 1, n)
        x = np.sin(2 * np.pi * t * 3)
        x[n // 2:] += 2.0  # jump singularity (h = 0)
        h = wavelet_holder(x, min_scale=2, max_scale=16)
        centre = h[n // 2 - 10: n // 2 + 10].min()
        away = np.median(h[: n // 4])
        assert centre < away - 0.3


class TestOscillationHolder:
    def test_orders_correctly(self):
        rough = weierstrass(2**12, 0.3)
        smooth = weierstrass(2**12, 0.7)
        assert np.mean(oscillation_holder(rough)) < np.mean(oscillation_holder(smooth)) - 0.15

    def test_radii_validation(self, rng):
        x = rng.standard_normal(512)
        with pytest.raises(ValidationError):
            oscillation_holder(x, radii=(4, 2, 8))
        with pytest.raises(ValidationError):
            oscillation_holder(x, radii=(1, 2))
        with pytest.raises(ValidationError):
            oscillation_holder(x, radii=(8, 16, 300))


class TestDispatch:
    def test_methods(self, rng):
        x = fbm(2**12, 0.5, rng=rng)
        assert local_holder(x, method="wavelet").size == x.size
        assert local_holder(x, method="oscillation").size == x.size

    def test_unknown_method(self, rng):
        with pytest.raises(ValidationError):
            local_holder(rng.standard_normal(256), method="psychic")


class TestHolderTrajectory:
    def test_from_series(self):
        ts = TimeSeries.from_values(
            fbm(2**12, 0.6, rng=np.random.default_rng(1)), dt=2.0, name="counter")
        traj = holder_trajectory(ts)
        assert isinstance(traj, HolderTrajectory)
        assert len(traj) == len(ts)
        assert traj.source_name == "counter"
        np.testing.assert_array_equal(traj.times, ts.times)

    def test_as_series_naming(self):
        ts = TimeSeries.from_values(
            fbm(2**10, 0.6, rng=np.random.default_rng(2)), name="AvailableBytes")
        out = holder_trajectory(ts, max_scale=16.0).as_series()
        assert out.name == "AvailableBytes.holder"

    def test_gaps_rejected(self):
        values = fbm(2**10, 0.5, rng=np.random.default_rng(3))
        values[5] = np.nan
        ts = TimeSeries.from_values(values)
        with pytest.raises(AnalysisError, match="gaps"):
            holder_trajectory(ts, max_scale=16.0)
