"""Second round of property-based tests over the newer subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.indicators import windowed_moments
from repro.core.holder import HolderTrajectory
from repro.fractal import iaaft, phase_randomized, shuffle
from repro.report import render_series
from repro.trace import TimeSeries, TraceBundle, read_csv, write_csv

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@st.composite
def small_series(draw, min_size=8, max_size=64):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(hnp.arrays(np.float64, size, elements=finite))
    return TimeSeries.from_values(values, name="s")


class TestCsvRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(ts=small_series())
    def test_write_read_identity(self, ts, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        bundle = TraceBundle()
        bundle.add(ts)
        write_csv(bundle, path)
        back = read_csv(path)
        np.testing.assert_allclose(back["s"].values, ts.values, rtol=1e-9,
                                   atol=1e-9)
        np.testing.assert_allclose(back["s"].times, ts.times, rtol=1e-9)


class TestWindowedMomentsProperty:
    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(min_value=30, max_value=120),
                      elements=st.floats(min_value=-100, max_value=100,
                                         allow_nan=False)),
           st.integers(min_value=4, max_value=16))
    def test_matches_numpy_per_window(self, h, window):
        if h.size < window:
            return
        traj = HolderTrajectory(times=np.arange(h.size, dtype=float), h=h,
                                method="wavelet", source_name="t")
        out = windowed_moments(traj, window=window, step=1)
        for idx in (0, len(out["mean"]) - 1):
            seg = h[idx: idx + window]
            assert out["mean"].values[idx] == pytest.approx(np.mean(seg),
                                                            rel=1e-9, abs=1e-9)
            assert out["variance"].values[idx] == pytest.approx(
                np.var(seg), rel=1e-7, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(hnp.arrays(np.float64, 50,
                      elements=st.floats(min_value=-10, max_value=10,
                                         allow_nan=False)))
    def test_variance_nonnegative(self, h):
        traj = HolderTrajectory(times=np.arange(50.0), h=h,
                                method="wavelet", source_name="t")
        out = windowed_moments(traj, window=10)
        assert np.all(out["variance"].values >= 0)


class TestSurrogateProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_shuffle_preserves_sum(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(128)
        s = shuffle(x, rng=rng)
        assert np.sum(s) == pytest.approx(np.sum(x))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_phase_randomized_preserves_energy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(256)
        s = phase_randomized(x, rng=rng)
        # Parseval: equal spectra -> equal energy.
        assert np.sum(s**2) == pytest.approx(np.sum(x**2), rel=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_iaaft_marginal_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.exponential(2.0, size=128)
        s = iaaft(x, rng=rng)
        np.testing.assert_allclose(np.sort(s), np.sort(x))


class TestRenderSeriesProperty:
    @settings(max_examples=20, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(min_value=2, max_value=500),
                      elements=finite))
    def test_never_crashes_and_has_stable_shape(self, values):
        out = render_series(values, width=40, height=6)
        lines = out.splitlines()
        assert len(lines) == 8
        assert all(len(line) <= 60 for line in lines)
