"""Unit tests for trace preprocessing transforms."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.trace import (
    TimeSeries,
    detrend,
    difference,
    fill_gaps,
    resample_uniform,
    segment,
)


def make(values, dt=1.0):
    return TimeSeries.from_values(values, dt=dt, name="x")


class TestDetrend:
    def test_linear_removes_line(self):
        t = np.arange(100, dtype=float)
        ts = make(3.0 * t + 7.0)
        out = detrend(ts, "linear")
        np.testing.assert_allclose(out.values, 0.0, atol=1e-8)

    def test_mean_removes_mean(self):
        ts = make([1.0, 2.0, 3.0, 4.0])
        out = detrend(ts, "mean")
        assert abs(np.mean(out.values)) < 1e-12

    def test_poly2_removes_parabola(self):
        t = np.arange(200, dtype=float)
        ts = make(0.01 * t**2 - t + 5)
        out = detrend(ts, "poly2")
        np.testing.assert_allclose(out.values, 0.0, atol=1e-6)

    def test_linear_leaves_noise(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(500)
        out = detrend(make(noise), "linear")
        assert np.std(out.values) > 0.8

    def test_preserves_gaps(self):
        vals = np.arange(20, dtype=float)
        vals[5] = np.nan
        ts = TimeSeries.from_values(vals)
        out = detrend(ts)
        assert np.isnan(out.values[5])

    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            detrend(make([1, 2, 3]), "cubic")


class TestDifference:
    def test_first_difference(self):
        out = difference(make([1.0, 3.0, 6.0]))
        np.testing.assert_allclose(out.values, [2.0, 3.0])
        np.testing.assert_allclose(out.times, [1.0, 2.0])

    def test_second_difference(self):
        out = difference(make([1.0, 3.0, 6.0, 10.0]), order=2)
        np.testing.assert_allclose(out.values, [1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(AnalysisError):
            difference(make([1.0]), order=1)


class TestFillGaps:
    def test_interpolate(self):
        ts = TimeSeries(times=[0, 1, 2], values=[0.0, np.nan, 2.0])
        out = fill_gaps(ts, "interpolate")
        np.testing.assert_allclose(out.values, [0.0, 1.0, 2.0])

    def test_ffill(self):
        ts = TimeSeries(times=[0, 1, 2], values=[5.0, np.nan, 2.0])
        out = fill_gaps(ts, "ffill")
        np.testing.assert_allclose(out.values, [5.0, 5.0, 2.0])

    def test_leading_gap(self):
        ts = TimeSeries(times=[0, 1, 2], values=[np.nan, 1.0, 2.0])
        for method in ("interpolate", "ffill"):
            out = fill_gaps(ts, method)
            assert out.values[0] == 1.0

    def test_no_gaps_is_identity(self):
        ts = make([1.0, 2.0])
        assert fill_gaps(ts) is ts

    def test_all_gaps_rejected(self):
        ts = TimeSeries(times=[0, 1], values=[np.nan, np.nan])
        with pytest.raises(AnalysisError):
            fill_gaps(ts)


class TestResample:
    def test_already_uniform_is_noop_values(self):
        ts = make([1.0, 2.0, 3.0])
        out = resample_uniform(ts)
        np.testing.assert_allclose(out.values, ts.values)

    def test_irregular_grid_becomes_uniform(self):
        ts = TimeSeries(times=[0.0, 1.0, 3.0, 4.0], values=[0.0, 1.0, 3.0, 4.0])
        out = resample_uniform(ts, dt=1.0)
        assert out.is_uniform
        np.testing.assert_allclose(out.values, [0, 1, 2, 3, 4])

    def test_drops_gaps_before_interpolating(self):
        ts = TimeSeries(times=[0, 1, 2], values=[0.0, np.nan, 2.0])
        out = resample_uniform(ts, dt=1.0)
        np.testing.assert_allclose(out.values, [0.0, 1.0, 2.0])


class TestSegment:
    def test_equal_pieces(self):
        pieces = segment(make(np.arange(10.0)), 2)
        assert [len(p) for p in pieces] == [5, 5]
        np.testing.assert_allclose(pieces[1].values, np.arange(5.0) + 5)

    def test_uneven_pieces_cover_everything(self):
        pieces = segment(make(np.arange(10.0)), 3)
        assert sum(len(p) for p in pieces) == 10

    def test_too_many_segments(self):
        with pytest.raises(ValidationError):
            segment(make([1.0, 2.0]), 3)
