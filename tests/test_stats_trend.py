"""Unit tests for Mann-Kendall and Sen slope."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from repro.exceptions import AnalysisError
from repro.stats import MannKendallResult, mann_kendall, sen_slope
from repro.stats.trend import _MAX_EXACT_N


def _oracle(x, alpha=0.05):
    """Mann-Kendall with S from the full O(n^2) sign matrix, on ``x`` as
    given (no subsampling): the reference the fast count must equal."""
    x = np.asarray(x, dtype=float)
    n = x.size
    s = float(np.sum(np.triu(np.sign(x[None, :] - x[:, None]), k=1)))
    __, counts = np.unique(x, return_counts=True)
    tie_term = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var_s <= 0:
        raise AnalysisError("Mann-Kendall variance is zero (constant series?)")
    if s > 0:
        z = (s - 1) / np.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / np.sqrt(var_s)
    else:
        z = 0.0
    p_value = float(2.0 * (1.0 - ndtr(abs(z))))
    trend = (("increasing" if z > 0 else "decreasing")
             if p_value < alpha else "none")
    return MannKendallResult(s=s, z=float(z), p_value=p_value, trend=trend)


def _assert_matches_oracle(x, expected_input=None, alpha=0.05):
    """``mann_kendall(x)`` equals the oracle on ``expected_input`` (``x``
    itself by default), field for field and exactly; a constant input
    raises on both paths."""
    reference = x if expected_input is None else expected_input
    try:
        expected = _oracle(reference, alpha)
    except AnalysisError:
        with pytest.raises(AnalysisError):
            mann_kendall(x, alpha=alpha)
        return
    got = mann_kendall(x, alpha=alpha)
    assert got.s == expected.s
    assert got.z == expected.z
    assert got.p_value == expected.p_value
    assert got.trend == expected.trend


def _drawn_series(n, alphabet, seed, drift):
    """A length-``n`` series on ``alphabet`` distinct integer levels
    (0 = continuous) plus a four-step staircase drift, which keeps the
    ties of a small alphabet."""
    rng = np.random.default_rng(seed)
    noise = (rng.standard_normal(n) if alphabet == 0
             else rng.integers(0, alphabet, size=n).astype(float))
    return noise + drift * np.floor(4 * np.arange(n) / n)


class TestMannKendallOracle:
    """The sub-quadratic S against the kept O(n^2) sign-matrix oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=80),
           st.sampled_from([0.05, 0.2, 0.9]))
    def test_small_integer_series(self, values, alpha):
        _assert_matches_oracle(np.asarray(values, dtype=float), alpha=alpha)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, _MAX_EXACT_N), st.sampled_from([0, 2, 3, 7, 50]),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, -3.0]))
    def test_drawn_series_up_to_exact_limit(self, n, alphabet, seed, drift):
        # Heavy ties (2-7 levels), light ties (50) and none (0); with and
        # without a trend; n anywhere from 4 to the subsample limit.
        _assert_matches_oracle(_drawn_series(n, alphabet, seed, drift))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, _MAX_EXACT_N), st.floats(-1e9, 1e9))
    def test_constant_series_rejected_on_both_paths(self, n, level):
        _assert_matches_oracle(np.full(n, level))

    @pytest.mark.parametrize("n", [_MAX_EXACT_N, _MAX_EXACT_N + 1, 10_000])
    @pytest.mark.parametrize("alphabet", [0, 4])
    def test_at_and_above_exact_limit(self, n, alphabet):
        # Above the limit both paths test the same linspace subsample.
        x = _drawn_series(n, alphabet, seed=n, drift=-1.0)
        idx = np.linspace(0, n - 1, _MAX_EXACT_N).astype(int)
        _assert_matches_oracle(x, expected_input=x[idx])

    def test_no_quadratic_buffer(self):
        x = _drawn_series(_MAX_EXACT_N, 0, seed=1, drift=1.0)
        mann_kendall(x)  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            mann_kendall(x)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The sign matrix alone would be 3000 * 3000 * 8 B = 72 MB.
        assert peak < 2_000_000


class TestMannKendall:
    def test_strong_increase_detected(self):
        rng = np.random.default_rng(0)
        x = np.arange(200.0) + rng.standard_normal(200)
        res = mann_kendall(x)
        assert res.trend == "increasing"
        assert res.p_value < 1e-6
        assert res.s > 0

    def test_strong_decrease_detected(self):
        rng = np.random.default_rng(1)
        x = -0.5 * np.arange(200.0) + rng.standard_normal(200)
        res = mann_kendall(x)
        assert res.trend == "decreasing"
        assert res.z < 0

    def test_white_noise_no_trend(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(300)
        res = mann_kendall(x)
        assert res.trend == "none"
        assert res.p_value > 0.05

    def test_ties_handled(self):
        x = np.repeat(np.arange(20.0), 5)  # many ties, still increasing
        res = mann_kendall(x)
        assert res.trend == "increasing"

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            mann_kendall(np.ones(50))

    def test_long_series_subsampled(self):
        x = np.arange(10_000.0)
        res = mann_kendall(x)  # must not take O(n^2) on the full series
        assert res.trend == "increasing"

    def test_alpha_controls_decision(self):
        rng = np.random.default_rng(3)
        x = 0.002 * np.arange(100.0) + rng.standard_normal(100)
        strict = mann_kendall(x, alpha=1e-9)
        assert strict.trend == "none"


class TestSenSlope:
    def test_exact_line(self):
        t = np.arange(50.0)
        assert sen_slope(t, 3.0 * t + 2) == pytest.approx(3.0)

    def test_robust_to_outliers(self):
        t = np.arange(100.0)
        y = 2.0 * t.copy()
        y[::10] += 500.0  # gross outliers
        assert sen_slope(t, y) == pytest.approx(2.0, abs=0.3)

    def test_noisy_slope(self):
        rng = np.random.default_rng(4)
        t = np.arange(500.0)
        y = -0.75 * t + 20 * rng.standard_normal(500)
        assert sen_slope(t, y) == pytest.approx(-0.75, abs=0.05)

    def test_long_series_subsampling_path(self):
        rng = np.random.default_rng(5)
        t = np.arange(3000.0)
        y = 1.5 * t + rng.standard_normal(3000)
        assert sen_slope(t, y, max_pairs=10_000) == pytest.approx(1.5, abs=0.05)

    def test_identical_times_rejected(self):
        with pytest.raises(AnalysisError):
            sen_slope([1.0, 1.0], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(AnalysisError):
            sen_slope([1.0, 2.0, 3.0], [0.0, 1.0])


def _uncached_sen_slope(t, x, max_pairs=250_000):
    """Sen's slope with the seeded pair draw made afresh on every call."""
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    n = t.size
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(12345)
        i = rng.integers(0, n - 1, size=max_pairs)
        j = rng.integers(1, n, size=max_pairs)
        keep = i < j
        i, j = i[keep], j[keep]
    dt = t[j] - t[i]
    valid = dt != 0
    return float(np.median((x[j][valid] - x[i][valid]) / dt[valid]))


class TestSenSlopePairCache:
    """The pair draw is memoised per (n, max_pairs); slopes must not move."""

    def test_repeated_and_interleaved_lengths_match_uncached(self):
        rng = np.random.default_rng(9)
        lengths = [800, 3600, 800, 1200, 3600, 801, 3600, 800, 1200, 2000, 800]
        for call, n in enumerate(lengths):
            t = np.arange(n, dtype=float) + 10.0 * call
            y = -0.3 * t + rng.standard_normal(n).cumsum()
            for max_pairs in (10_000, 250_000):
                assert sen_slope(t, y, max_pairs=max_pairs) == \
                    _uncached_sen_slope(t, y, max_pairs=max_pairs)

    def test_cached_draw_is_read_only(self):
        from repro.stats.trend import _drawn_pairs

        i, j = _drawn_pairs(3000, 10_000)
        assert not i.flags.writeable and not j.flags.writeable
        assert (i < j).all()
        with pytest.raises(ValueError):
            i[0] = 0
