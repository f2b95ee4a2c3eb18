"""Estimator validation: DFA, MFDFA and the Hurst toolbox.

These are the statistical guts of the reproduction: every estimator must
recover known exponents from the synthetic generators.
"""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.fractal import (
    aggregated_variance,
    dfa,
    hurst_summary,
    mfdfa,
    periodogram_gph,
    rs_analysis,
    wavelet_variance_hurst,
)
from repro.generators import fbm, fgn, mrw, mrw_tau


class TestDfa:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.9])
    def test_recovers_fgn_hurst(self, hurst):
        x = fgn(2**14, hurst, rng=np.random.default_rng(int(hurst * 100)))
        res = dfa(x)
        assert res.alpha == pytest.approx(hurst, abs=0.08)

    def test_fbm_gives_h_plus_one(self):
        x = fbm(2**14, 0.6, rng=np.random.default_rng(0))
        res = dfa(x, integrate=False)
        # Analysing the path directly: profile of increments = path,
        # so integrate=False on the path equals integrate=True on noise...
        # The classical relation: DFA on the path (as if it were noise)
        # yields alpha = H + 1.
        res2 = dfa(x, integrate=True)
        assert res2.alpha == pytest.approx(1.6, abs=0.12)
        assert res.alpha == pytest.approx(0.6, abs=0.12)

    def test_stderr_positive(self):
        x = fgn(2**12, 0.6, rng=np.random.default_rng(2))
        assert dfa(x).stderr > 0

    def test_fit_quality_reported(self):
        x = fgn(2**13, 0.7, rng=np.random.default_rng(3))
        assert dfa(x).fit.r_squared > 0.95

    def test_custom_scales(self):
        x = fgn(2**12, 0.5, rng=np.random.default_rng(4))
        res = dfa(x, scales=[8, 16, 32, 64, 128])
        assert res.scales.tolist() == [8, 16, 32, 64, 128]

    def test_too_few_scales(self):
        x = fgn(2**10, 0.5, rng=np.random.default_rng(5))
        with pytest.raises(ValidationError):
            dfa(x, scales=[16, 32])

    def test_scale_vs_order_conflict(self):
        x = fgn(2**10, 0.5, rng=np.random.default_rng(6))
        with pytest.raises(ValidationError):
            dfa(x, order=3, scales=[4, 8, 16])

    def test_constant_series_rejected(self):
        with pytest.raises((AnalysisError, ValidationError)):
            dfa(np.zeros(1024))

    def test_dfa3_removes_quadratic_trend(self):
        # A quadratic trend in the *signal* becomes a cubic in the DFA
        # profile, so DFA-3 is needed to remove it; DFA-1 must fail.
        rng = np.random.default_rng(7)
        t = np.arange(2**13, dtype=float)
        x = fgn(2**13, 0.6, rng=rng) + 1e-5 * t**2
        res3 = dfa(x, order=3, scales=[8, 16, 32, 64, 128, 256])
        res1 = dfa(x, order=1)
        assert res3.alpha == pytest.approx(0.6, abs=0.12)
        assert res1.alpha > 0.9  # trend leaks through DFA-1


class TestMfdfa:
    def test_monofractal_flat_hq(self):
        x = fgn(2**14, 0.7, rng=np.random.default_rng(0))
        res = mfdfa(x, q=np.linspace(-3, 3, 13))
        assert res.hurst == pytest.approx(0.7, abs=0.1)
        assert abs(res.delta_h) < 0.15

    def test_mrw_multifractal_hq_decreasing(self):
        x = mrw(2**15, 0.4, rng=np.random.default_rng(1))
        res = mfdfa(np.diff(x), q=np.linspace(-3, 3, 13))
        assert res.delta_h > 0.3
        # h(q) must be non-increasing (up to noise).
        assert res.hq[0] > res.hq[-1]

    def test_mrw_tau_matches_theory_moderate_q(self):
        lam = 0.3
        x = mrw(2**15, lam, rng=np.random.default_rng(2))
        res = mfdfa(np.diff(x), q=np.linspace(-2, 3, 11))
        theory = mrw_tau(res.q, lam)
        sel = (res.q >= 0) & (res.q <= 3)
        assert np.max(np.abs(res.tau[sel] - theory[sel])) < 0.25

    def test_tau_definition_consistent(self):
        x = fgn(2**12, 0.6, rng=np.random.default_rng(3))
        res = mfdfa(x)
        np.testing.assert_allclose(res.tau, res.q * res.hq - 1.0, atol=1e-12)

    def test_q_zero_handled(self):
        x = fgn(2**12, 0.6, rng=np.random.default_rng(4))
        res = mfdfa(x, q=np.array([-2.0, 0.0, 2.0]))
        assert np.all(np.isfinite(res.hq))

    def test_too_few_q(self):
        x = fgn(2**12, 0.6, rng=np.random.default_rng(5))
        with pytest.raises(ValidationError):
            mfdfa(x, q=np.array([1.0, 2.0]))

    def test_fluctuations_shape(self):
        x = fgn(2**12, 0.6, rng=np.random.default_rng(6))
        res = mfdfa(x, q=np.linspace(-2, 2, 9))
        assert res.fluctuations.shape == (9, res.scales.size)

    def test_as_dict_keys(self):
        x = fgn(2**12, 0.6, rng=np.random.default_rng(7))
        d = mfdfa(x).as_dict()
        assert set(d) == {"q", "hq", "tau", "scales", "fluctuations"}


class TestHurstToolbox:
    @pytest.mark.parametrize("hurst", [0.6, 0.8])
    def test_rs(self, hurst):
        x = fgn(2**14, hurst, rng=np.random.default_rng(int(hurst * 10)))
        assert rs_analysis(x).h == pytest.approx(hurst, abs=0.12)

    @pytest.mark.parametrize("hurst", [0.6, 0.8])
    def test_aggregated_variance(self, hurst):
        x = fgn(2**14, hurst, rng=np.random.default_rng(int(hurst * 20)))
        assert aggregated_variance(x).h == pytest.approx(hurst, abs=0.12)

    @pytest.mark.parametrize("hurst", [0.6, 0.8])
    def test_gph(self, hurst):
        x = fgn(2**14, hurst, rng=np.random.default_rng(int(hurst * 30)))
        assert periodogram_gph(x).h == pytest.approx(hurst, abs=0.12)

    @pytest.mark.parametrize("hurst", [0.3, 0.6, 0.8])
    def test_wavelet_variance(self, hurst):
        x = fgn(2**14, hurst, rng=np.random.default_rng(int(hurst * 40)))
        assert wavelet_variance_hurst(x).h == pytest.approx(hurst, abs=0.12)

    def test_summary_runs_all(self):
        x = fgn(2**13, 0.7, rng=np.random.default_rng(9))
        out = hurst_summary(x)
        assert set(out) == {"rs", "aggvar", "gph", "wavelet", "dfa"}
        estimates = [e.h for e in out.values()]
        assert np.max(estimates) - np.min(estimates) < 0.3

    def test_short_series_rejected(self):
        with pytest.raises((AnalysisError, ValidationError)):
            rs_analysis(np.random.default_rng(0).standard_normal(32))
