"""Tests for wavelet leaders."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.fractal import wavelet_leader_analysis, wavelet_leaders
from repro.generators import fbm, mrw, weierstrass


class TestWaveletLeaders:
    def test_leader_structure(self, rng):
        x = rng.standard_normal(1024)
        leaders = wavelet_leaders(x, wavelet=2, level=5)
        assert sorted(leaders) == [1, 2, 3, 4, 5]
        # Reflect-extension doubles the effective length.
        assert leaders[1].size == 1024
        assert leaders[5].size == 64
        for lead in leaders.values():
            assert np.all(lead >= 0)

    def test_leaders_dominate_own_coefficients(self, rng):
        # A leader is a supremum including the level's own coefficient.
        from repro.fractal.wavelets import dwt

        x = rng.standard_normal(512)
        leaders = wavelet_leaders(x, wavelet=1, level=3)
        coeffs = dwt(np.concatenate([x, x[::-1]]), wavelet=1, level=3)
        own_finest = np.abs(coeffs[-1]) * 2.0 ** (-1 / 2.0)
        assert np.all(leaders[1] >= own_finest - 1e-12)

    @pytest.mark.parametrize("hurst", [0.4, 0.6, 0.8])
    def test_fbm_c1_matches_h(self, hurst):
        x = fbm(2**14, hurst, rng=np.random.default_rng(int(10 * hurst)))
        res = wavelet_leader_analysis(x, q=np.linspace(-2, 3, 11))
        assert res.c1 == pytest.approx(hurst, abs=0.1)

    def test_fbm_c2_near_zero(self):
        x = fbm(2**15, 0.6, rng=np.random.default_rng(3))
        res = wavelet_leader_analysis(x)
        assert abs(res.c2) < 0.05

    def test_mrw_c2_negative(self):
        x = mrw(2**15, 0.4, rng=np.random.default_rng(4))
        res = wavelet_leader_analysis(x)
        assert res.c2 < -0.05
        # Order of magnitude of -lam^2 = -0.16.
        assert res.c2 == pytest.approx(-0.16, abs=0.08)

    def test_weierstrass_uniform(self):
        w = weierstrass(2**13, 0.5)
        res = wavelet_leader_analysis(w, q=np.linspace(0, 3, 7))
        assert res.c1 == pytest.approx(0.5, abs=0.07)
        assert abs(res.c2) < 0.03

    def test_zeta_linear_for_monofractal(self):
        x = fbm(2**14, 0.5, rng=np.random.default_rng(5))
        res = wavelet_leader_analysis(x, q=np.linspace(0.5, 3, 6))
        np.testing.assert_allclose(res.zeta, 0.5 * res.q, atol=0.15)

    def test_too_short_rejected(self, rng):
        with pytest.raises((AnalysisError, ValidationError)):
            wavelet_leader_analysis(rng.standard_normal(64))

    def test_levels_reported(self):
        x = fbm(2**12, 0.5, rng=np.random.default_rng(6))
        res = wavelet_leader_analysis(x)
        assert np.all(np.diff(res.levels) == 1)
