"""Tests for partition functions and Legendre spectra."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.fractal import (
    legendre_spectrum,
    mfdfa,
    partition_function_tau,
    spectrum_width,
    wavelet_leader_analysis,
)
from repro.generators import (
    binomial_cascade,
    binomial_cascade_tau,
    fbm,
    fgn,
    mrw,
)


class TestPartitionFunction:
    def test_binomial_tau_exact(self, rng):
        mu = binomial_cascade(14, 0.7, rng=rng)
        q, tau, err = partition_function_tau(mu)
        theory = binomial_cascade_tau(q, 0.7)
        # Box counting on a true cascade is essentially exact.
        assert np.max(np.abs(tau - theory)) < 0.05

    def test_uniform_measure_linear_tau(self):
        mu = np.full(1024, 1.0 / 1024)
        q, tau, err = partition_function_tau(mu)
        np.testing.assert_allclose(tau, q - 1.0, atol=1e-8)

    def test_length_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            partition_function_tau(np.ones(100))

    def test_negative_mass_rejected(self):
        mu = np.ones(64)
        mu[0] = -1.0
        with pytest.raises(ValidationError):
            partition_function_tau(mu)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError):
            partition_function_tau(np.zeros(64))

    def test_stderr_returned(self, rng):
        mu = binomial_cascade(10, 0.6, rng=rng)
        _, _, err = partition_function_tau(mu)
        assert np.all(err >= 0)


class TestLegendreSpectrum:
    def test_binomial_spectrum_width(self, rng):
        mu = binomial_cascade(14, 0.7, rng=rng)
        q, tau, _ = partition_function_tau(mu)
        spec = legendre_spectrum(q, tau)
        # Theoretical support width: log2(0.7/0.3).
        theory_width = np.log2(0.7 / 0.3)
        assert spec.width == pytest.approx(theory_width, abs=0.35)
        # Peak dimension f = 1 at the typical exponent.
        assert np.max(spec.f) == pytest.approx(1.0, abs=0.1)

    def test_monofractal_spectrum_narrow(self):
        q = np.linspace(-5, 5, 21)
        tau = 0.6 * q - 1.0  # perfect monofractal
        spec = legendre_spectrum(q, tau)
        assert spec.width < 1e-9
        np.testing.assert_allclose(spec.alpha, 0.6, atol=1e-9)

    def test_alpha_peak_and_asymmetry(self, rng):
        mu = binomial_cascade(13, 0.75, rng=rng)
        q, tau, _ = partition_function_tau(mu)
        spec = legendre_spectrum(q, tau)
        assert -1.0 <= spec.asymmetry <= 1.0
        assert spec.alpha.min() <= spec.alpha_peak <= spec.alpha.max()

    def test_badly_nonconcave_tau_rejected(self):
        q = np.linspace(-3, 3, 13)
        tau = q**3  # convex-concave nonsense
        with pytest.raises(AnalysisError, match="non-concave"):
            legendre_spectrum(q, tau)

    def test_q_must_increase(self):
        with pytest.raises(ValidationError):
            legendre_spectrum([3, 2, 1, 0, -1], [0, 0, 0, 0, 0])

    def test_spectrum_width_helper(self):
        q = np.linspace(-4, 4, 17)
        tau = 0.5 * q - 1.0
        assert spectrum_width(q, tau) < 1e-9

    def test_monofractal_vs_multifractal_width(self):
        bm = fbm(2**14, 0.5, rng=np.random.default_rng(12))
        mf = mrw(2**14, 0.45, rng=np.random.default_rng(12))
        w_bm = spectrum_width(*_mfdfa_tau(bm))
        w_mf = spectrum_width(*_mfdfa_tau(mf))
        assert w_mf > w_bm + 0.1


def _mfdfa_tau(path):
    res = mfdfa(np.diff(path), q=np.linspace(-2, 3, 11))
    return res.q, res.tau


class TestCrossMethodConsistency:
    def test_mfdfa_and_leaders_agree_on_hurst(self):
        x = fbm(2**14, 0.7, rng=np.random.default_rng(14))
        res_l = wavelet_leader_analysis(x)
        res_m = mfdfa(np.diff(x), q=np.linspace(0.5, 3, 6))
        assert res_l.c1 == pytest.approx(res_m.hurst, abs=0.12)

    def test_fgn_spectrum_narrower_than_cascade(self, rng):
        noise = fgn(2**14, 0.7, rng=rng)
        res = mfdfa(noise, q=np.linspace(-3, 3, 13))
        spec_noise = legendre_spectrum(res.q, res.tau)
        mu = binomial_cascade(14, 0.7, rng=rng)
        q, tau, _ = partition_function_tau(mu)
        spec_cascade = legendre_spectrum(q, tau)
        assert spec_cascade.width > spec_noise.width
