"""Unit and statistical tests for the synthetic-signal generators."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.generators import (
    binomial_cascade,
    binomial_cascade_tau,
    fbm,
    fgn,
    mrw,
    mrw_tau,
    weierstrass,
)
from repro.generators.fgn import _fgn_autocovariance


class TestFgnExactness:
    def test_unit_variance(self, rng):
        x = fgn(2**13, 0.7, rng=rng)
        assert np.var(x) == pytest.approx(1.0, abs=0.1)

    def test_sigma_scales(self, rng):
        x = fgn(2**12, 0.6, rng=rng, sigma=3.0)
        assert np.std(x) == pytest.approx(3.0, rel=0.1)

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_lag1_autocovariance_matches_theory(self, hurst):
        rng = np.random.default_rng(11)
        x = fgn(2**15, hurst, rng=rng)
        emp = np.mean(x[:-1] * x[1:])
        theory = _fgn_autocovariance(2, hurst)[1]
        assert emp == pytest.approx(theory, abs=0.05)

    def test_h_half_is_white(self):
        rng = np.random.default_rng(12)
        x = fgn(2**14, 0.5, rng=rng)
        lag1 = np.mean(x[:-1] * x[1:])
        assert abs(lag1) < 0.03

    def test_methods_agree_given_same_seed_statistics(self):
        # Cholesky and Hosking are both exact; their outputs for the same
        # rng stream differ sample-wise but must share distribution.
        x1 = fgn(512, 0.8, rng=np.random.default_rng(1), method="cholesky")
        x2 = fgn(512, 0.8, rng=np.random.default_rng(2), method="hosking")
        assert np.var(x1) == pytest.approx(np.var(x2), rel=0.5)

    def test_cholesky_size_guard(self, rng):
        with pytest.raises(AnalysisError):
            fgn(8192, 0.7, rng=rng, method="cholesky")

    def test_invalid_hurst(self, rng):
        with pytest.raises(ValidationError):
            fgn(100, 1.0, rng=rng)
        with pytest.raises(ValidationError):
            fgn(100, 0.0, rng=rng)

    def test_invalid_method(self, rng):
        with pytest.raises(ValidationError):
            fgn(100, 0.5, rng=rng, method="magic")


class TestFbm:
    def test_starts_at_zero(self, rng):
        assert fbm(256, 0.6, rng=rng)[0] == 0.0

    def test_selfsimilar_variance_growth(self):
        # Var[B_H(t)] ~ t^{2H}: check the ratio at two horizons.
        H = 0.7
        n = 2**10
        samples = np.array([fbm(n, H, rng=np.random.default_rng(s))[-1]
                            for s in range(400)])
        half = np.array([fbm(n // 4, H, rng=np.random.default_rng(s))[-1]
                         for s in range(400)])
        ratio = np.var(samples) / np.var(half)
        assert ratio == pytest.approx(4.0 ** (2 * H), rel=0.35)


class TestBinomialCascade:
    def test_mass_conserved(self, rng):
        mu = binomial_cascade(10, 0.7, rng=rng)
        assert mu.sum() == pytest.approx(1.0)
        assert mu.size == 1024
        assert np.all(mu > 0)

    def test_deterministic_variant_reproducible(self):
        a = binomial_cascade(8, 0.6, randomize=False)
        b = binomial_cascade(8, 0.6, randomize=False)
        np.testing.assert_array_equal(a, b)

    def test_uniform_p_gives_uniform_measure(self):
        mu = binomial_cascade(6, 0.5, randomize=False)
        np.testing.assert_allclose(mu, 1.0 / 64)

    def test_tau_closed_form(self):
        q = np.array([0.0, 1.0, 2.0])
        tau = binomial_cascade_tau(q, 0.7)
        assert tau[0] == pytest.approx(-1.0)   # tau(0) = -1
        assert tau[1] == pytest.approx(0.0)    # conservation
        assert tau[2] == pytest.approx(-np.log2(0.49 + 0.09))

    def test_tau_uniform_is_linear(self):
        q = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(binomial_cascade_tau(q, 0.5), q - 1.0)

    def test_depth_guard(self, rng):
        with pytest.raises(ValidationError):
            binomial_cascade(30, 0.7, rng=rng)

    def test_invalid_p(self, rng):
        with pytest.raises(ValidationError):
            binomial_cascade(5, 1.0, rng=rng)


class TestMrw:
    def test_path_starts_at_zero(self, rng):
        assert mrw(1024, 0.3, rng=rng)[0] == 0.0

    def test_lam_zero_is_brownian(self):
        x = mrw(2**13, 0.0, rng=np.random.default_rng(7))
        inc = np.diff(x)
        assert np.var(inc) == pytest.approx(1.0, rel=0.1)

    def test_intermittency_fattens_increments(self):
        bm = np.diff(mrw(2**14, 0.0, rng=np.random.default_rng(8)))
        mf = np.diff(mrw(2**14, 0.5, rng=np.random.default_rng(8)))
        kurt_bm = np.mean(bm**4) / np.var(bm) ** 2
        kurt_mf = np.mean(mf**4) / np.var(mf) ** 2
        assert kurt_mf > kurt_bm + 1.0

    def test_tau_closed_form(self):
        q = np.array([0.0, 2.0])
        tau = mrw_tau(q, 0.3)
        assert tau[0] == pytest.approx(-1.0)
        assert tau[1] == pytest.approx(2 * 0.09 * (1 - 1) + 0.0, abs=1e-9) or True
        # zeta(2) = 1 for any lam: tau(2) = 0.
        assert tau[1] == pytest.approx(0.0)

    def test_correlation_length_validation(self, rng):
        with pytest.raises(ValidationError):
            mrw(100, 0.3, rng=rng, correlation_length=1000)


class TestDeterministicSignals:
    def test_weierstrass_bounded(self):
        w = weierstrass(1024, 0.5)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w)) < 10.0

    def test_weierstrass_rougher_for_smaller_h(self):
        w_rough = weierstrass(4096, 0.2)
        w_smooth = weierstrass(4096, 0.8)
        tv_rough = np.sum(np.abs(np.diff(w_rough)))
        tv_smooth = np.sum(np.abs(np.diff(w_smooth)))
        assert tv_rough > 2 * tv_smooth

    def test_weierstrass_invalid_gamma(self):
        with pytest.raises(ValidationError):
            weierstrass(100, 0.5, gamma=0.9)
