"""Unit tests for the from-scratch wavelet machinery."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fractal.wavelets import (
    cwt,
    daubechies_filter,
    dwt,
    dwt_max_level,
    idwt,
    modwt,
)


class TestDaubechiesFilters:
    @pytest.mark.parametrize("n_moments", range(1, 11))
    def test_orthonormality(self, n_moments):
        h = daubechies_filter(n_moments)
        assert h.size == 2 * n_moments
        assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert np.sum(h**2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_moments", range(2, 11))
    def test_even_shift_orthogonality(self, n_moments):
        h = daubechies_filter(n_moments)
        for k in range(1, n_moments):
            inner = np.dot(h[2 * k:], h[: h.size - 2 * k])
            assert abs(inner) < 1e-7

    def test_haar(self):
        np.testing.assert_allclose(daubechies_filter(1), [1, 1] / np.sqrt(2))

    def test_db2_textbook_values(self):
        expected = np.array([
            (1 + np.sqrt(3)) / (4 * np.sqrt(2)),
            (3 + np.sqrt(3)) / (4 * np.sqrt(2)),
            (3 - np.sqrt(3)) / (4 * np.sqrt(2)),
            (1 - np.sqrt(3)) / (4 * np.sqrt(2)),
        ])
        np.testing.assert_allclose(daubechies_filter(2), expected, atol=1e-10)

    @pytest.mark.parametrize("n_moments", [2, 4, 6])
    def test_vanishing_moments(self, n_moments):
        # The QMF high-pass must annihilate polynomials of degree < N.
        from repro.fractal.wavelets import _qmf

        g = _qmf(daubechies_filter(n_moments))
        t = np.arange(g.size, dtype=float)
        for degree in range(n_moments):
            assert abs(np.dot(g, t**degree)) < 1e-6

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            daubechies_filter(11)
        with pytest.raises(ValidationError):
            daubechies_filter(0)


class TestDwt:
    @pytest.mark.parametrize("wavelet", [1, 2, 4, 8])
    def test_perfect_reconstruction(self, wavelet, rng):
        x = rng.standard_normal(256)
        coeffs = dwt(x, wavelet=wavelet, level=3)
        np.testing.assert_allclose(idwt(coeffs, wavelet=wavelet), x, atol=1e-10)

    def test_energy_conservation(self, rng):
        x = rng.standard_normal(512)
        coeffs = dwt(x, wavelet=3, level=4)
        total = sum(np.sum(c**2) for c in coeffs)
        assert total == pytest.approx(np.sum(x**2), rel=1e-10)

    def test_coefficient_layout(self, rng):
        x = rng.standard_normal(64)
        coeffs = dwt(x, wavelet=2, level=3)
        assert [c.size for c in coeffs] == [8, 8, 16, 32]

    def test_constant_signal_all_energy_in_approx(self):
        x = np.ones(64) * 5.0
        coeffs = dwt(x, wavelet=2, level=2)
        for detail in coeffs[1:]:
            np.testing.assert_allclose(detail, 0.0, atol=1e-10)

    def test_max_level_computation(self):
        assert dwt_max_level(256, 4) >= 5
        assert dwt_max_level(8, 4) == 1

    def test_level_too_deep(self, rng):
        with pytest.raises(ValidationError, match="too deep"):
            dwt(rng.standard_normal(32), wavelet=2, level=10)

    def test_default_level_is_max(self, rng):
        x = rng.standard_normal(128)
        coeffs = dwt(x, wavelet=1)
        assert len(coeffs) == dwt_max_level(128, 2) + 1

    def test_idwt_requires_two_components(self):
        with pytest.raises(ValidationError):
            idwt([np.zeros(4)], wavelet=2)


class TestModwt:
    def test_all_levels_full_length(self, rng):
        x = rng.standard_normal(300)  # no power-of-two requirement
        w = modwt(x, wavelet=2, level=4)
        assert list(w) == [1, 2, 3, 4]
        assert all(v.size == 300 for v in w.values())

    def test_shift_invariance(self, rng):
        # The MODWT of a circularly shifted signal is the shifted MODWT.
        x = rng.standard_normal(128)
        shift = 17
        w0 = modwt(x, wavelet=2, level=3)
        w1 = modwt(np.roll(x, shift), wavelet=2, level=3)
        for j in w0:
            np.testing.assert_allclose(np.roll(w0[j], shift), w1[j], atol=1e-10)

    def test_detail_mean_near_zero(self, rng):
        x = rng.standard_normal(512) + 100.0
        w = modwt(x, wavelet=3, level=3)
        for j, coeffs in w.items():
            assert abs(np.mean(coeffs)) < 0.5

    def test_level_too_deep(self, rng):
        with pytest.raises(ValidationError):
            modwt(rng.standard_normal(32), wavelet=4, level=6)


class TestCwt:
    def test_shape_and_dtype(self, rng):
        x = rng.standard_normal(200)
        out = cwt(x, [2.0, 4.0, 8.0])
        assert out.shape == (3, 200)
        assert out.dtype == float

    def test_morlet_complex(self, rng):
        out = cwt(rng.standard_normal(128), [4.0], wavelet="morlet")
        assert np.iscomplexobj(out)

    def test_zero_mean_signal_response(self):
        # A pure sinusoid responds maximally at the matching scale.
        t = np.arange(1024)
        x = np.sin(2 * np.pi * t / 64.0)
        scales = np.array([4.0, 64.0 / (2 * np.pi) * np.sqrt(2), 256.0])
        power = np.mean(np.abs(cwt(x, scales)) ** 2, axis=1)
        assert np.argmax(power) == 1

    def test_constant_signal_zero_response(self):
        out = cwt(np.full(128, 7.0), [4.0, 8.0])
        np.testing.assert_allclose(out, 0.0, atol=1e-8)

    def test_invalid_scales(self, rng):
        with pytest.raises(ValidationError):
            cwt(rng.standard_normal(64), [-1.0])

    def test_invalid_wavelet(self, rng):
        with pytest.raises(ValidationError):
            cwt(rng.standard_normal(64), [2.0], wavelet="sinc")

    def test_linear_trend_annihilated_by_dog2(self):
        # DOG-2 has two vanishing moments: a line produces ~zero response
        # away from the (reflected) boundaries.
        x = np.linspace(0, 100, 512)
        out = cwt(x, [4.0])
        interior = out[0][64:-64]
        assert np.max(np.abs(interior)) < 1e-6 * np.max(np.abs(x))


class TestDaubechiesCacheImmutability:
    def test_cached_filter_is_read_only(self):
        h = daubechies_filter(4)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 0.0

    def test_caller_mutation_cannot_corrupt_cache(self):
        first = daubechies_filter(3).copy()
        h = daubechies_filter(3)
        with pytest.raises(ValueError):
            h *= 0.0
        np.testing.assert_array_equal(daubechies_filter(3), first)

    def test_haar_also_frozen(self):
        assert not daubechies_filter(1).flags.writeable


def _legacy_cwt(x, scales, *, wavelet="mexican_hat", dog_order=2):
    """The pre-plan-cache reference: per-scale kernels, per-scale ifft."""
    from repro.fractal.wavelets import _dog_wavelet_hat, _morlet_wavelet_hat

    x = np.asarray(x, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n = x.size
    padded = np.concatenate([x, x[::-1]])
    spectrum = np.fft.fft(padded)
    omega = 2.0 * np.pi * np.fft.fftfreq(padded.size)
    is_complex = wavelet == "morlet"
    out = np.empty((scales.size, n), dtype=complex if is_complex else float)
    for i, a in enumerate(scales):
        if wavelet == "morlet":
            hat = _morlet_wavelet_hat(omega, a)
        else:
            order = 2 if wavelet == "mexican_hat" else dog_order
            hat = _dog_wavelet_hat(omega, a, order)
        conv = np.fft.ifft(spectrum * np.conj(hat))[:n]
        out[i] = conv if is_complex else conv.real
    return out


class TestWaveletPlanCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.fractal.wavelets import clear_wavelet_plan_cache

        clear_wavelet_plan_cache()
        yield
        clear_wavelet_plan_cache()

    @pytest.mark.parametrize("wavelet,order", [
        ("mexican_hat", 2), ("dog", 4), ("morlet", 2),
    ])
    def test_bit_identical_to_per_scale_loop(self, rng, wavelet, order):
        x = np.cumsum(rng.standard_normal(777))
        scales = np.geomspace(2.0, 64.0, 9)
        batched = cwt(x, scales, wavelet=wavelet, dog_order=order)
        legacy = _legacy_cwt(x, scales, wavelet=wavelet, dog_order=order)
        np.testing.assert_array_equal(batched, legacy)

    def test_repeat_calls_hit_the_cache(self, rng):
        from repro.fractal.wavelets import wavelet_plan_cache_info

        x = rng.standard_normal(256)
        scales = [2.0, 4.0, 8.0]
        cwt(x, scales)
        cwt(x, scales)
        cwt(x, scales)
        info = wavelet_plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2
        assert info["entries"] == 1
        assert info["bytes"] == 3 * 512 * 16

    def test_distinct_configs_get_distinct_plans(self, rng):
        from repro.fractal.wavelets import wavelet_plan_cache_info

        x = rng.standard_normal(256)
        cwt(x, [2.0, 4.0])
        cwt(x, [2.0, 4.0], wavelet="morlet")
        cwt(x, [3.0, 6.0])
        cwt(rng.standard_normal(128), [2.0, 4.0])
        assert wavelet_plan_cache_info()["misses"] == 4

    def test_lru_eviction_bounds_the_cache(self, rng):
        from repro.fractal.wavelets import (
            _PLAN_CACHE_MAX,
            wavelet_plan_cache_info,
        )

        x = rng.standard_normal(128)
        for k in range(_PLAN_CACHE_MAX + 3):
            cwt(x, [2.0 + 0.5 * k, 8.0 + k])
        info = wavelet_plan_cache_info()
        assert info["entries"] == _PLAN_CACHE_MAX
        assert info["misses"] == _PLAN_CACHE_MAX + 3

    def test_evicted_plan_rebuilt_identically(self, rng):
        from repro.fractal.wavelets import _PLAN_CACHE_MAX

        x = rng.standard_normal(128)
        first = cwt(x, [2.0, 4.0])
        for k in range(_PLAN_CACHE_MAX + 1):
            cwt(x, [3.0 + k, 9.0 + k])
        np.testing.assert_array_equal(cwt(x, [2.0, 4.0]), first)

    def test_plan_kernels_frozen(self, rng):
        from repro.fractal.wavelets import _PLAN_CACHE

        cwt(rng.standard_normal(128), [2.0, 4.0])
        plan = next(iter(_PLAN_CACHE.values()))
        assert not plan.kernels.flags.writeable


class TestRealEvenRoute:
    """The even-order DOG transform as one real-even DCT pair agrees with
    the complex-FFT :func:`cwt` on the same segment."""

    @pytest.mark.parametrize("n", [64, 65, 863, 864])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("min_scale", [2.0, 1.0])
    def test_matches_cwt(self, n, order, min_scale):
        from repro.fractal.wavelets import _cwt_even_dog

        x = np.cumsum(np.random.default_rng(n).standard_normal(n))
        scales = np.geomspace(min_scale, 32.0, 12)
        expected = cwt(x, scales, wavelet="dog", dog_order=order)
        got = _cwt_even_dog(x, scales, order)
        assert got.shape == expected.shape and got.dtype == float
        # Relative to each scale's largest coefficient (single
        # coefficients cross zero).
        peak = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-12 * peak)

    def test_counts_a_quarter_of_the_complex_flops(self):
        from repro.fractal.wavelets import _cwt_even_dog
        from repro.obs import session as _obs

        x = np.cumsum(np.random.default_rng(2).standard_normal(864))
        scales = np.geomspace(2.0, 32.0, 12)
        flops = []
        for transform in (lambda: cwt(x, scales, wavelet="dog"),
                          lambda: _cwt_even_dog(x, scales, 2)):
            with _obs.telemetry_session() as session:
                transform()
                flops.append(
                    session.metrics.counter("fractal.cwt_flops").value)
        assert flops[1] == pytest.approx(flops[0] / 4)

    def test_shares_the_plan_cache(self):
        from repro.fractal.wavelets import (
            _cwt_even_dog,
            clear_wavelet_plan_cache,
            wavelet_plan_cache_info,
        )

        clear_wavelet_plan_cache()
        x = np.random.default_rng(3).standard_normal(128)
        cwt(x, [2.0, 4.0], wavelet="dog")
        _cwt_even_dog(x, np.array([2.0, 4.0]), 2)
        info = wavelet_plan_cache_info()
        assert (info["entries"], info["misses"], info["hits"]) == (1, 1, 1)
        clear_wavelet_plan_cache()
