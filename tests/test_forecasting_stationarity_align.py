"""Tests for remaining-life forecasting."""

import numpy as np
import pytest

from repro.core import analyze_counter, fit_life_model, predict_remaining_life
from repro.core.forecasting import LifeModel, _pava_nonincreasing
from repro.exceptions import ValidationError


class TestPava:
    def test_already_monotone_unchanged(self):
        y = np.array([5.0, 4.0, 3.0, 1.0])
        np.testing.assert_allclose(_pava_nonincreasing(y), y)

    def test_violations_pooled(self):
        y = np.array([1.0, 3.0, 2.0])
        out = _pava_nonincreasing(y)
        assert np.all(np.diff(out) <= 1e-12)
        # Pooling preserves the overall mean.
        assert np.mean(out) == pytest.approx(np.mean(y))

    def test_result_nonincreasing_random(self, rng):
        y = rng.standard_normal(50)
        out = _pava_nonincreasing(y)
        assert np.all(np.diff(out) <= 1e-12)


class TestLifeModel:
    def test_predict_fraction_interpolates(self):
        model = LifeModel(
            z_grid=np.array([0.0, 5.0, 10.0]),
            remaining_fraction=np.array([0.9, 0.5, 0.1]),
            n_training_pairs=100,
        )
        assert model.predict_fraction(2.5) == pytest.approx(0.7)
        assert model.predict_fraction(20.0) == pytest.approx(0.1)  # clipped

    def test_remaining_seconds_formula(self):
        model = LifeModel(
            z_grid=np.array([0.0, 10.0]),
            remaining_fraction=np.array([0.5, 0.5]),
            n_training_pairs=10,
        )
        # f = 0.5 -> remaining = elapsed.
        assert model.predict_remaining_seconds(1.0, 1000.0) == pytest.approx(1000.0)

    def test_elapsed_must_be_positive(self):
        model = LifeModel(np.array([0.0, 1.0]), np.array([0.5, 0.4]), 10)
        with pytest.raises(ValidationError):
            model.predict_remaining_seconds(1.0, 0.0)


class TestLifeModelOnFleet:
    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.memsim import Machine, MachineConfig

        return [Machine(MachineConfig.nt4(seed=s, max_run_seconds=40_000)).run()
                for s in (1, 2, 3, 4, 5)]

    def test_midlife_predictions_order_of_magnitude(self, fleet):
        training = [
            (analyze_counter(r.bundle["AvailableBytes"]).indicator, r.crash_time)
            for r in fleet[:4]
        ]
        model = fit_life_model(training)
        held_out = fleet[4]
        log_ratios = []
        for frac in (0.6, 0.75, 0.85):
            trunc = held_out.bundle["AvailableBytes"].slice_time(
                0, frac * held_out.crash_time)
            indicator = analyze_counter(trunc).indicator
            predicted = predict_remaining_life(model, indicator)
            actual = held_out.crash_time - trunc.times[-1]
            log_ratios.append(abs(np.log(predicted / actual)))
        assert np.median(log_ratios) < np.log(4.0), \
            "mid-life predictions must be order-of-magnitude correct"

    def test_model_curve_monotone(self, fleet):
        training = [
            (analyze_counter(r.bundle["AvailableBytes"]).indicator, r.crash_time)
            for r in fleet[:3]
        ]
        model = fit_life_model(training)
        assert np.all(np.diff(model.remaining_fraction) <= 1e-12)
        assert np.all(np.diff(model.z_grid) > 0)
        assert model.n_training_pairs > 100

    def test_too_few_training_runs(self, fleet):
        indicator = analyze_counter(fleet[0].bundle["AvailableBytes"]).indicator
        with pytest.raises(ValidationError):
            fit_life_model([(indicator, fleet[0].crash_time)])

    def test_invalid_crash_time(self, fleet):
        indicator = analyze_counter(fleet[0].bundle["AvailableBytes"]).indicator
        with pytest.raises(ValidationError):
            fit_life_model([(indicator, None), (indicator, 100.0)])
