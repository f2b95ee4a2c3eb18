"""Contract tests for the public API surface and exception hierarchy."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.core.detectors import DetectorConfig, HolderVarianceDetector
from repro.core.holder import HolderTrajectory
from repro.core.indicators import holder_mean_series
from repro.exceptions import (
    AnalysisError,
    ReproError,
    SimulationError,
    TraceError,
    ValidationError,
)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ValidationError, AnalysisError, SimulationError, TraceError):
            assert issubclass(exc, ReproError)

    def test_validation_error_is_value_error(self):
        # Generic callers guarding with `except ValueError` keep working.
        assert issubclass(ValidationError, ValueError)
        assert issubclass(TraceError, ValueError)

    def test_runtime_errors(self):
        assert issubclass(AnalysisError, RuntimeError)
        assert issubclass(SimulationError, RuntimeError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            repro.TimeSeries(times=[0, 0], values=[1.0, 2.0])


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_subpackage_alls_resolve(self):
        # Every subpackage, found on disk, so a stale __all__ entry left
        # behind by a deleted name fails here whichever package it is in.
        subpackages = [info.name for info in pkgutil.iter_modules(repro.__path__)
                       if info.ispkg]
        assert len(subpackages) >= 13
        for sub in subpackages:
            module = importlib.import_module(f"repro.{sub}")
            assert module.__all__, module.__name__
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_docstrings_on_public_callables(self):
        import repro.fractal as fractal

        for name in fractal.__all__:
            obj = getattr(fractal, name)
            assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"


def trajectory_with_shift(direction: str, rng):
    healthy = 0.5 + 0.05 * rng.standard_normal(3000)
    delta = 0.5 if direction == "up" else -0.5
    sick = 0.5 + delta + 0.05 * rng.standard_normal(800)
    h = np.concatenate([healthy, sick])
    return HolderTrajectory(times=np.arange(h.size, dtype=float), h=h,
                            method="wavelet", source_name="t")


class TestDirectionalDetection:
    def test_up_watch_catches_up_shift_only(self, rng):
        ind_up = holder_mean_series(trajectory_with_shift("up", rng),
                                    window=200, step=4)
        ind_down = holder_mean_series(trajectory_with_shift("down", rng),
                                      window=200, step=4)
        det = HolderVarianceDetector(DetectorConfig(direction="up"))
        assert det.run(ind_up).fired
        assert not det.run(ind_down).fired

    def test_down_watch_catches_down_shift_only(self, rng):
        ind_up = holder_mean_series(trajectory_with_shift("up", rng),
                                    window=200, step=4)
        ind_down = holder_mean_series(trajectory_with_shift("down", rng),
                                      window=200, step=4)
        det = HolderVarianceDetector(DetectorConfig(direction="down"))
        assert det.run(ind_down).fired
        assert not det.run(ind_up).fired

    def test_both_catches_either(self, rng):
        det = HolderVarianceDetector(DetectorConfig(direction="both"))
        for direction in ("up", "down"):
            ind = holder_mean_series(trajectory_with_shift(direction, rng),
                                     window=200, step=4)
            assert det.run(ind).fired, direction

    def test_alarm_stat_reported_in_original_scale(self, rng):
        ind = holder_mean_series(trajectory_with_shift("down", rng),
                                 window=200, step=4)
        alarm = HolderVarianceDetector(DetectorConfig(direction="both")).run(ind)
        assert alarm.fired
        # The down-shifted indicator sits near 0.0; the reported statistic
        # must be the original value, not its mirror around the baseline.
        assert alarm.statistic_at_alarm < alarm.baseline_mean
