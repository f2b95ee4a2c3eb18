"""Streaming and construction checks that the Hölder engines' sample
buffer used to carry, now held by :class:`OnlineAgingMonitor` — the one
buffer in front of :func:`~repro.core.holder.holder_tail`."""

import numpy as np
import pytest

from repro.core.online import OnlineAgingMonitor
from repro.exceptions import AnalysisError, ValidationError


def _monitor(**overrides):
    kwargs = dict(chunk_size=64, history=256, indicator_window=64)
    kwargs.update(overrides)
    return OnlineAgingMonitor(**kwargs)


class TestStreaming:
    def test_empty_batch_is_noop(self):
        monitor = _monitor()
        assert monitor.update_many([], []) is False
        assert monitor.n_samples == 0
        assert monitor.state == "buffering"

    @pytest.mark.parametrize("times,values", [
        ([0.0, 1.0], [1.0]),                        # length mismatch
        ([[0.0, 1.0]], [[1.0, 2.0]]),               # not 1-D
        ([0.0, float("nan")], [1.0, 2.0]),          # non-finite time
        ([0.0, 1.0], [1.0, float("inf")]),          # non-finite value
        ([1.0, 1.0], [1.0, 2.0]),                   # not strictly ordered
    ])
    def test_bad_batches_rejected(self, times, values):
        monitor = _monitor()
        with pytest.raises(AnalysisError):
            monitor.update_many(times, values)
        assert monitor.n_samples == 0

    def test_time_must_advance_across_calls(self):
        monitor = _monitor()
        monitor.update_many([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(AnalysisError, match="strict time order"):
            monitor.update_many([1.0, 2.0], [3.0, 4.0])
        assert monitor.n_samples == 2


class TestConstructionValidation:
    def test_tail_cannot_exceed_history(self):
        with pytest.raises(AnalysisError, match="cannot exceed history"):
            _monitor(history=256, indicator_window=512)

    def test_history_floor(self):
        with pytest.raises(ValidationError, match="history"):
            _monitor(history=16, indicator_window=16)

    # The case ids name the engine whose eager check the monitor took
    # over; "sliding" passes that estimator's removed support_mult knob.
    @pytest.mark.parametrize("holder_kwargs", [
        pytest.param({"no_such_kwarg": 1}, id="online"),
        pytest.param({"support_mult": 10.0}, id="sliding"),
    ])
    def test_bad_holder_kwargs_fail_eagerly(self, holder_kwargs):
        with pytest.raises(AnalysisError, match="holder_kwargs"):
            _monitor(holder_kwargs=holder_kwargs)
