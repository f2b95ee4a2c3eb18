"""Unit tests for detection scoring and ROC curves."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.stats import auc, roc_curve, score_detections


class TestScoreDetections:
    def test_all_detected(self):
        out = score_detections([900.0, 800.0], [1000.0, 1000.0])
        assert out.n_detected == 2
        assert out.detection_rate == 1.0
        assert out.median_lead_time == pytest.approx(150.0)

    def test_missed_when_none(self):
        out = score_detections([None], [1000.0])
        assert out.n_missed == 1
        assert np.isnan(out.median_lead_time)

    def test_alarm_after_crash_is_missed(self):
        out = score_detections([1500.0], [1000.0])
        assert out.n_missed == 1

    def test_premature_alarm(self):
        # Alarm at 2% of life with max_lead_fraction=0.9 -> premature.
        out = score_detections([20.0], [1000.0])
        assert out.n_premature == 1

    def test_min_lead_enforced(self):
        out = score_detections([995.0], [1000.0], min_lead=10.0)
        assert out.n_missed == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            score_detections([None], [1000.0, 2000.0])

    def test_nonpositive_crash_rejected(self):
        with pytest.raises(ValidationError):
            score_detections([None], [0.0])

    def test_mixed_accounting_sums(self):
        out = score_detections([900.0, None, 10.0, 1500.0], [1000.0] * 4)
        assert out.n_runs == 4
        assert out.n_detected + out.n_premature + out.n_missed == 4


def _roc_curve_loop(pos_scores, neg_scores):
    """The original O(n·m) sweep, kept as the reference implementation:
    the vectorised roc_curve must reproduce it bit for bit."""
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    fpr = [0.0]
    tpr = [0.0]
    for th in thresholds:
        tpr.append(np.mean(pos >= th))
        fpr.append(np.mean(neg >= th))
    fpr.append(1.0)
    tpr.append(1.0)
    return np.asarray(fpr), np.asarray(tpr)


class TestRoc:
    def test_perfect_separation(self):
        fpr, tpr = roc_curve([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
        assert auc(fpr, tpr) == pytest.approx(1.0)

    def test_no_separation(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(2000)
        fpr, tpr = roc_curve(scores[:1000], scores[1000:])
        assert auc(fpr, tpr) == pytest.approx(0.5, abs=0.05)

    def test_inverted_scores(self):
        fpr, tpr = roc_curve([1.0, 2.0], [10.0, 11.0])
        assert auc(fpr, tpr) == pytest.approx(0.0, abs=1e-12)

    def test_curve_endpoints(self):
        fpr, tpr = roc_curve([5.0], [1.0])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_auc_requires_sorted_fpr(self):
        with pytest.raises(AnalysisError):
            auc([0.0, 0.5, 0.2], [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_vectorised_matches_loop_bit_for_bit(self, seed):
        # Property test over random pools, including heavy ties and
        # unbalanced sizes: the sort-based sweep must equal the loop
        # reference exactly (same counts, same float divisions).
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 40))
        n_neg = int(rng.integers(1, 40))
        if seed % 2:
            # quantised scores -> many exact ties across both pools
            pos = np.round(rng.standard_normal(n_pos) * 2) / 2 + 0.5
            neg = np.round(rng.standard_normal(n_neg) * 2) / 2
        else:
            pos = rng.standard_normal(n_pos) + 0.5
            neg = rng.standard_normal(n_neg)
        fpr_v, tpr_v = roc_curve(pos, neg)
        fpr_l, tpr_l = _roc_curve_loop(pos, neg)
        assert np.array_equal(fpr_v, fpr_l)
        assert np.array_equal(tpr_v, tpr_l)

    def test_ge_semantics_at_threshold(self):
        # A threshold equal to a score counts that score as positive
        # (>= sweep, as now documented).
        fpr, tpr = roc_curve([1.0, 2.0], [1.0])
        # at threshold 2.0: tpr=0.5, fpr=0; at threshold 1.0: tpr=1, fpr=1
        assert tpr[1] == pytest.approx(0.5) and fpr[1] == 0.0
        assert tpr[2] == 1.0 and fpr[2] == 1.0


class TestEmptyOutcomeRates:
    def test_zero_runs_rates_are_nan(self):
        # An empty cell has no evidence — 0.0 would read as "0% detected".
        from repro.stats.roc import DetectionOutcome

        out = DetectionOutcome(n_runs=0, n_detected=0, n_premature=0,
                               n_missed=0, lead_times=())
        assert np.isnan(out.detection_rate)
        assert np.isnan(out.premature_rate)

    def test_nonempty_rates_unchanged(self):
        out = score_detections([900.0, None], [1000.0, 1000.0])
        assert out.detection_rate == pytest.approx(0.5)
        assert out.premature_rate == 0.0
