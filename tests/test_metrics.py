"""Metric checks: confusion/precision identities, ROC behavior, count models."""
import math

import numpy as np
import pytest

from qknn_cvqkd import metrics
from qknn_cvqkd.qknn import k_maximal_find
from tests.test_qknn_search import make_table

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# confusion and precision
# ---------------------------------------------------------------------------

def test_confusion_perfect_predictions_diagonal():
    labels = np.array([1, 2, 3, 1, 2, 3])
    cm = metrics.confusion(labels, labels, 3)
    assert np.array_equal(cm, np.diag([2, 2, 2]))


def test_confusion_single_misclassification():
    cm = metrics.confusion(predicted=[2], actual=[1], n_classes=3)
    expected = np.zeros((3, 3), dtype=int)
    expected[0, 1] = 1
    assert np.array_equal(cm, expected)


def test_confusion_rejects_length_mismatch():
    with pytest.raises(ValueError):
        metrics.confusion([1, 2], [1], 2)


def test_confusion_rejects_empty_labels():
    with pytest.raises(ValueError, match="at least one label"):
        metrics.confusion([], [], 2)


def test_precision_diagonal_matrix():
    per_class, average = metrics.precision_per_class(np.diag([5, 3, 9]))
    assert np.allclose(per_class, 1.0)
    assert average == 1.0


def test_precision_nine_of_ten():
    cm = np.array([[9, 0], [1, 0]])
    per_class, average = metrics.precision_per_class(cm)
    assert per_class[0] == pytest.approx(0.9)
    assert per_class[1] == 0.0  # never predicted
    assert average == pytest.approx(0.45)


def test_precision_matches_manual_recount():
    rng = RNG(1)
    actual = rng.integers(1, 9, size=400)
    predicted = rng.integers(1, 9, size=400)
    cm = metrics.confusion(predicted, actual, 8)
    per_class, average = metrics.precision_per_class(cm)
    assert np.array_equal(cm.sum(axis=1), np.bincount(actual, minlength=9)[1:])
    manual = []
    for klass in range(1, 9):
        tp = int(((predicted == klass) & (actual == klass)).sum())
        denom = int((predicted == klass).sum())
        manual.append(tp / denom if denom else 0.0)
    assert np.allclose(per_class, manual)
    assert average == pytest.approx(float(np.mean(manual)))


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

def test_one_hot_scores_reach_auc_one():
    actual = np.array([1, 2, 3, 1, 2, 3])
    scores = np.zeros((6, 3))
    scores[np.arange(6), actual - 1] = 1.0
    curve = metrics.roc_macro(scores, actual, 3)
    assert curve.auc == pytest.approx(1.0, abs=1e-12)


def test_random_scores_auc_near_half():
    rng = RNG(2)
    actual = rng.integers(1, 9, size=10_000)
    scores = rng.uniform(size=(10_000, 8))
    curve = metrics.roc_macro(scores, actual, 8)
    assert abs(curve.auc - 0.5) < 0.02


def test_inverted_scores_auc_zero():
    actual = np.array([1, 2] * 20)
    scores = np.zeros((40, 2))
    scores[np.arange(40), (actual % 2)] = 1.0  # probability mass on the wrong class
    curve = metrics.roc_macro(scores, actual, 2)
    assert curve.auc == pytest.approx(0.0, abs=1e-12)


def test_two_sample_curve_matches_hand_enumeration():
    # class 1 scored 0.9, class 2 scored 0.4 on the class-1 column
    actual = np.array([1, 2])
    scores = np.array([[0.9, 0.1], [0.4, 0.6]])
    curve = metrics.roc_macro(scores, actual, 2)
    # both one-vs-rest curves step (0,0) -> (0,1) -> (1,1): perfect ranking
    assert curve.auc == pytest.approx(1.0, abs=1e-12)
    assert curve.per_class_auc[1] == pytest.approx(1.0, abs=1e-12)
    # hand enumeration of thresholds for class 1: at t=0.9 TPR=1, FPR=0
    fpr, tpr = curve.false_positive_rate, curve.true_positive_rate
    assert tpr[np.searchsorted(fpr, 0.0)] == pytest.approx(1.0)


def test_roc_invariant_under_monotone_transform():
    rng = RNG(3)
    actual = rng.integers(1, 5, size=600)
    raw = rng.uniform(size=(600, 4))
    base = metrics.roc_macro(raw, actual, 4)
    squashed = metrics.roc_macro(raw**3, actual, 4)  # strictly monotone on [0,1]
    assert np.allclose(base.false_positive_rate, squashed.false_positive_rate)
    assert np.allclose(base.true_positive_rate, squashed.true_positive_rate)
    assert base.auc == pytest.approx(squashed.auc, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
def test_roc_rejects_scores_outside_the_unit_interval(bad):
    # a NaN compares false both ways, so only a negated in-range test stops it
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
    scores[1, 0] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        metrics.roc_macro(scores, np.array([1, 2, 1, 2]), 2)


def test_roc_rejects_single_class_truth():
    with pytest.raises(ValueError):
        metrics.roc_macro(np.ones((3, 2)) / 2, [1, 1, 1], 2)


# ---------------------------------------------------------------------------
# operation-count models
# ---------------------------------------------------------------------------

def test_classical_count_reference_point():
    assert metrics.complexity_classical(8, 128, 15) == pytest.approx(1935.0, abs=1e-9)


def test_classical_count_single_row():
    assert metrics.complexity_classical(8, 1, 3) == pytest.approx(8 + 0 + 3, abs=1e-12)


def test_classical_count_superlinear_in_m():
    base = metrics.complexity_classical(8, 64, 15)
    doubled = metrics.complexity_classical(8, 128, 15)
    assert doubled > 2 * base


def test_quantum_count_reference_point():
    assert metrics.estimation_iteration_count(0.1) == 131
    value = metrics.complexity_quantum(8, 128, 15, 0.1)
    assert value == pytest.approx(1152 + 131 + math.sqrt(1920) + 15, abs=1e-9)
    assert value == pytest.approx(1341.8, abs=0.1)


def test_quantum_beats_classical_beyond_crossover():
    # the literal cost expressions cross at M = 37 for U=8, k=15, delta=0.1
    for m in range(37, 4097):
        assert metrics.complexity_quantum(8, m, 15, 0.1) < metrics.complexity_classical(8, m, 15)
    assert metrics.complexity_quantum(8, 36, 15, 0.1) > metrics.complexity_classical(8, 36, 15)


def test_quantum_count_rejects_bad_delta():
    with pytest.raises(ValueError):
        metrics.complexity_quantum(8, 128, 15, 0.0)


def test_report_totals_match_flat_functions():
    report = metrics.complexity_report(8, 128, 15, 0.1)
    assert report.classical_total == pytest.approx(metrics.complexity_classical(8, 128, 15))
    # the report's quantum total also carries the constant preparation stage
    assert report.quantum_total == pytest.approx(metrics.complexity_quantum(8, 128, 15, 0.1) + 6.0)


@pytest.mark.parametrize(
    "count",
    [
        lambda u, m, k: metrics.complexity_classical(u, m, k),
        lambda u, m, k: metrics.complexity_quantum(u, m, k, 0.1),
        lambda u, m, k: metrics.complexity_report(u, m, k, 0.1),
    ],
    ids=["classical", "quantum", "report"],
)
@pytest.mark.parametrize("sizes", [(2, 16, 0), (0, 16, 7), (2, 0, 7), (-1, 16, 7)])
def test_count_models_reject_non_positive_sizes(count, sizes):
    with pytest.raises(ValueError, match="arguments must be positive"):
        count(*sizes)


# ---------------------------------------------------------------------------
# oracle budget
# ---------------------------------------------------------------------------

def test_budget_zero_matches_is_free():
    assert metrics.oracle_budget_kmax(64, 0, 3) == 0.0


def test_budget_small_match_count_literal_sum():
    expected = sum(math.sqrt(64 / i) for i in range(1, 7))
    assert metrics.oracle_budget_kmax(64, 5, 3) == pytest.approx(expected, abs=1e-12)


def test_budget_scales_as_sqrt_km():
    # halving phase contributes < sqrt(kM)/(sqrt(2)-1) and the tail phase
    # < 2*sqrt(2)*sqrt(kM), so the ratio stays below ~5 at any match count
    ratios = []
    for m in [64, 256, 1024, 4096]:
        for t in (15, m // 2, m):
            budget = metrics.oracle_budget_kmax(m, t, 15)
            ratios.append(budget / math.sqrt(15 * m))
    assert max(ratios) < 5.0


def test_empirical_oracle_calls_within_budget_factor():
    k = 15
    m = 64
    total_calls = 0
    total_budget = 0.0
    for seed in range(100):
        rng = RNG(seed)
        values = rng.permutation(m * 4)[:m].astype(float)
        table = make_table(values)
        selected = np.zeros(m, dtype=bool)
        # reproduce the search's initial draw to compute the budget for the
        # same starting subset
        probe_rng = RNG(seed)
        start = probe_rng.choice(m, size=k, replace=False)
        selected[start] = True
        threshold = values[selected].min()
        matches = int((values[~selected] > threshold).sum())
        total_budget += metrics.oracle_budget_kmax(m, matches, k)
        rng = RNG(seed)
        _, report = k_maximal_find(table, k, rng)
        total_calls += report.oracle_calls
    assert total_calls <= 3.0 * total_budget
