"""Classification metrics (confusion matrix, precision, macro-average ROC)
and the operation-count models comparing the classical and quantum
classifier pipelines.

The count models evaluate the cost expressions literally with unit
constants, matching how the comparison figures are constructed; they are a
modeling convention, not a measured runtime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qknn.dataset import checked_labels
from .qknn.similarity import required_iterations as estimation_iteration_count


# ---------------------------------------------------------------------------
# confusion matrix and precision
# ---------------------------------------------------------------------------

def confusion(predicted, actual, n_classes: int) -> np.ndarray:
    """Counts indexed [actual - 1, predicted - 1] for 1-based labels."""
    predicted = checked_labels(predicted, n_classes)
    actual = checked_labels(actual, n_classes)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(matrix, (actual - 1, predicted - 1), 1)
    return matrix


def precision_per_class(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-class precision TP/(TP+FP) and its plain average over classes.

    A class that was never predicted contributes precision 0 and stays in
    the average (deterministic and conservative)."""
    matrix = np.asarray(matrix)
    predicted_positives = matrix.sum(axis=0)
    true_positives = np.diag(matrix)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(
            predicted_positives > 0, true_positives / np.maximum(predicted_positives, 1), 0.0
        )
    return per_class, float(per_class.mean())


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    """Macro-averaged one-vs-rest ROC.

    ``auc`` is the mean of the per-class trapezoidal areas (each computed on
    its own full staircase, so vertical segments carry zero area). The
    stored curve is the per-class sweep interpolated onto the union
    false-positive-rate grid and averaged; it is the plot-facing summary of
    the same sweeps."""

    false_positive_rate: np.ndarray
    true_positive_rate: np.ndarray
    auc: float
    per_class_auc: dict[int, float]


def _binary_roc(scores: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Threshold sweep over the score values (one point per distinct score)."""
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    positive = positive[order]
    tp = np.cumsum(positive)
    fp = np.cumsum(~positive)
    # keep the last index of each run of equal scores
    keep = np.r_[np.flatnonzero(np.diff(scores)), scores.size - 1]
    tpr = np.r_[0.0, tp[keep] / max(tp[-1], 1)]
    fpr = np.r_[0.0, fp[keep] / max(fp[-1], 1)]
    return fpr, tpr


def roc_macro(scores: np.ndarray, actual, n_classes: int) -> RocCurve:
    """Macro-average ROC over one-vs-rest reductions.

    ``scores`` is (n_samples, n_classes) with entries in [0, 1]; class c uses
    column c-1. Per-class curves are interpolated onto the union of their
    false-positive-rate grids and averaged; classes absent from ``actual``
    are skipped (their one-vs-rest curve is undefined)."""
    scores = np.asarray(scores, dtype=float)
    actual = checked_labels(actual, n_classes)
    if scores.ndim != 2 or scores.shape != (actual.size, n_classes):
        raise ValueError("scores must be (n_samples, n_classes)")
    if not (scores.min() >= -1e-9 and scores.max() <= 1 + 1e-9):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    present = np.unique(actual)
    if present.size < 2:
        raise ValueError("ROC needs at least two classes present in the truth")

    curves: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    per_class_auc: dict[int, float] = {}
    for klass in present:
        positive = actual == klass
        fpr, tpr = _binary_roc(scores[:, klass - 1], positive)
        curves[int(klass)] = (fpr, tpr)
        per_class_auc[int(klass)] = float(np.trapezoid(tpr, fpr))

    grid = np.unique(np.concatenate([fpr for fpr, _ in curves.values()]))
    mean_tpr = np.zeros_like(grid)
    for fpr, tpr in curves.values():
        mean_tpr += np.interp(grid, fpr, tpr)
    mean_tpr /= len(curves)
    auc = float(np.mean(list(per_class_auc.values())))
    return RocCurve(
        false_positive_rate=grid,
        true_positive_rate=mean_tpr,
        auc=auc,
        per_class_auc=per_class_auc,
    )


# ---------------------------------------------------------------------------
# operation-count models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    feature_dim: int
    training_size: int
    k: int
    delta: float
    estimation_iterations: int
    classical_stages: dict[str, float]
    quantum_stages: dict[str, float]

    @property
    def classical_total(self) -> float:
        return sum(self.classical_stages.values())

    @property
    def quantum_total(self) -> float:
        return sum(self.quantum_stages.values())


def _sizes(feature_dim: int, training_size: int, k: int) -> tuple[float, float]:
    """(U, M) as floats once U, M and k are all at least 1."""
    if min(feature_dim, training_size, k) < 1:
        raise ValueError("arguments must be positive")
    return float(feature_dim), float(training_size)


def complexity_classical(feature_dim: int, training_size: int, k: int) -> float:
    """Similarity pass + sort + vote: U*M + M*log2(M) + k."""
    u, m = _sizes(feature_dim, training_size, k)
    return u * m + m * math.log2(m) + float(k)


def complexity_quantum(feature_dim: int, training_size: int, k: int, delta: float) -> float:
    """Swap tests + estimation + k-maximal search + vote:
    M*log2(U)^2 + R + sqrt(k*M) + k with R = ceil(pi*(pi+1)/delta)."""
    u, m = _sizes(feature_dim, training_size, k)
    r = estimation_iteration_count(delta)
    return m * math.log2(u) ** 2 + r + math.sqrt(k * m) + float(k)


def complexity_report(feature_dim: int, training_size: int, k: int, delta: float) -> ComplexityReport:
    u, m = _sizes(feature_dim, training_size, k)
    r = estimation_iteration_count(delta)
    return ComplexityReport(
        feature_dim=feature_dim,
        training_size=training_size,
        k=k,
        delta=delta,
        estimation_iterations=r,
        classical_stages={
            "similarity": u * m,
            "sort": m * math.log2(m),
            "vote": float(k),
        },
        quantum_stages={
            "state_preparation": 6.0,
            "similarity": m * math.log2(u) ** 2,
            "estimation": float(r),
            "k_maximal": math.sqrt(k * m),
            "vote": float(k),
        },
    )


def oracle_budget_kmax(training_size: int, initial_matches: int, k: int) -> float:
    """Oracle-call model for whittling the match count down to zero.

    While more than 2k rows beat the threshold, each halving round costs
    k*sqrt(M/(2^i k)); once at most 2k remain the remaining rounds cost
    sum over i=1..2k of sqrt(M/i). Zero matches cost nothing."""
    if initial_matches < 0 or initial_matches > training_size:
        raise ValueError("match count must lie in 0..training_size")
    if k < 1:
        raise ValueError("k must be positive")
    if initial_matches == 0:
        return 0.0
    m = float(training_size)
    total = 0.0
    t = float(initial_matches)
    halving = 1
    while t > 2 * k:
        total += k * math.sqrt(m / (2**halving * k))
        t /= 2.0
        halving += 1
    total += sum(math.sqrt(m / i) for i in range(1, 2 * k + 1))
    return total
