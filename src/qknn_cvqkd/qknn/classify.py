"""Neighbor voting: classical k-nearest-neighbor baseline and the quantum
pipeline (similarity table -> k-maximal search -> majority vote).

One rank rule: training rows are ordered best first by one key per
similarity (Euclidean distance ascending, fidelity descending), and equal
keys go to the lower row index. A vote reads only the best max(k) rows of
a query, so only those are sorted: the rows whose key is at or below the
max(k)-th smallest, stably. That is the head of the full stable sort, rows
and order, ties and signed zeros included. One vote rule: the label most of
the k neighbors hold wins, equal counts go to the lowest label, and the
scores are each class's share of the k votes. A single query is a batch of
one.

Analytic QkNN ranks rows in its k-maximal search by the same (fidelity,
lower index) rule, so with exact similarities it selects the same neighbor
set as fidelity kNN, also when similarities tie, and the fidelity baseline
doubles as its correctness oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TrainingSet, checked_labels, is_positive_integer
from .encoding import fidelity_to_rows
from .search import KMaximalReport, k_maximal_find
from .similarity import SimilarityTable, compute_similarity_table


def _smallest_first(key: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(key, axis=1, kind="stable")[:, :count]`` without sorting
    every row: the ``count``-th smallest key of a row is its threshold,
    every column whose key is at or below it is a candidate (at least
    ``count`` of them, in index order), and only the candidates are sorted,
    stably, so ties and signed zeros come out as the full sort has them."""
    threshold = np.partition(key, count - 1, axis=1)[:, count - 1, None]
    row, column = np.nonzero(key <= threshold)
    # by row, then key; lexsort is stable, so equal keys keep index order
    ranked = column[np.lexsort((key[row, column], row))]
    starts = np.searchsorted(row, np.arange(key.shape[0]))
    return ranked[starts[:, None] + np.arange(count)]


def _neighbor_order(
    train: TrainingSet, queries: np.ndarray, similarity: str, count: int
) -> np.ndarray:
    """(n_queries, count) row indices of each query's ``count`` best rows,
    best first; equal keys keep the lower row index first."""
    features = train.features
    if queries.ndim != 2 or queries.shape[1] != features.shape[1]:
        raise ValueError(
            f"queries must be (n_queries, {features.shape[1]}), got shape {queries.shape}"
        )
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    if similarity == "euclidean":
        # squared distance summed one feature at a time: (Q, M) temporaries,
        # and a query equal to a row reads exactly 0
        key = np.zeros((queries.shape[0], features.shape[0]))
        for q_u, f_u in zip(queries.T, features.T):
            key += np.square(q_u[:, None] - f_u[None, :])
    elif similarity == "fidelity":
        key = -fidelity_to_rows(train, queries).T
    else:
        raise ValueError(f"unknown similarity '{similarity}'")
    return _smallest_first(key, count)


def _vote(neighbor_labels: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Modal label of each row of (n_queries, k) 1-based labels, ties to the
    lowest label, and the (n_queries, n_classes) vote shares."""
    n_queries, k = neighbor_labels.shape
    offsets = np.arange(n_queries)[:, None] * n_classes
    counts = np.bincount(
        (neighbor_labels - 1 + offsets).ravel(), minlength=n_queries * n_classes
    ).reshape(n_queries, n_classes)
    return np.argmax(counts, axis=1) + 1, counts / k


def majority_vote(labels) -> int:
    """Modal 1-based label; ties resolve to the lowest label value."""
    labels = checked_labels(labels)
    # label 0 counts nothing, so argmax is the lowest label of the top count
    return int(np.bincount(labels.astype(int)).argmax())


@dataclass(frozen=True)
class KnnPrediction:
    label: int
    scores: np.ndarray  # per-class fraction of the k neighbors
    neighbor_indices: np.ndarray


def classical_knn_predict(
    train: TrainingSet, query: np.ndarray, k: int, similarity: str = "euclidean"
) -> KnnPrediction:
    """Plain k-nearest-neighbor vote under the chosen similarity measure."""
    if not (is_positive_integer(k) and k <= train.size):
        raise ValueError(f"k must be an integer in 1..{train.size}, got {k!r}")
    query = np.asarray(query, float)[None, :]
    neighbors = _neighbor_order(train, query, similarity, k)[0]
    labels, scores = _vote(train.labels[neighbors][None, :], train.n_classes)
    return KnnPrediction(label=int(labels[0]), scores=scores[0], neighbor_indices=neighbors)


def knn_predict_batch(
    train: TrainingSet, queries: np.ndarray, k_values, similarity: str = "euclidean"
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Baseline over many queries and several k at once.

    Returns {k: (labels, scores)} with labels shaped (n_queries,) and scores
    (n_queries, n_classes), row for row what ``classical_knn_predict`` gives.
    """
    queries = np.atleast_2d(np.asarray(queries, float))
    k_values = list(k_values)
    if not k_values:
        raise ValueError("need at least one k")
    if not all(is_positive_integer(k) and k <= train.size for k in k_values):
        raise ValueError(f"k values must be integers in 1..{train.size}, got {k_values}")
    k_values = sorted({int(k) for k in k_values})
    sorted_labels = train.labels[_neighbor_order(train, queries, similarity, k_values[-1])]
    return {k: _vote(sorted_labels[:, :k], train.n_classes) for k in k_values}


@dataclass(frozen=True)
class QknnPrediction:
    label: int
    scores: np.ndarray
    neighbor_indices: np.ndarray
    table: SimilarityTable
    search_report: KMaximalReport


def qknn_predict(
    train: TrainingSet,
    query: np.ndarray,
    k: int,
    rng: np.random.Generator,
    mode: str = "analytic",
    delta: float = 0.1,
) -> QknnPrediction:
    """Quantum-pipeline prediction for one query.

    ``analytic`` mode keeps similarities exact and is unbounded in training
    size; ``gate`` mode amplitude-estimates the closed-form swap-test
    probabilities to error ``delta`` and ranks on the integer similarity
    register, and is meant for desk-scale validation runs. Both modes run
    the same k-maximal search loop, which draws every Grover attempt from
    its closed-form outcome law; the modes differ in the tie rule and the
    index space (see ``k_maximal_find``), and gate results equal those of
    measuring the circuit in distribution, not seed by seed. ``delta`` must
    lie in (0, 1) in either mode; ``k_maximal_find`` checks ``k``.
    """
    table = compute_similarity_table(train, query, mode=mode, delta=delta)
    neighbors, report = k_maximal_find(table, k, rng, mode=mode)
    chosen = np.asarray(neighbors.selected, dtype=int)
    # one query's vote, ties to the lowest label: label 0 counts nothing
    counts = np.bincount(train.labels[chosen], minlength=train.n_classes + 1)
    return QknnPrediction(
        label=int(counts.argmax()),
        scores=counts[1:] / k,
        neighbor_indices=chosen,
        table=table,
        search_report=report,
    )
