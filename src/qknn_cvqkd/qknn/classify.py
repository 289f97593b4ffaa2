"""Neighbor voting: classical k-nearest-neighbor baseline and the quantum
pipeline (similarity table -> k-maximal search -> majority vote).

With exact similarities the quantum pipeline selects the same neighbor set
as the fidelity-metric classical baseline, so the baseline doubles as its
correctness oracle. All tie-breaking is deterministic: neighbor ordering
falls back to the lower row index, label votes to the lower label.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import TrainingSet
from .encoding import fidelity_to_rows
from .search import KMaximalReport, k_maximal_find
from .similarity import SimilarityTable, compute_similarity_table

SIMILARITY_KINDS = ("euclidean", "cosine", "fidelity")


def majority_vote(labels, n_classes: int | None = None) -> int:
    """Modal label; ties resolve to the lowest label value."""
    labels = list(labels)
    if not labels:
        raise ValueError("majority vote over no labels")
    counts = Counter(labels)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return int(best[0])


def euclidean_distance(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.sqrt(((np.atleast_2d(rows) - np.asarray(query, float)) ** 2).sum(axis=1))


def cosine_similarity(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(rows)
    query = np.asarray(query, float)
    norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(query)
    dots = rows @ query
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(norms > 0, dots / np.where(norms > 0, norms, 1.0), 0.0)
    return out


def _neighbor_order(train_features: np.ndarray, query: np.ndarray, similarity: str) -> np.ndarray:
    """Row indices sorted best-first with index tie-breaking."""
    if similarity == "euclidean":
        key = euclidean_distance(train_features, query)  # smaller is better
    elif similarity == "cosine":
        key = -cosine_similarity(train_features, query)
    elif similarity == "fidelity":
        key = -fidelity_to_rows(train_features, query)
    else:
        raise ValueError(f"unknown similarity '{similarity}'")
    return np.lexsort((np.arange(key.size), key))


def _vote_scores(labels: np.ndarray, n_classes: int, k: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=n_classes + 1)[1:]
    return counts / k


@dataclass(frozen=True)
class KnnPrediction:
    label: int
    scores: np.ndarray  # per-class fraction of the k neighbors
    neighbor_indices: np.ndarray


def classical_knn_predict(
    train: TrainingSet, query: np.ndarray, k: int, similarity: str = "euclidean"
) -> KnnPrediction:
    """Plain k-nearest-neighbor vote under the chosen similarity measure."""
    if not 1 <= k <= train.size:
        raise ValueError(f"k must lie in 1..{train.size}, got {k}")
    order = _neighbor_order(train.features, query, similarity)
    neighbors = order[:k]
    labels = train.labels[neighbors]
    return KnnPrediction(
        label=majority_vote(labels.tolist()),
        scores=_vote_scores(labels, train.n_classes, k),
        neighbor_indices=neighbors,
    )


def knn_predict_batch(
    train: TrainingSet, queries: np.ndarray, k_values, similarity: str = "euclidean"
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Vectorized baseline over many queries and several k at once.

    Returns {k: (labels, scores)} with labels shaped (n_queries,) and scores
    (n_queries, n_classes). Exactly equivalent to per-query
    ``classical_knn_predict``.
    """
    queries = np.atleast_2d(np.asarray(queries, float))
    k_values = sorted(set(int(k) for k in k_values))
    if k_values[0] < 1 or k_values[-1] > train.size:
        raise ValueError(f"k values must lie in 1..{train.size}")

    if similarity == "euclidean":
        key = np.sqrt(
            np.maximum(
                (queries**2).sum(axis=1)[:, None]
                - 2.0 * queries @ train.features.T
                + (train.features**2).sum(axis=1)[None, :],
                0.0,
            )
        )
    elif similarity == "cosine":
        qn = np.linalg.norm(queries, axis=1, keepdims=True)
        tn = np.linalg.norm(train.features, axis=1)[None, :]
        denom = qn * tn
        key = -np.where(denom > 0, queries @ train.features.T / np.where(denom > 0, denom, 1.0), 0.0)
    elif similarity == "fidelity":
        overlap = (
            np.sqrt(1.0 - queries**2) @ np.sqrt(1.0 - train.features**2).T
            + queries @ train.features.T
        ) / train.feature_dim
        key = -(overlap**2)
    else:
        raise ValueError(f"unknown similarity '{similarity}'")

    order = np.lexsort((np.broadcast_to(np.arange(train.size), key.shape), key), axis=1)
    sorted_labels = train.labels[order]
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in k_values:
        votes = sorted_labels[:, :k]
        counts = np.zeros((queries.shape[0], train.n_classes), dtype=int)
        for c in range(1, train.n_classes + 1):
            counts[:, c - 1] = (votes == c).sum(axis=1)
        labels = np.argmax(counts, axis=1) + 1  # argmax takes the lowest label on ties
        out[k] = (labels, counts / k)
    return out


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
    size; ``gate`` mode runs the swap-test, amplitude-estimation and Grover
    circuits and is meant for desk-scale validation runs.
    """
    if not 1 <= k <= train.size:
        raise ValueError(f"k must lie in 1..{train.size}, got {k}")
    table = compute_similarity_table(train, query, mode=mode, delta=delta)
    neighbors, report = k_maximal_find(table, k, rng, mode=mode)
    chosen = np.asarray(neighbors.selected, dtype=int)
    labels = train.labels[chosen]
    return QknnPrediction(
        label=majority_vote(labels.tolist()),
        scores=_vote_scores(labels, train.n_classes, k),
        neighbor_indices=chosen,
        table=table,
        search_report=report,
    )
