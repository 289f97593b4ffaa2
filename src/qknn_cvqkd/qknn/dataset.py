"""Labeled feature-vector datasets, the normalization they carry, and the
input rules every stage shares: positive integers and 1-based labels.

Feature normalization is per-feature min-max scaling fitted on the training
set; queries transformed through the same scaler are clamped to [0, 1] so
every encoded amplitude stays a valid rotation argument.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def is_positive_integer(value) -> bool:
    """An integer of at least 1; numpy integers pass, bool does not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def checked_labels(labels, n_classes: int | None = None) -> np.ndarray:
    """``labels`` as a 1-D array of integer, 1-based class labels, each at most
    ``n_classes`` when that is given; raises ``ValueError`` otherwise."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {labels.shape}")
    if labels.size == 0:
        raise ValueError("need at least one label")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels}")
    if labels.min() < 1:
        raise ValueError("labels must be 1-based")
    if n_classes is not None and labels.max() > n_classes:
        raise ValueError(f"labels must lie in 1..{n_classes}")
    return labels


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature min-max record fitted on a training set."""

    minimum: np.ndarray
    maximum: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        return cls(minimum=features.min(axis=0), maximum=features.max(axis=0))

    def transform(self, features: np.ndarray) -> np.ndarray:
        span = self.maximum - self.minimum
        span = np.where(span > 0, span, 1.0)  # constant feature maps to 0
        scaled = (np.asarray(features, dtype=float) - self.minimum) / span
        return np.clip(scaled, 0.0, 1.0)


class TrainingSet:
    """Normalized training data for the classifiers.

    ``features`` is an (M, U) array with every entry in [0, 1]; ``labels``
    holds 1-based class labels; ``complement`` holds sqrt(1 - features^2),
    the other amplitude of each encoded feature, computed once here because
    every fidelity against the set reads it. The three arrays are read-only,
    so a write that would leave ``complement`` out of step with ``features``
    raises ``ValueError``.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        scaler: FeatureScaler,
    ):
        features = np.asarray(features, dtype=float)
        labels = checked_labels(labels, n_classes)
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise ValueError("features must be (M, U) with one label per row")
        if features.shape[0] < 1:
            raise ValueError("training set is empty")
        if not (features.min() >= -1e-12 and features.max() <= 1 + 1e-12):  # NaN fails too
            raise ValueError("normalized features must lie in [0, 1]")
        self.features = np.clip(features, 0.0, 1.0)
        self.complement = np.sqrt(1.0 - self.features**2)
        self.labels = labels.astype(int)  # a copy: it is made read-only below
        for array in (self.features, self.complement, self.labels):
            array.flags.writeable = False
        self.n_classes = int(n_classes)
        self.scaler = scaler

    @classmethod
    def from_raw(
        cls, raw_features: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> "TrainingSet":
        raw = np.asarray(raw_features, dtype=float)
        if not np.isfinite(raw).all():
            raise ValueError("raw features must be finite")
        scaler = FeatureScaler.fit(raw)
        return cls(
            features=scaler.transform(raw),
            labels=labels,
            n_classes=n_classes,
            scaler=scaler,
        )

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def normalize_queries(self, raw_features: np.ndarray) -> np.ndarray:
        """Scale query features with the training scaler, clamped to [0, 1]."""
        return self.scaler.transform(np.atleast_2d(np.asarray(raw_features, float)))
