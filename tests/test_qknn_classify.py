"""Voting, the classical baseline, and quantum/classical oracle equivalence."""
import numpy as np
import pytest

from qknn_cvqkd.qknn import (
    EncodingError,
    FeatureScaler,
    TrainingSet,
    classical_knn_predict,
    knn_predict_batch,
    majority_vote,
    qknn_predict,
)
from qknn_cvqkd.qknn import classify
from qknn_cvqkd.qknn.encoding import fidelity_to_rows

RNG = np.random.default_rng


def direct_training_set(features: np.ndarray, labels, n_classes: int) -> TrainingSet:
    """Training set whose features are already in [0, 1] (identity scaling)."""
    features = np.asarray(features, dtype=float)
    scaler = FeatureScaler(minimum=np.zeros(features.shape[1]), maximum=np.ones(features.shape[1]))
    return TrainingSet(features, np.asarray(labels, int), n_classes, scaler)


def random_training_set(seed: int, size: int, dim: int, n_classes: int) -> TrainingSet:
    rng = RNG(seed)
    features = rng.uniform(size=(size, dim))
    labels = rng.integers(1, n_classes + 1, size=size)
    return direct_training_set(features, labels, n_classes)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_training_set_rejects_non_finite_features(bad):
    with pytest.raises(ValueError):
        direct_training_set(np.array([[0.2, bad], [0.5, 0.5]]), [1, 2], n_classes=2)
    with pytest.raises(ValueError):
        TrainingSet.from_raw(np.array([[0.2, bad], [0.5, 0.5]]), [1, 2], n_classes=2)


@pytest.mark.parametrize("labels", [[1.5, 2.7], [1.0, 2.0], [True, True], np.array([1, np.nan])])
def test_training_set_rejects_labels_that_are_not_integers(labels):
    # [1.5, 2.7] used to be stored as [1, 2]
    features = RNG(0).uniform(size=(2, 2))
    scaler = FeatureScaler(minimum=np.zeros(2), maximum=np.ones(2))
    with pytest.raises(ValueError, match="labels must be integers"):
        TrainingSet(features, labels, 2, scaler)
    with pytest.raises(ValueError, match="labels must be integers"):
        TrainingSet.from_raw(features, labels, n_classes=2)


def test_training_set_takes_integer_lists_and_numpy_integers():
    features = RNG(0).uniform(size=(3, 2))
    scaler = FeatureScaler(minimum=np.zeros(2), maximum=np.ones(2))
    for labels in ([1, 2, 2], [np.int64(1), np.int64(2), 2], np.array([1, 2, 2], dtype=np.uint8)):
        train = TrainingSet(features, labels, 2, scaler)
        assert train.labels.dtype == int and train.labels.tolist() == [1, 2, 2]


def test_training_set_arrays_are_read_only():
    # complement is derived from features once; a write to either would
    # leave the two out of step
    labels = np.array([1, 2, 2])
    train = direct_training_set(RNG(0).uniform(size=(3, 2)), labels, n_classes=2)
    assert np.array_equal(train.complement, np.sqrt(1.0 - train.features**2))
    for array in (train.features, train.labels, train.complement):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    labels[0] = 2  # the caller's array stays writable and is not shared
    assert train.labels.tolist() == [1, 2, 2]


# ---------------------------------------------------------------------------
# majority vote
# ---------------------------------------------------------------------------

def test_majority_vote_simple():
    assert majority_vote([1, 1, 2]) == 1


def test_majority_vote_tie_takes_lowest_label():
    assert majority_vote([1, 2]) == 1
    assert majority_vote([3, 3, 2, 2]) == 2


def test_majority_vote_four_against_three():
    assert majority_vote([2, 2, 2, 2, 1, 1, 1]) == 2


def test_majority_vote_rejects_empty():
    with pytest.raises(ValueError):
        majority_vote([])


@pytest.mark.parametrize("labels", [[0, 1, 2], [2, -1], [0]])
def test_majority_vote_rejects_labels_below_one(labels):
    with pytest.raises(ValueError, match="labels must be 1-based"):
        majority_vote(labels)


@pytest.mark.parametrize(
    "labels", [[1.7, 2.2], [1, 2.5], np.array([2.0, np.nan]), [np.inf], [2.0, 1.0], [True]]
)
def test_majority_vote_rejects_labels_that_are_not_integers(labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        majority_vote(labels)


def test_majority_vote_takes_integer_lists_and_arrays():
    assert majority_vote([3, 1, 3]) == 3
    assert majority_vote(np.array([2, 4, 4, 2], dtype=np.int32)) == 2
    assert majority_vote(np.array([2, 3, 3], dtype=np.uint64)) == 3


# ---------------------------------------------------------------------------
# classical baseline
# ---------------------------------------------------------------------------

def test_single_training_point_always_wins():
    train = direct_training_set(np.array([[0.3, 0.4]]), [5], n_classes=8)
    pred = classical_knn_predict(train, np.array([0.9, 0.1]), k=1)
    assert pred.label == 5
    assert pred.scores[4] == 1.0


def test_two_class_example_flips_between_k3_and_k7():
    # ring of labeled points around the query: nearest three contain two of
    # class 1, the full seven contain four of class 2
    query = np.array([0.5, 0.5])
    radii = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35]
    labels = [1, 2, 1, 2, 2, 2, 1]
    angles = np.linspace(0, 2 * np.pi, num=7, endpoint=False)
    pts = np.stack([query[0] + np.array(radii) * np.cos(angles),
                    query[1] + np.array(radii) * np.sin(angles)], axis=1)
    train = direct_training_set(pts, labels, n_classes=2)
    assert classical_knn_predict(train, query, k=3).label == 1
    assert classical_knn_predict(train, query, k=7).label == 2


def test_k_larger_than_training_size_rejected():
    train = random_training_set(0, size=4, dim=3, n_classes=2)
    with pytest.raises(ValueError):
        classical_knn_predict(train, np.zeros(3), k=5)


def test_batch_rejects_an_empty_k_list():
    train = random_training_set(0, size=4, dim=3, n_classes=2)
    with pytest.raises(ValueError, match="need at least one k"):
        knn_predict_batch(train, np.zeros((2, 3)), [])


@pytest.mark.parametrize("mode", ["analytic", "gate"])
@pytest.mark.parametrize("delta", [0.0, 1.0, 7.0, np.nan])
def test_qknn_rejects_delta_outside_the_unit_interval(mode, delta):
    train = random_training_set(0, size=4, dim=3, n_classes=2)
    with pytest.raises(ValueError, match="delta"):
        qknn_predict(train, np.full(3, 0.5), 1, RNG(0), mode=mode, delta=delta)


@pytest.mark.parametrize("similarity", ["euclidean", "fidelity"])
def test_query_width_must_match_features(similarity):
    train = random_training_set(0, size=4, dim=3, n_classes=2)
    with pytest.raises(ValueError):
        classical_knn_predict(train, np.zeros(2), k=1, similarity=similarity)
    with pytest.raises(ValueError):
        knn_predict_batch(train, np.zeros((5, 4)), [1], similarity=similarity)


@pytest.mark.parametrize("similarity", ["euclidean", "fidelity"])
def test_non_finite_queries_rejected(similarity):
    train = random_training_set(0, size=4, dim=3, n_classes=2)
    query = train.normalize_queries(np.array([np.nan, 0.5, 0.5]))[0]  # clip keeps NaN
    with pytest.raises(ValueError):
        classical_knn_predict(train, query, k=1, similarity=similarity)
    with pytest.raises(ValueError):
        knn_predict_batch(train, np.array([[0.5, np.inf, 0.5]]), [1], similarity=similarity)


def test_unknown_similarity_rejected():
    train = random_training_set(0, size=4, dim=3, n_classes=2)
    with pytest.raises(ValueError):
        classical_knn_predict(train, np.zeros(3), k=1, similarity="cosine")


def test_equal_keys_rank_lower_row_first():
    features = np.array([[0.5, 0.5], [0.1, 0.1], [0.5, 0.5]])
    train = direct_training_set(features, [2, 1, 1], n_classes=2)
    for similarity in ("euclidean", "fidelity"):
        pred = classical_knn_predict(train, np.array([0.5, 0.5]), k=1, similarity=similarity)
        assert pred.neighbor_indices.tolist() == [0] and pred.label == 2


def test_euclidean_query_equal_to_a_row_ranks_it_first():
    # row b sits 1e-9 from row a and comes first in the table; a query equal
    # to a is at distance exactly 0 from a, so a must rank first
    rows = RNG(21).uniform(0.1, 0.9, size=(30, 8))
    for j, a in enumerate(rows):
        b = a.copy()
        b[j % 8] += 1e-9
        train = direct_training_set(np.vstack([b, a, rows]), [1, 2] + [1] * len(rows), n_classes=2)
        pred = classical_knn_predict(train, a, k=1)
        assert pred.neighbor_indices.tolist() == [1] and pred.label == 2, j


@pytest.mark.parametrize("kind", ["random", "halves", "all equal", "signed zeros"])
def test_smallest_first_equals_the_head_of_the_stable_argsort(kind):
    rng = RNG(55)
    for trial in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 300)))
        if kind == "random":
            key = rng.uniform(size=shape)
        elif kind == "halves":
            key = rng.choice([0.0, 0.5, 1.0], size=shape)
        elif kind == "all equal":
            key = np.full(shape, 0.5)
        else:
            key = rng.choice([-0.0, 0.0, 0.5, -0.5], size=shape)
        full = np.argsort(key, axis=1, kind="stable")
        for count in {1, int(rng.integers(1, shape[1] + 1)), shape[1]}:
            head = classify._smallest_first(key, count)
            assert np.array_equal(head, full[:, :count]), (kind, trial, count)


def _stable_order(train, queries, similarity):
    """The full (n_queries, M) stable argsort of the baseline's keys."""
    if similarity == "euclidean":
        key = ((queries[:, None, :] - train.features[None, :, :]) ** 2).sum(axis=2)
    else:
        key = -fidelity_to_rows(train.features, queries).T
    return np.argsort(key, axis=1, kind="stable")


@pytest.mark.parametrize("similarity", ["euclidean", "fidelity"])
@pytest.mark.parametrize("kind", ["random", "halves", "all equal"])
def test_neighbor_order_equals_the_stable_argsort(similarity, kind):
    # the baseline's top-k order, batched and single, against sorting every
    # row; features and queries from {0, 1/2, 1} tie heavily, and a query
    # equal to a row puts a zero key (-0.0 for fidelity) in its row
    rng = RNG(56)
    for trial in range(40):
        size, dim = int(rng.integers(1, 120)), int(rng.integers(1, 4))
        if kind == "random":
            features = rng.uniform(size=(size, dim))
            queries = rng.uniform(size=(6, dim))
        elif kind == "halves":
            features = rng.choice([0.0, 0.5, 1.0], size=(size, dim))
            queries = rng.choice([0.0, 0.5, 1.0], size=(6, dim))
        else:
            features = np.full((size, dim), 0.5)
            queries = np.vstack([np.full((3, dim), 0.5), rng.uniform(size=(3, dim))])
        queries[0] = features[-1]
        train = direct_training_set(features, rng.integers(1, 4, size=size), n_classes=3)
        full = _stable_order(train, queries, similarity)
        for count in {1, int(rng.integers(1, size + 1)), size}:
            head = classify._neighbor_order(train, queries, similarity, count)
            assert np.array_equal(head, full[:, :count]), (trial, count)
            single = classical_knn_predict(train, queries[1], count, similarity)
            assert np.array_equal(single.neighbor_indices, full[1, :count]), (trial, count)


@pytest.mark.parametrize("similarity", ["euclidean", "fidelity"])
def test_batch_predictions_match_single_queries(similarity):
    train = random_training_set(1, size=40, dim=5, n_classes=4)
    queries = RNG(2).uniform(size=(25, 5))
    batch = knn_predict_batch(train, queries, [1, 5, 9], similarity=similarity)
    for k in (1, 5, 9):
        labels, scores = batch[k]
        for idx in range(queries.shape[0]):
            single = classical_knn_predict(train, queries[idx], k, similarity=similarity)
            assert labels[idx] == single.label
            assert np.abs(scores[idx] - single.scores).max() < 1e-12


def test_scores_are_neighbor_fractions():
    train = random_training_set(3, size=30, dim=4, n_classes=3)
    pred = classical_knn_predict(train, RNG(4).uniform(size=4), k=10)
    assert pred.scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((pred.scores * 10) % 1 < 1e-9)


# ---------------------------------------------------------------------------
# quantum pipeline vs the fidelity baseline
# ---------------------------------------------------------------------------

def test_analytic_qknn_equals_fidelity_knn():
    train = random_training_set(5, size=16, dim=4, n_classes=4)
    rng = RNG(6)
    for _ in range(100):
        query = rng.uniform(size=4)
        oracle = classical_knn_predict(train, query, k=3, similarity="fidelity")
        quantum = qknn_predict(train, query, k=3, rng=rng, mode="analytic")
        assert quantum.label == oracle.label
        assert set(quantum.neighbor_indices.tolist()) == set(oracle.neighbor_indices.tolist())
        assert np.abs(quantum.scores - oracle.scores).max() < 1e-12


def test_analytic_qknn_breaks_ties_like_fidelity_knn():
    # rows 0 and 1 tie with the query; kNN takes the lower index (label 1),
    # so the search must too whichever row its random start holds
    train = direct_training_set(
        np.array([[0.2, 0.3], [0.2, 0.3], [0.9, 0.9], [0.8, 0.1]]), [1, 2, 2, 2], n_classes=2
    )
    query = np.array([0.2, 0.3])
    oracle = classical_knn_predict(train, query, k=1, similarity="fidelity")
    assert oracle.label == 1
    for seed in range(200):
        quantum = qknn_predict(train, query, k=1, rng=RNG(seed), mode="analytic")
        assert quantum.label == oracle.label, seed
        assert quantum.neighbor_indices.tolist() == [0], seed


def test_analytic_qknn_equals_fidelity_knn_on_tied_rows():
    # features on a coarse grid: many rows repeat (exact ties), and mirrored
    # rows such as [0, 0.5] and [0.5, 0] differ in fidelity by one ulp
    rng = RNG(12)
    features = rng.integers(0, 3, size=(40, 2)) / 2.0
    train = direct_training_set(features, rng.integers(1, 4, size=40), n_classes=3)
    for _ in range(60):
        query = rng.integers(0, 3, size=2) / 2.0
        k = int(rng.integers(1, 12))
        oracle = classical_knn_predict(train, query, k=k, similarity="fidelity")
        quantum = qknn_predict(train, query, k=k, rng=rng, mode="analytic")
        assert quantum.neighbor_indices.tolist() == sorted(oracle.neighbor_indices.tolist())
        assert quantum.label == oracle.label
        assert np.array_equal(quantum.scores, oracle.scores)


def test_k_equals_m_is_plain_majority():
    train = random_training_set(7, size=12, dim=3, n_classes=3)
    pred = qknn_predict(train, RNG(8).uniform(size=3), k=12, rng=RNG(9))
    assert pred.label == majority_vote(train.labels.tolist())


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_qknn_predict_rejects_a_query_of_another_length(mode):
    train = random_training_set(12, size=8, dim=3, n_classes=2)
    with pytest.raises(EncodingError, match=r"\(4,\).*\(8, 3\)"):
        qknn_predict(train, np.full(4, 0.5), k=3, rng=RNG(0), mode=mode)


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_qknn_predict_vote_equals_the_batched_vote(mode):
    for seed in range(20):
        train = random_training_set(seed, size=12, dim=3, n_classes=4)
        query = RNG(seed + 100).uniform(size=3)
        for k in (1, 2, 4, 12):
            pred = qknn_predict(train, query, k, RNG(seed), mode=mode)
            labels, scores = classify._vote(train.labels[pred.neighbor_indices][None, :], 4)
            assert pred.label == labels[0] == majority_vote(train.labels[pred.neighbor_indices])
            assert pred.scores.tobytes() == scores[0].tobytes()


def test_gate_mode_pipeline_runs_and_matches_on_clean_data():
    # widely separated similarities survive register quantization
    rng = RNG(10)
    base = np.array([0.05, 0.05, 0.05])
    far = np.array([0.95, 0.95, 0.95])
    features = np.vstack([base + rng.uniform(0, 0.02, size=(4, 3)),
                          far - rng.uniform(0, 0.02, size=(4, 3))])
    train = direct_training_set(features, [1, 1, 1, 1, 2, 2, 2, 2], n_classes=2)
    query = base + 0.01
    oracle = classical_knn_predict(train, query, k=3, similarity="fidelity")
    quantum = qknn_predict(train, query, k=3, rng=RNG(11), mode="gate")
    assert quantum.label == oracle.label == 1
    assert quantum.search_report.oracle_calls >= 0
    assert quantum.table.mode == "gate"
