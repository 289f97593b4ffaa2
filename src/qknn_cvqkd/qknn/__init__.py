"""Quantum k-nearest-neighbor classifier and its classical baseline."""
from .classify import (
    KnnPrediction,
    QknnPrediction,
    classical_knn_predict,
    knn_predict_batch,
    majority_vote,
    qknn_predict,
)
from .dataset import FeatureScaler, TrainingSet
from .encoding import (
    EncodingError,
    UniformPrepResult,
    fidelity_to_rows,
    prepare_query_state,
    prepare_training_row_state,
    prepare_training_state,
    prepare_uniform_superposition,
    qubits_for,
)
from .search import (
    GroverRunReport,
    KMaximalReport,
    NeighborSet,
    SearchExhaustedError,
    k_maximal_find,
)
from .similarity import (
    AmplitudeEstimate,
    SimilarityTable,
    amplitude_estimate,
    compute_similarity_table,
    estimation_error_bound,
    required_iterations,
    swap_test_probability,
)

__all__ = [
    "AmplitudeEstimate",
    "EncodingError",
    "FeatureScaler",
    "GroverRunReport",
    "KMaximalReport",
    "KnnPrediction",
    "NeighborSet",
    "QknnPrediction",
    "SearchExhaustedError",
    "SimilarityTable",
    "TrainingSet",
    "UniformPrepResult",
    "amplitude_estimate",
    "classical_knn_predict",
    "compute_similarity_table",
    "estimation_error_bound",
    "fidelity_to_rows",
    "k_maximal_find",
    "knn_predict_batch",
    "majority_vote",
    "prepare_query_state",
    "prepare_training_row_state",
    "prepare_training_state",
    "prepare_uniform_superposition",
    "qknn_predict",
    "qubits_for",
    "required_iterations",
    "swap_test_probability",
]
