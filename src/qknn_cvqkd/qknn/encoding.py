"""Amplitude encoding of feature vectors into register states.

Register layout (little-endian, lowest qubit first) is identical for the
training and query states so their overlap reduces to the feature-amplitude
overlap:

    amplitude qubit | marker qubit (|1>) | feature-index register | ...

The training state additionally carries a sample-index register below a
scratch register used by the value-loading oracle. Index kets are 1-based:
a feature-index register of width ceil(log2(U+1)) holds values 1..U.

The value-loading oracle writes the rank of ``v[j][i]`` among the distinct
feature values into the scratch register; a rank-controlled rotation then
loads sqrt(1-v^2)|0> + v|1> onto the amplitude qubit, and the inverse oracle
disentangles the scratch register again. Working with ranks instead of
fixed-point digits keeps the rotation angles exact, so the encoded state
matches the closed form to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import qsim
from ..qsim import RegisterLayout, Span, StateVector
from .dataset import TrainingSet


class EncodingError(ValueError):
    """Raised for feature values outside [0, 1]."""


def _check_unit_range(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EncodingError("empty feature vector")
    if np.min(values) < 0.0 or np.max(values) > 1.0:
        raise EncodingError("feature values must lie in [0, 1]")
    return values


def index_register_width(count: int) -> int:
    """Width needed to hold the 1-based kets |1>..|count>."""
    return max(1, math.ceil(math.log2(count + 1)))


# ---------------------------------------------------------------------------
# uniform superposition over |1>..|M> (post-selected comparator circuit)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformPrepResult:
    """Outcome of the repeat-until-success uniform-superposition circuit."""

    state: StateVector
    attempts: int
    success_probability: float
    layout: RegisterLayout


def prepare_uniform_superposition(
    count: int,
    rng: np.random.Generator,
    max_attempts: int = 256,
    cmp_method: str = "oracle",
) -> UniformPrepResult:
    """Produce (1/sqrt(M)) sum_{j=1..M} |j> by post-selection.

    Circuit: Hadamards over the index register, an all-zero-controlled NOT
    marking |0>, a comparator flagging values above M, then a measurement of
    both flags. The (0,0) outcome, which occurs with probability M/2^m,
    leaves the index register in the uniform state over 1..M; other outcomes
    are discarded and the circuit is rerun.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    m = index_register_width(count)
    layout = RegisterLayout.build(index=m, bound=m, over=1, zero=1)
    over_flag = layout["over"].offset
    zero_flag = layout["zero"].offset

    success_probability = None
    for attempt in range(1, max_attempts + 1):
        state = qsim.basis_state(layout.n_qubits, count << layout["bound"].offset)
        for q in layout["index"].qubits:
            state = qsim.apply_hadamard(state, q)
        state = qsim.apply_multi_controlled(
            state, [(q, 0) for q in layout["index"].qubits], zero_flag
        )
        state = qsim.apply_cmp(
            state, layout["index"], layout["bound"], over_flag, method=cmp_method
        )
        if success_probability is None:
            flag_probs = qsim.born_probabilities(state, (over_flag, 2))
            success_probability = float(flag_probs[0])
        outcome = qsim.measure(state, (over_flag, 2), rng)
        if outcome.bits == 0:
            collapsed = outcome.post_state
            index_amps = np.zeros(1 << m, dtype=np.complex128)
            base = count << layout["bound"].offset
            for j in range(1 << m):
                index_amps[j] = collapsed.amplitudes[base | j]
            return UniformPrepResult(
                state=StateVector(m, index_amps),
                attempts=attempt,
                success_probability=success_probability,
                layout=layout,
            )
    raise RuntimeError(
        f"post-selection failed {max_attempts} times "
        f"(success probability {success_probability:.3f})"
    )


# ---------------------------------------------------------------------------
# feature-vector states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedState:
    state: StateVector
    layout: RegisterLayout


def _rank_oracle_permutation(
    n_qubits: int,
    ranks: np.ndarray,
    index_span: Span | None,
    feature_span: Span,
    scratch_span: Span,
) -> np.ndarray:
    """Basis permutation XOR-ing rank(v[j][i]) into the scratch register.

    XOR against a function of untouched registers is an involution, so the
    same permutation implements the inverse oracle.
    """
    idx = np.arange(1 << n_qubits)
    i_vals = feature_span.value_of(idx)
    j_vals = index_span.value_of(idx) if index_span is not None else np.ones_like(idx)
    m_count, u_count = ranks.shape
    valid = (j_vals >= 1) & (j_vals <= m_count) & (i_vals >= 1) & (i_vals <= u_count)
    written = np.zeros_like(idx)
    written[valid] = ranks[j_vals[valid] - 1, i_vals[valid] - 1]
    return idx ^ (written << scratch_span.offset)


def _apply_permutation(state: StateVector, permutation: np.ndarray) -> StateVector:
    return StateVector(state.n_qubits, state.amplitudes[permutation].copy())


def _encode(features: np.ndarray, with_index: bool, strip_scratch: bool) -> EncodedState:
    """Shared construction for the training superposition and query states."""
    features = _check_unit_range(np.atleast_2d(features))
    m_count, u_count = features.shape

    values, ranks_flat = np.unique(features, return_inverse=True)
    ranks = ranks_flat.reshape(features.shape)
    scratch_width = max(1, math.ceil(math.log2(max(values.size, 2))))

    names = {"amplitude": 1, "marker": 1, "feature": index_register_width(u_count)}
    if with_index:
        names["index"] = index_register_width(m_count)
    names["scratch"] = scratch_width
    layout = RegisterLayout.build(**names)

    feature_span = layout["feature"]
    index_span = layout["index"] if with_index else None
    scratch_span = layout["scratch"]

    # superposition over the valid (j, i) kets with the marker qubit set
    amps = np.zeros(1 << layout.n_qubits, dtype=np.complex128)
    marker_bit = 1 << layout["marker"].offset
    weight = 1.0 / math.sqrt(m_count * u_count) if with_index else 1.0 / math.sqrt(u_count)
    for j in range(1, m_count + 1):
        base = (j << index_span.offset) if with_index else 0
        for i in range(1, u_count + 1):
            amps[base | (i << feature_span.offset) | marker_bit] = weight
    state = StateVector(layout.n_qubits, amps)

    permutation = _rank_oracle_permutation(
        layout.n_qubits, ranks, index_span, feature_span, scratch_span
    )
    state = _apply_permutation(state, permutation)
    scratch_controls = list(scratch_span.qubits)
    for rank, value in enumerate(values):
        pattern = [(q, (rank >> p) & 1) for p, q in enumerate(scratch_controls)]
        state = qsim.apply_multi_controlled_ry(
            state, pattern, layout["amplitude"].offset, 2.0 * math.asin(float(value))
        )
    state = _apply_permutation(state, permutation)

    if not strip_scratch:
        return EncodedState(state, layout)

    # the inverse oracle must have returned the scratch register to |0>
    scratch_probs = qsim.born_probabilities(state, scratch_span)
    if not scratch_probs[0] > 1.0 - 1e-12:
        raise qsim.StateCorruptionError("scratch register still entangled")
    kept = state.amplitudes[: 1 << scratch_span.offset].copy()
    kept /= np.linalg.norm(kept)
    stripped_layout = RegisterLayout.build(
        **{k: v for k, v in names.items() if k != "scratch"}
    )
    return EncodedState(StateVector(scratch_span.offset, kept), stripped_layout)


def prepare_training_state(train: TrainingSet | np.ndarray, strip_scratch: bool = True) -> EncodedState:
    """Superposition over all training rows: index ket j tensored with the
    amplitude-encoded feature vector of row j, uniformly weighted."""
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    return _encode(features, with_index=True, strip_scratch=strip_scratch)


def prepare_query_state(query: np.ndarray, strip_scratch: bool = True) -> EncodedState:
    """Amplitude-encoded state of one feature vector (no index register)."""
    query = np.asarray(query, dtype=float)
    if query.ndim != 1:
        raise EncodingError("query must be a single feature vector")
    return _encode(query[None, :], with_index=False, strip_scratch=strip_scratch)


def prepare_training_row_state(train: TrainingSet | np.ndarray, row: int) -> EncodedState:
    """Amplitude-encoded state of one training row (query-state layout)."""
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    return _encode(features[row][None, :], with_index=False, strip_scratch=True)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def pairwise_fidelity(train: TrainingSet | np.ndarray, query: np.ndarray, row: int) -> float:
    """|<query state | training-row state>|^2 from the closed-form overlap."""
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    return float(fidelity_to_rows(features[row][None, :], query)[0])


def fidelity_to_rows(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Closed-form fidelities between one query and many feature rows.

    The aligned encodings overlap as the mean over features of
    sqrt(1-v^2)sqrt(1-w^2) + v*w; the fidelity is its square.
    """
    rows = _check_unit_range(np.atleast_2d(rows))
    query = _check_unit_range(np.asarray(query, float))
    overlap = (
        np.sqrt(1.0 - rows**2) @ np.sqrt(1.0 - query**2) + rows @ query
    ) / rows.shape[1]
    return overlap**2


def swap_test_p_zero(state_a: StateVector, state_b: StateVector) -> float:
    """Probability of reading 0 on the control qubit of the simulated swap
    test between two equal-width states, (1 + |<a|b>|^2) / 2."""
    width = state_a.n_qubits
    system = qsim.tensor_product(state_a, state_b, qsim.new_register(1))
    out = qsim.cswap_test(system, 2 * width, (0, width), (width, width))
    return float(qsim.born_probabilities(out, (2 * width, 1))[0])


def gate_fidelity(vector_a: np.ndarray, vector_b: np.ndarray) -> float:
    """Fidelity measured by the swap-test circuit on the encoded states."""
    state_a = prepare_query_state(np.asarray(vector_a, float))
    state_b = prepare_query_state(np.asarray(vector_b, float))
    p_zero = swap_test_p_zero(state_a.state, state_b.state)
    return max(0.0, 2.0 * p_zero - 1.0)
