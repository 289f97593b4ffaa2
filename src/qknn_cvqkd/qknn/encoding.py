"""Amplitude encoding of feature vectors into register states.

Register layout (little-endian, lowest qubit first) is identical for the
training and query states so their overlap reduces to the feature-amplitude
overlap:

    amplitude qubit | marker qubit (|1>) | feature-index register | ...

The training state additionally carries a sample-index register on top.
Index kets are 1-based: a feature-index register of width ceil(log2(U+1))
holds values 1..U. The training state is written in closed form,

    (1/sqrt(M*U)) sum_{j=1..M} sum_{i=1..U} |j>|i>|1>(sqrt(1-v_ji^2)|0> + v_ji|1>),

and a query or single-row state is the same sum with M = 1 and no index
register. On hardware the values would be loaded by a QRAM-style oracle
(Giovannetti, Lloyd and Maccone, PRL 100, 160501, 2008) that writes the rank
of v_ji among the distinct feature values into a scratch register, a
rank-controlled RY, and the inverse oracle, which returns the scratch
register to |0>. ``prepare_training_state(strip_scratch=False)`` reserves
that register: the state is tensored with |0> on a ``scratch`` span of
ceil(log2(#distinct values)) qubits (at least one) above the data
registers, so the layout reports the width the oracle needs.

The uniform superposition over |1>..|M> is written in closed form too: its
post-selection circuit succeeds with probability M/2^m and then leaves exactly
1/sqrt(M) on each ket, so the module runs no ``qsim`` gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..qsim import RegisterLayout, StateVector
from .dataset import TrainingSet, is_positive_integer


class EncodingError(ValueError):
    """Raised for feature values outside [0, 1]."""


def _check_unit_range(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EncodingError("empty feature vector")
    if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails too
        raise EncodingError("feature values must lie in [0, 1]")
    return values


def qubits_for(values: int) -> int:
    """ceil(log2 values), at least 1: the qubits that hold ``values`` values,
    in exact integer arithmetic (``int`` first: numpy integers lack it)."""
    return max(1, int(values - 1).bit_length())


# ---------------------------------------------------------------------------
# uniform superposition over |1>..|M> (post-selected comparator circuit)
# ---------------------------------------------------------------------------

MAX_PREP_ATTEMPTS = 256


@dataclass(frozen=True)
class UniformPrepResult:
    """Outcome of the repeat-until-success uniform-superposition circuit."""

    state: StateVector
    attempts: int
    success_probability: float
    layout: RegisterLayout


def prepare_uniform_superposition(count: int, rng: np.random.Generator) -> UniformPrepResult:
    """(1/sqrt(M)) sum_{j=1..M} |j>, the post-selected output of a circuit of
    Hadamards over an m-qubit index register, a zero-controlled NOT flagging
    |0> and a comparator flagging values above M. Both flags read 0 with
    probability M/2^m, so an attempt is one uniform from ``rng`` kept below
    M/2^m, rerun otherwise; ``layout`` records the circuit's registers."""
    if not is_positive_integer(count):
        raise ValueError("count must be an integer of at least 1")
    m = qubits_for(count + 1)
    success_probability = count / (1 << m)
    for attempt in range(1, MAX_PREP_ATTEMPTS + 1):
        if rng.random() < success_probability:
            amps = np.zeros(1 << m, dtype=np.complex128)
            amps[1 : count + 1] = 1.0 / math.sqrt(count)
            return UniformPrepResult(
                state=StateVector(m, amps),
                attempts=attempt,
                success_probability=success_probability,
                layout=RegisterLayout.build(index=m, bound=m, over=1, zero=1),
            )
    raise RuntimeError(
        f"post-selection failed {MAX_PREP_ATTEMPTS} times "
        f"(success probability {success_probability:.3f})"
    )


# ---------------------------------------------------------------------------
# feature-vector states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedState:
    state: StateVector
    layout: RegisterLayout


def _encode(features: np.ndarray, with_index: bool, strip_scratch: bool) -> EncodedState:
    """Write sum_{j,i} |j>|i>|1>(sqrt(1-v^2)|0> + v|1>) / sqrt(M*U) directly.

    Without the index register the sum runs over i alone (M = 1). With
    ``strip_scratch=False`` the state carries a |0> scratch register on top,
    as wide as the value-loading oracle's rank register.
    """
    features = _check_unit_range(np.atleast_2d(features))
    m_count, u_count = features.shape

    names = {"amplitude": 1, "marker": 1, "feature": qubits_for(u_count + 1)}
    if with_index:
        names["index"] = qubits_for(m_count + 1)
    if not strip_scratch:
        names["scratch"] = qubits_for(np.unique(features).size)
    layout = RegisterLayout.build(**names)

    j, i = np.meshgrid(np.arange(1, m_count + 1), np.arange(1, u_count + 1), indexing="ij")
    kets = (i << layout["feature"].offset) | (1 << layout["marker"].offset)
    if with_index:
        kets |= j << layout["index"].offset
    weight = 1.0 / math.sqrt(features.size)
    amps = np.zeros(1 << layout.n_qubits, dtype=np.complex128)
    amps[kets] = np.sqrt(1.0 - features**2) * weight
    amps[kets | 1] = features * weight
    return EncodedState(StateVector(layout.n_qubits, amps), layout)


def prepare_training_state(train: TrainingSet | np.ndarray, strip_scratch: bool = True) -> EncodedState:
    """Superposition over all training rows: index ket j tensored with the
    amplitude-encoded feature vector of row j, uniformly weighted."""
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    return _encode(features, with_index=True, strip_scratch=strip_scratch)


def prepare_query_state(query: np.ndarray) -> EncodedState:
    """Amplitude-encoded state of one feature vector (no index register)."""
    query = np.asarray(query, dtype=float)
    if query.ndim != 1:
        raise EncodingError("query must be a single feature vector")
    return _encode(query[None, :], with_index=False, strip_scratch=True)


def prepare_training_row_state(train: TrainingSet | np.ndarray, row: int) -> EncodedState:
    """Amplitude-encoded state of one training row (query-state layout)."""
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    return _encode(features[row][None, :], with_index=False, strip_scratch=True)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def fidelity_to_rows(rows: TrainingSet | np.ndarray, query: np.ndarray) -> np.ndarray:
    """Closed-form fidelities between (M, U) feature rows and one query (U,)
    or a batch of queries (Q, U); the result is (M,) or (M, Q).

    The aligned encodings overlap as the mean over features of
    sqrt(1-v^2)sqrt(1-w^2) + v*w; the fidelity is its square. A
    ``TrainingSet`` supplies its validated features and the sqrt(1-v^2) it
    holds; bare rows are validated and sqrt(1-v^2) is computed here, with
    the same bits. A batch runs the single-query kernel one query at a time
    (a matrix product would round differently), so each column holds the
    bits of that query alone.
    """
    if isinstance(rows, TrainingSet):
        rows, complement = rows.features, rows.complement
    else:
        rows = _check_unit_range(np.atleast_2d(rows))
        complement = None
    query = _check_unit_range(np.asarray(query, float))
    if query.shape[-1:] != rows.shape[1:]:
        raise EncodingError(
            f"query of shape {query.shape} does not match rows of shape {rows.shape}"
        )
    if query.ndim == 1:
        # bare rows free sqrt(1-v^2) before the next product: holding it on
        # every query fragments the heap under many live similarity tables
        root = np.sqrt(1.0 - query**2)
        overlap = (
            (np.sqrt(1.0 - rows**2) if complement is None else complement) @ root + rows @ query
        ) / rows.shape[1]
        return overlap**2
    if complement is None:
        complement = np.sqrt(1.0 - rows**2)
    batch = np.empty((rows.shape[0], query.shape[0]))
    for j, w in enumerate(query):
        overlap = (complement @ np.sqrt(1.0 - w**2) + rows @ w) / rows.shape[1]
        batch[:, j] = overlap**2
    return batch
