"""Similarity tables: swap-test probabilities, their amplitude estimates,
and the integer similarity register values the search stage consumes.

Two execution modes share one contract:

- ``analytic`` uses the closed-form fidelity and exact swap-test
  probabilities. Ranking uses the continuous similarity value, so ordering
  is exact; the quantized register value is still reported.
- ``gate`` measures each swap-test probability from the simulated circuit
  and runs gate-level amplitude estimation on it. Ranking uses the integer
  register contents, as the search hardware would.

Amplitude estimation simulates phase estimation of the amplification
operator. That operator acts as a plane rotation by twice the encoded angle
on the span of the good and bad components (its two eigenphases), which lets
the circuit carry the full counting register while the rotated pair is held
as one qubit; the simulated circuit is exactly equivalent to phase-estimating
the amplification operator on the complete swap-test system. The returned
estimate is the modal measurement outcome, which keeps the estimator
deterministic and always inside the stated error bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import qsim
from ..qsim import RegisterLayout, StateVector
from .dataset import TrainingSet
from .encoding import (
    fidelity_to_rows,
    index_register_width,
    prepare_query_state,
    prepare_training_row_state,
    swap_test_p_zero,
)


def swap_test_probability(fidelity) -> np.ndarray | float:
    """Probability of reading 0 on the swap-test control qubit."""
    return (1.0 + np.asarray(fidelity)) / 2.0


def required_iterations(delta: float) -> int:
    """Smallest operator-iteration count meeting an estimation error of
    ``delta``: ceil(pi*(pi+1)/delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(math.pi * (math.pi + 1.0) / delta)


def estimation_error_bound(iterations: int) -> float:
    """Guaranteed |a - estimate| bound: pi/R + pi^2/R^2."""
    return math.pi / iterations + (math.pi / iterations) ** 2


@dataclass(frozen=True)
class AmplitudeEstimate:
    estimate: float
    register_value: int
    grid_size: int
    iterations_requested: int
    distribution: np.ndarray = field(repr=False)


def amplitude_estimate(
    amplitude: float, iterations: int, m_bits: int | None = None
) -> AmplitudeEstimate:
    """Gate-level phase estimation of a good-subspace probability.

    The counting register holds ``m_bits`` qubits (default: enough for a
    grid at least as fine as ``iterations``); Hadamards, the controlled
    powers of the amplification rotation, and the inverse Fourier transform
    produce the outcome distribution, whose mode sigma yields the estimate
    sin^2(pi*sigma/grid).
    """
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must lie in [0, 1], got {amplitude}")
    if iterations < 1:
        raise ValueError("need at least one operator iteration")
    if m_bits is None:
        m_bits = max(1, math.ceil(math.log2(iterations)))
    grid = 1 << m_bits

    theta = math.asin(math.sqrt(amplitude))
    state = qsim.new_register(m_bits + 1)
    state = qsim.apply_ry(state, 0, 2.0 * theta)  # |gamma> in the rotation plane
    for t in range(m_bits):
        state = qsim.apply_hadamard(state, 1 + t)
    for t in range(m_bits):
        # controlled Q^(2^t); Q rotates the plane by 2*theta
        state = qsim.apply_controlled_ry(state, 1 + t, 0, 4.0 * theta * (1 << t))
    state = qsim.apply_iqft(state, (1, m_bits))

    distribution = qsim.born_probabilities(state, (1, m_bits))
    sigma = int(np.argmax(distribution))
    estimate = math.sin(math.pi * sigma / grid) ** 2
    return AmplitudeEstimate(
        estimate=estimate,
        register_value=sigma,
        grid_size=grid,
        iterations_requested=iterations,
        distribution=distribution,
    )


@dataclass(frozen=True)
class SimilarityTable:
    """Per-training-row similarity record bridging the quantum and classical
    stages. ``ranking_value`` is what the k-maximal search compares:
    the continuous similarity in analytic mode, the integer register value
    in gate mode."""

    fidelity: np.ndarray
    ideal_p_zero: np.ndarray
    estimated_p_zero: np.ndarray
    sim_continuous: np.ndarray
    sim_register: np.ndarray
    register_width: int
    mode: str

    @property
    def size(self) -> int:
        return self.fidelity.size

    @property
    def ranking_value(self) -> np.ndarray:
        return self.sim_continuous if self.mode == "analytic" else self.sim_register


def compute_similarity_table(
    train: TrainingSet | np.ndarray,
    query: np.ndarray,
    mode: str = "analytic",
    delta: float = 0.1,
    iterations: int | None = None,
    m_bits: int | None = None,
) -> SimilarityTable:
    """Build the similarity record of one query against every training row."""
    if mode not in ("analytic", "gate"):
        raise ValueError(f"unknown mode '{mode}'")
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    query = np.asarray(query, dtype=float)
    count = features.shape[0]
    if iterations is None:
        iterations = required_iterations(delta)

    fidelity = fidelity_to_rows(features, query)
    ideal_p_zero = swap_test_probability(fidelity)

    if mode == "analytic":
        estimated = ideal_p_zero.copy()
    else:
        estimated = np.empty(count)
        query_state = prepare_query_state(query).state
        for j in range(count):
            row_state = prepare_training_row_state(features, j).state
            measured_p = swap_test_p_zero(query_state, row_state)
            estimated[j] = amplitude_estimate(measured_p, iterations, m_bits).estimate

    sim_continuous = (count / math.pi) * np.arcsin(np.sqrt(np.clip(estimated, 0.0, 1.0)))
    sim_register = np.minimum(np.floor(sim_continuous).astype(int), count - 1)
    return SimilarityTable(
        fidelity=fidelity,
        ideal_p_zero=ideal_p_zero,
        estimated_p_zero=estimated,
        sim_continuous=sim_continuous,
        sim_register=sim_register,
        register_width=max(1, math.ceil(math.log2(max(count, 2)))),
        mode=mode,
    )


@dataclass(frozen=True)
class SimilarityState:
    """Index-register superposition carrying every swap-test amplitude."""

    state: StateVector
    layout: RegisterLayout
    p_zero: np.ndarray


def similarity_superposition(
    train: TrainingSet | np.ndarray, query: np.ndarray, mode: str = "gate"
) -> SimilarityState:
    """State (1/sqrt(M)) sum_j |j>(sqrt(P_j(0))|0> + sqrt(1-P_j(0))|1>).

    In gate mode every P_j(0) is read off its own simulated swap test; in
    analytic mode the closed form is used. Index kets are 1-based.
    """
    features = train.features if isinstance(train, TrainingSet) else np.asarray(train, float)
    query = np.asarray(query, dtype=float)
    count = features.shape[0]

    if mode == "gate":
        query_state = prepare_query_state(query).state
        p_zero = np.array([
            swap_test_p_zero(query_state, prepare_training_row_state(features, j).state)
            for j in range(count)
        ])
    elif mode == "analytic":
        p_zero = np.asarray(swap_test_probability(fidelity_to_rows(features, query)))
    else:
        raise ValueError(f"unknown mode '{mode}'")

    p_zero = np.clip(p_zero, 0.0, 1.0)
    layout = RegisterLayout.build(similarity=1, index=index_register_width(count))
    amps = np.zeros(1 << layout.n_qubits, dtype=np.complex128)
    index_offset = layout["index"].offset
    for j in range(1, count + 1):
        amps[(j << index_offset) | 0] = math.sqrt(p_zero[j - 1] / count)
        amps[(j << index_offset) | 1] = math.sqrt((1.0 - p_zero[j - 1]) / count)
    amps /= np.linalg.norm(amps)
    return SimilarityState(StateVector(layout.n_qubits, amps), layout, p_zero)
