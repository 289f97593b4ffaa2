"""Dense state-vector simulator for the circuits used in this package.

Design notes:
- Amplitudes are a dense complex128 array of length ``2**n_qubits``; the
  cap of 24 qubits (``DEFAULT_QUBIT_CAP``) keeps a single state under 256 MiB.
- Qubit 0 is the least significant bit of the basis index (little-endian).
- Every operation is a pure function: the input state is never mutated and a
  fresh ``StateVector`` is returned.
- Gates check norm preservation to 1e-12 instead of renormalizing, so a
  broken gate raises ``StateCorruptionError``, not silent drift, also under
  ``python -O``. Renormalization happens only at measurement collapse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .registers import Span, as_span

DEFAULT_QUBIT_CAP = 24
NORM_TOL = 1e-12

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


class ResourceError(RuntimeError):
    """Raised when a requested register exceeds the qubit cap."""


class StateCorruptionError(RuntimeError):
    """Raised when an operation meets a state that violates its invariants."""


@dataclass(frozen=True)
class StateVector:
    """Pure quantum state of ``n_qubits`` qubits as a dense amplitude array."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude array of length {self.amplitudes.shape} does not "
                f"match {self.n_qubits} qubits"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def check_span(self, span) -> Span:
        span = as_span(span)
        if span.width < 1 or span.offset < 0 or span.offset + span.width > self.n_qubits:
            raise IndexError(f"span {span} outside register of {self.n_qubits} qubits")
        return span

    def check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} outside register of {self.n_qubits} qubits")
        return qubit


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of measuring a span: observed bits, their Born probability and
    the collapsed, renormalized post-measurement state."""

    bits: int
    probability: float
    post_state: StateVector


def _wrap(state: StateVector, amplitudes: np.ndarray) -> StateVector:
    new = StateVector(state.n_qubits, amplitudes)
    drift = abs(new.norm_squared() - state.norm_squared())
    if not drift < NORM_TOL:  # also catches a NaN drift
        raise StateCorruptionError(f"gate broke normalization by {drift:.3e}")
    return new


def new_register(n_qubits: int) -> StateVector:
    """Allocate ``n_qubits`` qubits initialized to the all-zeros basis state."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > DEFAULT_QUBIT_CAP:
        raise ResourceError(
            f"{n_qubits} qubits need a 2^{n_qubits}-amplitude array "
            f"({(1 << n_qubits) * 16 / 2**30:.1f} GiB); cap is {DEFAULT_QUBIT_CAP} qubits"
        )
    amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
    amplitudes[0] = 1.0
    return StateVector(n_qubits, amplitudes)


def basis_state(n_qubits: int, value: int) -> StateVector:
    state = new_register(n_qubits)
    if not 0 <= value < state.dim:
        raise ValueError(f"basis value {value} outside {n_qubits}-qubit register")
    state.amplitudes[0] = 0.0
    state.amplitudes[value] = 1.0
    return state


def tensor_product(*states: StateVector) -> StateVector:
    """Combine states so the first argument occupies the lowest qubits."""
    amps = states[0].amplitudes
    n = states[0].n_qubits
    for s in states[1:]:
        amps = np.kron(s.amplitudes, amps)
        n += s.n_qubits
    return StateVector(n, amps)


# ---------------------------------------------------------------------------
# single-qubit and controlled gates
# ---------------------------------------------------------------------------

def _apply_controlled_2x2(
    state: StateVector, matrix: np.ndarray, target: int, controls=()
) -> StateVector:
    """Apply the 2x2 ``matrix`` to ``target`` on the basis states whose
    control qubits match ``controls``, a sequence of ``(qubit, required_bit)``
    pairs.

    The amplitudes are viewed as a ``(2,)*n`` tensor in which qubit q is axis
    n-1-q. Each control and the target are fixed with a length-1 slice, never
    an integer index, so every selection stays an array view (an integer
    index into a one-qubit register would yield a scalar).
    """
    n = state.n_qubits
    block = [slice(None)] * n
    for qubit, required in controls:
        state.check_qubit(qubit)
        if qubit == target:
            raise ValueError(f"target qubit {target} overlaps a control")
        if block[n - 1 - qubit] != slice(None):
            raise ValueError("duplicate control qubit")
        block[n - 1 - qubit] = slice(int(required), int(required) + 1)
    block[n - 1 - target] = slice(0, 1)
    zero = tuple(block)
    block[n - 1 - target] = slice(1, 2)
    one = tuple(block)
    src = state.amplitudes.reshape((2,) * n)
    amps = state.amplitudes.copy()
    out = amps.reshape((2,) * n)
    out[zero] = matrix[0, 0] * src[zero] + matrix[0, 1] * src[one]
    out[one] = matrix[1, 0] * src[zero] + matrix[1, 1] * src[one]
    return _wrap(state, amps)


def apply_hadamard(state: StateVector, target: int) -> StateVector:
    state.check_qubit(target)
    return _apply_controlled_2x2(state, _H_MATRIX, target)


def apply_multi_controlled(state: StateVector, controls, target: int) -> StateVector:
    """Flip ``target`` on basis states whose control qubits match the given
    pattern. ``controls`` is a sequence of ``(qubit, required_bit)`` pairs."""
    state.check_qubit(target)
    return _apply_controlled_2x2(state, _X_MATRIX, target, controls)


def apply_controlled_not(
    state: StateVector, control: int, target: int, inverted: bool = False
) -> StateVector:
    """CNOT, or the inverted-control variant (flips when control is |0>)."""
    if control == target:
        raise ValueError("control and target must differ")
    return apply_multi_controlled(state, [(control, 0 if inverted else 1)], target)


# ---------------------------------------------------------------------------
# comparator
# ---------------------------------------------------------------------------

def apply_cmp(
    state: StateVector,
    span_i,
    span_m,
    flag: int,
    method: str = "oracle",
) -> StateVector:
    """XOR ``[i > m]`` into ``flag``, where ``i`` and ``m`` are the integers
    held in two equal-width spans.

    ``method="oracle"`` applies the comparison as one exact permutation of
    basis states (the default; fastest). ``method="cascade"`` builds the same
    unitary from the controlled-NOT gate family, one bit pair per round from
    the most significant bit down: CNOTs fold the second span into the XOR
    ``i^m``, a combined control gate fires at the most significant differing
    bit when that bit of ``i`` is 1, and the CNOTs are undone. Both methods
    realize the identical permutation; the cascade exists so the gate-level
    construction can be checked against the arithmetic definition.
    """
    span_i = state.check_span(span_i)
    span_m = state.check_span(span_m)
    state.check_qubit(flag)
    if span_i.width != span_m.width:
        raise ValueError(f"span widths differ: {span_i.width} vs {span_m.width}")
    occupied = set(span_i.qubits) | set(span_m.qubits)
    if len(occupied) != 2 * span_i.width or flag in occupied:
        raise ValueError("comparator spans and flag must be disjoint")

    if method == "oracle":
        idx = np.arange(state.dim)
        greater = span_i.value_of(idx) > span_m.value_of(idx)
        amps = state.amplitudes.copy()
        src = idx[greater & (((idx >> flag) & 1) == 0)]
        dst = src | (1 << flag)
        amps[src], amps[dst] = amps[dst], amps[src].copy()
        return _wrap(state, amps)

    if method != "cascade":
        raise ValueError(f"unknown comparator method '{method}'")
    width = span_i.width
    out = state
    for p in range(width):
        out = apply_controlled_not(out, span_i.offset + p, span_m.offset + p)
    for p in range(width - 1, -1, -1):
        # after the CNOTs, span_m bit q holds i_q ^ m_q: the pattern below
        # matches exactly when p is the most significant differing bit
        controls = [(span_i.offset + p, 1), (span_m.offset + p, 1)]
        controls += [(span_m.offset + q, 0) for q in range(p + 1, width)]
        out = apply_multi_controlled(out, controls, flag)
    for p in range(width):
        out = apply_controlled_not(out, span_i.offset + p, span_m.offset + p)
    return out


# ---------------------------------------------------------------------------
# swap test
# ---------------------------------------------------------------------------

def apply_controlled_swap_span(
    state: StateVector, control: int, span_a, span_b
) -> StateVector:
    """SWAP the contents of two equal-width spans when ``control`` is |1>."""
    span_a = state.check_span(span_a)
    span_b = state.check_span(span_b)
    state.check_qubit(control)
    if span_a.width != span_b.width:
        raise ValueError(f"span widths differ: {span_a.width} vs {span_b.width}")
    qubits = set(span_a.qubits) | set(span_b.qubits)
    if len(qubits) != 2 * span_a.width or control in qubits:
        raise ValueError("swap spans and control must be disjoint")
    n = state.n_qubits
    axes = list(range(n))
    for qa, qb in zip(span_a.qubits, span_b.qubits):
        axes[n - 1 - qa], axes[n - 1 - qb] = n - 1 - qb, n - 1 - qa
    on = [slice(None)] * n
    on[n - 1 - control] = slice(1, 2)
    on = tuple(on)
    amps = state.amplitudes.copy()
    amps.reshape((2,) * n)[on] = state.amplitudes.reshape((2,) * n)[on].transpose(axes)
    return _wrap(state, amps)


def cswap_test(state: StateVector, control: int, span_a, span_b) -> StateVector:
    """Hadamard / controlled-SWAP / Hadamard sequence on ``control``.

    After this circuit the probability of reading 0 on the control qubit is
    (1 + |<a|b>|^2) / 2 for product inputs, i.e. it encodes the fidelity of
    the two span states.
    """
    out = apply_hadamard(state, control)
    out = apply_controlled_swap_span(out, control, span_a, span_b)
    return apply_hadamard(out, control)


# ---------------------------------------------------------------------------
# span-level diagonal and reflection operators (Grover building blocks)
# ---------------------------------------------------------------------------

def _span_view(state_amps: np.ndarray, n_qubits: int, span: Span) -> np.ndarray:
    """Reshape so axis 1 enumerates the span value: (high, 2^w, low)."""
    high = 1 << (n_qubits - span.offset - span.width)
    low = 1 << span.offset
    return state_amps.reshape(high, 1 << span.width, low)


def apply_phase_flip(state: StateVector, span, values) -> StateVector:
    """Multiply amplitudes whose span value is in ``values`` by -1."""
    span = state.check_span(span)
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= (1 << span.width)):
        raise ValueError("marked value outside span range")
    amps = state.amplitudes.copy()
    view = _span_view(amps, state.n_qubits, span)
    view[:, values, :] *= -1.0
    return _wrap(state, amps)


def apply_reflection_about_uniform(state: StateVector, span, support_size: int) -> StateVector:
    """Apply 2|u><u| - I on the span, with |u> uniform over span values
    0..support_size-1. For a full span (support 2^w) this equals the
    H^w (2|0><0|-I) H^w inversion-about-average network."""
    span = state.check_span(span)
    if not 1 <= support_size <= (1 << span.width):
        raise ValueError(f"support size {support_size} outside span range")
    amps = state.amplitudes.copy()
    view = _span_view(amps, state.n_qubits, span)
    block = view[:, :support_size, :]
    mean = block.mean(axis=1, keepdims=True)
    view[:, :support_size, :] = 2.0 * mean - block
    view[:, support_size:, :] *= -1.0
    return _wrap(state, amps)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def born_probabilities(state: StateVector, span) -> np.ndarray:
    """Exact outcome distribution of a span measurement, indexed by value."""
    span = state.check_span(span)
    view = _span_view(np.abs(state.amplitudes) ** 2, state.n_qubits, span)
    probs = view.sum(axis=(0, 2))
    total = probs.sum()
    if not abs(total - 1.0) < NORM_TOL * state.dim:
        raise StateCorruptionError(f"probabilities sum to {total}")
    return probs


def _outcome_distribution(state: StateVector, span) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities of a span measurement, renormalized by the
    state's squared norm, and their CDF, built as ``Generator.choice`` builds
    it from the same probabilities (cumulative sum over its last entry, so
    that entry is exactly 1)."""
    span = state.check_span(span)
    probs = np.abs(state.amplitudes) ** 2
    total = probs.sum()
    if not (math.isfinite(total) and total >= 1e-12):
        raise StateCorruptionError(f"measuring a state of squared norm {total}")
    outcome_probs = _span_view(probs, state.n_qubits, span).sum(axis=(0, 2)) / total
    cdf = outcome_probs.cumsum()
    cdf /= cdf[-1]
    return outcome_probs, cdf


def draw_outcome(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Born draw from an outcome CDF: the first value whose CDF exceeds one
    uniform from ``rng``. This is the arithmetic of
    ``rng.choice(n, p=probs)`` on numpy 2.x, so the drawn value and the
    generator state after the draw equal those of that call."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def measure(state: StateVector, span, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample a span measurement and collapse the state.

    The value comes from ``draw_outcome`` on the outcome CDF, which consumes
    one uniform, as ``rng.choice(n, p=probs)`` would; the kept branch is
    renormalized by its Born probability. Raises ``StateCorruptionError`` on
    a zero or non-finite state."""
    span = state.check_span(span)
    outcome_probs, cdf = _outcome_distribution(state, span)
    bits = draw_outcome(cdf, rng)
    amps = state.amplitudes.copy()
    view = _span_view(amps, state.n_qubits, span)
    keep = view[:, bits, :].copy()
    view[:, :, :] = 0.0
    view[:, bits, :] = keep / math.sqrt(outcome_probs[bits])
    post = StateVector(state.n_qubits, amps)
    return MeasurementOutcome(bits=bits, probability=float(outcome_probs[bits]), post_state=post)
