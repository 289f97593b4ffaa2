"""Gates against dense reference operators, and invariant checks that must
survive ``python -O``.

The reference operators are built independently of the simulator: a Kronecker
product over the qubits, most significant (highest) qubit first, of the 2x2
gate matrix, the control projectors and identities.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qknn_cvqkd import qsim
from qknn_cvqkd.qsim.statevector import _apply_controlled_2x2

PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
X = np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
RY = np.array([[math.cos(0.415), -math.sin(0.415)], [math.sin(0.415), math.cos(0.415)]])  # 0.83 about Y
PHASE = np.diag([1.0, np.exp(0.61j)])


def random_state(n_qubits: int, seed: int) -> qsim.StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return qsim.StateVector(n_qubits, amps / np.linalg.norm(amps))


def kron_operator(n_qubits: int, factors: dict) -> np.ndarray:
    """Kronecker product with ``factors[q]`` on qubit q, identity elsewhere."""
    op = np.eye(1)
    for q in range(n_qubits - 1, -1, -1):
        op = np.kron(op, factors.get(q, np.eye(2)))
    return op


def controlled_operator(n_qubits: int, matrix, target: int, controls) -> np.ndarray:
    """I - P + P (x) matrix, with P the projector onto the control pattern."""
    projected = {q: PROJECTORS[bit] for q, bit in controls}
    return (
        np.eye(1 << n_qubits)
        - kron_operator(n_qubits, projected)
        + kron_operator(n_qubits, {**projected, target: matrix})
    )


def swap_operator(n_qubits: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """sum_ij |i><j| on qubit_a (x) |j><i| on qubit_b."""
    units = [[np.outer(np.eye(2)[i], np.eye(2)[j]) for j in range(2)] for i in range(2)]
    return sum(
        kron_operator(n_qubits, {qubit_a: units[i][j], qubit_b: units[j][i]})
        for i in range(2)
        for j in range(2)
    )


def assert_matches(out: qsim.StateVector, operator: np.ndarray, state: qsim.StateVector):
    assert np.abs(out.amplitudes - operator @ state.amplitudes).max() < 1e-12


def control_patterns(n_qubits: int, target: int):
    """Each other qubit as a single control with both polarities (so below
    and above the target), plus the lowest and highest other qubit together
    with mixed polarities."""
    others = [q for q in range(n_qubits) if q != target]
    patterns = [[(q, bit)] for q in others for bit in (0, 1)]
    if len(others) >= 2:
        patterns += [[(others[0], 1), (others[-1], 0)], [(others[0], 0), (others[-1], 1)]]
    return patterns


UNCONTROLLED = [
    ("hadamard", H, lambda s, t: qsim.apply_hadamard(s, t)),
    # the shared 2x2 kernel with no controls, on the other gate matrices
    ("x", X, lambda s, t: _apply_controlled_2x2(s, X, t)),
    ("ry", RY, lambda s, t: _apply_controlled_2x2(s, RY, t)),
    ("phase", PHASE, lambda s, t: _apply_controlled_2x2(s, PHASE, t)),
]


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("name,matrix,gate", UNCONTROLLED, ids=[g[0] for g in UNCONTROLLED])
def test_single_qubit_gates_match_dense_operator(n, name, matrix, gate):
    for target in range(n):
        state = random_state(n, seed=100 * n + target)
        assert_matches(gate(state, target), kron_operator(n, {target: matrix}), state)


@pytest.mark.parametrize("n", [2, 5])
def test_multi_controlled_gates_match_dense_operator(n):
    for target in range(n):
        for controls in control_patterns(n, target):
            state = random_state(n, seed=7 * n + target)
            x_out = qsim.apply_multi_controlled(state, controls, target)
            assert_matches(x_out, controlled_operator(n, X, target, controls), state)
            # the controlled rotation of the amplitude-estimation reference
            ry_out = _apply_controlled_2x2(state, RY, target, controls)
            assert_matches(ry_out, controlled_operator(n, RY, target, controls), state)


@pytest.mark.parametrize("n", [2, 5])
def test_single_control_gates_match_dense_operator(n):
    for target in range(n):
        for control in range(n):
            if control == target:
                continue
            state = random_state(n, seed=11 * n + 3 * target + control)
            assert_matches(
                qsim.apply_controlled_not(state, control, target),
                controlled_operator(n, X, target, [(control, 1)]),
                state,
            )
            assert_matches(
                qsim.apply_controlled_not(state, control, target, inverted=True),
                controlled_operator(n, X, target, [(control, 0)]),
                state,
            )


@pytest.mark.parametrize(
    "control,span_a,span_b",
    [
        (0, (1, 2), (3, 2)),  # control below both spans
        (2, (0, 2), (3, 2)),  # control between the spans
        (4, (0, 2), (2, 2)),  # control above both spans
        (0, (3, 2), (1, 2)),  # span_a above span_b
        (2, (3, 2), (0, 2)),
        (1, (0, 1), (4, 1)),
        (3, (4, 1), (2, 1)),
    ],
)
def test_controlled_swap_span_matches_dense_operator(control, span_a, span_b):
    n = 5
    swaps = np.eye(1 << n)
    for p in range(span_a[1]):
        swaps = swap_operator(n, span_a[0] + p, span_b[0] + p) @ swaps
    on = kron_operator(n, {control: PROJECTORS[1]})
    operator = np.eye(1 << n) - on + on @ swaps
    state = random_state(n, seed=control)
    assert_matches(qsim.apply_controlled_swap_span(state, control, span_a, span_b), operator, state)


@pytest.mark.parametrize(
    "gate",
    [
        qsim.apply_multi_controlled,
        lambda s, controls, t: _apply_controlled_2x2(s, RY, t, controls),
    ],
    ids=["apply_multi_controlled", "controlled_2x2"],
)
def test_multi_controlled_rejects_duplicate_control(gate):
    with pytest.raises(ValueError, match="duplicate"):
        gate(qsim.new_register(3), [(0, 1), (0, 0)], 2)


def test_controlled_2x2_rejects_a_control_on_the_target():
    with pytest.raises(ValueError, match="overlaps"):
        _apply_controlled_2x2(qsim.new_register(3), RY, 1, [(1, 1)])


def test_born_sum_check_survives_optimize_flag():
    script = (
        "import numpy as np\n"
        "from qknn_cvqkd import qsim\n"
        "broken = qsim.StateVector(1, np.zeros(2, dtype=np.complex128))\n"
        "try:\n"
        "    qsim.born_probabilities(broken, (0, 1))\n"
        "except qsim.StateCorruptionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('zero state passed the Born-sum check')\n"
    )
    src = str(Path(qsim.__file__).resolve().parents[2])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
