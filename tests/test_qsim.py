"""Core simulator checks: gate algebra, comparator, swap test, sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qknn_cvqkd import qsim
from qknn_cvqkd.qsim.statevector import _apply_controlled_2x2

RNG = np.random.default_rng


def random_state(n_qubits: int, seed: int) -> qsim.StateVector:
    rng = RNG(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return qsim.StateVector(n_qubits, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# registers
# ---------------------------------------------------------------------------

def test_new_register_basis_state():
    assert np.allclose(qsim.new_register(1).amplitudes, [1, 0])
    st3 = qsim.new_register(3)
    assert st3.amplitudes.shape == (8,)
    assert st3.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_new_register_cap():
    # the cap is 24 qubits; the check raises before any allocation
    with pytest.raises(qsim.ResourceError, match="2\\^25"):
        qsim.new_register(qsim.DEFAULT_QUBIT_CAP + 1)


def test_register_layout_spans():
    layout = qsim.RegisterLayout.build(index=3, feature=2, flag=1)
    assert layout["index"] == qsim.Span(0, 3)
    assert layout["feature"] == qsim.Span(3, 2)
    assert layout["flag"] == qsim.Span(5, 1)
    with pytest.raises(ValueError):
        qsim.RegisterLayout(n_qubits=2).add("wide", 3)


# ---------------------------------------------------------------------------
# single-qubit gates
# ---------------------------------------------------------------------------

def test_hadamard_on_zero():
    out = qsim.apply_hadamard(qsim.new_register(1), 0)
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_hadamard_involution():
    state = random_state(4, seed=11)
    out = qsim.apply_hadamard(qsim.apply_hadamard(state, 2), 2)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_hadamard_uniform_superposition():
    out = qsim.new_register(4)
    for q in range(4):
        out = qsim.apply_hadamard(out, q)
    assert np.allclose(out.amplitudes, np.full(16, 0.25))


def test_hadamard_bad_index():
    with pytest.raises(IndexError):
        qsim.apply_hadamard(qsim.new_register(2), 2)


# ---------------------------------------------------------------------------
# controlled gates
# ---------------------------------------------------------------------------

def test_cnot_flips_target():
    # |10>: qubit 1 (control) set, qubit 0 (target) clear
    state = qsim.basis_state(2, 0b10)
    out = qsim.apply_controlled_not(state, control=1, target=0)
    assert np.allclose(out.amplitudes, qsim.basis_state(2, 0b11).amplitudes)


def test_icnot_fires_on_zero_control():
    state = qsim.basis_state(2, 0b00)
    out = qsim.apply_controlled_not(state, control=1, target=0, inverted=True)
    assert np.allclose(out.amplitudes, qsim.basis_state(2, 0b01).amplitudes)


def test_cnot_involution():
    state = random_state(3, seed=5)
    out = qsim.apply_controlled_not(qsim.apply_controlled_not(state, 0, 2), 0, 2)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_cnot_rejects_equal_wires():
    with pytest.raises(ValueError):
        qsim.apply_controlled_not(qsim.new_register(2), 1, 1)


def test_multi_controlled_pattern():
    # controls (q3,q2,q1) must read (1,0,0) for the flip of q0 to fire
    controls = [(3, 1), (2, 0), (1, 0)]
    hit = qsim.apply_multi_controlled(qsim.basis_state(4, 0b1000), controls, target=0)
    assert np.allclose(hit.amplitudes, qsim.basis_state(4, 0b1001).amplitudes)
    miss = qsim.apply_multi_controlled(qsim.basis_state(4, 0b1100), controls, target=0)
    assert np.allclose(miss.amplitudes, qsim.basis_state(4, 0b1100).amplitudes)


def test_multi_controlled_linearity_matches_per_basis_action():
    controls = [(0, 1), (3, 0)]
    state = random_state(4, seed=7)
    out = qsim.apply_multi_controlled(state, controls, target=2)
    # independent oracle: apply the gate to each basis state separately
    expected = np.zeros(16, dtype=complex)
    for b in range(16):
        image = qsim.apply_multi_controlled(qsim.basis_state(4, b), controls, target=2)
        expected += state.amplitudes[b] * image.amplitudes
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_multi_controlled_rejects_overlap():
    with pytest.raises(ValueError):
        qsim.apply_multi_controlled(qsim.new_register(3), [(1, 1)], target=1)


# ---------------------------------------------------------------------------
# comparator
# ---------------------------------------------------------------------------

def _cmp_case(i: int, m: int, width: int, method="oracle"):
    n = 2 * width + 1
    value = (m << width) | i  # span_i at offset 0, span_m at offset width
    state = qsim.basis_state(n, value)
    out = qsim.apply_cmp(state, (0, width), (width, width), flag=2 * width, method=method)
    winner = int(np.argmax(np.abs(out.amplitudes)))
    return (winner >> (2 * width)) & 1


def test_cmp_basic_relations():
    assert _cmp_case(3, 5, 3) == 0  # i <= M leaves the flag clear
    assert _cmp_case(6, 5, 3) == 1  # 6 > 5 sets it


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_cmp_oracle_exhaustive(width):
    for i in range(1 << width):
        for m in range(1 << width):
            assert _cmp_case(i, m, width) == (1 if i > m else 0), (i, m)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_cmp_cascade_matches_oracle_exhaustive(width):
    for i in range(1 << width):
        for m in range(1 << width):
            assert _cmp_case(i, m, width, method="cascade") == (1 if i > m else 0), (i, m)


def test_cmp_cascade_equals_oracle_on_superpositions():
    width = 3
    state = random_state(2 * width + 1, seed=3)
    a = qsim.apply_cmp(state, (0, width), (width, width), flag=2 * width, method="oracle")
    b = qsim.apply_cmp(state, (0, width), (width, width), flag=2 * width, method="cascade")
    assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12


def test_cmp_width_mismatch():
    with pytest.raises(ValueError):
        qsim.apply_cmp(qsim.new_register(4), (0, 2), (2, 1), flag=3)


# ---------------------------------------------------------------------------
# swap test
# ---------------------------------------------------------------------------

def _swap_test_p0(a: np.ndarray, b: np.ndarray) -> float:
    w = int(math.log2(a.size))
    sa = qsim.StateVector(w, np.asarray(a, dtype=np.complex128))
    sb = qsim.StateVector(w, np.asarray(b, dtype=np.complex128))
    control = qsim.new_register(1)
    system = qsim.tensor_product(sa, sb, control)
    out = qsim.cswap_test(system, control=2 * w, span_a=(0, w), span_b=(w, w))
    return float(qsim.born_probabilities(out, (2 * w, 1))[0])


def test_swap_test_identical_states():
    state = random_state(2, seed=21).amplitudes
    assert _swap_test_p0(state, state) == pytest.approx(1.0, abs=1e-12)


def test_swap_test_orthogonal_states():
    a = np.array([1, 0, 0, 0], dtype=complex)
    b = np.array([0, 0, 1, 0], dtype=complex)
    assert _swap_test_p0(a, b) == pytest.approx(0.5, abs=1e-12)


def test_swap_test_random_pairs_encode_fidelity():
    rng = RNG(2024)
    for _ in range(50):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        fidelity = abs(np.vdot(a, b)) ** 2
        assert abs(_swap_test_p0(a, b) - (1 + fidelity) / 2) < 1e-10


def test_swap_test_span_mismatch():
    with pytest.raises(ValueError):
        qsim.cswap_test(qsim.new_register(4), control=3, span_a=(0, 2), span_b=(2, 1))


# ---------------------------------------------------------------------------
# measurement and probabilities
# ---------------------------------------------------------------------------

def test_measure_deterministic_state():
    out = qsim.measure(qsim.basis_state(1, 1), (0, 1), RNG(0))
    assert out.bits == 1
    assert out.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_seed_reproducible():
    def sequence(seed):
        rng = RNG(seed)
        state = qsim.new_register(2)
        for q in range(2):
            state = qsim.apply_hadamard(state, q)
        return [qsim.measure(state, (0, 2), rng).bits for _ in range(32)]

    assert sequence(99) == sequence(99)
    assert sequence(99) != sequence(100)  # astronomically unlikely to collide


def test_measure_collapses_and_renormalizes():
    state = random_state(3, seed=23)
    out = qsim.measure(state, (1, 2), RNG(1))
    post = out.post_state
    assert post.norm_squared() == pytest.approx(1.0, abs=1e-12)
    probs = qsim.born_probabilities(post, (1, 2))
    assert probs[out.bits] == pytest.approx(1.0, abs=1e-12)


def test_measure_empirical_frequencies():
    state = random_state(2, seed=29)
    probs = qsim.born_probabilities(state, (0, 2))
    rng = RNG(7)
    shots = 100_000
    counts = np.zeros(4)
    # sampling the same state repeatedly; measure() draws from the exact Born law
    for _ in range(shots):
        counts[qsim.measure(state, (0, 2), rng).bits] += 1
    for v in range(4):
        sigma = math.sqrt(shots * probs[v] * (1 - probs[v]))
        assert abs(counts[v] - shots * probs[v]) < 4 * sigma


def test_measure_rejects_zero_state():
    broken = qsim.StateVector(1, np.zeros(2, dtype=np.complex128))
    with pytest.raises(qsim.StateCorruptionError):
        qsim.measure(broken, (0, 1), RNG(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_measurement_rejects_non_finite_state(bad):
    # a NaN or infinite total would reach the CDF search as NaN and return
    # an index silently
    amps = random_state(3, seed=31).amplitudes.copy()
    amps[5] = bad
    broken = qsim.StateVector(3, amps)
    with pytest.raises(qsim.StateCorruptionError):
        qsim.measure(broken, (1, 2), RNG(0))


def _choice_probabilities(state: qsim.StateVector, span) -> np.ndarray:
    """Span outcome probabilities formed as the measurement that sampled
    through ``rng.choice`` formed them."""
    span = qsim.as_span(span)
    probs = np.abs(state.amplitudes) ** 2
    total = probs.sum()
    high = 1 << (state.n_qubits - span.offset - span.width)
    view = probs.reshape(high, 1 << span.width, 1 << span.offset)
    return view.sum(axis=(0, 2)) / total


def test_cdf_draw_repeats_rng_choice_on_random_distributions():
    # 10,000 distributions over 2..64 outcomes, with zero and very skewed
    # probabilities: the same value and generator state as rng.choice(n, p=p)
    draws = RNG(2024)
    for case in range(10_000):
        n_qubits = int(draws.integers(1, 7))
        width = int(draws.integers(1, n_qubits + 1))
        span = (int(draws.integers(0, n_qubits - width + 1)), width)
        dim = 1 << n_qubits
        magnitudes = draws.uniform(size=dim)
        if case % 3 == 1:
            magnitudes[draws.uniform(size=dim) < 0.5] = 0.0
            magnitudes[draws.integers(0, dim)] = 1.0
        elif case % 3 == 2:
            magnitudes = 10.0 ** draws.uniform(-9.0, 0.0, size=dim)
        amps = magnitudes * np.exp(2j * np.pi * draws.uniform(size=dim))
        state = qsim.StateVector(n_qubits, amps / np.linalg.norm(amps))
        p = _choice_probabilities(state, span)
        reference, measured = RNG(case), RNG(case)
        expected = int(reference.choice(p.size, p=p))
        assert qsim.measure(state, span, measured).bits == expected, case
        assert measured.bit_generator.state == reference.bit_generator.state, case


def test_cdf_draw_on_a_cdf_entry_takes_the_next_value_as_rng_choice():
    # p = [u, 1 - u] for the generator's own next uniform u is exact, so the
    # uniform lands on the first CDF entry
    for seed in range(100):
        u = RNG(seed).random()
        assert RNG(seed).choice(2, p=[u, 1.0 - u]) == 1
        assert qsim.draw_outcome(np.array([u, 1.0]), RNG(seed)) == 1


def test_born_probabilities_basis_state():
    probs = qsim.born_probabilities(qsim.new_register(1), (0, 1))
    assert np.allclose(probs, [1.0, 0.0])


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_born_probabilities_sum_to_one(seed):
    state = random_state(4, seed=seed)
    for span in [(0, 4), (1, 2), (3, 1)]:
        assert qsim.born_probabilities(state, span).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# global invariants: norm preservation and exact inverses
# ---------------------------------------------------------------------------

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def phase(angle: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * angle)])


GATE_PAIRS = [
    ("hadamard", lambda s: qsim.apply_hadamard(s, 1), lambda s: qsim.apply_hadamard(s, 1)),
    # the shared 2x2 kernel, uncontrolled and controlled, with matrix inverses
    ("x", lambda s: _apply_controlled_2x2(s, X, 0), lambda s: _apply_controlled_2x2(s, X, 0)),
    (
        "ry",
        lambda s: _apply_controlled_2x2(s, ry(0.7361), 2),
        lambda s: _apply_controlled_2x2(s, ry(-0.7361), 2),
    ),
    (
        "phase",
        lambda s: _apply_controlled_2x2(s, phase(1.234), 3),
        lambda s: _apply_controlled_2x2(s, phase(-1.234), 3),
    ),
    (
        "controlled_ry",
        lambda s: _apply_controlled_2x2(s, ry(0.4), 3, [(1, 1)]),
        lambda s: _apply_controlled_2x2(s, ry(-0.4), 3, [(1, 1)]),
    ),
    (
        "controlled_phase",
        lambda s: _apply_controlled_2x2(s, phase(0.9), 4, [(2, 1)]),
        lambda s: _apply_controlled_2x2(s, phase(-0.9), 4, [(2, 1)]),
    ),
    (
        "cnot",
        lambda s: qsim.apply_controlled_not(s, 0, 4),
        lambda s: qsim.apply_controlled_not(s, 0, 4),
    ),
    (
        "multi_controlled",
        lambda s: qsim.apply_multi_controlled(s, [(0, 1), (1, 0)], 4),
        lambda s: qsim.apply_multi_controlled(s, [(0, 1), (1, 0)], 4),
    ),
    (
        "cmp",
        lambda s: qsim.apply_cmp(s, (0, 2), (2, 2), 4),
        lambda s: qsim.apply_cmp(s, (0, 2), (2, 2), 4),
    ),
    (
        "cswap_span",
        lambda s: qsim.apply_controlled_swap_span(s, 4, (0, 2), (2, 2)),
        lambda s: qsim.apply_controlled_swap_span(s, 4, (0, 2), (2, 2)),
    ),
    (
        "phase_flip",
        lambda s: qsim.apply_phase_flip(s, (0, 3), [1, 5]),
        lambda s: qsim.apply_phase_flip(s, (0, 3), [1, 5]),
    ),
    (
        "reflection",
        lambda s: qsim.apply_reflection_about_uniform(s, (0, 3), 5),
        lambda s: qsim.apply_reflection_about_uniform(s, (0, 3), 5),
    ),
]


@pytest.mark.parametrize("name,gate,inverse", GATE_PAIRS, ids=[g[0] for g in GATE_PAIRS])
def test_gate_preserves_norm_and_inverts(name, gate, inverse):
    state = random_state(5, seed=hash(name) % 2**31)
    out = gate(state)
    assert abs(out.norm_squared() - 1.0) < 1e-12
    back = inverse(out)
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_hadamard_norm_property(seed, qubit):
    state = random_state(5, seed=seed)
    out = qsim.apply_hadamard(state, qubit)
    assert abs(out.norm_squared() - 1.0) < 1e-12


def test_operations_do_not_mutate_input():
    state = random_state(3, seed=41)
    before = state.amplitudes.copy()
    qsim.apply_hadamard(state, 0)
    qsim.apply_cmp(state, (0, 1), (1, 1), 2)
    qsim.measure(state, (0, 3), RNG(0))
    assert np.array_equal(state.amplitudes, before)


def test_reduced_density_matrix_purity():
    a = random_state(2, seed=43)
    b = random_state(2, seed=44)
    product = qsim.tensor_product(a, b)
    view = product.amplitudes.reshape(4, 4)  # (qubits 2-3, qubits 0-1)
    rho = view.T @ view.conj()  # partial trace onto qubits 0-1
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(1.0, abs=1e-12)
    # a Bell pair is maximally mixed on either side
    bell = qsim.StateVector(2, np.array([1, 0, 0, 1], dtype=np.complex128) / math.sqrt(2))
    view = bell.amplitudes.reshape(2, 2)
    rho = view.T @ view.conj()
    assert np.trace(rho @ rho).real == pytest.approx(0.5, abs=1e-12)
