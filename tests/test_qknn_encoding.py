"""State-preparation checks: uniform superposition, amplitude encoding,
closed-form fidelities."""
import math

import numpy as np
import pytest

from qknn_cvqkd import qsim
from qknn_cvqkd.qknn import (
    fidelity_to_rows,
    prepare_query_state,
    prepare_training_row_state,
    prepare_training_state,
    prepare_uniform_superposition,
    qubits_for,
)
from qknn_cvqkd.qknn.encoding import EncodingError

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# uniform superposition over |1>..|M>
# ---------------------------------------------------------------------------

def reference_uniform_prep(count: int, seeds, cmp_method: str = "oracle"):
    """The gate-level circuit that the closed form stands for: |count> in a
    bound register, Hadamards over the index register, an all-zero-controlled
    NOT marking |0>, a comparator flagging values above the bound, then the
    flag measurement repeated until both flags read 0. The circuit is built
    once; per seed, (attempts, index-register amplitudes). Also returns the
    Born probability of the (0, 0) outcome."""
    m = qubits_for(count + 1)
    layout = qsim.RegisterLayout.build(index=m, bound=m, over=1, zero=1)
    flags = (layout["over"].offset, 2)
    base = count << layout["bound"].offset
    state = qsim.basis_state(layout.n_qubits, base)
    for q in layout["index"].qubits:
        state = qsim.apply_hadamard(state, q)
    state = qsim.apply_multi_controlled(
        state, [(q, 0) for q in layout["index"].qubits], layout["zero"].offset
    )
    state = qsim.apply_cmp(
        state, layout["index"], layout["bound"], layout["over"].offset, method=cmp_method
    )
    runs = []
    for seed in seeds:
        rng = RNG(seed)
        for attempt in range(1, 257):
            outcome = qsim.measure(state, flags, rng)
            if outcome.bits == 0:
                runs.append((attempt, outcome.post_state.amplitudes[base : base + (1 << m)]))
                break
    return runs, float(qsim.born_probabilities(state, flags)[0])


def test_uniform_prep_m4():
    result = prepare_uniform_superposition(4, RNG(0))
    amps = result.state.amplitudes
    assert amps.shape == (8,)  # ceil(log2(5)) = 3 qubits
    expected = np.zeros(8)
    expected[1:5] = 0.5
    assert np.abs(amps - expected).max() < 1e-12
    assert result.success_probability == 4 / 8
    assert result.layout.n_qubits == 8  # index, bound, and the two flags


# per-seed (0..19) attempts as the circuit measured them, and the closed-form
# amplitude 1/sqrt(M); the circuit's own bits differ in the last place
# (0.5773502691896257, 0.4472135954999578 and 0.24999999999999992)
UNIFORM_PREP_ATTEMPTS = {
    3: [1, 1, 1, 1, 2, 3, 1, 1, 1, 2, 2, 1, 1, 4, 2, 1, 1, 2, 1, 1],
    5: [2, 1, 1, 1, 2, 3, 1, 4, 1, 2, 2, 1, 1, 4, 2, 3, 1, 2, 1, 1],
    16: [2, 3, 1, 1, 4, 4, 2, 4, 1, 2, 2, 1, 1, 4, 2, 3, 2, 2, 1, 1],
}
UNIFORM_PREP_AMPLITUDE = {3: 0.5773502691896258, 5: 0.4472135954999579, 16: 0.25}


@pytest.mark.parametrize("count", sorted(UNIFORM_PREP_ATTEMPTS))
def test_uniform_prep_attempts_and_state_per_seed(count):
    expected = np.zeros(1 << qubits_for(count + 1), dtype=complex)
    expected[1 : count + 1] = UNIFORM_PREP_AMPLITUDE[count]
    for seed, attempts in enumerate(UNIFORM_PREP_ATTEMPTS[count]):
        result = prepare_uniform_superposition(count, RNG(seed))
        assert result.attempts == attempts, seed
        assert np.array_equal(result.state.amplitudes, expected), seed


def test_uniform_prep_matches_the_reference_circuit_seed_by_seed():
    # one uniform per attempt, kept below M/2^m: the draw the flag
    # measurement makes, so the attempts and the generator state agree
    seeds = range(200)
    for count in range(1, 41):
        runs, success_probability = reference_uniform_prep(count, seeds)
        result = prepare_uniform_superposition(count, RNG(0))
        assert result.success_probability == pytest.approx(success_probability, abs=1e-15)
        for seed, (attempts, amplitudes) in zip(seeds, runs):
            rng = RNG(seed)
            result = prepare_uniform_superposition(count, rng)
            assert result.attempts == attempts, (count, seed)
            assert np.abs(result.state.amplitudes - amplitudes).max() <= 1e-15, (count, seed)
            assert rng.random() == RNG(seed).random(size=attempts + 1)[-1], (count, seed)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_uniform_prep_full_range_success_probability(m):
    count = (1 << m) - 1
    result = prepare_uniform_superposition(count, RNG(1))
    assert result.success_probability == count / (1 << m)
    expected = np.zeros(1 << m)
    expected[1:] = 1.0 / math.sqrt(count)
    assert np.abs(result.state.amplitudes - expected).max() < 1e-12


def test_uniform_prep_single_item():
    result = prepare_uniform_superposition(1, RNG(2))
    assert np.abs(result.state.amplitudes - np.array([0.0, 1.0])).max() < 1e-12
    assert result.success_probability == 0.5


def test_uniform_prep_attempts_are_recorded():
    # with success probability 1/2, some seed needs more than one attempt
    attempts = {prepare_uniform_superposition(1, RNG(seed)).attempts for seed in range(12)}
    assert 1 in attempts and max(attempts) > 1


def test_uniform_prep_cascade_comparator_agrees():
    # the reference circuit gives the same attempts and state with either
    # comparator, and the closed form matches both
    for count in (1, 5, 12):
        oracle, _ = reference_uniform_prep(count, range(5), cmp_method="oracle")
        cascade, _ = reference_uniform_prep(count, range(5), cmp_method="cascade")
        for seed, ((a, state_a), (b, state_b)) in enumerate(zip(oracle, cascade)):
            closed = prepare_uniform_superposition(count, RNG(seed))
            assert a == b == closed.attempts, (count, seed)
            assert np.abs(state_a - state_b).max() < 1e-15, (count, seed)
            assert np.abs(state_b - closed.state.amplitudes).max() <= 1e-15, (count, seed)


@pytest.mark.parametrize("count", [0, -2, 2.5, 3.0, True, False, "4", None])
def test_uniform_prep_rejects_a_count_that_is_not_a_positive_integer(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        prepare_uniform_superposition(count, RNG(0))


def test_uniform_prep_accepts_a_numpy_integer_count():
    result = prepare_uniform_superposition(np.int64(5), RNG(3))
    assert result.attempts == prepare_uniform_superposition(5, RNG(3)).attempts


# ---------------------------------------------------------------------------
# training / query encodings
# ---------------------------------------------------------------------------

def _expected_training_amplitudes(features: np.ndarray) -> np.ndarray:
    """Independent expansion of the target superposition, term by term."""
    m_count, u_count = features.shape
    u_width = max(1, math.ceil(math.log2(u_count + 1)))
    m_width = max(1, math.ceil(math.log2(m_count + 1)))
    amps = np.zeros(1 << (2 + u_width + m_width), dtype=complex)
    for j in range(1, m_count + 1):
        for i in range(1, u_count + 1):
            v = features[j - 1, i - 1]
            base = (j << (2 + u_width)) | (i << 2) | 0b10  # marker qubit set
            amps[base] += math.sqrt(1.0 - v * v) / math.sqrt(m_count * u_count)
            amps[base | 1] += v / math.sqrt(m_count * u_count)
    return amps


def test_training_state_single_sample_unit_value():
    encoded = prepare_training_state(np.array([[1.0]]))
    expected = _expected_training_amplitudes(np.array([[1.0]]))
    assert np.abs(encoded.state.amplitudes - expected).max() < 1e-10


def test_training_state_two_by_two_matches_term_expansion():
    features = np.array([[0.0, 1.0], [1.0, 0.0]])
    encoded = prepare_training_state(features)
    expected = _expected_training_amplitudes(features)
    assert np.abs(encoded.state.amplitudes - expected).max() < 1e-10


def test_training_state_random_matches_term_expansion():
    features = RNG(5).uniform(size=(3, 2))
    encoded = prepare_training_state(features)
    expected = _expected_training_amplitudes(features)
    assert np.abs(encoded.state.amplitudes - expected).max() < 1e-10


def _repeated_and_extreme_rows() -> np.ndarray:
    features = RNG(10).choice([0.0, 0.25, 0.6, 1.0], size=(9, 5))
    features[0] = 0.0
    features[1] = 1.0
    return features


@pytest.mark.parametrize(
    "features",
    [
        RNG(11).uniform(size=(64, 4)),
        RNG(12).uniform(size=(200, 7)),
        _repeated_and_extreme_rows(),
    ],
    ids=["64x4", "200x7", "repeated-and-extreme"],
)
def test_training_state_matches_term_expansion_at_scale(features):
    encoded = prepare_training_state(features)
    expected = _expected_training_amplitudes(features)
    assert np.abs(encoded.state.amplitudes - expected).max() < 1e-10


def test_training_row_state_equals_query_state_of_that_row():
    features = _repeated_and_extreme_rows()
    for j in range(features.shape[0]):
        row = prepare_training_row_state(features, j)
        query = prepare_query_state(features[j])
        assert np.array_equal(row.state.amplitudes, query.state.amplitudes)
        assert row.layout == query.layout


@pytest.mark.parametrize(
    "values, width",
    [([0.3], 1), ([0.1, 0.9], 1), ([0.0, 0.5, 1.0], 2), ([0.1] + [0.2] * 3 + [0.4, 0.5, 0.6, 0.7, 0.8], 3)],
)
def test_unstripped_scratch_width_counts_distinct_values(values, width):
    features = np.array([values])
    full = prepare_training_state(features, strip_scratch=False)
    stripped = prepare_training_state(features)
    scratch = full.layout["scratch"]
    assert scratch.width == width and scratch.offset == stripped.state.n_qubits
    assert np.array_equal(full.state.amplitudes[: 1 << scratch.offset], stripped.state.amplitudes)


def test_training_state_scratch_register_disentangled():
    features = RNG(6).uniform(size=(2, 2))
    full = prepare_training_state(features, strip_scratch=False)
    scratch = full.layout["scratch"]
    # scratch register reads |0> with certainty ...
    probs = qsim.born_probabilities(full.state, scratch)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    # ... and the data registers are left pure
    data_width = scratch.offset
    view = full.state.amplitudes.reshape(-1, 1 << data_width)  # (scratch, data)
    rho = view.T @ view.conj()  # partial trace onto the data registers
    purity = float(np.trace(rho @ rho).real)
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_query_state_all_zeros_keeps_amplitude_qubit_clear():
    encoded = prepare_query_state(np.zeros(3))
    amps = encoded.state.amplitudes
    idx = np.arange(amps.size)
    assert np.abs(amps[(idx & 1) == 1]).max() == 0.0


def test_query_state_all_ones_sets_amplitude_qubit():
    encoded = prepare_query_state(np.ones(3))
    amps = encoded.state.amplitudes
    idx = np.arange(amps.size)
    assert np.abs(amps[(idx & 1) == 0]).max() < 1e-12


def test_query_state_matches_expansion():
    query = np.array([0.6, 0.8, 0.0])
    encoded = prepare_query_state(query)
    expected = _expected_training_amplitudes(query[None, :])
    # single-sample layout has an index register of width 1 holding |1>
    assert np.abs(encoded.state.amplitudes - expected[len(expected) // 2 :]).max() < 1e-10


def test_encoding_rejects_out_of_range_features():
    with pytest.raises(EncodingError):
        prepare_query_state(np.array([0.2, 1.2]))
    with pytest.raises(EncodingError):
        prepare_training_state(np.array([[-0.1, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encoding_rejects_non_finite_features(bad):
    with pytest.raises(EncodingError):
        prepare_query_state(np.array([0.2, bad]))
    with pytest.raises(EncodingError):
        fidelity_to_rows(np.array([[0.2, 0.3]]), np.array([bad, 0.3]))


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_identical_vectors_is_one():
    v = RNG(7).uniform(size=4)
    assert fidelity_to_rows(v[None, :], v)[0] == pytest.approx(1.0, abs=1e-12)


def test_fidelity_opposite_corners_is_zero():
    rows = np.ones((1, 4))
    assert fidelity_to_rows(rows, np.zeros(4))[0] == pytest.approx(0.0, abs=1e-12)


def test_fidelity_is_symmetric_and_bounded():
    rng = RNG(9)
    rows = rng.uniform(size=(20, 5))
    q = rng.uniform(size=5)
    fid = fidelity_to_rows(rows, q)
    assert np.all(fid >= 0) and np.all(fid <= 1 + 1e-12)
    flipped = np.array([float(fidelity_to_rows(q[None, :], rows[j])[0]) for j in range(20)])
    assert np.abs(fid - flipped).max() < 1e-12


def test_fidelity_batch_columns_match_single_queries():
    # a batch runs the single-query kernel per column, so the classical
    # baseline ranks on the same bits as analytic QkNN; a batch of one too
    rng = RNG(10)
    for features in (1, 2, 4, 8):
        rows = rng.uniform(size=(512, features))
        queries = rng.uniform(size=(1000, features))
        batch = fidelity_to_rows(rows, queries)
        assert batch.shape == (512, 1000)
        for j, query in enumerate(queries):
            single = fidelity_to_rows(rows, query)
            assert np.array_equal(batch[:, j], single), (features, j)
            if j < 10:
                assert np.array_equal(fidelity_to_rows(rows, query[None, :])[:, 0], single)
