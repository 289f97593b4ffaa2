"""Similarity tables, gate-level amplitude estimation and the simulated
swap test they are checked against."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qknn_cvqkd import qsim
from qknn_cvqkd.qknn import (
    AmplitudeEstimate,
    EncodingError,
    TrainingSet,
    amplitude_estimate,
    compute_similarity_table,
    estimation_error_bound,
    fidelity_to_rows,
    prepare_query_state,
    prepare_training_row_state,
    required_iterations,
)
from qknn_cvqkd.qknn import similarity
from qknn_cvqkd.qsim import StateVector
from qknn_cvqkd.qsim.statevector import _apply_controlled_2x2

RNG = np.random.default_rng


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


def _ry(angle: float) -> np.ndarray:
    """Rotation about Y: |0> goes to cos(angle/2)|0> + sin(angle/2)|1>."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def circuit_amplitude_estimate(
    amplitude: float, iterations: int, m_bits: int | None = None
) -> AmplitudeEstimate:
    """Gate-level phase estimation of a good-subspace probability.

    The counting register holds ``m_bits`` qubits (default: enough for a
    grid at least as fine as ``iterations``); Hadamards, the controlled
    powers of the amplification rotation, and the inverse Fourier transform
    produce the outcome distribution, whose mode sigma yields the estimate
    sin^2(pi*sigma/grid). The rotations go through the simulator's
    controlled 2x2 kernel; the inverse Fourier transform is the dense
    matrix exp(-2*pi*i*x*y/grid)/sqrt(grid) on the counting span.
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
    state = _apply_controlled_2x2(state, _ry(2.0 * theta), 0)  # |gamma> in the rotation plane
    for t in range(m_bits):
        state = qsim.apply_hadamard(state, 1 + t)
    for t in range(m_bits):
        # controlled Q^(2^t); Q rotates the plane by 2*theta
        state = _apply_controlled_2x2(state, _ry(4.0 * theta * (1 << t)), 0, [(1 + t, 1)])
    y = np.arange(grid)
    inverse_fourier = np.exp(-2j * math.pi * np.outer(y, y) / grid) / math.sqrt(grid)
    counting = inverse_fourier @ state.amplitudes.reshape(grid, 2)  # (counting span, qubit 0)
    state = StateVector(m_bits + 1, counting.reshape(-1))

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


# ---------------------------------------------------------------------------
# amplitude estimation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("iterations", [2, 4, 8, 32, 131])
def test_closed_form_matches_reference_circuit(iterations):
    for a in np.concatenate([np.linspace(0.0, 1.0, 101), [1e-9, 1.0 - 1e-9]]):
        circuit = circuit_amplitude_estimate(float(a), iterations)
        est = amplitude_estimate(float(a), iterations)
        grid = circuit.grid_size
        assert est.grid_size == grid
        assert np.abs(est.distribution - circuit.distribution).max() <= 1e-12, a
        assert est.register_value == min(circuit.register_value, grid - circuit.register_value), a
        assert est.register_value <= grid // 2


def test_amplitude_rounding_clipped_but_larger_excess_rejected():
    assert amplitude_estimate(1.0 + 4e-16, 131).estimate == amplitude_estimate(1.0, 131).estimate
    assert amplitude_estimate(-1e-15, 131).estimate == 0.0
    for a in (1.0 + 1e-9, -1e-9, float("nan")):
        with pytest.raises(ValueError):
            amplitude_estimate(a, 131)


def test_out_of_range_amplitudes_are_listed_in_the_error():
    with pytest.raises(ValueError, match=r"got \[ 1\.5  nan -0\.1\]$"):
        similarity._estimate_amplitudes([0.5, 1.5, np.nan, 0.2, -0.1, 1.0], 131)


def test_estimate_exact_at_zero_and_one():
    assert amplitude_estimate(0.0, 131).estimate == 0.0
    assert amplitude_estimate(1.0, 131).estimate == pytest.approx(1.0, abs=1e-12)


def test_required_iterations_matches_delta():
    assert required_iterations(0.1) == 131
    with pytest.raises(ValueError):
        required_iterations(0.0)


@pytest.mark.parametrize("iterations", [16, 64, 131])
def test_estimate_error_bound_on_coarse_grid(iterations):
    bound = estimation_error_bound(iterations)
    for a in np.round(np.arange(0.0, 1.01, 0.1), 10):
        est = amplitude_estimate(float(a), iterations)
        assert abs(est.estimate - a) <= bound, (a, iterations, est.estimate)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_estimate_error_bound_random_amplitudes(a):
    est = amplitude_estimate(a, 131)
    assert abs(est.estimate - a) <= estimation_error_bound(131)


def test_estimate_register_value_consistent():
    est = amplitude_estimate(0.3, 131)
    assert est.grid_size == 256
    assert est.estimate == pytest.approx(
        math.sin(math.pi * est.register_value / est.grid_size) ** 2, abs=1e-12
    )
    assert est.distribution.sum() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the mode searched over a window around both peaks
# ---------------------------------------------------------------------------

def full_grid_modes(amplitudes, grid: int, chunk: int = 256) -> np.ndarray:
    """Folded argmax of the mixture evaluated at all G outcomes, the lowest
    outcome on ties, a chunk of rows at a time."""
    phase = similarity._estimate_amplitudes(amplitudes, grid)[3]
    outcomes = np.arange(grid)
    modes = np.concatenate([
        np.argmax(similarity._mixture(outcomes, part[:, None], grid), axis=1)
        for part in np.array_split(phase, max(1, phase.size // chunk))
    ])
    return np.minimum(modes, grid - modes)


def grid_amplitudes(grid: int) -> np.ndarray:
    """sin^2(pi sigma/G) at every outcome sigma = 0..G and every midpoint,
    with the 1-ulp neighbours of each that lie in [0, 1]."""
    base = np.sin(np.pi * np.arange(2 * grid + 1) / (2 * grid)) ** 2
    amplitudes = np.concatenate([base, np.nextafter(base, 2.0), np.nextafter(base, -1.0)])
    return amplitudes[(amplitudes >= 0.0) & (amplitudes <= 1.0)]


@pytest.mark.parametrize("iterations", [2, 4, 8, 32, 131])
def test_window_mode_equals_full_grid_mode_on_a_coarse_amplitude_grid(iterations):
    # 101 evenly spaced amplitudes and their 1-ulp neighbours
    base = np.linspace(0.0, 1.0, 101)
    amplitudes = np.concatenate([base, np.nextafter(base, 2.0), np.nextafter(base, -1.0)])
    amplitudes = amplitudes[(amplitudes >= 0.0) & (amplitudes <= 1.0)]
    estimates, folded, grid, _ = similarity._estimate_amplitudes(amplitudes, iterations)
    assert np.array_equal(folded, full_grid_modes(amplitudes, grid))
    singles = [amplitude_estimate(a, iterations) for a in amplitudes]
    assert np.array_equal(estimates, [e.estimate for e in singles])
    assert np.array_equal(folded, [e.register_value for e in singles])


@pytest.mark.parametrize("grid", [1 << m for m in range(1, 11)])
def test_window_mode_equals_full_grid_mode_at_grid_points_and_midpoints(grid):
    amplitudes = grid_amplitudes(grid)
    _, folded, found_grid, _ = similarity._estimate_amplitudes(amplitudes, grid)
    assert found_grid == grid
    assert np.array_equal(folded, full_grid_modes(amplitudes, grid))


@pytest.mark.parametrize("grid", [2048, 4096])
def test_window_mode_equals_full_grid_mode_on_large_grids(grid):
    # the full grid would take seconds here: it is evaluated within 8
    # outcomes of both peaks, and every outcome beyond lies under the Fejer
    # envelope 1/(G sin(8 pi/G))^2, far below the mode, so it cannot win
    amplitudes = grid_amplitudes(grid)
    _, folded, _, phase = similarity._estimate_amplitudes(amplitudes, grid)
    near = np.floor(grid * phase).astype(np.int64)[:, None] + np.arange(-8, 10)
    near = np.sort(np.concatenate([near, -near], axis=1) % grid, axis=1)
    values = similarity._mixture(near, phase[:, None], grid)
    assert values.max(axis=1).min() > 10.0 / (grid * math.sin(8.0 * math.pi / grid)) ** 2
    modes = np.take_along_axis(near, np.argmax(values, axis=1)[:, None], axis=1)[:, 0]
    assert np.array_equal(folded, np.minimum(modes, grid - modes))


def unfused_estimates(amplitudes, grid: int):
    """Folded window modes with each Fejer kernel from its own ``_fejer``
    call, and their estimates from a table built on every call: (estimates,
    folded modes, window mixture values, window outcomes)."""
    phase = np.arcsin(np.sqrt(np.clip(amplitudes, 0.0, 1.0))) / np.pi
    window = np.floor(grid * phase).astype(np.int64)[:, None] + similarity._WINDOW
    window = np.sort(np.concatenate([window, -window], axis=1) % grid, axis=1)
    x = window / grid
    low = similarity._fejer(x - phase[:, None], grid)
    high = similarity._fejer(x + phase[:, None], grid)
    mixture = 0.5 * (low + high)
    modes = np.take_along_axis(window, np.argmax(mixture, axis=1)[:, None], axis=1)[:, 0]
    folded = np.minimum(modes, grid - modes)
    estimates = np.sin(np.pi * np.arange(grid // 2 + 1) / grid)[folded] ** 2
    return estimates, folded, mixture, window


@pytest.mark.parametrize("grid", [1 << m for m in range(1, 13)])
def test_fused_kernels_and_cached_estimate_table_equal_the_unfused_formulas(grid):
    amplitudes = np.concatenate([grid_amplitudes(grid), RNG(grid).uniform(size=400)])
    estimates, folded, found_grid, phase = similarity._estimate_amplitudes(amplitudes, grid)
    expected, expected_folded, mixture, window = unfused_estimates(amplitudes, grid)
    assert found_grid == grid
    assert np.array_equal(folded, expected_folded)
    assert estimates.tobytes() == expected.tobytes()
    assert similarity._mixture(window, phase[:, None], grid).tobytes() == mixture.tobytes()
    single = amplitude_estimate(float(amplitudes[-1]), grid).distribution
    x = np.arange(grid) / grid
    unfused = 0.5 * (similarity._fejer(x - phase[-1], grid) + similarity._fejer(x + phase[-1], grid))
    assert single.tobytes() == unfused.tobytes()
    table = similarity._grid_estimates(grid)
    assert table is similarity._grid_estimates(grid)
    with pytest.raises(ValueError):
        table[0] = 1.0


def reference_fejer(x: np.ndarray, grid: int) -> np.ndarray:
    """The Fejer kernel written out: sin^2(pi G x) / (G sin(pi x))^2 after
    reducing x to [-1/2, 1/2], and 1 where x reduces to 0."""
    x = x - np.round(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = (np.sin(np.pi * grid * x) / (grid * np.sin(np.pi * x))) ** 2
    return np.where(x == 0.0, 1.0, kernel)


@pytest.mark.parametrize("grid", [1 << m for m in range(1, 13)])
def test_amplitude_estimate_returns_the_whole_two_kernel_distribution(grid):
    x = np.arange(grid) / grid
    amplitudes = [0.0, 1.0, 0.5, math.sin(math.pi / grid) ** 2, *RNG(grid).uniform(size=4)]
    for a in amplitudes:
        distribution = amplitude_estimate(a, grid).distribution
        assert distribution.shape == (grid,), a
        assert abs(distribution.sum() - 1.0) <= 1e-12, a
        phase = similarity._estimate_amplitudes([a], grid)[3][0]  # theta/pi, as estimated
        expected = 0.5 * (reference_fejer(x - phase, grid) + reference_fejer(x + phase, grid))
        assert distribution.tobytes() == expected.tobytes(), a


@pytest.mark.parametrize("grid", [1 << m for m in range(1, 13)])
def test_register_table_equals_the_eager_formula_on_gathered_outcomes(grid):
    outcomes = np.arange(grid // 2 + 1)
    gathered = np.concatenate([outcomes, RNG(grid).permutation(outcomes), outcomes[::-1]])
    estimates = similarity._grid_estimates(grid)[gathered]
    for size in (1, 2, 3, 5, 16, 17, 300, 2048):
        continuous = (size / math.pi) * np.arcsin(np.sqrt(np.clip(estimates, 0.0, 1.0)))
        eager = np.minimum(np.floor(continuous).astype(int), size - 1)
        table = similarity._grid_registers(grid, size)
        assert table is similarity._grid_registers(grid, size)
        column = table[gathered]
        assert column.dtype == eager.dtype and column.tobytes() == eager.tobytes(), size
        with pytest.raises(ValueError):
            table[0] = 0


def test_gate_table_of_2048_rows_at_delta_001_equals_full_grid_reference():
    rng = RNG(21)
    rows = rng.uniform(size=(2048, 4))
    table = compute_similarity_table(rows, rng.uniform(size=4), mode="gate", delta=0.01)
    grid = 2048  # the grid of required_iterations(0.01) = 1302
    modes = full_grid_modes(table.ideal_p_zero, grid)
    expected = np.sin(np.pi * np.arange(grid // 2 + 1) / grid)[modes] ** 2
    assert np.array_equal(table.estimated_p_zero, expected)


# ---------------------------------------------------------------------------
# similarity tables
# ---------------------------------------------------------------------------

def test_table_ideal_probability_identity():
    rows = RNG(0).uniform(size=(12, 4))
    query = RNG(1).uniform(size=4)
    table = compute_similarity_table(rows, query, mode="analytic")
    assert np.abs(table.ideal_p_zero - (1.0 + table.fidelity) / 2.0).max() == 0.0
    assert np.all(table.sim_register >= 0)
    assert np.all(table.sim_register < rows.shape[0])


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_derived_columns_equal_the_eager_formulas(mode):
    # the table holds the fidelity (and gate estimates) until a column is
    # read; each derived column has the bits of the formula it replaces,
    # and a TrainingSet's cached sqrt(1-v^2) gives the bits of bare rows
    rng = RNG(14)
    for size, dim in ((1, 1), (16, 2), (300, 4), (2048, 8)):
        if dim == 2:
            features = rng.choice([0.0, 0.5, 1.0], size=(size, dim))
        else:
            features = rng.uniform(size=(size, dim))
        train = TrainingSet(features, np.ones(size, int), 1, None)
        for query in (rng.uniform(size=dim), features[0], np.zeros(dim), np.ones(dim)):
            table = compute_similarity_table(train, query, mode=mode, delta=0.05)
            assert set(vars(table)) == {"fidelity", "mode", "readout"}
            fidelity = fidelity_to_rows(features, query)
            ideal = (1.0 + fidelity) / 2.0
            if mode == "analytic":
                estimated = ideal
            else:
                estimated = similarity._estimate_amplitudes(ideal, required_iterations(0.05))[0]
            continuous = (size / math.pi) * np.arcsin(np.sqrt(np.clip(estimated, 0.0, 1.0)))
            register = np.minimum(np.floor(continuous).astype(int), size - 1)
            for name, eager in (
                ("fidelity", fidelity), ("ideal_p_zero", ideal), ("estimated_p_zero", estimated),
                ("sim_continuous", continuous), ("sim_register", register),
            ):
                column = getattr(table, name)
                assert column.dtype == eager.dtype and column.tobytes() == eager.tobytes(), name
                assert getattr(table, name) is column, name


def test_table_extremes_hit_closed_form_grid_points():
    # fidelity 1 -> P(0) = 1 -> sim = M/2 (arcsin of 1 is pi/2)
    rows = np.vstack([np.full(4, 0.3), np.zeros(4)])
    table_top = compute_similarity_table(rows, np.full(4, 0.3), mode="analytic")
    m = rows.shape[0]
    assert table_top.sim_continuous[0] == pytest.approx(m / 2.0, abs=1e-12)
    # fidelity 0 -> P(0) = 1/2 -> sim = (M/pi) * arcsin(sqrt(1/2)) = M/4
    orth = compute_similarity_table(np.ones((2, 4)), np.zeros(4), mode="analytic")
    assert orth.sim_continuous[0] == pytest.approx(2 / 4.0, abs=1e-12)


def test_gate_table_within_one_grid_step_of_analytic():
    rows = RNG(3).uniform(size=(8, 3))
    query = RNG(4).uniform(size=3)
    analytic = compute_similarity_table(rows, query, mode="analytic")
    gate = compute_similarity_table(rows, query, mode="gate", delta=0.1)
    assert np.abs(gate.sim_register - np.floor(analytic.sim_continuous)).max() <= 1


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_table_rejects_a_batch_of_queries(mode):
    rows = RNG(6).uniform(size=(8, 3))
    with pytest.raises(EncodingError, match="single feature vector"):
        compute_similarity_table(rows, rows[:2], mode=mode)


@pytest.mark.parametrize("mode", ["analytic", "gate"])
@pytest.mark.parametrize("bare_rows", [False, True])
def test_table_rejects_a_query_of_another_length(mode, bare_rows):
    features = RNG(6).uniform(size=(8, 3))
    rows = features if bare_rows else TrainingSet(features, np.ones(8, int), 1, None)
    for query in (np.full(2, 0.5), np.full(4, 0.5)):
        with pytest.raises(EncodingError, match=rf"\({query.size},\).*\(8, 3\)"):
            compute_similarity_table(rows, query, mode=mode)


def test_analytic_similarity_monotone_in_fidelity():
    rng = RNG(5)
    rows = rng.uniform(size=(30, 4))
    query = rng.uniform(size=4)
    table = compute_similarity_table(rows, query, mode="analytic")
    order = np.argsort(table.fidelity)
    diffs = np.diff(table.sim_continuous[order])
    assert np.all(diffs >= -1e-12)
    int_diffs = np.diff(table.sim_register[order])
    assert np.all(int_diffs >= 0)


def test_fidelity_closed_form_matches_swap_test_circuit():
    rng = RNG(8)
    for _ in range(10):
        a = rng.uniform(size=3)
        b = rng.uniform(size=3)
        closed = float(fidelity_to_rows(a[None, :], b)[0])
        assert abs(closed - gate_fidelity(b, a)) < 1e-10


def test_gate_table_equals_per_row_amplitude_estimates():
    # 16 rows x 12 queries at each of six feature dimensions: 1152 (row,
    # query) pairs, with rows and queries of features exactly 0 and 1 and a
    # query equal to a row
    rng = RNG(12)
    iterations = required_iterations(0.1)
    for u in (1, 2, 3, 4, 6, 8):
        rows = rng.uniform(size=(16, u))
        rows[0], rows[1] = 0.0, 1.0
        rows[2, ::2], rows[2, 1::2] = 1.0, 0.0
        queries = rng.uniform(size=(12, u))
        queries[0], queries[1], queries[2] = rows[5], 0.0, 1.0
        for query in queries:
            table = compute_similarity_table(rows, query, mode="gate", delta=0.1)
            query_state = prepare_query_state(query).state
            simulated = np.array([
                swap_test_p_zero(query_state, prepare_training_row_state(rows, j).state)
                for j in range(rows.shape[0])
            ])
            assert np.abs(table.ideal_p_zero - simulated).max() <= 4e-15
            per_row = [amplitude_estimate(p, iterations) for p in simulated]
            assert np.array_equal(table.estimated_p_zero, [e.estimate for e in per_row])
            # the register holds floor(M * sigma / G) of the folded mode sigma
            registers = [min(16 * e.register_value // e.grid_size, 15) for e in per_row]
            assert np.array_equal(table.sim_register, registers)


def test_gate_table_query_equal_to_a_row():
    # the closed-form P(0) of a row with itself reads 1 up to a few ulps either way
    rows = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
    table = compute_similarity_table(rows, rows[0], mode="gate")
    assert table.estimated_p_zero[0] == pytest.approx(1.0, abs=1e-12)
    assert table.sim_register[0] == rows.shape[0] - 1
