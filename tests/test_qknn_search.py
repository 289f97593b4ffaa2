"""Grover search: closed forms, gate-level amplification, k-maximal finding."""
import bisect
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from qknn_cvqkd import qsim
from qknn_cvqkd.qknn import k_maximal_find
from qknn_cvqkd.qknn import search
from qknn_cvqkd.qknn.search import SearchExhaustedError
from qknn_cvqkd.qknn.similarity import SimilarityTable

RNG = np.random.default_rng


def make_table(values: np.ndarray, mode: str = "analytic") -> SimilarityTable:
    """Wrap raw ranking values in a table. The search stage ranks on the
    fidelity in analytic mode and on the register column in gate mode, so a
    gate table gets ``values`` as its register column, set where the table
    caches the column it would derive (no other column is read)."""
    values = np.asarray(values, dtype=float)
    if mode == "analytic":
        return SimilarityTable(fidelity=values, mode="analytic")
    table = SimilarityTable(fidelity=values, mode="gate", gate_estimates=values)
    vars(table)["sim_register"] = values.astype(int)
    return table


# ---------------------------------------------------------------------------
# closed forms vs the two-term recursion (independent oracle)
# ---------------------------------------------------------------------------

def test_amplitude_recursion_matches_closed_forms_exhaustively():
    sizes = np.arange(2, 257)
    pairs = [(m, t) for m in sizes for t in range(1, m)]
    m_arr = np.array([p[0] for p in pairs], dtype=float)
    t_arr = np.array([p[1] for p in pairs], dtype=float)
    q = np.full(m_arr.size, 1.0) / np.sqrt(m_arr)
    s = q.copy()
    theta = np.arcsin(np.sqrt(t_arr / m_arr))
    for level in range(1, 51):
        q, s = (
            (m_arr - 2 * t_arr) / m_arr * q + 2 * (m_arr - t_arr) / m_arr * s,
            (m_arr - 2 * t_arr) / m_arr * s - 2 * t_arr / m_arr * q,
        )
        q_closed = np.sin((2 * level + 1) * theta) / np.sqrt(t_arr)
        s_closed = np.cos((2 * level + 1) * theta) / np.sqrt(m_arr - t_arr)
        assert np.abs(q - q_closed).max() < 1e-10, level
        assert np.abs(s - s_closed).max() < 1e-10, level


# ---------------------------------------------------------------------------
# gate-level amplification
# ---------------------------------------------------------------------------

def _gate_grover_state(total: int, marked, iterations: int) -> qsim.StateVector:
    width = int(math.log2(total))
    state = qsim.new_register(width)
    for q in range(width):
        state = qsim.apply_hadamard(state, q)
    for _ in range(iterations):
        state = qsim.apply_phase_flip(state, (0, width), marked)
        state = qsim.apply_reflection_about_uniform(state, (0, width), total)
    return state


def test_single_iteration_amplitudes_exact():
    for total, t in [(8, 1), (16, 3), (64, 4), (16, 13)]:
        marked = np.arange(t)
        state = _gate_grover_state(total, marked, 1)
        expect_marked = (3 * total - 4 * t) / total / math.sqrt(total)
        expect_rest = (total - 4 * t) / total / math.sqrt(total)
        amps = state.amplitudes.real
        assert np.abs(amps[:t] - expect_marked).max() < 1e-13
        assert np.abs(amps[t:] - expect_rest).max() < 1e-13


@pytest.mark.parametrize("total", [16, 64, 128])
@pytest.mark.parametrize("t", [1, 2, 4])
def test_marked_probability_matches_closed_form(total, t):
    rng = RNG(total * 31 + t)
    marked = rng.choice(total, size=t, replace=False)
    theta = math.asin(math.sqrt(t / total))
    l_opt = int(math.pi / (4.0 * theta))  # the known-t iteration count
    state = _gate_grover_state(total, marked, l_opt)
    probs = qsim.born_probabilities(state, (0, int(math.log2(total))))
    measured = probs[marked].sum()
    assert measured == pytest.approx(search._hit_probability(theta, l_opt), abs=1e-10)


def test_reflection_equals_elementary_inversion_network():
    # H^m (2|0><0| - I) H^m on a full span equals the uniform reflection;
    # 2|0><0| - I is a phase flip of every nonzero value
    width = 4
    rng = RNG(11)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = qsim.StateVector(width, amps / np.linalg.norm(amps))
    direct = qsim.apply_reflection_about_uniform(state, (0, width), 16)
    network = state
    for q in range(width):
        network = qsim.apply_hadamard(network, q)
    network = qsim.apply_phase_flip(network, (0, width), np.arange(1, 16))
    for q in range(width):
        network = qsim.apply_hadamard(network, q)
    assert np.abs(direct.amplitudes - network.amplitudes).max() < 1e-12


def _grover_cdf_cases():
    """(width, marked indices, iterations): every marked count up to width
    5, sampled counts above, each with every iteration count below the
    largest unknown-t cap of its index space."""
    rng = RNG(8642)
    for width in range(1, 9):
        total = 1 << width
        counts = range(1, total + 1) if width <= 5 else sorted(
            {1, 2, 3, total // 2, total - 1, total, *rng.integers(1, total, size=4).tolist()}
        )
        top_cap = max(search._iteration_caps(total, search.MAX_ATTEMPTS))
        for t in counts:
            marked = np.sort(rng.choice(total, size=t, replace=False))
            for iterations in range(1, top_cap):
                yield width, marked, iterations


def test_closed_form_grover_cdf_equals_the_circuit_cdf():
    # the circuit's outcome CDF against the closed form, and the index
    # draw_outcome picks from each for the same seeded uniforms
    cases = draws = 0
    for width, marked, iterations in _grover_cdf_cases():
        circuit = qsim.outcome_cdf(_gate_grover_state(1 << width, marked, iterations), (0, width))
        closed = search._grover_cdf(width, marked, iterations)
        assert np.abs(closed - circuit).max() < 1e-12, (width, marked.size, iterations)
        assert closed[-1] == 1.0
        seed = cases
        gen_closed, gen_circuit = RNG(seed), RNG(seed)
        for _ in range(64):
            assert qsim.draw_outcome(closed, gen_closed) == qsim.draw_outcome(
                circuit, gen_circuit
            ), (width, marked.size, iterations)
            draws += 1
        assert gen_closed.bit_generator.state == gen_circuit.bit_generator.state
        cases += 1
    assert cases > 500 and draws == 64 * cases


# ---------------------------------------------------------------------------
# gate attempts
# ---------------------------------------------------------------------------

MAX_ATTEMPTS = search.MAX_ATTEMPTS

# (table size, threshold, attempt budget) -> per seed 0..3 (found_index,
# iterations_per_attempt, exhausted) of one gate round on the values
# 0..size-1, as recorded with separate known-t and unknown-t attempt loops
# and a circuit per attempt: the attempt loop must leave the RNG draws
# unchanged
GROVER_REPORTS = {
    (16, 7.5, 64): [
        (10, [0], False),
        (8, [0], False),
        (13, [0, 0], False),
        (12, [0, 0], False),
    ],
    (64, 62.5, 64): [
        (63, [0, 1, 0, 0, 2, 2, 2], False),
        (63, [0, 1, 1], False),
        (63, [0, 0, 0, 0, 1, 2, 0, 1, 2, 4], False),
        (63, [0, 0, 0, 0, 0, 0, 0, 1, 1, 3], False),
    ],
    (16, 14.5, 3): [
        (None, [0, 1, 0], True),
        (15, [0, 1, 1], False),
        (None, [0, 0, 0], True),
        (None, [0, 0, 0], True),
    ],
}


GROVER_CASES = [
    (case, seed) for case in sorted(GROVER_REPORTS) for seed in range(len(GROVER_REPORTS[case]))
]


@pytest.mark.parametrize(
    "case,seed",
    GROVER_CASES,
    ids=[f"size{c[0]}-above{c[1]}-budget{c[2]}-seed{seed}" for c, seed in GROVER_CASES],
)
def test_gate_attempts_reports_per_seed(case, seed):
    size, threshold, budget = case
    found, iterations, exhausted = GROVER_REPORTS[case][seed]
    marked_mask = np.arange(float(size)) > threshold
    width = int(math.log2(size))
    caps = search._iteration_caps(size, budget)
    report = search._attempts(marked_mask, np.flatnonzero(marked_mask), width, caps, RNG(seed))
    assert report.found_index == found
    assert report.success == (found is not None)
    assert report.iterations_per_attempt == iterations
    assert report.oracle_calls == sum(iterations)
    assert report.verifications == len(iterations)
    assert report.exhausted == exhausted


@pytest.mark.parametrize("space_size", [4, 16, 64, 1024])
def test_iteration_caps_grow_from_one_to_the_square_root(space_size):
    caps = search._iteration_caps(space_size, MAX_ATTEMPTS)
    assert len(caps) == MAX_ATTEMPTS
    assert caps[0] == 1
    assert all(a <= b for a, b in zip(caps, caps[1:]))
    assert max(caps) == math.ceil(math.sqrt(space_size))
    bound = 1.0
    for cap in caps:  # the bound grows by 6/5 per attempt until it reaches sqrt(M)
        assert cap == max(1, math.ceil(bound))
        bound = min(6.0 / 5.0 * bound, math.sqrt(space_size))


def test_gate_k_maximal_raises_after_exactly_max_attempts(monkeypatch):
    # every attempt measures an unmarked index; a round that ignores its
    # budget fails the test instead of hanging
    calls = []

    def never_hit(width, marked_values, iterations, rng):
        calls.append(iterations)
        if len(calls) > MAX_ATTEMPTS:
            pytest.fail(f"attempt {len(calls)} exceeds the budget of {MAX_ATTEMPTS}")
        return int(np.setdiff1d(np.arange(1 << width), marked_values)[0])

    monkeypatch.setattr(search, "_gate_attempt", never_hit)
    table = make_table(RNG(7).permutation(16).astype(float), mode="gate")
    with pytest.raises(SearchExhaustedError):
        k_maximal_find(table, 3, RNG(8), mode="gate")
    assert len(calls) == MAX_ATTEMPTS


@pytest.fixture
def missing_hits(monkeypatch):
    """Give every attempt of the analytic k-maximal search a zero hit
    probability; a round that ignores its budget fails the test instead of
    hanging."""
    calls = []

    def never_hit(theta, iterations):
        calls.append(iterations)
        if len(calls) > MAX_ATTEMPTS:
            pytest.fail(f"attempt {len(calls)} exceeds the budget of {MAX_ATTEMPTS}")
        return 0.0

    monkeypatch.setattr(search, "_hit_probability", never_hit)
    return calls


def test_k_maximal_raises_on_an_exhausted_round(missing_hits):
    table = make_table(RNG(7).permutation(16).astype(float))
    with pytest.raises(SearchExhaustedError):
        k_maximal_find(table, 3, RNG(8))
    assert len(missing_hits) == MAX_ATTEMPTS


# ---------------------------------------------------------------------------
# k-maximal finding
# ---------------------------------------------------------------------------

def test_k_equals_m_returns_everything_without_search():
    table = make_table(RNG(3).uniform(size=8))
    neighbors, report = k_maximal_find(table, 8, RNG(4))
    assert neighbors.selected == list(range(8))
    assert report.oracle_calls == 0 and report.rounds == []


@pytest.mark.parametrize("seed", range(20))
def test_k_maximal_matches_exhaustive_sort(seed):
    rng = RNG(seed)
    values = rng.permutation(100)[:16].astype(float)  # distinct
    table = make_table(values)
    neighbors, _ = k_maximal_find(table, 3, rng)
    expected = set(np.argsort(-values)[:3].tolist())
    assert set(neighbors.selected) == expected


def test_k_maximal_gate_mode_matches_exhaustive_sort():
    rng = RNG(99)
    values = rng.permutation(64)[:16].astype(float)
    table = make_table(values, mode="gate")
    neighbors, report = k_maximal_find(table, 3, rng, mode="gate")
    assert set(neighbors.selected) == set(np.argsort(-values)[:3].tolist())
    assert report.oracle_calls > 0


@pytest.mark.parametrize("count", [3, 5, 12])
def test_gate_k_maximal_pads_the_index_register_to_a_power_of_two(count):
    # indices in [count, 2^w) are never marked, so a hit is always a row
    values = RNG(count).permutation(100)[:count].astype(float)
    table = make_table(values, mode="gate")
    for seed in range(5):
        neighbors, report = k_maximal_find(table, 2, RNG(seed), mode="gate")
        assert set(neighbors.selected) == set(np.argsort(-values)[:2].tolist()), seed
        assert all(run.found_index < count for run in report.rounds if run.success), seed


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_final_round_reports_absence_not_exhaustion(mode):
    # the last round marks nothing: one verification and the unknown-t budget
    values = RNG(5).permutation(16).astype(float)
    _, report = k_maximal_find(make_table(values, mode=mode), 3, RNG(6), mode=mode)
    last = report.rounds[-1]
    assert not last.success and not last.exhausted and last.found_index is None
    assert last.oracle_calls == math.ceil(3.0 * math.sqrt(16)) and last.verifications == 1
    assert all(run.success for run in report.rounds[:-1])


def test_analytic_k_maximal_breaks_ties_by_lower_index():
    # four rows tie at 3.0; the top 2 by (value, lower index) are rows 1, 2
    table = make_table(np.array([1.0, 3.0, 3.0, 3.0, 0.0, 3.0]))
    for seed in range(50):
        neighbors, _ = k_maximal_find(table, 2, RNG(seed))
        assert neighbors.selected == [1, 2], seed


def test_gate_k_maximal_keeps_any_tied_row():
    # register values tie by design; gate mode compares values alone
    table = make_table(np.array([1.0, 3.0, 3.0, 3.0, 0.0, 3.0]), mode="gate")
    chosen = set()
    for seed in range(50):
        neighbors, _ = k_maximal_find(table, 2, RNG(seed), mode="gate")
        assert all(table.ranking_value[j] == 3.0 for j in neighbors.selected), seed
        chosen.update(neighbors.selected)
    assert chosen == {1, 2, 3, 5}


def _hadamard_layer(width: int) -> qsim.StateVector:
    """The start state built gate by gate, as every attempt once did."""
    return _gate_grover_state(1 << width, [], 0)


@pytest.mark.parametrize("width", [1, 2, 4, 5])
def test_start_state_equals_the_gate_by_gate_hadamard_layer(width):
    state = search._start_state(width)
    assert state is search._start_state(width)
    assert np.array_equal(state.amplitudes, _hadamard_layer(width).amplitudes)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_start_state_unchanged_by_a_gate_search():
    before = search._start_state(4).amplitudes.copy()
    table = make_table(RNG(41).permutation(16).astype(float), mode="gate")
    k_maximal_find(table, 3, RNG(42), mode="gate")
    assert np.array_equal(search._start_state(4).amplitudes, before)


@pytest.mark.parametrize("width", [1, 2, 4, 5])
def test_start_cdf_equals_that_of_the_gate_by_gate_hadamard_layer(width):
    cdf = search._start_cdf(width)
    assert cdf is search._start_cdf(width)
    assert np.array_equal(cdf, qsim.outcome_cdf(_hadamard_layer(width), (0, width)))
    with pytest.raises(ValueError):
        cdf[0] = 0.0


def test_start_cdf_unchanged_by_a_gate_search():
    before = search._start_cdf(4).copy()
    table = make_table(RNG(43).permutation(16).astype(float), mode="gate")
    k_maximal_find(table, 3, RNG(44), mode="gate")
    assert np.array_equal(search._start_cdf(4), before)


def _choice_measured_attempt(width, marked_values, iterations, rng):
    """Reference gate attempt: the start state built gate by gate and the
    index register measured by ``rng.choice`` on the Born probabilities."""
    total = 1 << width
    probs = np.abs(_gate_grover_state(total, marked_values, iterations).amplitudes) ** 2
    return int(rng.choice(total, p=probs / probs.sum()))


def test_gate_search_with_the_shared_start_state_repeats_every_run(monkeypatch):
    # 40 gate runs over 8..32 rows with tied values: the same selections,
    # reports and final generator states as with the reference attempt
    rng = RNG(2468)
    cases = []
    for seed in range(40):
        size = int(rng.integers(8, 33))
        values = rng.integers(0, 6, size=size).astype(float)
        cases.append((make_table(values, mode="gate"), int(rng.integers(1, 6)), seed))

    def run_all():
        runs = []
        for table, k, seed in cases:
            gen = RNG(seed)
            neighbors, report = k_maximal_find(table, k, gen, mode="gate")
            runs.append((neighbors.selected, report, gen.bit_generator.state))
        return runs

    shared = run_all()
    monkeypatch.setattr(search, "_gate_attempt", _choice_measured_attempt)
    assert run_all() == shared


def test_k_maximal_partition_invariant():
    table = make_table(RNG(5).uniform(size=20))
    neighbors, _ = k_maximal_find(table, 7, RNG(6))
    assert len(neighbors.selected) == 7
    assert neighbors.selected == sorted(set(neighbors.selected))
    assert all(0 <= j < 20 for j in neighbors.selected)


def test_k_maximal_rejects_bad_k():
    table = make_table(np.arange(4.0))
    with pytest.raises(ValueError):
        k_maximal_find(table, 5, RNG(0))


def test_analytic_k_maximal_equals_stable_argsort_for_every_k():
    # random, heavily tied (values from a small integer set) and all-equal
    # tables; every k of every table
    rng = RNG(2024)
    tables = 0
    for trial in range(510):
        size = int(rng.integers(41, 301)) if trial % 25 == 0 else int(rng.integers(2, 41))
        kind = trial % 3
        if trial == 0:
            values = np.full(size, 0.5)
        elif kind == 0:
            values = rng.uniform(size=size)
        else:
            values = rng.integers(0, 2 + kind, size=size).astype(float)
        table = make_table(values)
        expected = np.argsort(-values, kind="stable")
        for k in range(1, size + 1):
            neighbors, report = k_maximal_find(table, k, rng)
            assert neighbors.selected == sorted(expected[:k].tolist()), (trial, k)
            assert len(report.rounds) <= size - k + 1
        tables += 1
    assert tables >= 500


@pytest.mark.parametrize("case", ["no ties", "tied pair deep in the order", "signed zeros"])
def test_best_first_order_equals_stable_argsort(case):
    # both tie cases are ones numpy 2.4's default float sort reorders on x86-64
    values = RNG(77).uniform(size=2048)
    if case == "tied pair deep in the order":
        values[37] = np.sort(values)[200]  # both hold best-first rank ~1847
    elif case == "signed zeros":
        values[34], values[101] = -0.0, 0.0
    order = search._best_first(values)
    assert np.array_equal(order, np.argsort(-values, kind="stable"))


def _uniforms(rng):
    """Endless stream of uniforms on [0, 1), drawn in blocks."""
    while True:
        yield from rng.random(search.UNIFORM_BLOCK).tolist()


def _rank_round(total, marked, caps, uniforms):
    """One unknown-t round on the closed-form distribution: its report and
    the position in [0, marked) of the marked item found, if any."""
    if marked == 0:
        return search._absence_report(total), None
    theta = math.asin(math.sqrt(marked / total))
    report = search.GroverRunReport()
    attempts = report.iterations_per_attempt
    for cap in caps:
        iterations = int(next(uniforms) * cap)
        attempts.append(iterations)
        report.oracle_calls += iterations
        if next(uniforms) < search._hit_probability(theta, iterations):
            report.success = True
            report.verifications = len(attempts)
            return report, int(next(uniforms) * marked)
    report.verifications = len(attempts)
    report.exhausted = True
    return report, None


def _reference_rank_search(values, start, rng, report):
    """The analytic rounds as one ``_rank_round`` call each, drawing from a
    uniform stream: the form the fused loop must reproduce."""
    count, k = values.size, start.size
    order = search._best_first(values)
    rank_of = np.empty(count, dtype=np.intp)
    rank_of[order] = np.arange(count)
    ranks = sorted(rank_of[start].tolist())
    caps = search._iteration_caps(count, search.MAX_ATTEMPTS)
    uniforms = _uniforms(rng)
    for _ in range(count - k + 1):
        run, position = _rank_round(count, ranks[-1] - (k - 1), caps, uniforms)
        search._add_round(report, run)
        if position is None:
            return order[ranks].tolist()
        found = position
        for rank in ranks:
            if rank > found:
                break
            found += 1
        run.found_index = int(order[found])
        ranks.pop()
        bisect.insort(ranks, found)
        report.replacements += 1
    raise RuntimeError("no convergence")


def _rank_search_cases(count):
    """(values, k, seed) over sizes 2..2048: random, tied and all-equal."""
    rng = RNG(1357)
    for case in range(count):
        size = int(np.exp(rng.uniform(np.log(2), np.log(2049))))
        kind = case % 4
        if kind == 0:
            values = rng.uniform(size=size)
        elif kind == 3 and case % 40 == 3:
            values = np.full(size, 0.25)
        else:
            values = rng.integers(0, 2 + 4 * kind, size=size).astype(float)
        yield values, int(rng.integers(1, min(size, 16))), case


def _run_rank_search(search_fn, values, k, seed):
    rng = RNG(seed)
    start = rng.choice(values.size, size=k, replace=False)
    report = search.KMaximalReport()
    try:
        selected = search_fn(values, start, rng, report)
    except SearchExhaustedError as exc:
        selected = str(exc)
    return selected, report, rng.bit_generator.state


def test_fused_rank_search_equals_the_round_by_round_reference():
    # 3000 searches: the same selections, per-round reports and final
    # generator states as the reference
    cases = 0
    for values, k, seed in _rank_search_cases(3000):
        fused = _run_rank_search(search._rank_search, values, k, seed)
        assert fused == _run_rank_search(_reference_rank_search, values, k, seed), seed
        cases += 1
    assert cases == 3000


def test_fused_rank_search_exhausts_as_the_reference_does(monkeypatch):
    monkeypatch.setattr(search, "_hit_probability", lambda theta, iterations: 0.0)
    for values, k, seed in _rank_search_cases(20):
        fused = _run_rank_search(search._rank_search, values, k, seed)
        assert fused == _run_rank_search(_reference_rank_search, values, k, seed), seed
        selected, report, _ = fused
        assert len(report.rounds) == 1
        assert isinstance(selected, str) == report.rounds[0].exhausted


def test_analytic_round_counters_match_gate_mode_statistically():
    # both modes run the same unknown-t schedule on the same law; on distinct
    # values their mean costs agree
    values = RNG(31).permutation(64).astype(float)
    samples = {}
    for mode in ("analytic", "gate"):
        table = make_table(values, mode=mode)
        calls, checks = [], []
        for seed in range(200):
            neighbors, report = k_maximal_find(table, 3, RNG(seed), mode=mode)
            assert neighbors.selected == sorted(np.argsort(-values)[:3].tolist())
            calls.append(report.oracle_calls)
            checks.append(report.verifications)
        samples[mode] = (np.array(calls, float), np.array(checks, float))
    for a, g in zip(samples["analytic"], samples["gate"]):
        stderr = math.sqrt(a.var(ddof=1) / a.size + g.var(ddof=1) / g.size)
        assert abs(a.mean() - g.mean()) < 4.0 * stderr
