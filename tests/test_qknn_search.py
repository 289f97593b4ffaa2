"""Grover search: closed forms, gate-level amplification, k-maximal finding."""
import math

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
    table = SimilarityTable(fidelity=values, mode="gate")
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


def _grover_cases():
    """(width, marked indices, iterations): every marked count up to width
    5, sampled counts above, each with every iteration count below the
    largest unknown-t cap of its index space."""
    rng = RNG(8642)
    for width in range(1, 9):
        total = 1 << width
        counts = range(1, total + 1) if width <= 5 else sorted(
            {1, 2, 3, total // 2, total - 1, total, *rng.integers(1, total, size=4).tolist()}
        )
        top_cap = max(search._iteration_caps(total))
        for t in counts:
            marked = np.sort(rng.choice(total, size=t, replace=False))
            for iterations in range(1, top_cap):
                yield width, marked, iterations


def test_circuit_marked_mass_equals_the_closed_form_hit_probability():
    # what a search attempt draws: the marked mass is sin^2((2l+1)theta),
    # and a marked index found is uniform because every marked amplitude
    # is the same
    cases = 0
    for width, marked, iterations in _grover_cases():
        total = 1 << width
        amplitudes = _gate_grover_state(total, marked, iterations).amplitudes[marked]
        theta = math.asin(math.sqrt(marked.size / total))
        mass = np.sum(np.abs(amplitudes) ** 2)
        assert abs(mass - search._hit_probability(theta, iterations)) < 1e-12, (
            width, marked.size, iterations
        )
        assert np.all(amplitudes == amplitudes[0]), (width, marked.size, iterations)
        cases += 1
    assert cases == 546


# ---------------------------------------------------------------------------
# attempt budget
# ---------------------------------------------------------------------------

MAX_ATTEMPTS = search.MAX_ATTEMPTS


@pytest.mark.parametrize("space_size", [4, 16, 64, 1024])
def test_iteration_caps_grow_from_one_to_the_square_root(space_size):
    caps = search._iteration_caps(space_size)
    assert len(caps) == MAX_ATTEMPTS
    assert caps[0] == 1
    assert all(a <= b for a, b in zip(caps, caps[1:]))
    assert max(caps) == math.ceil(math.sqrt(space_size))
    bound = 1.0
    for cap in caps:  # the bound grows by 6/5 per attempt until it reaches sqrt(M)
        assert cap == max(1, math.ceil(bound))
        bound = min(6.0 / 5.0 * bound, math.sqrt(space_size))


@pytest.fixture
def missing_hits(monkeypatch):
    """Give every attempt of the k-maximal search a zero hit probability;
    a round that ignores its budget fails the test instead of hanging."""
    calls = []

    def never_hit(theta, iterations):
        calls.append(iterations)
        if len(calls) > MAX_ATTEMPTS:
            pytest.fail(f"attempt {len(calls)} exceeds the budget of {MAX_ATTEMPTS}")
        return 0.0

    monkeypatch.setattr(search, "_hit_probability", never_hit)
    return calls


def test_gate_k_maximal_raises_after_exactly_max_attempts(missing_hits):
    table = make_table(RNG(7).permutation(16).astype(float), mode="gate")
    with pytest.raises(SearchExhaustedError):
        k_maximal_find(table, 3, RNG(8), mode="gate")
    assert len(missing_hits) == MAX_ATTEMPTS


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


@pytest.mark.parametrize("count", [5, 12, 100])
def test_index_space_sets_the_absence_charge_and_the_iteration_caps(count):
    # gate rounds search the register padded to S = 2^ceil(log2 M), analytic
    # rounds S = M: S sets the ceil(3 sqrt(S)) charge of the last round and
    # keeps every attempt's iteration count below ceil(sqrt(S))
    values = RNG(count).permutation(1000)[:count].astype(float)
    padded = 1 << math.ceil(math.log2(count))
    for mode, space in (("analytic", count), ("gate", padded)):
        for seed in range(5):
            _, report = k_maximal_find(make_table(values, mode=mode), 2, RNG(seed), mode=mode)
            assert report.rounds[-1].oracle_calls == math.ceil(3.0 * math.sqrt(space)), (mode, seed)
            attempts = [l for run in report.rounds for l in run.iterations_per_attempt]
            assert max(attempts, default=0) < math.ceil(math.sqrt(space)), (mode, seed)


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


def test_gate_search_with_the_shared_start_state_repeats_every_run():
    # 40 gate runs over 8..32 rows with tied values: the same seed gives the
    # same selections, reports and final generator states
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

    assert run_all() == run_all()


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


def test_best_first_order_of_integer_registers_equals_stable_argsort():
    # register values tie by design and take the stable sort directly
    for size, levels in ((16, 5), (300, 40), (2048, 2)):
        values = RNG(size).integers(0, levels, size=size)
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


def _reference_rank_search(values, start, rng, report, mode):
    """The rounds as one ``_rank_round`` call each, drawing from a uniform
    stream, with each round's marked rows listed from a mask: the form the
    fused loop must reproduce. Analytic rounds mark the unselected rows
    ranked above the weakest selected rank, on M items, and swap that rank
    out. Gate rounds mark the unselected rows of larger value than the
    weakest selected value, on the index space padded to a power of two,
    and swap out the lowest row index holding that value. Either way a hit
    is the marked row at the drawn position, best first."""
    count, k = values.size, start.size
    order = search._best_first(values)
    ranked = values[order]
    rank_of = np.empty(count, dtype=np.intp)
    rank_of[order] = np.arange(count)
    selected = np.zeros(count, dtype=bool)  # by rank
    selected[rank_of[start]] = True
    space = count if mode == "analytic" else 1 << max(1, math.ceil(math.log2(count)))
    caps = search._iteration_caps(space)
    uniforms = _uniforms(rng)
    for _ in range(count - k + 1):
        chosen = np.flatnonzero(selected)
        if mode == "analytic":
            weakest = chosen[-1]
            marked = np.flatnonzero(~selected[:weakest])
        else:
            lowest = ranked[chosen].min()
            weakest = rank_of[order[chosen][ranked[chosen] == lowest].min()]
            marked = np.flatnonzero(~selected & (ranked > lowest))
        run, position = _rank_round(space, marked.size, caps, uniforms)
        report.rounds.append(run)
        report.oracle_calls += run.oracle_calls
        report.verifications += run.verifications
        if run.exhausted:
            raise SearchExhaustedError(
                f"round {len(report.rounds)}: no hit in {len(run.iterations_per_attempt)} attempts"
            )
        if position is None:
            return order[chosen].tolist()
        found = marked[position]
        run.found_index = int(order[found])
        selected[weakest] = False
        selected[found] = True
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


def _run_rank_search(search_fn, values, k, seed, mode):
    rng = RNG(seed)
    start = rng.choice(values.size, size=k, replace=False)
    report = search.KMaximalReport()
    try:
        selected = search_fn(values, start, rng, report, mode)
    except SearchExhaustedError as exc:
        selected = str(exc)
    return selected, report, rng.bit_generator.state


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_fused_rank_search_equals_the_round_by_round_reference(mode):
    # 3000 searches: the same selections, per-round reports and final
    # generator states as the reference
    cases = 0
    for values, k, seed in _rank_search_cases(3000):
        fused = _run_rank_search(search._rank_search, values, k, seed, mode)
        assert fused == _run_rank_search(_reference_rank_search, values, k, seed, mode), seed
        cases += 1
    assert cases == 3000


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_fused_rank_search_exhausts_as_the_reference_does(monkeypatch, mode):
    monkeypatch.setattr(search, "_hit_probability", lambda theta, iterations: 0.0)
    for values, k, seed in _rank_search_cases(20):
        fused = _run_rank_search(search._rank_search, values, k, seed, mode)
        assert fused == _run_rank_search(_reference_rank_search, values, k, seed, mode), seed
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


def _circuit_gate_search(values, k, rng, states):
    """Gate-mode k-maximal search measured on the circuit: each attempt
    draws its iteration count with ``rng.integers`` and measures the index
    register of ``_gate_grover_state``, padded to a power of two; the
    weakest row is the lowest index holding the minimum. ``states`` caches
    the circuit states by (marked rows, iterations)."""
    count = values.size
    width = max(1, math.ceil(math.log2(count)))
    caps = search._iteration_caps(1 << width)
    selected = np.zeros(count, dtype=bool)
    selected[rng.choice(count, size=k, replace=False)] = True
    report = search.KMaximalReport()
    for _ in range(count - k + 1):
        chosen = np.flatnonzero(selected)
        weakest = chosen[np.argmin(values[chosen])]
        marked = np.flatnonzero((values > values[weakest]) & ~selected)
        if marked.size == 0:
            run = search._absence_report(1 << width)
            report.oracle_calls += run.oracle_calls
            report.verifications += run.verifications
            return tuple(chosen.tolist()), report
        for cap in caps:
            iterations = int(rng.integers(0, cap))
            report.oracle_calls += iterations
            report.verifications += 1
            key = (tuple(marked.tolist()), iterations)
            if key not in states:
                states[key] = _gate_grover_state(1 << width, marked, iterations)
            found = qsim.measure(states[key], (0, width), rng).bits
            if found in marked:
                break
        else:
            raise SearchExhaustedError("no hit")
        selected[weakest] = False
        selected[found] = True
        report.replacements += 1
    raise RuntimeError("no convergence")


@pytest.mark.parametrize("count,k", [(5, 3), (12, 4), (16, 5)])
def test_gate_search_equals_the_circuit_measured_search_in_distribution(count, k):
    # register values tie in threes, and the k-th best value is held by
    # three rows of which the search keeps any one; 2000 seeded searches
    # each way: the mean oracle calls, verifications and replacements, and
    # the frequency of every final set, agree within four standard errors
    values = RNG(count).permutation(np.arange(count) // 3).astype(float)
    table = make_table(values, mode="gate")
    runs, states = 2000, {}
    samples = {"closed form": [], "circuit": []}
    for seed in range(runs):
        neighbors, report = k_maximal_find(table, k, RNG(seed), mode="gate")
        samples["closed form"].append((tuple(neighbors.selected), report))
        samples["circuit"].append(_circuit_gate_search(values, k, RNG(runs + seed), states))
    for counter in ("oracle_calls", "verifications", "replacements"):
        a, b = (
            np.array([getattr(report, counter) for _, report in samples[side]], float)
            for side in samples
        )
        stderr = math.sqrt(a.var(ddof=1) / runs + b.var(ddof=1) / runs)
        assert abs(a.mean() - b.mean()) < 4.0 * stderr, counter
    finals = {side: [final for final, _ in samples[side]] for side in samples}
    for final in set(finals["closed form"]) | set(finals["circuit"]):
        p, q = (finals[side].count(final) / runs for side in finals)
        stderr = math.sqrt((p * (1 - p) + q * (1 - q)) / runs)
        assert abs(p - q) <= 4.0 * stderr, final
