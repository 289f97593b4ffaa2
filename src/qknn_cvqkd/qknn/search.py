"""Grover-style search for the k most similar training rows.

Closed forms: starting from the uniform state over M items with t of them
marked, l iterations leave marked amplitudes sin((2l+1)*theta)/sqrt(t) and
unmarked ones cos((2l+1)*theta)/sqrt(M-t), theta = asin(sqrt(t/M)).

Both execution paths draw each attempt's outcome from these closed forms;
the tests keep the phase-flip/diffusion circuit as the reference. ``gate``
measures the index register padded to 2^w values: it spreads the marked and
unmarked probabilities over the indices, builds their CDF as
``Generator.choice`` does and draws the index with one uniform, so every
random stream is the one measuring the circuit's state gives. A
zero-iteration attempt, the most common under the small early bounds, draws
from the outcome CDF of the Hadamard-layer start state, built once per width
and shared read-only. ``analytic`` draws only whether the verification
succeeds, without an index register, which is how training sizes far beyond
the qubit budget stay reachable. The marked count is unknown to the search,
so each attempt draws its iteration count below a bound that starts at 1,
grows geometrically by 6/5 up to sqrt(M), and restarts on failure (Boyer,
Brassard, Hoyer and Tapp, Fortschr. Phys. 46, 493, 1998). A round stops
after ``MAX_ATTEMPTS`` failed attempts and flags the run as exhausted, which
is not the same outcome as an empty marked set; an empty set is charged the
ceil(3 sqrt(M)) iterations a driver without knowledge of t would spend
before concluding absence.

The k-maximal search raises a threshold as Durr and Hoyer's minimum finding
does (arXiv:quant-ph/9607014, 1996): each round searches the unselected rows
for one that beats the weakest selected row and swaps it in. The analytic
path runs on ranks. It orders the rows once per query, best first by
(similarity, then lower index) as fidelity kNN does, and keeps the k
selected ranks in a sorted list. The weakest selected row holds the largest
selected rank w, and the rows that beat it are exactly the unselected ranks
below w, so the marked count is t = w - (k - 1) with no mask, and a hit is
the u-th of those ranks for u uniform in [0, t). All rounds run in one
loop, which reads the uniforms of every attempt by index from bulk draws.
The simulator uses its knowledge of the marked set only to count it (which
sets the hit probability) and to skip a round in which nothing is marked,
never to bias which item is found.

Loop bounds: a round makes at most ``MAX_ATTEMPTS`` attempts of fewer than
sqrt(M) iterations each. A row swapped out never beats a later weakest row,
so it never re-enters: at most M - k swaps, hence at most M - k + 1 rounds.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .. import qsim
from .similarity import SimilarityTable

BOUND_GROWTH = 6.0 / 5.0  # geometric growth of the unknown-t iteration bound
MAX_ATTEMPTS = 64  # failed attempts after which a search counts as exhausted
UNIFORM_BLOCK = 256  # uniforms per bulk draw of the analytic k-maximal search


class SearchExhaustedError(RuntimeError):
    """Raised when a Grover search spends its attempt budget without a hit
    although marked items exist."""


def _hit_probability(theta: float, iterations: int) -> float:
    """sin^2((2l+1)*theta): the marked probability after l iterations."""
    return math.sin((2 * iterations + 1) * theta) ** 2


@functools.lru_cache(maxsize=64)
def _iteration_caps(space_size: int, max_attempts: int) -> tuple[int, ...]:
    """Exclusive upper limit of each unknown-t attempt's iteration count."""
    sqrt_space = math.sqrt(space_size)
    caps, bound = [], 1.0
    for _ in range(max_attempts):
        caps.append(max(1, math.ceil(bound)))
        bound = min(BOUND_GROWTH * bound, sqrt_space)
    return tuple(caps)


@dataclass
class GroverRunReport:
    """Trace of one search: per-attempt iteration counts, total oracle
    applications (one per Grover iteration), classical verifications of
    measured candidates, and the found index if any. ``exhausted`` is set
    when marked items exist but every attempt of the round failed."""

    found_index: int | None = None
    success: bool = False
    iterations_per_attempt: list[int] = field(default_factory=list)
    oracle_calls: int = 0
    verifications: int = 0
    exhausted: bool = False


def _absence_report(space_size: int) -> GroverRunReport:
    """Nothing is marked: one verification and the unknown-t budget."""
    return GroverRunReport(oracle_calls=math.ceil(3.0 * math.sqrt(space_size)), verifications=1)


@functools.lru_cache(maxsize=16)
def _start_state(width: int) -> qsim.StateVector:
    """H on every qubit of a fresh ``width``-qubit register, the state a
    zero-iteration attempt measures; built once per width and read-only."""
    state = qsim.new_register(width)
    for q in range(width):
        state = qsim.apply_hadamard(state, q)
    state.amplitudes.flags.writeable = False
    return state


@functools.lru_cache(maxsize=16)
def _start_cdf(width: int) -> np.ndarray:
    """Outcome CDF of ``_start_state(width)``, which is all a zero-iteration
    attempt measures; built once per width and read-only."""
    cdf = qsim.outcome_cdf(_start_state(width), (0, width))
    cdf.flags.writeable = False
    return cdf


def _grover_cdf(width: int, marked_values: np.ndarray, iterations: int) -> np.ndarray:
    """Outcome CDF of the ``width``-qubit index register after
    ``iterations`` >= 1 Grover iterations from the closed-form
    probabilities, sin^2((2l+1)theta)/t on each marked index and
    cos^2((2l+1)theta)/(2^w - t) on the rest; built as
    ``Generator.choice`` builds it (cumulative sum over its last entry)."""
    total, t = 1 << width, marked_values.size
    phase = (2 * iterations + 1) * math.asin(math.sqrt(t / total))
    probs = np.full(total, math.cos(phase) ** 2 / (total - t) if t < total else 0.0)
    probs[marked_values] = math.sin(phase) ** 2 / t
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _gate_attempt(
    width: int, marked_values: np.ndarray, iterations: int, rng: np.random.Generator
) -> int:
    """Measure the ``width``-qubit index register after ``iterations``
    Grover iterations and return the measured index."""
    if iterations == 0:
        return qsim.draw_outcome(_start_cdf(width), rng)
    return qsim.draw_outcome(_grover_cdf(width, marked_values, iterations), rng)


def _attempts(
    marked_mask: np.ndarray, marked_values: np.ndarray, width: int,
    caps: tuple[int, ...], rng: np.random.Generator,
) -> GroverRunReport:
    """A gate round's attempts, one per entry of ``caps``, until a hit: each
    measures the ``width``-qubit index register and checks the index
    against ``marked_mask``."""
    report = GroverRunReport()
    for cap in caps:
        iterations = int(rng.integers(0, cap))
        report.iterations_per_attempt.append(iterations)
        report.oracle_calls += iterations
        report.verifications += 1
        found = _gate_attempt(width, marked_values, iterations, rng)
        if found < marked_mask.size and marked_mask[found]:
            report.found_index = found
            report.success = True
            return report
    report.exhausted = True
    return report


@dataclass
class NeighborSet:
    """Selected neighbor indices (0-based rows, ascending)."""

    selected: list[int]


@dataclass
class KMaximalReport:
    rounds: list[GroverRunReport] = field(default_factory=list)
    replacements: int = 0
    oracle_calls: int = 0
    verifications: int = 0


def _add_round(report: KMaximalReport, run: GroverRunReport) -> None:
    report.rounds.append(run)
    report.oracle_calls += run.oracle_calls
    report.verifications += run.verifications
    if run.exhausted:
        raise SearchExhaustedError(
            f"round {len(report.rounds)}: no hit in {len(run.iterations_per_attempt)} attempts"
        )


def _best_first(values: np.ndarray) -> np.ndarray:
    """``np.argsort(-values, kind="stable")``: the faster default sort gives
    the same order unless two values tie, so only ties pay for the stable one."""
    order = np.argsort(-values)
    ranked = values[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(-values, kind="stable")
    return order


def _rank_search(
    values: np.ndarray, start: np.ndarray, rng: np.random.Generator, report: KMaximalReport
) -> list[int]:
    """Analytic rounds on ranks (rank 0 is the best row), in one loop.

    Each round is an unknown-t search over ``count`` items with ``marked``
    of them marked, on the closed-form distribution. An attempt reads one
    uniform for its iteration count, one against the hit probability and,
    on a hit, one for the position in [0, marked) of the marked item found.
    Uniforms come in blocks of ``UNIFORM_BLOCK``, read in order; a block is
    drawn only when the next uniform is needed, so a search that marks
    nothing draws none.
    """
    count, k = values.size, start.size
    order = _best_first(values)
    rank_of = np.empty(count, dtype=np.intp)
    rank_of[order] = np.arange(count)
    ranks = sorted(rank_of[start].tolist())
    caps = _iteration_caps(count, MAX_ATTEMPTS)
    block, used = [], UNIFORM_BLOCK
    for _ in range(count - k + 1):
        marked = ranks[-1] - (k - 1)
        if marked == 0:
            run = _absence_report(count)
        else:
            theta = math.asin(math.sqrt(marked / count))
            run = GroverRunReport()
            attempts = run.iterations_per_attempt
            for cap in caps:
                if used == UNIFORM_BLOCK:
                    block, used = rng.random(UNIFORM_BLOCK).tolist(), 0
                iterations = int(block[used] * cap)
                used += 1
                attempts.append(iterations)
                run.oracle_calls += iterations
                if used == UNIFORM_BLOCK:
                    block, used = rng.random(UNIFORM_BLOCK).tolist(), 0
                used += 1
                if block[used - 1] < _hit_probability(theta, iterations):
                    run.success = True
                    break
            run.verifications = len(attempts)
            run.exhausted = not run.success
        report.rounds.append(run)
        report.oracle_calls += run.oracle_calls
        report.verifications += run.verifications
        if run.exhausted:
            raise SearchExhaustedError(
                f"round {len(report.rounds)}: no hit in {len(attempts)} attempts"
            )
        if not run.success:
            return order[ranks].tolist()
        if used == UNIFORM_BLOCK:
            block, used = rng.random(UNIFORM_BLOCK).tolist(), 0
        # the position-th unselected rank: step over the selected ranks up to it
        found = int(block[used] * marked)
        used += 1
        for rank in ranks:
            if rank > found:
                break
            found += 1
        run.found_index = int(order[found])
        ranks.pop()
        bisect.insort(ranks, found)
        report.replacements += 1
    raise RuntimeError(f"no convergence after {count - k + 1} rounds")


def _gate_search(
    values: np.ndarray, start: np.ndarray, rng: np.random.Generator, report: KMaximalReport
) -> list[int]:
    """Gate-mode rounds, in one loop: register values compared alone, each
    round an unknown-t search over the padded index register."""
    count, k = values.size, start.size
    width = max(1, math.ceil(math.log2(count)))
    space_size = 1 << width
    caps = _iteration_caps(space_size, MAX_ATTEMPTS)
    selected = np.zeros(count, dtype=bool)
    selected[start] = True
    for _ in range(count - k + 1):
        selected_idx = np.flatnonzero(selected)
        weakest = selected_idx[np.argmin(values[selected_idx])]
        marked_mask = (values > values[weakest]) & ~selected
        marked_values = np.flatnonzero(marked_mask)
        if marked_values.size == 0:
            run = _absence_report(space_size)
        else:
            run = _attempts(marked_mask, marked_values, width, caps, rng)
        _add_round(report, run)
        if not run.success:
            return selected_idx.tolist()
        selected[weakest] = False
        selected[run.found_index] = True
        report.replacements += 1
    raise RuntimeError(f"no convergence after {count - k + 1} rounds")


def k_maximal_find(
    table: SimilarityTable,
    k: int,
    rng: np.random.Generator,
    mode: str = "analytic",
) -> tuple[NeighborSet, KMaximalReport]:
    """Improve a random k-subset of rows, one swap per round, until no
    unselected row beats its weakest member.

    ``analytic`` mode ranks rows by (value, then lower index), as fidelity
    kNN does, so the result is the exact top k also under ties: the rows of
    ``np.argsort(-values, kind="stable")[:k]``. It sorts once per query and
    runs every round on ranks with an O(1) marked count (see the module
    docstring). ``gate`` mode compares register values alone (they tie by
    design): the weakest is the lowest index holding the minimum, a row
    beats it only with a larger value, and each round measures the index
    register from the closed-form distribution of the circuit.
    Either way a search makes at most M - k + 1 rounds of at most
    ``MAX_ATTEMPTS`` attempts each. Raises ``SearchExhaustedError`` if a
    round runs out of attempts.
    """
    values = table.ranking_value
    count = values.size
    if not 1 <= k <= count:
        raise ValueError(f"k must lie in 1..{count}, got {k}")
    if mode not in ("gate", "analytic"):
        raise ValueError(f"unknown mode '{mode}'")
    report = KMaximalReport()
    if k == count:
        return NeighborSet(selected=list(range(count))), report

    start = rng.choice(count, size=k, replace=False)
    if mode == "analytic":
        selected = _rank_search(values, start, rng, report)
    else:
        selected = _gate_search(values, start, rng, report)
    return NeighborSet(selected=sorted(selected)), report
