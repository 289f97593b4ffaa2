"""Grover-style search for the k most similar training rows.

Closed forms: starting from the uniform state over S items with t of them
marked, l iterations leave marked amplitudes sin((2l+1)*theta)/sqrt(t) and
unmarked ones cos((2l+1)*theta)/sqrt(S-t), theta = asin(sqrt(t/S)). Every
attempt is drawn from them: the measured item is marked with probability
sin^2((2l+1)*theta), and a marked item found is uniform over the marked set,
whose amplitudes are all equal. The tests keep the phase-flip/diffusion
circuit, and a search that measures it, as the reference. The marked count
is unknown to the search, so each attempt draws its iteration count below a
bound that starts at 1, grows geometrically by 6/5 up to sqrt(S), and
restarts on failure (Boyer, Brassard, Hoyer and Tapp, Fortschr. Phys. 46,
493, 1998). A round stops after ``MAX_ATTEMPTS`` failed attempts and flags
the run as exhausted, which is not the same outcome as an empty marked set;
an empty set is charged the ceil(3 sqrt(S)) iterations a driver without
knowledge of t would spend before concluding absence.

The k-maximal search raises a threshold as Durr and Hoyer's minimum finding
does (arXiv:quant-ph/9607014, 1996): each round searches the unselected rows
for one that beats the weakest selected row and swaps it in. Both modes run
on ranks in one loop. The rows are ordered once per query, best first by
(value, then lower index) as fidelity kNN does, and the k selected ranks
are kept in a sorted list. A round's marked rows are the unselected ranks
below a bound f: with b selected ranks below f, the marked count is
t = f - b with no mask, and a hit is the u-th of those ranks for u uniform
in [0, t). The modes differ in the tie rule and in S:

- ``analytic`` compares (value, lower index), so f is the weakest selected
  rank, b = k - 1, and the weakest rank is swapped out. S = M: there is no
  index register, which is how training sizes far beyond the qubit budget
  stay reachable.
- ``gate`` compares register values alone, as the comparator does, and they
  tie by design. f is the first rank that holds the weakest selected value
  (one ``searchsorted`` per query gives it for every rank), so a row beats
  the weakest only with a larger value, and the row swapped out is the
  lowest index holding the minimum, the selected rank at position b.
  S = 2^ceil(log2 M), the padded index register, whose padding indices are
  never marked. Results equal those of the search measured on the circuit
  in distribution, not seed by seed.

The loop reads the uniforms of every attempt by index from bulk draws. The
simulator uses its knowledge of the marked set only to count it (which sets
the hit probability) and to skip a round in which nothing is marked, never
to bias which item is found.

Loop bounds: a round makes at most ``MAX_ATTEMPTS`` attempts of fewer than
sqrt(S) iterations each. A row swapped out never beats a later weakest row,
so it never re-enters: at most M - k swaps, hence at most M - k + 1 rounds.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import is_positive_integer
from .encoding import qubits_for
from .similarity import SimilarityTable

BOUND_GROWTH = 6.0 / 5.0  # geometric growth of the unknown-t iteration bound
MAX_ATTEMPTS = 64  # failed attempts after which a search counts as exhausted
UNIFORM_BLOCK = 256  # uniforms per bulk draw of the k-maximal search


class SearchExhaustedError(RuntimeError):
    """Raised when a Grover search spends its attempt budget without a hit
    although marked items exist."""


def _hit_probability(theta: float, iterations: int) -> float:
    """sin^2((2l+1)*theta): the marked probability after l iterations."""
    return math.sin((2 * iterations + 1) * theta) ** 2


@functools.lru_cache(maxsize=64)
def _iteration_caps(space_size: int) -> tuple[int, ...]:
    """Exclusive upper limit of each unknown-t attempt's iteration count."""
    sqrt_space = math.sqrt(space_size)
    caps, bound = [], 1.0
    for _ in range(MAX_ATTEMPTS):
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


def _best_first(values: np.ndarray) -> np.ndarray:
    """``np.argsort(-values, kind="stable")``: the faster default sort gives
    the same order unless two values tie, so only ties pay for the stable one.
    Integer values (gate registers) tie by design and go straight to it."""
    if values.dtype.kind in "iu":
        return np.argsort(-values, kind="stable")
    order = np.argsort(-values)
    ranked = values[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(-values, kind="stable")
    return order


def _rank_search(
    values: np.ndarray, start: np.ndarray, rng: np.random.Generator,
    report: KMaximalReport, mode: str,
) -> list[int]:
    """The rounds of either mode on ranks (rank 0 is the best row), in one
    loop; ``mode`` sets the tie rule and the index space (module docstring).

    Each round is an unknown-t search over ``space`` items with ``marked``
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
    if mode == "gate":
        # the first rank holding each rank's value; negated, the best-first
        # values ascend, as searchsorted needs
        ranked = -values[order]
        first_of_value = ranked.searchsorted(ranked).tolist()
        space = 1 << qubits_for(count)
    else:
        first_of_value, space = None, count
    caps = _iteration_caps(space)
    block, used = [], UNIFORM_BLOCK
    below = k - 1  # analytic: every other selected rank lies below the weakest
    for _ in range(count - k + 1):
        bound = ranks[-1]
        if first_of_value is not None:
            bound = first_of_value[bound]
            below = bisect.bisect_left(ranks, bound)
        marked = bound - below
        if marked == 0:
            run = _absence_report(space)
        else:
            theta = math.asin(math.sqrt(marked / space))
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
        ranks.pop(below)  # the weakest; in gate mode the lowest index holding the minimum
        bisect.insort(ranks, found)
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

    Both modes sort the rows once per query and run every round on ranks
    in one loop (see the module docstring). ``analytic`` mode ranks rows by
    (value, then lower index), as fidelity kNN does, so the result is the
    exact top k also under ties: the rows of
    ``np.argsort(-values, kind="stable")[:k]``. Its rounds search an index
    space of S = M items. ``gate`` mode compares register values alone
    (they tie by design): the weakest is the lowest index holding the
    minimum, a row beats it only with a larger value, and each round
    searches the index register padded to S = 2^ceil(log2 M) values. Its
    results equal those of measuring the Grover circuit in distribution,
    not seed by seed. Either way a search makes at most M - k + 1 rounds
    of at most ``MAX_ATTEMPTS`` attempts each. Raises
    ``SearchExhaustedError`` if a round runs out of attempts.
    """
    values = table.ranking_value
    count = values.size
    if not (is_positive_integer(k) and k <= count):
        raise ValueError(f"k must be an integer in 1..{count}, got {k!r}")
    if mode not in ("gate", "analytic"):
        raise ValueError(f"unknown mode '{mode}'")
    report = KMaximalReport()
    if k == count:
        return NeighborSet(selected=list(range(count))), report

    start = rng.choice(count, size=k, replace=False)
    selected = _rank_search(values, start, rng, report, mode)
    return NeighborSet(selected=sorted(selected)), report
