"""Grover-style search for the k most similar training rows.

Closed forms: starting from the uniform state over M items with t of them
marked, l iterations leave marked amplitudes sin((2l+1)*theta)/sqrt(t) and
unmarked ones cos((2l+1)*theta)/sqrt(M-t), theta = asin(sqrt(t/M)); the
known-t iteration count is floor(pi/(4*theta)).

Two execution paths: ``gate`` runs the actual phase-flip/diffusion circuit
on an index-register state vector and measures it; ``analytic`` draws the
measurement outcome from the same closed-form distribution without a state
vector, which is how training sizes far beyond the qubit budget stay
reachable. When the marked count is unknown the driver grows its iteration
bound geometrically by 6/5 and restarts on failure (Boyer, Brassard, Hoyer
and Tapp, Fortschr. Phys. 46, 493, 1998). Both schedules stop after
``max_attempts`` failed attempts and flag the run as exhausted, which is not
the same outcome as an empty marked set. This simulator uses its knowledge
of the marked set only to skip the search when nothing is marked, never to
bias which item is found.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import qsim
from .similarity import SimilarityTable

BOUND_GROWTH = 6.0 / 5.0  # geometric growth of the unknown-t iteration bound


class SearchExhaustedError(RuntimeError):
    """Raised when a Grover search spends its attempt budget without a hit
    although marked items exist."""


def rotation_angle(total: int, marked: int) -> float:
    if not 0 < marked <= total:
        raise ValueError("marked count must lie in 1..total")
    return math.asin(math.sqrt(marked / total))


def optimal_iterations(total: int, marked: int) -> int:
    """floor(pi / (4*theta)) — the known-t iteration count."""
    return int(math.pi / (4.0 * rotation_angle(total, marked)))


def grover_amplitudes(total: int, marked: int, iterations: int) -> tuple[float, float]:
    """Closed-form (marked, unmarked) amplitudes after ``iterations`` steps."""
    theta = rotation_angle(total, marked)
    phase = (2 * iterations + 1) * theta
    q = math.sin(phase) / math.sqrt(marked)
    s = math.cos(phase) / math.sqrt(total - marked) if marked < total else 0.0
    return q, s


def success_probability(total: int, marked: int, iterations: int) -> float:
    """Probability that measuring after ``iterations`` steps hits a marked item."""
    if marked == 0:
        return 0.0
    theta = rotation_angle(total, marked)
    return math.sin((2 * iterations + 1) * theta) ** 2


@dataclass
class GroverRunReport:
    """Trace of one search: per-attempt iteration counts, total oracle
    applications (one per Grover iteration), classical verifications of
    measured candidates, and the found index if any. ``exhausted`` is set
    when marked items exist but ``max_attempts`` attempts all failed."""

    found_index: int | None = None
    success: bool = False
    iterations_per_attempt: list[int] = field(default_factory=list)
    oracle_calls: int = 0
    verifications: int = 0
    exhausted: bool = False


def _gate_attempt(
    total: int, marked_values: np.ndarray, iterations: int, rng: np.random.Generator
) -> int | None:
    """Run the circuit for one attempt; return the measured index if it
    verifies as marked, else None."""
    width = max(1, math.ceil(math.log2(total)))
    if (1 << width) != total:
        raise ValueError("gate-mode search needs a power-of-two index space")
    state = qsim.new_register(width)
    for q in range(width):
        state = qsim.apply_hadamard(state, q)
    span = (0, width)
    for _ in range(iterations):
        state = qsim.apply_phase_flip(state, span, marked_values)
        state = qsim.apply_reflection_about_uniform(state, span, total)
    measured = qsim.measure(state, span, rng).bits
    return int(measured) if measured in set(marked_values.tolist()) else None


def _analytic_attempt(
    total: int, marked_values: np.ndarray, iterations: int, rng: np.random.Generator
) -> int | None:
    """Draw the verification outcome from the closed-form distribution."""
    t = marked_values.size
    p_marked = success_probability(total, t, iterations) if t else 0.0
    if t == total or rng.random() < p_marked:
        return int(rng.choice(marked_values))
    return None


def grover_find_greater(
    table: SimilarityTable,
    threshold: float,
    rng: np.random.Generator,
    eligible: np.ndarray | None = None,
    mode: str = "analytic",
    known_count: bool = False,
    max_attempts: int = 64,
    space_size: int | None = None,
    ties_below: int | None = None,
) -> GroverRunReport:
    """Search for an eligible row whose similarity exceeds ``threshold``.

    ``eligible`` restricts the marked set (the candidate pool). With
    ``ties_below`` set, rows below that index whose similarity equals
    ``threshold`` count as exceeding it (the index tie-break of the analytic
    k-maximal search). Absence of any match is a valid outcome reported as ``found_index=None`` with
    ``exhausted=False``; a budget spent without a hit sets ``exhausted``. The index
    space is padded to ``space_size`` (default: the table size rounded up to
    a power of two in gate mode) so the circuit stays realizable; padding
    values are never marked.
    """
    values = table.ranking_value
    count = values.size
    marked_mask = values > threshold
    if ties_below is not None:
        marked_mask[:ties_below] |= values[:ties_below] == threshold
    if eligible is not None:
        marked_mask = marked_mask & eligible
    marked_values = np.flatnonzero(marked_mask)

    if space_size is None:
        space_size = 1 << max(1, math.ceil(math.log2(count))) if mode == "gate" else count
    if space_size < count:
        raise ValueError("index space smaller than the table")
    attempt = _gate_attempt if mode == "gate" else _analytic_attempt
    if mode not in ("gate", "analytic"):
        raise ValueError(f"unknown mode '{mode}'")

    report = GroverRunReport()
    t = marked_values.size
    sqrt_space = math.sqrt(space_size)

    if t == 0:
        # nothing to find; charge the iteration budget a driver without
        # knowledge of t would spend before concluding absence
        report.oracle_calls = math.ceil(3.0 * sqrt_space)
        report.verifications = 1
        return report

    bound = 1.0  # unknown t: geometrically growing iteration bound
    for _ in range(max_attempts):
        if known_count:
            iterations = optimal_iterations(space_size, t)
        else:
            iterations = int(rng.integers(0, max(1, int(math.ceil(bound)))))
            bound = min(BOUND_GROWTH * bound, sqrt_space)
        report.iterations_per_attempt.append(iterations)
        report.oracle_calls += iterations
        report.verifications += 1
        found = attempt(space_size, marked_values, iterations, rng)
        if found is not None:
            report.found_index = found
            report.success = True
            return report
    report.exhausted = True
    return report


@dataclass
class NeighborSet:
    """Selected neighbor indices (0-based rows) and their complement."""

    selected: list[int]
    complement: list[int]


@dataclass
class KMaximalReport:
    rounds: list[GroverRunReport] = field(default_factory=list)
    replacements: int = 0
    oracle_calls: int = 0
    verifications: int = 0


def k_maximal_find(
    table: SimilarityTable,
    k: int,
    rng: np.random.Generator,
    mode: str = "analytic",
) -> tuple[NeighborSet, KMaximalReport]:
    """Iteratively improve a random k-subset until no excluded row beats its
    weakest member; with distinct similarities the result is the exact top k.
    This is the threshold-raising scheme of Durr and Hoyer's minimum finding
    (arXiv:quant-ph/9607014, 1996) applied to the weakest selected row.

    Each round searches the complement for a row that beats the weakest
    selected row and swaps it in. ``analytic`` mode ranks rows by (value,
    then lower index), as fidelity kNN does: the weakest is the highest
    index among the lowest values, and a row beats it with a larger value
    or an equal value at a lower index, so the result is the exact top k
    also under ties. ``gate`` mode compares register values alone (they tie
    by design): the weakest is the lowest index holding the minimum, and a
    row beats it only with a larger value. Either way a row swapped out
    never beats a later weakest, so it never re-enters: at most M - k swaps,
    hence M - k + 1 rounds.
    Raises ``SearchExhaustedError`` if a round runs out of attempts.
    """
    values = table.ranking_value
    count = values.size
    if not 1 <= k <= count:
        raise ValueError(f"k must lie in 1..{count}, got {k}")

    # the index tie-break costs mask work every round, so only pay it when
    # some values tie
    index_ties = mode == "analytic" and np.unique(values).size < count
    selected = np.zeros(count, dtype=bool)
    selected[rng.choice(count, size=k, replace=False)] = True
    report = KMaximalReport()

    if k < count:
        for _ in range(count - k + 1):
            selected_idx = np.flatnonzero(selected)
            selected_values = values[selected_idx]
            if index_ties:
                lowest = np.flatnonzero(selected_values == selected_values.min())
                weakest = selected_idx[lowest[-1]]
            else:
                weakest = selected_idx[np.argmin(selected_values)]
            run = grover_find_greater(
                table,
                float(values[weakest]),
                rng,
                eligible=~selected,
                mode=mode,
                ties_below=weakest if index_ties else None,
            )
            report.rounds.append(run)
            report.oracle_calls += run.oracle_calls
            report.verifications += run.verifications
            if run.exhausted:
                raise SearchExhaustedError(
                    f"round {len(report.rounds)}: no hit in {len(run.iterations_per_attempt)} attempts"
                )
            if not run.success:
                break
            selected[weakest] = False
            selected[run.found_index] = True
            report.replacements += 1
        else:
            raise RuntimeError(f"no convergence after {count - k + 1} rounds")

    chosen = np.flatnonzero(selected)
    rest = np.flatnonzero(~selected)
    return NeighborSet(selected=chosen.tolist(), complement=rest.tolist()), report
