"""Similarity tables: swap-test probabilities, their amplitude estimates,
and the integer similarity register values the search stage consumes.

Both execution modes read the swap-test probability in closed form,
P(0) = (1 + |<a|b>|^2) / 2 (Buhrman, Cleve, Watrous and de Wolf, PRL 87,
167902 (2001)), from the closed-form fidelity of the amplitude encodings;
the tests keep the simulated swap-test circuit as the reference. The modes
differ after that. ``analytic`` takes P(0) exactly and ranks on the fidelity
itself, so rows tie exactly when their fidelities do (the continuous
similarity, whose rounding can merge fidelities an ulp apart, and the
register value are still reported, derived when first read; see
``SimilarityTable``). ``gate`` amplitude-estimates P(0) to
error delta and ranks on the integer register contents, as the search
hardware would. A gate table keeps each row's folded modal outcome sigma
(below) on the grid G; its estimate and its register value depend on
sigma, G and the row count M alone, so both are read by sigma from tables
built once per grid and once per (G, M).

Amplitude estimation phase-estimates the amplification operator, a rotation
by 2*theta (a = sin^2 theta), on a counting register of grid G = 2^m. Its
outcome distribution is known in closed form (Brassard, Hoyer, Mosca and
Tapp, Contemp. Math. 305, 53 (2002), Thm 11), an equal mixture of two Fejer
kernels at the eigenphases +-theta/pi:

    P(sigma) = [F(sigma/G - theta/pi) + F(sigma/G + theta/pi)] / 2,
    F(x) = sin^2(pi G x) / (G sin(pi x))^2,  F = 1 where sin(pi x) = 0.

All estimates are read off this distribution, every row at once; the tests
keep the gate-by-gate circuit as the reference. The estimate is
sin^2(pi sigma/G) at the modal outcome, deterministic and inside the error
bound. P is symmetric under sigma -> G - sigma, and which mirror outcome
``argmax`` meets first turns on rounding, so the mode is folded to
min(sigma, G - sigma) to make the register value independent of it.

The register value of a folded outcome is
min(floor((M/pi) asin sqrt(sin^2(pi sigma/G))), M - 1). Its per-(G, M)
table applies that ufunc chain to the per-grid estimates, elementwise, so
every entry has the bits of the formula on a gathered estimate, as the
tests check for every sigma at G = 2 .. 4096. The closer-looking
floor(M sigma/G) is not the same map: rounding in the arcsine moves 391 of
the 32,856 entries of G = 2 .. 4096 and M in {1, 2, 3, 5, 16, 17, 300,
2048}.

The mode is searched only over a window around the two peaks: with
c = floor(G theta/pi), the outcomes c-2 .. c+3 and their mirrors
G-c-3 .. G-c+2, all mod G, in ascending order so ``argmax`` keeps the full
grid's lowest-outcome tie rule. At integer outcomes the numerator
sin^2(pi G x) of a kernel is constant, so the kernel falls off monotonically
with the circular distance to its peak: the mode reads at least
(2/pi)^2 / 2 ~ 0.20, and every outcome outside the window lies 3 or more
steps from both peaks and reads at most 1/(G sin(3 pi/G))^2 < 0.02. The
tests check the window against the full-grid argmax at every grid amplitude
sin^2(pi sigma/G), every midpoint and the 1-ulp neighbours of both for
G = 2 .. 1024 (up to 4096 with the outcomes far from both peaks bounded
instead of evaluated) and on a 2048-row table at delta = 0.01; rounding
G theta/pi to the nearest outcome alone picks a different mode for some of
them. A batch holds (rows, 12) values instead of (rows, G); only
``amplitude_estimate`` of one amplitude evaluates, and returns, the whole
distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dataset import TrainingSet
from .encoding import EncodingError, fidelity_to_rows, qubits_for


def swap_test_probability(fidelity) -> np.ndarray | float:
    """Probability of reading 0 on the swap-test control qubit."""
    return (1.0 + np.asarray(fidelity)) / 2.0


def required_iterations(delta: float) -> int:
    """Smallest operator-iteration count meeting an estimation error of
    ``delta``: ceil(pi*(pi+1)/delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(math.pi * (math.pi + 1.0) / delta)


def estimation_error_bound(iterations: int) -> float:
    """Guaranteed |a - estimate| bound: pi/R + pi^2/R^2."""
    return math.pi / iterations + (math.pi / iterations) ** 2


@dataclass(frozen=True)
class AmplitudeEstimate:
    estimate: float
    register_value: int
    grid_size: int
    iterations_requested: int
    distribution: np.ndarray = field(repr=False)


def _fejer(x: np.ndarray, grid: int) -> np.ndarray:
    """F(x) = sin^2(pi G x) / (G sin(pi x))^2, with F = 1 where sin(pi x) = 0."""
    x = x - np.rint(x)  # F has period 1; sin(pi x) vanishes only at x = 0
    kernel = np.ones_like(x)
    np.divide(np.sin(np.pi * grid * x), grid * np.sin(np.pi * x), out=kernel, where=x != 0.0)
    return np.square(kernel, out=kernel)


# outcomes c-2 .. c+3 around c = floor(G theta/pi) and their mirrors -(c-2) .. -(c+3)
_WINDOW = np.arange(-2, 4)
_WINDOW_SIGNS = np.repeat([1, -1], _WINDOW.size)
_WINDOW_OFFSETS = np.concatenate([_WINDOW, -_WINDOW])
_PHASE_SIGNS = np.array([1.0, -1.0])  # x - phase and x + phase, one kernel per eigenphase


def _mixture(outcomes: np.ndarray, phase, grid: int) -> np.ndarray:
    """P(sigma) at the integer ``outcomes`` for the eigenphase(s) ``phase``."""
    x = outcomes / grid
    # both kernels in one call, on a leading axis of length 2: elementwise, two calls' bits
    signs = _PHASE_SIGNS.reshape((2,) + (1,) * max(np.ndim(x), np.ndim(phase)))
    kernels = _fejer(x - signs * phase, grid)
    return 0.5 * (kernels[0] + kernels[1])


def _folded_modes(phase: np.ndarray, grid: int) -> np.ndarray:
    """Folded modal outcome of each phase, searched over the window around
    both peaks (module docstring)."""
    peak = np.floor(grid * phase).astype(np.int64)
    window = (peak[:, None] * _WINDOW_SIGNS + _WINDOW_OFFSETS) % grid
    window.sort(axis=1)
    best = np.argmax(_mixture(window, phase[:, None], grid), axis=1)
    modes = window[np.arange(window.shape[0]), best]
    return np.minimum(modes, grid - modes)


@lru_cache(maxsize=16)
def _grid_estimates(grid: int) -> np.ndarray:
    """sin^2(pi sigma/G) at every folded outcome sigma = 0 .. G/2: one table
    per grid, so a row's estimate does not depend on the batch; built once
    per grid and read-only."""
    estimates = np.sin(np.pi * np.arange(grid // 2 + 1) / grid) ** 2
    estimates.flags.writeable = False
    return estimates


def _continuous_similarity(p_zero: np.ndarray, size: int) -> np.ndarray:
    """(M/pi) arcsin(sqrt(P(0))), P(0) clipped to [0, 1]."""
    return (size / math.pi) * np.arcsin(np.sqrt(np.clip(p_zero, 0.0, 1.0)))


def _register_values(continuous: np.ndarray, size: int) -> np.ndarray:
    """floor of the continuous similarity, capped at M - 1."""
    return np.minimum(np.floor(continuous).astype(int), size - 1)


@lru_cache(maxsize=64)
def _grid_registers(grid: int, size: int) -> np.ndarray:
    """The register value of every folded outcome sigma = 0 .. G/2 for M =
    ``size`` rows: the ufunc chain of an eager register column applied to
    ``_grid_estimates(grid)``, elementwise, so a gathered entry has the
    bits of the formula on the gathered estimate. Built once per (G, M) and
    read-only."""
    registers = _register_values(_continuous_similarity(_grid_estimates(grid), size), size)
    registers.flags.writeable = False
    return registers


def _estimate_amplitudes(amplitudes, iterations: int):
    """Modal estimates of every amplitude: (estimates, folded modes, grid,
    theta/pi of every amplitude)."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    # P(0) of a query equal to a row can read a few ulps above 1: clip rounding, reject the rest
    if not (amplitudes.min() >= -1e-12 and amplitudes.max() <= 1.0 + 1e-12):
        in_range = (amplitudes >= -1e-12) & (amplitudes <= 1.0 + 1e-12)  # NaN fails too
        raise ValueError(f"amplitudes must lie in [0, 1], got {amplitudes[~in_range]}")
    if iterations < 1:
        raise ValueError("need at least one operator iteration")
    grid = 1 << qubits_for(iterations)

    phase = np.arcsin(np.sqrt(np.clip(amplitudes, 0.0, 1.0))) / np.pi
    folded = _folded_modes(phase, grid)
    return _grid_estimates(grid)[folded], folded, grid, phase


def amplitude_estimate(amplitude: float, iterations: int) -> AmplitudeEstimate:
    """Amplitude estimation of one good-subspace probability, on the
    smallest grid at least as fine as ``iterations``, with its full outcome
    distribution."""
    estimates, folded, grid, phase = _estimate_amplitudes([amplitude], iterations)
    return AmplitudeEstimate(
        estimate=float(estimates[0]),
        register_value=int(folded[0]),
        grid_size=grid,
        iterations_requested=iterations,
        distribution=_mixture(np.arange(grid), phase[0], grid),
    )


@dataclass(frozen=True)
class GateReadout:
    """Each row's folded modal outcome sigma on the counting grid G."""

    outcomes: np.ndarray
    grid_size: int


@dataclass(frozen=True)
class SimilarityTable:
    """Per-training-row similarity record bridging the quantum and classical
    stages. ``ranking_value`` is what the k-maximal search compares:
    the fidelity in analytic mode, the integer register value in gate
    mode.

    A table holds the fidelities and, in gate mode, each row's folded modal
    outcome sigma on the counting grid G (``readout``). The other columns are derived on first access and then kept:
    ``ideal_p_zero`` = (1 + fidelity) / 2; ``estimated_p_zero``, which is
    ``ideal_p_zero`` itself in analytic mode and sin^2(pi sigma/G) in gate
    mode; ``sim_continuous`` = (M/pi) arcsin(sqrt(estimated P(0))), and
    ``sim_register``, its floor capped at M - 1. A gate table reads its
    estimates and its registers by sigma from tables built once per grid
    and once per (G, M), so a gate query evaluates neither formula; the
    analytic register keeps the formula, since its input is continuous.
    Analytic ranking reads the fidelity alone, so an analytic query
    computes none of the derived columns unless a caller asks.
    """

    fidelity: np.ndarray
    mode: str
    readout: GateReadout | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.fidelity.size

    @property
    def register_width(self) -> int:
        return qubits_for(self.size)

    @cached_property
    def ideal_p_zero(self) -> np.ndarray:
        return swap_test_probability(self.fidelity)

    @cached_property
    def estimated_p_zero(self) -> np.ndarray:
        if self.readout is None:
            return self.ideal_p_zero
        return _grid_estimates(self.readout.grid_size)[self.readout.outcomes]

    @cached_property
    def sim_continuous(self) -> np.ndarray:
        return _continuous_similarity(self.estimated_p_zero, self.size)

    @cached_property
    def sim_register(self) -> np.ndarray:
        if self.readout is None:
            return _register_values(self.sim_continuous, self.size)
        return _grid_registers(self.readout.grid_size, self.size)[self.readout.outcomes]

    @property
    def ranking_value(self) -> np.ndarray:
        return self.fidelity if self.mode == "analytic" else self.sim_register


def compute_similarity_table(
    train: TrainingSet | np.ndarray,
    query: np.ndarray,
    mode: str = "analytic",
    delta: float = 0.1,
) -> SimilarityTable:
    """Build the similarity record of one query against every training row.

    Every row's P(0) comes from the closed-form fidelity. ``analytic`` mode
    keeps it exact; ``gate`` mode amplitude-estimates it on the grid of
    ``required_iterations(delta)`` iterations (the folded modal outcome) and
    ranks on the resulting integer ``sim_register``. ``delta`` must lie in
    (0, 1) in either mode.
    """
    if mode not in ("analytic", "gate"):
        raise ValueError(f"unknown mode '{mode}'")
    iterations = required_iterations(delta)  # checks delta in either mode
    query = np.asarray(query, dtype=float)
    if query.ndim != 1:
        raise EncodingError("query must be a single feature vector")
    fidelity = fidelity_to_rows(train, query)
    if mode == "analytic":
        return SimilarityTable(fidelity=fidelity, mode=mode)
    _, outcomes, grid, _ = _estimate_amplitudes(swap_test_probability(fidelity), iterations)
    return SimilarityTable(fidelity=fidelity, mode=mode, readout=GateReadout(outcomes, grid))
