"""Asymptotic secret-key rates for discretely-modulated CVQKD.

Conventional scheme: K = beta*I_AB - chi_BE. Classifier-assisted scheme:
K = beta*Lambda*I_AB - chi_BE/N, where Lambda is the classifier's macro AUC
and 1/N is an eavesdropper's chance of guessing the label-to-bits assignment
of an N-point constellation.

The channel stage reads the covariance matrix [[V*I, Z*sz], [Z*sz, b*I]]
of Alice's and Bob's modes, V = V_m + 1 and b = T*(V_m + xi) + 1, in
shot-noise units (Lodewyck et al., PRA 76, 042305 (2007)), and chi_het of
Bob's trusted detector from ``optics.heterodyne_added_noise``, the one rule
the samples are drawn with too. With h = b + chi_het, I_AB = log2(h / (h - T*V_m)).

The correlation Z of the effective Gaussian state is evaluated in a
truncated Fock space from the constellation's average state tau:
  Z = 2*sqrt(T)*tr(tau^{1/2} a tau^{1/2} a^dag) - sqrt(2*T*xi*w),
  w = sum_k p_k (<alpha_k|a_tau^dag a_tau|alpha_k> - |<alpha_k|a_tau|alpha_k>|^2),
  a_tau = tau^{1/2} a tau^{-1/2}  (pseudo-inverse on the support of tau).
For Gaussian modulation Z reduces to sqrt(T*(V^2-1)); the discrete
constellation's penalty is what caps the conventional key rate at large
modulation variance.

The Fock space is truncated by one rule, applied by ``fock_magnitudes`` alone:
the norm deficit 1 - sum_{n<D} c_n^2 of the returned amplitudes is at most
1e-12. An automatic cutoff D is the first of 16, 20, ..., 512 that passes, and
``build_tau`` reads D off the vector, so no cutoff fails its own check.

For an N-PSK ring, <n|alpha_k> = c_n omega^{kn} with omega = e^{2 pi i/N}
and c_n the Fock amplitudes of |alpha|, so tau is block-diagonal in n mod N
and each block is rank one: tau = sum_r |u_r><u_r| with (u_r)_n = c_n for
n = r mod N, and eigenvalue lambda_r = |u_r|^2 (Papanastasiou et al., PRA 98,
012340 (2018); Denys, Brown and Leverrier, Quantum 5, 540 (2021)). As
sqrt(n) c_n = alpha c_{n-1}, the truncated a maps u_r onto alpha u_{r-1},
less the top level D-1 that it drops, so the trace and w couple neighbouring
blocks only and reduce to N scalars:
  g_r = alpha (lambda_{r-1} - eps_r) / sqrt(lambda_{r-1} lambda_r),
  eps_r = c_{D-1}^2 on the block r = D mod N and 0 on the others,
  tr(tau^{1/2} a tau^{1/2} a^dag) = sum_r g_r^2 sqrt(lambda_{r-1} lambda_r),
  w = sum_r g_r^2 lambda_{r-1} - (sum_r g_r lambda_{r-1})^2,
with g_r = 0 unless lambda_{r-1} and lambda_r both exceed ``EIGENVALUE_FLOOR``.
Every ring point gives the same w, so the average over k is that value. A
key-rate point costs O(D) for the amplitudes and O(N) for the moments, with
no D x D matrix; the matrix form of the same expressions is the reference
in tests/test_secrate.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .optics import Constellation, heterodyne_added_noise, transmittance_at_loss
from .qknn.dataset import is_positive_integer

FOCK_TAIL_TOLERANCE = 1e-12
MIN_FOCK_CUTOFF = 16
MAX_FOCK_CUTOFF = 512
EIGENVALUE_FLOOR = 1e-12


class KeyRateDomainError(ValueError):
    """Raised when parameters leave the physical domain of the formulas."""


@dataclass(frozen=True)
class KeyRateInputs:
    """Everything the asymptotic rate formulas consume."""

    modulation_variance: float
    transmittance: float
    excess_noise: float
    detector_efficiency: float
    electronic_noise: float
    reconciliation_efficiency: float
    psk_order: int
    classifier_auc: float = 1.0
    fock_cutoff: int | None = None

    def __post_init__(self):
        # each test is a negated in-range comparison, so NaN fails it too
        if not 0.0 < self.modulation_variance < math.inf:
            raise KeyRateDomainError("modulation variance must be positive and finite")
        if not 0.0 < self.transmittance <= 1.0:
            raise KeyRateDomainError("transmittance must lie in (0, 1]")
        if not (0.0 <= self.excess_noise < math.inf and 0.0 <= self.electronic_noise < math.inf):
            raise KeyRateDomainError("noise parameters must be non-negative and finite")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise KeyRateDomainError("detector efficiency must lie in (0, 1]")
        if not 0.0 < self.reconciliation_efficiency <= 1.0:
            raise KeyRateDomainError("reconciliation efficiency must lie in (0, 1]")
        if not is_positive_integer(self.psk_order):
            raise KeyRateDomainError("PSK order must be an integer of at least 1")
        if not 0.0 <= self.classifier_auc <= 1.0:
            raise KeyRateDomainError("classifier AUC must lie in [0, 1]")
        if self.fock_cutoff is not None and not is_positive_integer(self.fock_cutoff):
            raise KeyRateDomainError("Fock cutoff must be None or an integer of at least 1")

    @property
    def ensemble_variance(self) -> float:
        """V = V_m + 1."""
        return self.modulation_variance + 1.0

    @property
    def constellation(self) -> Constellation:
        return Constellation(self.psk_order, self.modulation_variance)

    @property
    def bob_variance(self) -> float:
        """b = T*(V_m + xi) + 1, Bob's quadrature variance before detection."""
        return self.transmittance * (self.modulation_variance + self.excess_noise) + 1.0

    def at_loss_db(self, loss_db: float) -> "KeyRateInputs":
        return replace(self, transmittance=transmittance_at_loss(loss_db))


def mutual_information(inputs: KeyRateInputs) -> float:
    """Shannon information of the heterodyne channel, log2(h / (h - T*V_m)),
    h = b + chi_het; h - T*V_m = 1 + T*xi + chi_het >= 2 for valid inputs.
    Taken as log1p(T*V_m / (h - T*V_m)) / ln 2, which keeps a few ulps where
    the ratio is near 1 and log2 of it would lose its low bits."""
    chi_het = heterodyne_added_noise(inputs.detector_efficiency, inputs.electronic_noise)
    signal = inputs.transmittance * inputs.modulation_variance
    noise = inputs.bob_variance + chi_het - signal
    return math.log1p(signal / noise) / math.log(2.0)


# ---------------------------------------------------------------------------
# Fock-space machinery for the correlation term
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _half_log_factorials(n_max: int) -> np.ndarray:
    """log(n!)/2 for n < n_max; built once per cutoff and read-only."""
    table = 0.5 * np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max)))])
    table.flags.writeable = False
    return table


def fock_magnitudes(magnitude: float, n_max: int | None = None) -> np.ndarray:
    """Real amplitudes c_n = e^{-r^2/2} r^n / sqrt(n!) of a coherent state, r >= 0.
    Given ``n_max``, the vector has that length and raises if its norm deficit
    exceeds ``FOCK_TAIL_TOLERANCE``; otherwise it is the shortest passing prefix
    of length 16, 20, ..., 512 of a 32-entry vector, doubled as needed. Both
    running sums are sequential, so a prefix carries the bits of the shorter
    vector and passes the explicit check at its own length."""
    if n_max is not None and n_max < 1:
        raise ValueError("need at least the vacuum component")
    if not 0.0 <= magnitude < math.inf:  # NaN fails too
        raise KeyRateDomainError(f"|alpha| = {magnitude} is not non-negative and finite")
    length = n_max or 2 * MIN_FOCK_CUTOFF
    while True:
        if magnitude > 0:
            log_mag = np.arange(length) * np.log(magnitude)
            amps = np.exp(-magnitude * magnitude / 2.0 + log_mag - _half_log_factorials(length))
        else:
            amps = np.eye(1, length)[0]
        deficits = 1.0 - np.add.accumulate(amps * amps)
        if n_max is not None:
            if deficits[-1] > FOCK_TAIL_TOLERANCE:
                raise KeyRateDomainError(
                    f"Fock cutoff {n_max} leaves norm deficit {deficits[-1]:.2e} "
                    f"for |alpha| = {magnitude}"
                )
            return amps
        # a running sum of non-negative terms never decreases, so the
        # failing candidate lengths are the leading ones
        failing = np.count_nonzero(deficits[MIN_FOCK_CUTOFF - 1 :: 4] > FOCK_TAIL_TOLERANCE)
        if MIN_FOCK_CUTOFF + 4 * failing <= length:
            return amps[: MIN_FOCK_CUTOFF + 4 * failing]
        if length == MAX_FOCK_CUTOFF:
            raise KeyRateDomainError(f"no workable Fock cutoff for |alpha|^2 = {magnitude**2}")
        length = min(2 * length, MAX_FOCK_CUTOFF)


@dataclass(frozen=True)
class PskRing:
    """The average state tau of an N-PSK ring by its N rank-one blocks: the
    Fock amplitudes c_n of the ring's |alpha| below the cutoff D = ``n_max``,
    the block weights lambda_r = sum of c_n^2 over n = r mod N, and the number
    of blocks above ``EIGENVALUE_FLOOR``."""

    amplitude: float
    amplitudes: np.ndarray
    weights: tuple[float, ...]
    n_max: int
    support_dim: int


def build_tau(constellation: Constellation, n_max: int | None = None) -> PskRing:
    """Average state tau = (1/N) sum_k |alpha_k><alpha_k| of the PSK ring as
    its block weights (Papanastasiou et al. 2018; Denys, Brown and Leverrier
    2021). lambda_r is a sum of positive terms, in index order; the DFT of
    exp(|alpha|^2 omega^l), which equals it in exact arithmetic, cancels to
    zero or below at N = 16. Blocks with lambda_r at or below
    ``EIGENVALUE_FLOOR`` (and blocks with no Fock level below ``n_max``)
    lie outside the support."""
    amplitudes = fock_magnitudes(constellation.amplitude, n_max)
    order = constellation.n_points
    blocks = np.arange(amplitudes.size) % order
    weights = np.bincount(blocks, weights=amplitudes * amplitudes, minlength=order).tolist()
    return PskRing(
        amplitude=constellation.amplitude,
        amplitudes=amplitudes,
        weights=tuple(weights),
        n_max=amplitudes.size,
        support_dim=sum(weight > EIGENVALUE_FLOOR for weight in weights),
    )


def correlation_term(inputs: KeyRateInputs, ring: PskRing | None = None) -> tuple[float, float]:
    """Alice-Bob correlation Z and the noise-penalty weight w of a PSK ring;
    the default is ``build_tau`` of the inputs' ring. The trace and w are
    the block sums of the module docstring, one pass over the N blocks."""
    if ring is None:
        ring = build_tau(inputs.constellation, inputs.fock_cutoff)
    weights = ring.weights
    top = ring.n_max % len(weights)  # the block whose lowering misses level D-1
    dropped = float(ring.amplitudes[-1]) ** 2
    trace = number = lowered = 0.0
    previous = weights[-1]
    for r, weight in enumerate(weights):
        # a NaN weight fails both floor tests and reaches the finiteness check
        if not (previous <= EIGENVALUE_FLOOR or weight <= EIGENVALUE_FLOOR):
            overlap = math.sqrt(previous * weight)
            g = ring.amplitude * (previous - dropped if r == top else previous) / overlap
            trace += g * g * overlap
            number += g * g * previous
            lowered += g * previous
        previous = weight
    if not math.isfinite(trace):
        raise KeyRateDomainError(f"correlation trace {trace} is not finite")
    w = number - lowered * lowered

    t = inputs.transmittance
    z = 2.0 * math.sqrt(t) * trace
    penalty_sq = 2.0 * t * inputs.excess_noise * w
    if penalty_sq > 0:
        z -= math.sqrt(penalty_sq)
    return z, w


# ---------------------------------------------------------------------------
# symplectic spectrum and Holevo bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple[float, float, float, float, float]
    correlation: float
    penalty_weight: float


def _pair(difference: float, product: float, label: str) -> tuple[float, float]:
    """l+ >= l- with l+ - l- = difference >= 0 and l+ * l- = product: the roots
    of x^2 -+ difference*x - product, of discriminant (l+ + l-)^2."""
    squared_sum = difference * difference + 4.0 * product
    if not squared_sum >= 0.0:  # NaN fails too
        raise KeyRateDomainError(f"negative or NaN discriminant in {label}: {squared_sum}")
    total = math.sqrt(squared_sum)
    return 0.5 * (total + difference), 0.5 * (total - difference)


def symplectic_spectrum(
    inputs: KeyRateInputs, correlation: float, penalty_weight: float
) -> SpectrumResult:
    """Symplectic eigenvalues of Alice and Bob's covariance matrix and of
    the state conditioned on Bob's heterodyne outcome (Lodewyck et al.
    2007), from the correlation term (Z, w) of ``correlation_term``.

    With d = V*b - Z^2, the joint pair has lambda_1 * lambda_2 = d and
    lambda_1 - lambda_2 = |V - b|. The conditional pair has product
    (V + chi_het*d)/h and difference |chi_het*(V - b) + d - 1|/h, with
    h = b + chi_het. These are Lodewyck's sums of squares A and C with
    A - 2d and C - 2*sqrt(D) factored into the squared differences, so a
    nearly degenerate pair keeps the precision that A^2 - 4d^2 and
    C^2 - 4D lose to cancellation. The fifth eigenvalue is 1."""
    v, b, z = inputs.ensemble_variance, inputs.bob_variance, correlation
    chi_het = heterodyne_added_noise(inputs.detector_efficiency, inputs.electronic_noise)
    d = v * b - z * z
    h = b + chi_het
    roots = (
        *_pair(abs(v - b), d, "lambda_12"),
        *_pair(abs(chi_het * (v - b) + d - 1.0) / h, (v + chi_het * d) / h, "lambda_34"),
    )
    for i, lam in enumerate(roots, 1):
        if lam < 1.0 - 1e-6:
            raise KeyRateDomainError(f"unphysical lambda_{i} = {lam:.9f} for inputs {inputs}")
    return SpectrumResult(
        eigenvalues=(*(max(lam, 1.0) for lam in roots), 1.0),
        correlation=z,
        penalty_weight=penalty_weight,
    )


def bosonic_entropy(x: float) -> float:
    """G(x) = (x+1)log2(x+1) - x log2 x with G(0) = 0."""
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def holevo_bound(spectrum: SpectrumResult) -> float:
    """Eavesdropper information bound from the symplectic spectrum."""
    lam = spectrum.eigenvalues
    gained = sum(bosonic_entropy((x - 1.0) / 2.0) for x in lam[:2])
    conditioned = sum(bosonic_entropy((x - 1.0) / 2.0) for x in lam[2:])
    return gained - conditioned


# ---------------------------------------------------------------------------
# key rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyRateResult:
    scheme: str
    key_rate: float
    mutual_information: float
    holevo_information: float
    correlation: float
    eigenvalues: tuple[float, float, float, float, float]


def key_rate(inputs: KeyRateInputs, scheme: str = "conventional") -> KeyRateResult:
    """Asymptotic rate in bits per symbol; negative values are returned
    as-is (callers clamp for plots)."""
    if scheme not in ("conventional", "qknn"):
        raise ValueError(f"unknown scheme '{scheme}'")
    info = mutual_information(inputs)
    z, w = correlation_term(inputs)
    spectrum = symplectic_spectrum(inputs, z, w)
    holevo = holevo_bound(spectrum)
    if scheme == "conventional":
        rate = inputs.reconciliation_efficiency * info - holevo
    else:
        rate = (
            inputs.reconciliation_efficiency * inputs.classifier_auc * info
            - holevo / inputs.psk_order
        )
    return KeyRateResult(
        scheme=scheme,
        key_rate=rate,
        mutual_information=info,
        holevo_information=holevo,
        correlation=z,
        eigenvalues=spectrum.eigenvalues,
    )
