"""Asymptotic secret-key rates for discretely-modulated CVQKD.

Conventional scheme: K = beta*I_AB - chi_BE. Classifier-assisted scheme:
K = beta*Lambda*I_AB - chi_BE/N, where Lambda is the classifier's macro AUC
and 1/N is an eavesdropper's chance of guessing the label-to-bits assignment
of an N-point constellation.

All noises are in shot-noise units referred to the channel input:
  chi_line = 1/T - 1 + xi          (channel-added)
  chi_het  = (2 - eta + 2*v_el)/eta (detection-added, heterodyne)
  chi_tot  = chi_line + chi_het/T = xi - 1 + 2*(1+v_el)/(eta*T)

The Alice-Bob correlation Z of the effective Gaussian state is evaluated in
a truncated Fock space from the constellation's average state tau:
  Z = 2*sqrt(T)*tr(tau^{1/2} a tau^{1/2} a^dag) - sqrt(2*T*xi*w),
  w = sum_k p_k (<alpha_k|a_tau^dag a_tau|alpha_k> - |<alpha_k|a_tau|alpha_k>|^2),
  a_tau = tau^{1/2} a tau^{-1/2}  (pseudo-inverse on the support of tau).
For Gaussian modulation Z reduces to sqrt(T*(V^2-1)); the discrete
constellation's penalty is what caps the conventional key rate at large
modulation variance. The symplectic closed forms keep their transmittance
factors explicit, so they consume z_cm^2 = Z^2/T internally; both
conventions coincide at T = 1.

For an N-PSK ring, <n|alpha_k> = c_n omega^{kn} with omega = e^{2 pi i/N}
and c_n the Fock amplitudes of |alpha|, so tau is block-diagonal in n mod N
and each block is rank one: tau = sum_r |u_r><u_r| with (u_r)_n = c_n for
n = r mod N, and eigenvalue lambda_r = |u_r|^2 (Papanastasiou et al., PRA 98,
012340 (2018); Denys, Brown and Leverrier, Quantum 5, 540 (2021)).
``build_tau`` writes tau^{1/2} and tau^{-1/2} from that structure without an
eigendecomposition, so the module makes no LAPACK call. Tables free of data
are built once, read-only and keyed by integers only: log(n!)/2 and the
lowering operator a per cutoff D, a real float64 matrix; n mod N, the
same-block mask and omega^{kn} per (N, D). With a PSK tau the trace and w take
three real D x D products: a tau^{1/2} and tau^{1/2} a, whose vdot is the
trace, and a_tau = (tau^{1/2} a) tau^{-1/2}; then one N x D product gives
<v|a_tau|v> and |a_tau v|^2. They stay matrix expressions, not the O(N)
scalars of the block weights, for two reasons. The traced benchmark's
``build_tau`` -> ``correlation_term`` composition must give exactly
``key_rate``'s rate. And the benchmark keeps ~0.1 MB per pass it runs, so a
much faster pass reads a higher peak RSS (ROADMAP.md items 1 and 3).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .optics import Constellation

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
        if not _is_positive_integer(self.psk_order):
            raise KeyRateDomainError("PSK order must be an integer of at least 1")
        if not 0.0 <= self.classifier_auc <= 1.0:
            raise KeyRateDomainError("classifier AUC must lie in [0, 1]")
        if self.fock_cutoff is not None and not _is_positive_integer(self.fock_cutoff):
            raise KeyRateDomainError("Fock cutoff must be None or an integer of at least 1")

    @property
    def ensemble_variance(self) -> float:
        """V = V_m + 1."""
        return self.modulation_variance + 1.0

    @property
    def coherent_amplitude(self) -> float:
        """|alpha| = sqrt(V_m/2)."""
        return math.sqrt(self.modulation_variance / 2.0)

    @property
    def constellation(self) -> Constellation:
        return Constellation(self.psk_order, self.modulation_variance)

    def at_loss_db(self, loss_db: float) -> "KeyRateInputs":
        return replace(self, transmittance=10.0 ** (-loss_db / 10.0))


def _is_positive_integer(value) -> bool:
    """An integer of at least 1; numpy integers pass, bool does not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def channel_added_noise(inputs: KeyRateInputs) -> float:
    return 1.0 / inputs.transmittance - 1.0 + inputs.excess_noise


def detection_added_noise(inputs: KeyRateInputs) -> float:
    eta = inputs.detector_efficiency
    return (1.0 + (1.0 - eta) + 2.0 * inputs.electronic_noise) / eta


def total_input_noise(inputs: KeyRateInputs) -> float:
    return (
        inputs.excess_noise
        - 1.0
        + 2.0 * (1.0 + inputs.electronic_noise)
        / (inputs.detector_efficiency * inputs.transmittance)
    )


def mutual_information(inputs: KeyRateInputs) -> float:
    """Shannon information of the heterodyne channel:
    log2((V + chi_tot) / (1 + chi_tot))."""
    chi_tot = total_input_noise(inputs)
    if chi_tot <= -1.0:
        raise KeyRateDomainError(f"total noise {chi_tot} at or below -1")
    return math.log2((inputs.ensemble_variance + chi_tot) / (1.0 + chi_tot))


# ---------------------------------------------------------------------------
# Fock-space machinery for the correlation term
# ---------------------------------------------------------------------------

def choose_fock_cutoff(amplitude: float) -> int:
    """Smallest dimension keeping the coherent-state tail mass below 1e-12
    (never less than 16, never more than 512)."""
    mean = amplitude * amplitude
    for cutoff, tail in candidate_tail_masses(mean):
        if tail <= FOCK_TAIL_TOLERANCE:
            return cutoff
    raise KeyRateDomainError(f"no workable Fock cutoff for |alpha|^2 = {mean}")


def candidate_tail_masses(mean_photons: float):
    """(cutoff, ``coherent_tail_mass(mean_photons, cutoff)``) for cutoff =
    16, 20, ..., 512, from one walk of the Poisson series."""
    term = total = math.exp(-mean_photons)
    for n in range(1, MAX_FOCK_CUTOFF):
        term *= mean_photons / n
        total += term
        if n + 1 >= MIN_FOCK_CUTOFF and (n + 1) % 4 == 0:
            yield n + 1, max(0.0, 1.0 - total)


def coherent_tail_mass(mean_photons: float, cutoff: int) -> float:
    """Probability mass of a Poisson(mean) distribution at or beyond cutoff."""
    term = math.exp(-mean_photons)
    total = term
    for n in range(1, cutoff):
        term *= mean_photons / n
        total += term
    return max(0.0, 1.0 - total)


@lru_cache(maxsize=64)
def _half_log_factorials(n_max: int) -> np.ndarray:
    """log(n!)/2 for n < n_max; built once per cutoff and read-only."""
    table = 0.5 * np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max)))])
    table.flags.writeable = False
    return table


def fock_magnitudes(magnitude: float, n_max: int) -> np.ndarray:
    """Real amplitudes e^{-r^2/2} r^n / sqrt(n!) of a coherent state, r >= 0, length
    n_max; raises when the cutoff leaves a norm deficit above ``FOCK_TAIL_TOLERANCE``."""
    if n_max < 1:
        raise ValueError("need at least the vacuum component")
    if not 0.0 <= magnitude < math.inf:  # NaN fails too
        raise KeyRateDomainError(f"|alpha| = {magnitude} is not non-negative and finite")
    if magnitude > 0:
        log_mag = np.arange(n_max) * np.log(magnitude)
        amps = np.exp(-magnitude * magnitude / 2.0 + log_mag - _half_log_factorials(n_max))
    else:
        amps = np.eye(1, n_max)[0]
    deficit = 1.0 - float(amps @ amps)
    if deficit > FOCK_TAIL_TOLERANCE:
        raise KeyRateDomainError(
            f"Fock cutoff {n_max} leaves norm deficit {deficit:.2e} for |alpha| = {magnitude}"
        )
    return amps


def coherent_state_fock(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes e^{-|a|^2/2} a^n / sqrt(n!), length n_max."""
    magnitude = abs(alpha)
    amps = fock_magnitudes(magnitude, n_max).astype(complex)
    if alpha != magnitude:  # a phase other than 1; alpha = 0 has none
        amps *= (alpha / magnitude) ** np.arange(n_max)
    return amps


@lru_cache(maxsize=64)
def lowering_operator(n_max: int) -> np.ndarray:
    """The truncated a with a|n> = sqrt(n)|n-1>; one read-only copy per cutoff."""
    op = np.zeros((n_max, n_max))
    ns = np.arange(1, n_max)
    op[ns - 1, ns] = np.sqrt(ns)
    op.flags.writeable = False
    return op


@lru_cache(maxsize=64)
def _ring_tables(order: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n mod N per level, the same-block mask and the N x D phases omega^{kn}
    (read by kn mod N from the roots of unity); read-only, once per (N, D)."""
    n = np.arange(n_max)
    block = n % order
    roots = np.exp(2j * math.pi / order * np.arange(order))
    tables = (block, block[:, None] == block, roots[np.outer(np.arange(order), n) % order])
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class FockOperatorSet:
    """Truncated average state of the constellation with its square root,
    pseudo-inverse square root, and the lowering operator."""

    tau: np.ndarray
    tau_sqrt: np.ndarray
    tau_inv_sqrt: np.ndarray
    lowering: np.ndarray
    coherent_vectors: np.ndarray  # (N, n_max)
    n_max: int
    support_dim: int


def build_tau(constellation: Constellation, n_max: int | None = None) -> FockOperatorSet:
    """Average state tau = (1/N) sum_k |alpha_k><alpha_k| of the PSK ring and
    its matrix functions from the block structure: on the block of n = r
    mod N, tau[m, n] = c_m c_n, tau^{1/2} = tau / sqrt(lambda_r) and the
    pseudo-inverse tau^{-1/2} = tau / lambda_r^{3/2}, where lambda_r is the
    sum of c_n^2 over the block (Papanastasiou et al. 2018; Denys, Brown
    and Leverrier 2021). lambda_r is a sum of positive terms; the DFT of
    exp(|alpha|^2 omega^l), which equals it in exact arithmetic, cancels to
    zero or below at N = 16. Blocks with lambda_r at or below
    ``EIGENVALUE_FLOOR`` (and blocks with no Fock level below ``n_max``)
    lie outside the support."""
    if n_max is None:
        n_max = choose_fock_cutoff(constellation.amplitude)
    amplitudes = fock_magnitudes(constellation.amplitude, n_max)
    block, same_block, phases = _ring_tables(constellation.n_points, n_max)
    weights = np.bincount(block, weights=amplitudes * amplitudes)
    support = weights > EIGENVALUE_FLOOR
    scale = np.divide(1.0, np.sqrt(weights), out=np.zeros_like(weights), where=support)[block]

    tau = np.outer(amplitudes, amplitudes)
    tau *= same_block
    tau_sqrt = tau * scale[:, None]
    return FockOperatorSet(
        tau=tau,
        tau_sqrt=tau_sqrt,
        tau_inv_sqrt=tau_sqrt * (scale * scale)[:, None],
        lowering=lowering_operator(n_max),
        coherent_vectors=amplitudes * phases,
        n_max=n_max,
        support_dim=int(np.count_nonzero(support)),
    )


def correlation_term(inputs: KeyRateInputs, operators: FockOperatorSet | None = None) -> tuple[float, float]:
    """Alice-Bob correlation Z and the noise-penalty weight w from any set
    of Fock operators; the default is ``build_tau`` of the inputs' PSK
    ring. The trace tr(tau^{1/2} a tau^{1/2} a^dag) is vdot(a tau^{1/2},
    tau^{1/2} a) for any Hermitian tau^{1/2}, a_tau reuses tau^{1/2} a, and
    <v|a_tau^dag a_tau|v> = |a_tau v|^2 comes from the N x D product that
    gives <v|a_tau|v>."""
    if operators is None:
        operators = build_tau(inputs.constellation, inputs.fock_cutoff)
    a_op, tau_sqrt = operators.lowering, operators.tau_sqrt
    lowered_sqrt = tau_sqrt @ a_op
    trace = np.vdot(a_op @ tau_sqrt, lowered_sqrt)
    if not (abs(trace.imag) < 1e-9 and math.isfinite(trace.real)):
        raise KeyRateDomainError(f"correlation trace {trace} is not finite or not real")

    vectors = operators.coherent_vectors
    lowered = vectors @ (lowered_sqrt @ operators.tau_inv_sqrt).T  # rows a_tau|v_k>
    mean_number = np.vecdot(lowered, lowered).real
    mean_lower = np.vecdot(vectors, lowered)
    w = float((mean_number - np.abs(mean_lower) ** 2).sum() / len(vectors))

    t = inputs.transmittance
    z = 2.0 * math.sqrt(t) * trace.real
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


def _sqrt_clipped(value: float, label: str) -> float:
    if not value >= -1e-12:  # NaN fails too
        raise KeyRateDomainError(f"negative or NaN discriminant in {label}: {value}")
    return math.sqrt(max(value, 0.0))


def symplectic_spectrum(
    inputs: KeyRateInputs, correlation: float, penalty_weight: float
) -> SpectrumResult:
    """Symplectic eigenvalues of the joint and conditional covariance
    matrices in the standard heterodyne closed form, from the correlation
    term (Z, w) of ``correlation_term``."""
    v = inputs.ensemble_variance
    t = inputs.transmittance
    z = correlation
    # the closed forms below carry their transmittance factors explicitly,
    # so they consume the unattenuated correlation (the definition of Z
    # already includes sqrt(T); at the Gaussian point z_cm = sqrt(V^2-1))
    z_cm_sq = z * z / t
    chi_line = channel_added_noise(inputs)
    chi_het = detection_added_noise(inputs)
    chi_tot = total_input_noise(inputs)

    a_term = v * v + t * t * (v + chi_line) ** 2 - 2.0 * t * z_cm_sq
    b_term = (t * (v * v + v * chi_line - z_cm_sq)) ** 2
    root_12 = _sqrt_clipped(a_term * a_term - 4.0 * b_term, "lambda_12")

    denom = (t * (v + chi_tot)) ** 2
    sqrt_b = _sqrt_clipped(b_term, "sqrt(B)")
    c_term = (
        a_term * chi_het * chi_het
        + b_term
        + 1.0
        + 2.0 * chi_het * (v * sqrt_b + t * (v + chi_line))
        + 2.0 * t * z_cm_sq
    ) / denom
    d_term = ((v + sqrt_b * chi_het) / (t * (v + chi_tot))) ** 2
    root_34 = _sqrt_clipped(c_term * c_term - 4.0 * d_term, "lambda_34")

    squared = (
        0.5 * (a_term + root_12), 0.5 * (a_term - root_12),
        0.5 * (c_term + root_34), 0.5 * (c_term - root_34),
    )
    roots = [_sqrt_clipped(lam, f"lambda_{i}") for i, lam in enumerate(squared, 1)]
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
