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
    h = b + chi_het; h - T*V_m = 1 + T*xi + chi_het >= 2 for valid inputs."""
    chi_het = heterodyne_added_noise(inputs.detector_efficiency, inputs.electronic_noise)
    h = inputs.bob_variance + chi_het
    return math.log2(h / (h - inputs.transmittance * inputs.modulation_variance))


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
    amplitudes = fock_magnitudes(constellation.amplitude, n_max)
    n_max = amplitudes.size
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
