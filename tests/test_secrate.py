"""Key-rate checks against independent oracles.

The heavy oracle here is a from-scratch three-mode covariance-matrix model
of the trusted heterodyne receiver (EPR source, noisy lossy channel,
detector beamsplitter fed by an EPR ancilla, heterodyne conditioning). It
shares no code with the closed forms under test: symplectic eigenvalues
come from |eig(i*Omega*sigma)|.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qknn_cvqkd import secrate
from qknn_cvqkd.optics import ChannelModel, Constellation, heterodyne_added_noise

NOISE_FIELDS = ("excess_noise", "detector_efficiency", "electronic_noise")
FIG11 = dict(
    excess_noise=0.01,
    detector_efficiency=0.6,
    electronic_noise=0.05,
    reconciliation_efficiency=0.98,
)


# the keyrate_scan grid: every (N, V_m) block over 0 .. 20 dB in 0.5 dB steps
SCAN_PSK_ORDERS = (4, 8)
SCAN_MODULATION_VARIANCES = (0.2, 0.35, 0.6, 1.0, 1.5, 2.2, 3.2, 4.5, 6.0, 8.0, 10.0, 12.0)
SCAN_LOSSES_DB = tuple(0.5 * i for i in range(41))
SCAN_AUC = 0.9


def make_inputs(vm=0.38, loss_db=2.0, n=8, auc=1.0, **overrides):
    params = dict(FIG11)
    params.update(overrides)
    return secrate.KeyRateInputs(
        modulation_variance=vm,
        transmittance=10.0 ** (-loss_db / 10.0),
        psk_order=n,
        classifier_auc=auc,
        **params,
    )


# ---------------------------------------------------------------------------
# independent covariance-matrix oracle
# ---------------------------------------------------------------------------

def _symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    n = sigma.shape[0] // 2
    omega = np.zeros((2 * n, 2 * n))
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    spectrum = np.abs(np.linalg.eigvals(1j * omega @ sigma))
    return np.sort(spectrum)[::2]  # each eigenvalue appears twice


def joint_covariance(inputs: secrate.KeyRateInputs, z: float) -> np.ndarray:
    """4 x 4 covariance of Alice's and Bob's modes before detection, with Z
    as their off-diagonal entry."""
    v = inputs.ensemble_variance
    t = inputs.transmittance
    v_bob = t * (v + 1.0 / t - 1.0 + inputs.excess_noise)
    joint = np.zeros((4, 4))
    joint[:2, :2] = v * np.eye(2)
    joint[2:, 2:] = v_bob * np.eye(2)
    joint[:2, 2:] = joint[2:, :2] = z * np.diag([1.0, -1.0])
    return joint


def detected_covariance(inputs: secrate.KeyRateInputs, z: float) -> np.ndarray:
    """8 x 8 covariance of modes A, B, F0, G after Bob's detector
    beamsplitter; B is the mode the heterodyne measures."""
    eta = inputs.detector_efficiency
    v_el = inputs.electronic_noise
    iden = np.eye(2)
    sz = np.diag([1.0, -1.0])

    # modes: A, B, F0, G with (F0, G) an EPR pair of variance v_d
    v_d = 1.0 + 2.0 * v_el / (1.0 - eta)
    sigma = np.zeros((8, 8))
    sigma[:4, :4] = joint_covariance(inputs, z)
    sigma[4:6, 4:6] = sigma[6:8, 6:8] = v_d * iden
    coupling = math.sqrt(v_d * v_d - 1.0)
    sigma[4:6, 6:8] = sigma[6:8, 4:6] = coupling * sz

    mixer = np.eye(8)
    se, ce = math.sqrt(eta), math.sqrt(1.0 - eta)
    mixer[2:4, 2:4] = se * iden
    mixer[2:4, 4:6] = ce * iden
    mixer[4:6, 2:4] = -ce * iden
    mixer[4:6, 4:6] = se * iden
    return mixer @ sigma @ mixer.T


def covariance_oracle(inputs: secrate.KeyRateInputs, z: float) -> np.ndarray:
    """All five symplectic eigenvalues from explicit covariance matrices,
    with the correlation Z of ``correlation_term`` as Alice and Bob's
    off-diagonal entry."""
    lam12 = _symplectic_eigenvalues(joint_covariance(inputs, z))
    sigma = detected_covariance(inputs, z)
    keep = [0, 1, 4, 5, 6, 7]
    measured = [2, 3]
    s_keep = sigma[np.ix_(keep, keep)]
    s_cross = sigma[np.ix_(keep, measured)]
    s_meas = sigma[np.ix_(measured, measured)]
    conditional = s_keep - s_cross @ np.linalg.inv(s_meas + np.eye(2)) @ s_cross.T
    lam345 = _symplectic_eigenvalues(conditional)
    return np.sort(np.concatenate([lam12, lam345]))[::-1]


@pytest.mark.parametrize(
    "vm,loss_db,n",
    [(0.33, 2.0, 4), (0.38, 2.0, 8), (0.38, 4.0, 8), (0.38, 15.0, 8), (1.5, 10.0, 8), (0.1, 0.5, 4)],
)
def test_spectrum_matches_covariance_oracle(vm, loss_db, n):
    inputs = make_inputs(vm=vm, loss_db=loss_db, n=n)
    z, w = secrate.correlation_term(inputs)
    spectrum = secrate.symplectic_spectrum(inputs, z, w)
    oracle = covariance_oracle(inputs, z)
    closed = np.sort(np.array(spectrum.eigenvalues))[::-1]
    assert np.abs(closed - oracle).max() < 1e-8


def assert_spectrum_matches_oracle(inputs: secrate.KeyRateInputs, operators=None) -> None:
    z, w = secrate.correlation_term(inputs, operators)
    closed = np.sort(secrate.symplectic_spectrum(inputs, z, w).eigenvalues)[::-1]
    oracle = covariance_oracle(inputs, z)
    # every eigenvalue is at least 1, so this bound is also absolute
    assert np.all(np.abs(closed - oracle) <= 1e-12 * oracle), (inputs, closed - oracle)


@pytest.mark.parametrize("order", SCAN_PSK_ORDERS)
def test_spectrum_matches_covariance_oracle_on_the_scan_grid(order):
    for vm in SCAN_MODULATION_VARIANCES:
        base = make_inputs(vm=vm, loss_db=0.0, n=order, auc=SCAN_AUC)
        ops = secrate.build_tau(base.constellation)
        for loss_db in SCAN_LOSSES_DB:
            assert_spectrum_matches_oracle(base.at_loss_db(loss_db), ops)


def random_channel_inputs():
    """300 seeded random points; the oracle's detector EPR variance
    1 + 2 v_el / (1 - eta) needs eta < 1."""
    rng = np.random.default_rng(20070917)
    for _ in range(300):
        yield make_inputs(
            vm=float(np.exp(rng.uniform(math.log(0.01), math.log(12.0)))),
            loss_db=float(rng.uniform(0.0, 30.0)),
            n=int(rng.choice([2, 3, 4, 8, 16])),
            excess_noise=float(rng.uniform(1e-4, 0.1)),
            detector_efficiency=float(rng.uniform(0.3, 0.99)),
            electronic_noise=float(rng.uniform(1e-3, 0.2)),
        )


def test_spectrum_matches_covariance_oracle_on_random_channels():
    for inputs in random_channel_inputs():
        assert_spectrum_matches_oracle(inputs)


def test_last_eigenvalue_is_exactly_one():
    inputs = make_inputs()
    spectrum = secrate.symplectic_spectrum(inputs, *secrate.correlation_term(inputs))
    assert spectrum.eigenvalues[4] == 1.0
    # the covariance model produces the unit eigenvalue too
    inputs = make_inputs(vm=0.7, loss_db=6.0)
    z, _ = secrate.correlation_term(inputs)
    assert covariance_oracle(inputs, z).min() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_information_clean_channel_closed_form():
    inputs = secrate.KeyRateInputs(
        modulation_variance=0.38, transmittance=1.0, excess_noise=1.0,
        detector_efficiency=1.0, electronic_noise=0.0,
        reconciliation_efficiency=1.0, psk_order=8,
    )
    # b = T (V_m + xi) + 1 = 2.38 and chi_het = (2 - 1 + 0)/1 = 1
    assert inputs.bob_variance == pytest.approx(2.38, abs=1e-15)
    assert heterodyne_added_noise(inputs.detector_efficiency, inputs.electronic_noise) == 1.0
    assert secrate.mutual_information(inputs) == pytest.approx(
        math.log2((1.38 + 2.0) / 3.0), abs=1e-15
    )


def test_mutual_information_vanishes_without_signal():
    assert secrate.mutual_information(make_inputs(vm=1e-12)) < 1e-11


def test_mutual_information_independent_recompute():
    inputs = make_inputs(loss_db=2.0)
    t = 10.0 ** (-0.2)
    chi = 0.01 - 1.0 + 2.0 * 1.05 / (0.6 * t)
    expected = math.log2((1.38 + chi) / (1.0 + chi))
    assert secrate.mutual_information(inputs) == pytest.approx(expected, abs=1e-9)


def assert_information_matches_oracle(inputs: secrate.KeyRateInputs) -> None:
    # at the Gaussian point Z = sqrt(T(V^2 - 1)), I_AB is log2 of Bob's
    # heterodyne variance s + 1 = eta*h over the same variance conditioned on
    # Alice's heterodyne outcome, eta*h - eta*Z^2/(V + 1) = eta*h - eta*T*V_m:
    # the per-quadrature noise the samples are drawn with. The 2e-15 bit
    # floor is a few ulps of a ratio near 1, where I is small
    v = inputs.ensemble_variance
    sigma = detected_covariance(inputs, math.sqrt(inputs.transmittance * (v * v - 1.0)))
    alice, bob = sigma[:2, :2], sigma[2:4, 2:4]
    cross = sigma[2:4, :2]
    measured = bob[0, 0] + 1.0
    conditioned = (bob - cross @ np.linalg.inv(alice + np.eye(2)) @ cross.T)[0, 0] + 1.0
    info = secrate.mutual_information(inputs)
    assert math.log2(measured / conditioned) == pytest.approx(info, rel=1e-12, abs=2e-15), inputs
    # a loss of L dB is L km at 1 dB/km
    channel = ChannelModel(
        -10.0 * math.log10(inputs.transmittance), 1.0,
        **{name: getattr(inputs, name) for name in NOISE_FIELDS},
    )
    assert conditioned == pytest.approx(channel.quadrature_noise_variance, rel=1e-12), inputs


@pytest.mark.parametrize("order", SCAN_PSK_ORDERS)
def test_information_matches_covariance_oracle_on_the_scan_grid(order):
    for vm in SCAN_MODULATION_VARIANCES:
        base = make_inputs(vm=vm, loss_db=0.0, n=order, auc=SCAN_AUC)
        for loss_db in SCAN_LOSSES_DB:
            assert_information_matches_oracle(base.at_loss_db(loss_db))


def test_information_matches_covariance_oracle_on_random_channels():
    for inputs in random_channel_inputs():
        assert_information_matches_oracle(inputs)


def test_information_exceeds_log2_n_only_for_qpsk_at_the_largest_modulation():
    # documents the region, not a defect of secrate: I_AB is the capacity
    # of the channel for a Gaussian input, and an N-point alphabet carries
    # at most log2 N bits, so on the scan grid I_AB overstates what a QPSK
    # ring can carry at V_m = 12 and 0 or 0.5 dB
    above = {}
    for order in SCAN_PSK_ORDERS:
        for vm in SCAN_MODULATION_VARIANCES:
            for loss_db in SCAN_LOSSES_DB:
                info = secrate.mutual_information(make_inputs(vm=vm, loss_db=loss_db, n=order))
                if info > math.log2(order):
                    above[order, vm, loss_db] = info
    assert set(above) == {(4, 12.0, 0.0), (4, 12.0, 0.5)}
    assert above[4, 12.0, 0.0] == pytest.approx(2.1437, abs=1e-4)
    assert above[4, 12.0, 0.5] == pytest.approx(2.0172, abs=1e-4)


def test_inputs_validation_rejects_unphysical_parameters():
    # the information's denominator 1 + T*xi + chi_het is at least 2 for
    # valid inputs, so it needs no domain guard; validation happens at
    # construction instead
    good = dict(
        modulation_variance=0.38, transmittance=0.5, excess_noise=0.01,
        detector_efficiency=0.6, electronic_noise=0.05,
        reconciliation_efficiency=0.98, psk_order=8,
    )
    for field, value in [
        ("modulation_variance", -1.0),
        ("transmittance", 0.0),
        ("transmittance", 1.5),
        ("excess_noise", -0.1),
        ("detector_efficiency", 0.0),
        ("reconciliation_efficiency", 1.5),
        ("psk_order", 0),
        ("psk_order", 4.0),
        ("psk_order", 2.5),
        ("psk_order", True),
        ("classifier_auc", 1.2),
    ] + [
        (field, bad)
        for field in ("modulation_variance", "transmittance", "excess_noise", "electronic_noise",
                      "detector_efficiency", "reconciliation_efficiency", "classifier_auc")
        for bad in (math.nan, math.inf)
    ]:
        with pytest.raises(secrate.KeyRateDomainError):
            secrate.KeyRateInputs(**{**good, field: value})
    assert secrate.KeyRateInputs(**{**good, "psk_order": np.int64(4)}).psk_order == 4


@pytest.mark.parametrize("cutoff", [0, -3, 2.5, True])
def test_inputs_reject_a_fock_cutoff_that_is_not_a_positive_integer(cutoff):
    with pytest.raises(secrate.KeyRateDomainError, match="Fock cutoff"):
        make_inputs(fock_cutoff=cutoff)


def test_inputs_accept_an_integer_fock_cutoff():
    assert make_inputs(fock_cutoff=np.int64(24)).fock_cutoff == 24
    assert make_inputs(fock_cutoff=None).fock_cutoff is None


# ---------------------------------------------------------------------------
# Fock-space pieces
# ---------------------------------------------------------------------------

def coherent_state_fock_reference(alpha: complex, n_max: int) -> np.ndarray:
    """Per-call amplitudes: log-factorials rebuilt, the phase raised to
    every power; the norm-deficit check is left to the code under test."""
    n = np.arange(n_max)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max)))])
    magnitude = abs(alpha)
    with np.errstate(divide="ignore"):
        log_mag = np.where(n > 0, n * np.log(magnitude) if magnitude > 0 else -np.inf, 0.0)
    amps = np.exp(-magnitude * magnitude / 2.0 + log_mag - 0.5 * log_fact).astype(complex)
    if magnitude > 0:
        amps *= (alpha / magnitude) ** n
    return amps


def coherent_tail_mass_reference(mean_photons: float, cutoff: int) -> float:
    """Probability mass of a Poisson(mean) distribution at or beyond cutoff,
    from the series walked term by term: the tail that the amplitudes' norm
    deficit stands for, summed another way."""
    term = total = math.exp(-mean_photons)
    for n in range(1, cutoff):
        term *= mean_photons / n
        total += term
    return max(0.0, 1.0 - total)


def poisson_fock_cutoff(mean_photons: float) -> int:
    """First cutoff of 16, 20, ..., 512 whose Poisson tail is at most 1e-12."""
    return next(
        c for c in range(16, 513, 4) if coherent_tail_mass_reference(mean_photons, c) <= 1e-12
    )


@pytest.mark.parametrize("n_max", [1, 16, 20, 32, 64])
def test_shared_kernel_matches_the_per_call_amplitudes(n_max):
    for mean in (0.0, 1e-20, 1e-6, 0.01, 0.1, 0.5, 1.0, 3.0, 6.0):
        magnitude = math.sqrt(mean)
        reference = coherent_state_fock_reference(magnitude, n_max)
        assert np.abs(reference.imag).max() == 0.0
        try:
            amps = secrate.fock_magnitudes(magnitude, n_max)
        except secrate.KeyRateDomainError:
            assert coherent_tail_mass_reference(mean, n_max) > 1e-12, (mean, n_max)
            continue
        assert amps.dtype == np.float64
        assert np.abs(amps - reference.real).max() <= 1e-15, (mean, n_max)


@pytest.mark.parametrize("mean", [0.0, 1e-20, 0.1, 1.0, 6.0, 30.0, 120.0])
def test_automatic_amplitudes_are_a_prefix_of_every_longer_vector(mean):
    magnitude = math.sqrt(mean)
    amps = secrate.fock_magnitudes(magnitude)
    for longer in (amps.size + 4, 256, 512):
        assert np.array_equal(secrate.fock_magnitudes(magnitude, longer)[: amps.size], amps)
    reference = coherent_state_fock_reference(magnitude, amps.size)
    assert np.abs(amps - reference.real).max() <= 1e-15


@pytest.mark.parametrize(
    "magnitude,n_max",
    [(m, n) for n in (20, None) for m in (-1.0, math.nan, math.inf)],
    ids=[f"{mode}-{kind}" for mode in ("magnitudes", "auto") for kind in ("negative", "nan", "inf")],
)
def test_fock_amplitudes_reject_a_bad_magnitude(magnitude, n_max):
    # a negative or NaN magnitude used to give the vacuum, which passes the
    # norm check, and an infinite one NaN amplitudes
    with pytest.raises(secrate.KeyRateDomainError, match="non-negative and finite"):
        secrate.fock_magnitudes(magnitude, n_max)


def test_vacuum_fock_amplitudes():
    assert np.array_equal(secrate.fock_magnitudes(0.0, 8), np.eye(8)[0])
    assert np.array_equal(secrate.fock_magnitudes(0.0), np.eye(16)[0])


def test_fock_norm_deficit_small_at_cutoff_20():
    amps = secrate.fock_magnitudes(math.sqrt(0.165), 20)
    deficit = 1.0 - float(amps @ amps)
    # independent tail bound: Poisson mass beyond the cutoff
    tail = coherent_tail_mass_reference(0.165, 20)
    assert deficit <= tail + 1e-15
    assert deficit < 1e-12


def test_fock_mean_photon_number():
    magnitude = abs(0.3 + 0.4j)
    n_max = 24
    amps = secrate.fock_magnitudes(magnitude, n_max)
    mean = float((amps**2 * np.arange(n_max)).sum())
    assert mean == pytest.approx(magnitude**2, abs=1e-10)


def test_fock_insufficient_cutoff_raises():
    with pytest.raises(secrate.KeyRateDomainError, match="norm deficit"):
        secrate.fock_magnitudes(2.0, 4)


def test_fock_cutoff_is_the_first_candidate_below_tolerance():
    # on the scan grid the deficit read from the amplitudes and the Poisson
    # tail cross 1e-12 at the same candidate
    for vm in SCAN_MODULATION_VARIANCES:
        mean = vm / 2.0
        assert secrate.fock_magnitudes(math.sqrt(mean)).size == poisson_fock_cutoff(mean), vm


def test_automatic_cutoff_passes_its_own_explicit_check_on_a_dense_grid():
    # a Poisson walk used to pick the cutoff and the amplitudes' deficit to
    # check it; the two sums round apart near 1e-12, and 789 of these values
    # got a cutoff that the check then refused
    for i, mean in enumerate(np.linspace(0.012, 240.0, 20_000)):
        magnitude = math.sqrt(mean)
        amps = secrate.fock_magnitudes(magnitude)
        assert amps.size in range(16, 513, 4), mean
        assert np.array_equal(secrate.fock_magnitudes(magnitude, amps.size), amps), mean
        if i % 10 == 0 and amps.size > 16:
            with pytest.raises(secrate.KeyRateDomainError, match="norm deficit"):
                secrate.fock_magnitudes(magnitude, amps.size - 4)


@pytest.mark.parametrize("vm", [20.204, 20.205, 24.03, 24.032, 36.457])
def test_key_rate_is_finite_where_the_two_tail_sums_disagreed(vm):
    # each of these V_m used to raise "norm deficit" from key_rate
    for order in (4, 8):
        for scheme in ("conventional", "qknn"):
            rate = secrate.key_rate(make_inputs(vm=vm, n=order), scheme).key_rate
            assert math.isfinite(rate), (order, scheme)


def test_fock_cutoff_search_stops_at_512():
    with pytest.raises(secrate.KeyRateDomainError, match="no workable Fock cutoff"):
        secrate.fock_magnitudes(math.sqrt(400.0))


def eigh_build_tau(constellation: Constellation, n_max: int | None = None):
    """Reference tau: the N coherent vectors summed as outer products, and
    the matrix functions by eigendecomposition (eigenvalues at or below the
    floor are zeroed; the inverse square root acts on the support only)."""
    if n_max is None:
        n_max = poisson_fock_cutoff(constellation.amplitude**2)
    points = constellation.points
    vectors = np.stack([coherent_state_fock_reference(complex(a), n_max) for a in points])
    tau = (vectors.conj()[:, None, :] * vectors[:, :, None]).sum(axis=0) / points.size
    assert abs(1.0 - float(np.trace(tau).real)) < 1e-10
    eigenvalues, basis = np.linalg.eigh(tau)
    eigenvalues = np.where(eigenvalues > secrate.EIGENVALUE_FLOOR, eigenvalues, 0.0)
    support = eigenvalues > 0
    sqrt_vals = np.sqrt(eigenvalues)
    inv_sqrt_vals = np.zeros_like(eigenvalues)
    inv_sqrt_vals[support] = 1.0 / sqrt_vals[support]
    return secrate.FockOperatorSet(
        tau=tau,
        tau_sqrt=(basis * sqrt_vals) @ basis.conj().T,
        tau_inv_sqrt=(basis * inv_sqrt_vals) @ basis.conj().T,
        lowering=secrate.lowering_operator(n_max),
        coherent_vectors=vectors,
        n_max=n_max,
        support_dim=int(support.sum()),
    )


def assert_matches_reference(constellation: Constellation, n_max: int | None = None) -> None:
    ops = secrate.build_tau(constellation, n_max)
    ref = eigh_build_tau(constellation, n_max)
    assert (ops.n_max, ops.support_dim) == (ref.n_max, ref.support_dim)
    assert np.abs(ops.tau - ref.tau).max() < 1e-12
    assert np.abs(ops.tau_sqrt - ref.tau_sqrt).max() < 1e-12
    assert np.abs(ops.coherent_vectors - ref.coherent_vectors).max() < 1e-12
    # a block whose weight lambda_r sits just above the floor has entries
    # ~lambda_r^{-1/2} ~ 3e5 in tau^{-1/2}, which eigh resolves only to
    # about 1e-8 absolutely (eigenvalue error ~1e-16 over lambda_r): compare
    # relative to the largest entry there, and absolutely on tau^{1/2} tau^{-1/2}
    scale = np.abs(ref.tau_inv_sqrt).max()
    assert np.abs(ops.tau_inv_sqrt - ref.tau_inv_sqrt).max() < 1e-12 * max(scale, 1.0)
    projector = ops.tau_sqrt @ ops.tau_inv_sqrt
    assert np.abs(projector - ref.tau_sqrt @ ref.tau_inv_sqrt).max() < 1e-12


@pytest.mark.parametrize("order", [4, 8])
def test_block_tau_matches_the_eigendecomposition_on_the_scan_grid(order):
    for vm in SCAN_MODULATION_VARIANCES:
        assert_matches_reference(Constellation(order, vm))


@pytest.mark.parametrize("order", [1, 2, 3, 16])
@pytest.mark.parametrize("vm", [1e-20, 1e-6, 0.01, 0.2, 1.0, 3.2, 12.0])
def test_block_tau_matches_the_eigendecomposition(order, vm):
    assert_matches_reference(Constellation(order, vm))


@pytest.mark.parametrize(
    "order,vm,n_max,support",
    [(8, 1e-20, 1, 1), (8, 1e-20, 5, 1), (16, 1e-13, 1, 1), (16, 1e-7, 3, 2), (16, 1e-4, 8, 3)],
)
def test_block_tau_matches_the_eigendecomposition_below_the_order(order, vm, n_max, support):
    # blocks with no Fock level below the cutoff are empty and lie outside
    # the support, as do blocks whose weight is at or below the floor
    support_dim = secrate.build_tau(Constellation(order, vm), n_max).support_dim
    assert support_dim == support
    assert type(support_dim) is int  # the benchmark writes it to its JSON record
    assert_matches_reference(Constellation(order, vm), n_max)


def test_tau_single_point_is_pure():
    ops = secrate.build_tau(Constellation(1, 0.38))
    assert np.abs(ops.tau @ ops.tau - ops.tau).max() < 1e-12
    assert np.abs(ops.tau_sqrt - ops.tau).max() < 1e-10


def test_tau_square_root_squares_back():
    ops = secrate.build_tau(Constellation(8, 0.38))
    assert np.abs(ops.tau_sqrt @ ops.tau_sqrt - ops.tau).max() < 1e-8
    assert np.abs(np.trace(ops.tau).real - 1.0) < 1e-10
    assert np.abs(ops.tau - ops.tau.conj().T).max() < 1e-14


def test_tau_vacuum_projector_for_zero_amplitude():
    ops = secrate.build_tau(Constellation(4, 1e-20), n_max=16)
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    assert np.abs(ops.tau - expected).max() < 1e-10


def test_tau_qpsk_block_structure_mod_four():
    ops = secrate.build_tau(Constellation(4, 0.33))
    n = ops.n_max
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    off_block = (rows - cols) % 4 != 0
    assert np.abs(ops.tau[off_block]).max() < 1e-14


# every cache in secrate: structural tables keyed by integers only, never by data
STRUCTURAL_CACHES = {
    name: value for name, value in vars(secrate).items() if hasattr(value, "cache_info")
}


def test_cached_tables_are_read_only():
    tables = [secrate._half_log_factorials(20), secrate.lowering_operator(20)]
    tables += secrate._ring_tables(8, 20)
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 1.0
    # real entries, so the PSK products run in real arithmetic
    assert secrate.lowering_operator(20).dtype == np.float64
    ops = secrate.build_tau(Constellation(8, 0.38))
    with pytest.raises(ValueError):
        ops.lowering[0, 1] = 0.0


def test_caches_hold_one_entry_per_cutoff_or_ring():
    assert set(STRUCTURAL_CACHES) == {"_half_log_factorials", "lowering_operator", "_ring_tables"}
    for cache in STRUCTURAL_CACHES.values():
        cache.cache_clear()
    cutoffs, rings = set(), set()
    for order in (4, 8):
        for vm in SCAN_MODULATION_VARIANCES:
            for loss_db in SCAN_LOSSES_DB:
                inputs = make_inputs(vm=vm, loss_db=loss_db, n=order, auc=0.9)
                for scheme in ("conventional", "qknn"):
                    secrate.key_rate(inputs, scheme)
            cutoff = secrate.fock_magnitudes(inputs.constellation.amplitude).size
            cutoffs.add(cutoff)
            rings.add((order, cutoff))
    assert len(cutoffs) < len(SCAN_MODULATION_VARIANCES)
    assert secrate._half_log_factorials.cache_info().currsize <= len(cutoffs)
    assert secrate.lowering_operator.cache_info().currsize <= len(cutoffs)
    assert secrate._ring_tables.cache_info().currsize <= len(rings)


def test_each_build_owns_its_arrays():
    constellation = Constellation(8, 1.0)
    first = secrate.build_tau(constellation)
    fields = ("tau", "tau_sqrt", "tau_inv_sqrt", "coherent_vectors")
    saved = {name: getattr(first, name).copy() for name in fields}
    for name in fields:
        getattr(first, name)[...] = np.nan
    second = secrate.build_tau(constellation)
    for name in fields:
        assert np.array_equal(getattr(second, name), saved[name]), name


# ---------------------------------------------------------------------------
# correlation term
# ---------------------------------------------------------------------------

def test_zero_excess_noise_drops_penalty():
    clean = make_inputs(excess_noise=0.0)
    ops = secrate.build_tau(clean.constellation)
    z, _ = secrate.correlation_term(clean, ops)
    trace = np.trace(ops.tau_sqrt @ ops.lowering @ ops.tau_sqrt @ ops.lowering.conj().T)
    assert z == pytest.approx(2.0 * math.sqrt(clean.transmittance) * trace.real, abs=1e-12)


def test_correlation_vanishes_with_transmittance():
    tiny = make_inputs(loss_db=80.0)
    z, _ = secrate.correlation_term(tiny)
    assert abs(z) < 0.02


def thermal_operator_set(mean: float, n_max: int) -> secrate.FockOperatorSet:
    """A thermal state of mean photon number ``mean`` in place of tau, with
    the vacuum as its one coherent vector."""
    weights = (mean / (1.0 + mean)) ** np.arange(n_max) / (1.0 + mean)
    return secrate.FockOperatorSet(
        tau=np.diag(weights).astype(complex),
        tau_sqrt=np.diag(np.sqrt(weights)).astype(complex),
        tau_inv_sqrt=np.diag(1.0 / np.sqrt(weights)).astype(complex),
        lowering=secrate.lowering_operator(n_max),
        coherent_vectors=np.eye(n_max)[:1].astype(complex), n_max=n_max, support_dim=n_max,
    )


def test_thermal_state_recovers_gaussian_correlation():
    # replacing tau by a thermal state of the same mean photon number must
    # reproduce sqrt(T*(V^2-1)) closely at small modulation variance
    for vm in (0.1, 0.3, 0.5):
        inputs = make_inputs(vm=vm, excess_noise=0.0)
        z, _ = secrate.correlation_term(inputs, thermal_operator_set(vm / 2.0, 64))
        gauss = math.sqrt(inputs.transmittance * (inputs.ensemble_variance**2 - 1.0))
        assert abs(z - gauss) / gauss < 0.02


def test_discrete_correlation_stays_below_gaussian_bound():
    for vm in (0.1, 0.38, 1.0, 2.0):
        inputs = make_inputs(vm=vm, excess_noise=0.0)
        z, _ = secrate.correlation_term(inputs)
        gauss = math.sqrt(inputs.transmittance * (inputs.ensemble_variance**2 - 1.0))
        assert 0.0 < z <= gauss + 1e-12


def test_psk_correlation_stays_below_the_gaussian_one_on_the_scan_grid():
    # Gaussian extremality: Z of an N-PSK ring is at most the Gaussian
    # ensemble's sqrt(T (V^2 - 1)). Both scale as sqrt(T), so the relative
    # gap is one number per ring; the smallest is 2.25%, at N = 16, V_m = 12
    gaps = {}
    for order in (2, 3, 4, 8, 16):
        for vm in SCAN_MODULATION_VARIANCES:
            base = make_inputs(vm=vm, loss_db=0.0, n=order)
            ops = secrate.build_tau(base.constellation)
            ring = []
            for loss_db in SCAN_LOSSES_DB:
                inputs = base.at_loss_db(loss_db)
                z, _ = secrate.correlation_term(inputs, ops)
                gauss = math.sqrt(inputs.transmittance * (inputs.ensemble_variance**2 - 1.0))
                ring.append(1.0 - z / gauss)
            assert max(ring) - min(ring) < 1e-12, (order, vm)
            gaps[order, vm] = min(ring)
    assert len(gaps) * len(SCAN_LOSSES_DB) == 2460
    assert min(gaps, key=gaps.get) == (16, 12.0)
    assert 0.0225 < min(gaps.values()) < 0.0226


def test_fock_cutoff_convergence():
    inputs = make_inputs(vm=0.38)
    auto = secrate.build_tau(inputs.constellation).n_max
    z_auto, _ = secrate.correlation_term(
        inputs, secrate.build_tau(inputs.constellation, auto)
    )
    z_more, _ = secrate.correlation_term(
        inputs, secrate.build_tau(inputs.constellation, auto + 10)
    )
    assert abs(z_auto - z_more) < 1e-8


def correlation_term_reference(inputs: secrate.KeyRateInputs, operators) -> tuple[float, float]:
    """Z and w with the trace as three D x D x D products and
    <v|a_tau^dag a_tau|v> read through number_like = a_tau^dag a_tau."""
    a_op = operators.lowering
    trace = np.trace(operators.tau_sqrt @ a_op @ operators.tau_sqrt @ a_op.conj().T)
    dressed = operators.tau_sqrt @ a_op @ operators.tau_inv_sqrt
    number_like = dressed.conj().T @ dressed
    vectors = operators.coherent_vectors
    bras = vectors.conj()
    mean_number = (bras * (vectors @ number_like.T)).sum(axis=1).real
    mean_lower = (bras * (vectors @ dressed.T)).sum(axis=1)
    w = float(np.mean(mean_number - np.abs(mean_lower) ** 2))
    t = inputs.transmittance
    z = 2.0 * math.sqrt(t) * trace.real
    penalty_sq = 2.0 * t * inputs.excess_noise * w
    if penalty_sq > 0:
        z -= math.sqrt(penalty_sq)
    return z, w


@pytest.mark.parametrize("order", [4, 8])
def test_correlation_term_matches_the_reference_on_the_scan_grid(order):
    for vm in SCAN_MODULATION_VARIANCES:
        ops = secrate.build_tau(Constellation(order, vm))
        for loss_db in SCAN_LOSSES_DB:
            inputs = make_inputs(vm=vm, loss_db=loss_db, n=order)
            z, w = secrate.correlation_term(inputs, ops)
            z_ref, w_ref = correlation_term_reference(inputs, ops)
            assert z == pytest.approx(z_ref, rel=1e-12), (vm, loss_db)
            assert w == pytest.approx(w_ref, rel=1e-12), (vm, loss_db)


@pytest.mark.parametrize("order", [1, 2, 3, 16])
@pytest.mark.parametrize("vm", [1e-20, 1e-6, 0.01, 0.2, 1.0, 3.2, 12.0])
def test_correlation_term_matches_the_reference(order, vm):
    inputs = make_inputs(vm=vm, n=order)
    ops = secrate.build_tau(inputs.constellation)
    z, w = secrate.correlation_term(inputs, ops)
    z_ref, w_ref = correlation_term_reference(inputs, ops)
    # w is a difference of two terms of size up to ~1 + |alpha|^2, each
    # rounded differently by the two forms; where w nearly cancels (a
    # single pure state has w = 0, tiny V_m leaves w ~ |alpha|^2 of terms
    # ~1) the two agree to that rounding floor only, and Z takes the
    # floor through sqrt(2 T xi w)
    w_floor = 16 * np.finfo(float).eps * (1.0 + vm / 2.0)
    z_floor = math.sqrt(2.0 * inputs.transmittance * inputs.excess_noise * w_floor)
    assert w == pytest.approx(w_ref, rel=1e-12, abs=w_floor)
    assert z == pytest.approx(z_ref, rel=1e-12, abs=z_floor)


@pytest.mark.parametrize("order", [3, 4, 8])
@pytest.mark.parametrize("vm", [0.2, 3.2, 12.0])
def test_correlation_term_is_unchanged_on_a_rotated_ring(order, vm):
    # U = diag(e^{i phi n}) rotates every ring point by phi: tau, tau^{1/2}
    # and tau^{-1/2} go to U X U^dag, complex and Hermitian, so the trace
    # runs on complex arrays that no real PSK set produces; Z and w stay
    # those of the unrotated ring
    inputs = make_inputs(vm=vm, n=order)
    ops = secrate.build_tau(inputs.constellation)
    z_flat, w_flat = secrate.correlation_term(inputs, ops)
    w_floor = 16 * np.finfo(float).eps * (1.0 + vm / 2.0)
    z_floor = math.sqrt(2.0 * inputs.transmittance * inputs.excess_noise * w_floor)
    for phi in (0.3, 1.1, math.pi / order):
        phase = np.exp(1j * phi * np.arange(ops.n_max))
        conjugation = np.outer(phase, phase.conj())
        rotated = dataclasses.replace(
            ops,
            tau=ops.tau * conjugation,
            tau_sqrt=ops.tau_sqrt * conjugation,
            tau_inv_sqrt=ops.tau_inv_sqrt * conjugation,
            coherent_vectors=ops.coherent_vectors * phase,
        )
        assert np.abs(rotated.tau_sqrt.imag).max() > 0.0
        z, w = secrate.correlation_term(inputs, rotated)
        for z_expected, w_expected in (
            (z_flat, w_flat), correlation_term_reference(inputs, rotated)
        ):
            assert w == pytest.approx(w_expected, rel=1e-12, abs=w_floor), phi
            assert z == pytest.approx(z_expected, rel=1e-12, abs=z_floor), phi


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_correlation_term_rejects_a_non_finite_trace(bad):
    # the operators are real, so a NaN or infinite trace has no imaginary
    # part for the residue check to catch
    inputs = make_inputs()
    ops = secrate.build_tau(inputs.constellation)
    tau_sqrt = ops.tau_sqrt.copy()
    tau_sqrt[0, 0] = bad
    broken = dataclasses.replace(ops, tau_sqrt=tau_sqrt)
    # an infinite entry meets the zeros of a, and 0 * inf is NaN
    with np.errstate(invalid="ignore"), pytest.raises(secrate.KeyRateDomainError, match="not finite"):
        secrate.correlation_term(inputs, broken)


def test_correlation_term_matches_the_reference_on_a_thermal_state():
    for vm in (0.1, 0.3, 0.5):
        inputs = make_inputs(vm=vm)
        ops = thermal_operator_set(vm / 2.0, 64)
        z, w = secrate.correlation_term(inputs, ops)
        z_ref, w_ref = correlation_term_reference(inputs, ops)
        assert z == pytest.approx(z_ref, rel=1e-12)
        assert w == pytest.approx(w_ref, rel=1e-12, abs=1e-15)


def psk_block_spectrum(order: int, vm: float) -> np.ndarray:
    """lambda_k = sum of the Poisson(|alpha|^2) weights p_n over n = k mod N,
    n below the Fock cutoff: the one nonzero eigenvalue of tau's k-th block.
    A sum of positive terms, unlike the DFT of exp(|alpha|^2 omega^l), which
    cancels to zero or below for small V_m at N = 16."""
    mean = vm / 2.0
    n = np.arange(poisson_fock_cutoff(mean))
    log_fact = np.array([math.lgamma(m + 1.0) for m in n])
    weights = np.exp(-mean + n * math.log(mean) - log_fact)
    return np.bincount(n % order, weights=weights, minlength=order), weights


def psk_correlation_closed_form(order: int, vm: float) -> tuple[float, float]:
    """tr(tau^1/2 a tau^1/2 a^dag) and w of the truncated PSK state from its
    block spectrum. <v_{k-1}|a|v_k> = alpha (lambda_{k-1} - eps_k), where
    eps_k = p_{D-1} [D-1 = k-1 mod N] is the top Fock term that a drops."""
    lam, weights = psk_block_spectrum(order, vm)
    previous = np.roll(lam, 1)  # lambda_{k-1}
    top = np.zeros(order)
    top[weights.size % order] = weights[-1]  # k with k - 1 = D - 1 mod N
    lowered = previous - top
    trace = vm / 2.0 * np.sum(lowered**2 / np.sqrt(previous * lam))
    c = math.sqrt(vm / 2.0) * lowered / lam
    w = np.sum(lam * c**2) - np.sum(np.sqrt(previous * lam) * c) ** 2
    return float(trace), float(w)


@pytest.mark.parametrize("order", [4, 8])
def test_psk_closed_form_correlation_matches_the_fock_space_term(order):
    for vm in SCAN_MODULATION_VARIANCES:
        ops = secrate.build_tau(Constellation(order, vm))
        trace, w = psk_correlation_closed_form(order, vm)
        fock_trace = np.trace(ops.tau_sqrt @ ops.lowering @ ops.tau_sqrt @ ops.lowering.conj().T)
        # tighter than z and w: leaving out eps_k moves the trace by ~1e-11
        assert trace == pytest.approx(fock_trace.real, rel=1e-12), vm
        for loss_db in SCAN_LOSSES_DB:
            inputs = make_inputs(vm=vm, loss_db=loss_db, n=order)
            z_fock, w_fock = secrate.correlation_term(inputs, ops)
            t = inputs.transmittance
            z = 2.0 * math.sqrt(t) * trace - math.sqrt(2.0 * t * inputs.excess_noise * w)
            assert z == pytest.approx(z_fock, rel=1e-9), (vm, loss_db)
            assert w == pytest.approx(w_fock, rel=1e-9), (vm, loss_db)


@pytest.mark.parametrize("vm", [0.01, 0.05, 0.2, 0.35, 0.6, 1.0])
def test_psk_block_spectrum_is_positive_at_sixteen_points(vm):
    lam, _ = psk_block_spectrum(16, vm)
    assert np.all(lam > 0.0)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# spectrum and Holevo bound
# ---------------------------------------------------------------------------

def test_epr_limit_gives_unit_spectrum_and_zero_holevo():
    inputs = secrate.KeyRateInputs(
        modulation_variance=0.38, transmittance=1.0, excess_noise=0.0,
        detector_efficiency=1.0, electronic_noise=0.0,
        reconciliation_efficiency=1.0, psk_order=8,
    )
    v = inputs.ensemble_variance
    z_gauss = math.sqrt(v * v - 1.0)
    spectrum = secrate.symplectic_spectrum(inputs, z_gauss, 0.0)
    assert np.abs(np.array(spectrum.eigenvalues) - 1.0).max() < 1e-9
    assert secrate.holevo_bound(spectrum) == pytest.approx(0.0, abs=1e-9)


def test_bosonic_entropy_values():
    assert secrate.bosonic_entropy(0.0) == 0.0
    assert secrate.bosonic_entropy(1.0) == pytest.approx(2.0, abs=1e-15)


def test_eight_psk_leaks_more_than_qpsk_conventionally():
    for loss_db in (1.0, 2.0, 5.0, 10.0):
        hol4 = secrate.key_rate(make_inputs(vm=0.33, loss_db=loss_db, n=4)).holevo_information
        hol8 = secrate.key_rate(make_inputs(vm=0.38, loss_db=loss_db, n=8)).holevo_information
        assert hol8 > hol4


def test_unphysical_parameters_raise_named_error():
    inputs = make_inputs()
    with pytest.raises(secrate.KeyRateDomainError, match="lambda"):
        secrate.symplectic_spectrum(inputs, 10.0, 0.0)  # correlation above EPR bound


def test_nan_correlation_raises_instead_of_giving_nan_eigenvalues():
    with pytest.raises(secrate.KeyRateDomainError, match="NaN discriminant"):
        secrate.symplectic_spectrum(make_inputs(), math.nan, 0.0)


# ---------------------------------------------------------------------------
# key rates
# ---------------------------------------------------------------------------

def test_qknn_reduces_to_conventional_for_unit_auc_single_point():
    inputs = make_inputs(n=1, vm=0.38, auc=1.0)
    conventional = secrate.key_rate(inputs, "conventional")
    assisted = secrate.key_rate(inputs, "qknn")
    assert assisted.key_rate == pytest.approx(conventional.key_rate, abs=1e-12)


def test_zero_holevo_leaves_beta_times_information():
    inputs = secrate.KeyRateInputs(
        modulation_variance=0.38, transmittance=1.0, excess_noise=0.0,
        detector_efficiency=1.0, electronic_noise=0.0,
        reconciliation_efficiency=0.98, psk_order=8,
    )
    result = secrate.key_rate(inputs, "conventional")
    if result.holevo_information < 1e-9:
        assert result.key_rate == pytest.approx(
            0.98 * result.mutual_information, abs=1e-9
        )
    else:  # residual leak from the discrete-modulation penalty
        assert result.key_rate == pytest.approx(
            0.98 * result.mutual_information - result.holevo_information, abs=1e-12
        )


def test_rates_decrease_with_loss():
    # raw negative rates creep back toward zero at high loss (both terms
    # vanish), so monotonicity is a property of the plotted, clamped rate:
    # strictly decreasing while positive, never increasing after clamping
    for scheme, auc in (("conventional", 1.0), ("qknn", 0.95)):
        rates = [
            secrate.key_rate(make_inputs(loss_db=loss, auc=auc), scheme).key_rate
            for loss in np.arange(0.0, 25.1, 1.0)
        ]
        clamped = [max(r, 0.0) for r in rates]
        assert all(a >= b for a, b in zip(clamped, clamped[1:]))
        positive = [r for r in rates if r > 0]
        assert all(a > b for a, b in zip(positive, positive[1:]))
        assert positive  # the grid starts in the operating regime


def test_assisted_scheme_dominates_eight_psk():
    for loss in np.arange(0.0, 25.1, 1.0):
        inputs = make_inputs(loss_db=float(loss), auc=0.8)
        conv = secrate.key_rate(inputs, "conventional").key_rate
        assisted = secrate.key_rate(inputs, "qknn").key_rate
        assert assisted > conv


def test_conventional_has_interior_optimum_but_assisted_rises():
    vms = np.arange(0.05, 2.0001, 0.05)
    for n, vm_cap in ((4, 1.0), (8, 1.0)):
        rates = np.array(
            [secrate.key_rate(make_inputs(vm=float(v), n=n)).key_rate for v in vms]
        )
        window = rates[vms <= vm_cap]
        peak = int(window.argmax())
        assert 0 < peak < window.size - 1
    assisted = np.array(
        [
            secrate.key_rate(make_inputs(vm=float(v), n=8, auc=0.99), "qknn").key_rate
            for v in vms
        ]
    )
    assert np.all(np.diff(assisted) > 0)


def test_eve_information_reduction_factor():
    result = secrate.key_rate(make_inputs(loss_db=3.0), "conventional")
    assert result.holevo_information > 0
    assert result.holevo_information / 8 < result.holevo_information


SCAN_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "keyrate_reference.json"


def test_key_rates_match_the_committed_scan_reference():
    # every keyrate_scan point, built as the benchmark builds it (base
    # T = 1, then at_loss_db) and held to its tolerance: relative 1e-9 or
    # absolute 1e-12 bit/pulse, whichever is wider
    committed = json.loads(SCAN_REFERENCE.read_text())
    assert committed["grid"] == {
        "classifier_auc": SCAN_AUC,
        "losses_db": list(SCAN_LOSSES_DB),
        "modulation_variances": list(SCAN_MODULATION_VARIANCES),
        "psk_orders": list(SCAN_PSK_ORDERS),
    }
    reference = committed["key_rates"]
    checked = set()
    for order in SCAN_PSK_ORDERS:
        for vm in SCAN_MODULATION_VARIANCES:
            base = make_inputs(vm=vm, loss_db=0.0, n=order, auc=SCAN_AUC)
            for loss_db in SCAN_LOSSES_DB:
                inputs = base.at_loss_db(loss_db)
                for scheme in ("conventional", "qknn"):
                    key = f"{order}|{vm!r}|{loss_db!r}|{scheme}"
                    rate = secrate.key_rate(inputs, scheme).key_rate
                    assert math.isclose(rate, reference[key], rel_tol=1e-9, abs_tol=1e-12), key
                    checked.add(key)
    assert len(checked) == 1968
    assert checked == set(reference)


# ---------------------------------------------------------------------------
# the repeaterless bound
# ---------------------------------------------------------------------------

def plob_bound(transmittance: float) -> float:
    """-log2(1 - T), the repeaterless secret-key capacity of a pure-loss
    channel (Pirandola, Laurenza, Ottaviani and Banchi, Nat. Commun. 8,
    15043 (2017)); infinite at T = 1."""
    return math.inf if transmittance == 1.0 else -math.log2(1.0 - transmittance)


@pytest.fixture(scope="module")
def scan_rates_over_the_bound():
    """(N, V_m, loss) -> K / PLOB per scheme over the benchmark's scan grid
    (its channel is FIG11's, with AUC 0.9)."""
    ratios = {"conventional": {}, "qknn": {}}
    for order in (4, 8):
        for vm in SCAN_MODULATION_VARIANCES:
            for loss_db in SCAN_LOSSES_DB:
                inputs = make_inputs(vm=vm, loss_db=loss_db, n=order, auc=0.9)
                bound = plob_bound(inputs.transmittance)
                for scheme in ratios:
                    rate = secrate.key_rate(inputs, scheme).key_rate
                    ratios[scheme][order, vm, loss_db] = rate / bound
    return ratios


def test_conventional_rates_stay_below_the_repeaterless_bound(scan_rates_over_the_bound):
    # the worst point reaches 0.023 of the bound
    ratios = scan_rates_over_the_bound["conventional"]
    assert len(ratios) == 984
    assert max(ratios.values()) < 0.03


def test_qknn_rates_exceed_the_repeaterless_bound_at_large_modulation(scan_rates_over_the_bound):
    # documents the region, not a defect of secrate: the qknn rate divides
    # chi_BE by N, so it grows with V_m past the bound; every point above it
    # is 8-PSK with V_m >= 6 or QPSK with V_m >= 8
    ratios = scan_rates_over_the_bound["qknn"]
    above = {point for point, ratio in ratios.items() if ratio > 1.0}
    assert len(ratios) == 984
    assert len(above) == 208
    assert {(n, vm) for n, vm, _ in above} == {
        (8, 6.0), (8, 8.0), (8, 10.0), (8, 12.0), (4, 8.0), (4, 10.0), (4, 12.0)
    }
    assert 2.3 < max(ratios.values()) < 2.4
