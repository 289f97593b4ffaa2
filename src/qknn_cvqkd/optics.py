"""Physical layer: N-PSK coherent-state modulation, lossy noisy channel,
heterodyne detection and distance features.

Conventions (shot-noise units, vacuum quadrature variance 1):
- a coherent state of complex amplitude alpha has quadrature means
  (2*Re alpha, 2*Im alpha), so the constellation radius alpha = sqrt(Vm/2)
  gives modulation variance Vm per quadrature and total variance V = Vm + 1;
- the channel and detector pass the fraction eta*T of the power, so the
  detected means are 2*sqrt(eta*T)*alpha;
- each detected quadrature is Gaussian around its mean with variance
  eta*(1 + T*xi + chi_het) = 2 + eta*T*xi + 2*v_el, chi_het from
  ``heterodyne_added_noise``, the one trusted-detector rule ``secrate`` reads
  too, so the samples' SNR eta*T*V_m / (2 + eta*T*xi + 2*v_el) is 2^I_AB - 1.

The model has no phase noise: the receiver's references are the detected
means themselves. Feature vectors are the Euclidean distances from a
measured point to the detected means of the constellation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qknn.dataset import TrainingSet, is_positive_integer


def transmittance_at_loss(loss_db: float) -> float:
    """10^(-loss/10): the power fraction that a loss of ``loss_db`` passes."""
    return 10.0 ** (-loss_db / 10.0)


def heterodyne_added_noise(detector_efficiency: float, electronic_noise: float) -> float:
    """chi_het = (2 - eta + 2*v_el)/eta, a trusted heterodyne detector's noise
    referred to its input (Lodewyck et al., PRA 76, 042305 (2007))."""
    return (1.0 + (1.0 - detector_efficiency) + 2.0 * electronic_noise) / detector_efficiency


@dataclass(frozen=True)
class Constellation:
    """Equal-amplitude PSK ring: ``n_points`` states at phases 2*pi*k/N."""

    n_points: int
    modulation_variance: float

    def __post_init__(self):
        if not is_positive_integer(self.n_points):
            raise ValueError("constellation needs an integer number of points, at least one")
        if not 0.0 < self.modulation_variance < math.inf:  # NaN fails too
            raise ValueError("modulation variance must be positive and finite")

    @property
    def amplitude(self) -> float:
        return math.sqrt(self.modulation_variance / 2.0)

    @property
    def points(self) -> np.ndarray:
        k = np.arange(self.n_points)
        return self.amplitude * np.exp(2j * math.pi * k / self.n_points)


@dataclass(frozen=True)
class ChannelModel:
    """Fiber + detector model; transmittance follows from length and loss."""

    distance_km: float
    loss_db_per_km: float = 0.2
    excess_noise: float = 0.0
    detector_efficiency: float = 1.0
    electronic_noise: float = 0.0

    def __post_init__(self):
        # each test is a negated in-range comparison, so NaN fails it too
        if not (0.0 <= self.distance_km < math.inf and 0.0 <= self.loss_db_per_km < math.inf):
            raise ValueError("distance and loss must be non-negative and finite")
        if not (0.0 <= self.excess_noise < math.inf and 0.0 <= self.electronic_noise < math.inf):
            raise ValueError("noise parameters must be non-negative and finite")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")

    @property
    def loss_db(self) -> float:
        return self.loss_db_per_km * self.distance_km

    @property
    def transmittance(self) -> float:
        return transmittance_at_loss(self.loss_db)

    @property
    def quadrature_noise_variance(self) -> float:
        """eta*(1 + T*xi + chi_het) = 2 + eta*T*xi + 2*v_el per quadrature."""
        chi_het = heterodyne_added_noise(self.detector_efficiency, self.electronic_noise)
        return self.detector_efficiency * (1.0 + self.transmittance * self.excess_noise + chi_het)


def detected_means(amplitudes: np.ndarray, channel: ChannelModel) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless detected quadrature means (x, p) = 2*sqrt(eta*T)*alpha."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    gain = 2.0 * math.sqrt(channel.detector_efficiency * channel.transmittance)
    return gain * amplitudes.real, gain * amplitudes.imag


def transmit_and_detect_batch(
    amplitudes: np.ndarray, channel: ChannelModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized channel + heterodyne sampling."""
    x, p = detected_means(amplitudes, channel)
    sigma = math.sqrt(channel.quadrature_noise_variance)
    x += rng.normal(0.0, sigma, size=x.shape)
    p += rng.normal(0.0, sigma, size=p.shape)
    return x, p


def reference_points(constellation: Constellation, channel: ChannelModel) -> np.ndarray:
    """(N, 2) noiseless detected means of the standard constellation states."""
    return np.stack(detected_means(constellation.points, channel), axis=1)


def _features_batch(x: np.ndarray, p: np.ndarray, refs: np.ndarray) -> np.ndarray:
    return np.hypot(x[:, None] - refs[None, :, 0], p[:, None] - refs[None, :, 1])


@dataclass(frozen=True)
class RawDataset:
    """Samples before normalization: quadratures, distance features, labels."""

    x: np.ndarray
    p: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    symbols: np.ndarray


def generate_samples(
    count: int,
    channel: ChannelModel,
    constellation: Constellation,
    rng: np.random.Generator,
) -> RawDataset:
    """Draw i.i.d. symbols, transmit, detect and featurize them. The true
    label is the sent symbol's sector (symbol k sits at the center of
    sector k+1)."""
    if not is_positive_integer(count):
        raise ValueError(f"need an integer count of at least one sample, got {count!r}")
    symbols = rng.integers(0, constellation.n_points, size=count)
    amplitudes = constellation.points[symbols]
    x, p = transmit_and_detect_batch(amplitudes, channel, rng)
    refs = reference_points(constellation, channel)
    features = _features_batch(x, p, refs)
    labels = symbols + 1
    return RawDataset(x=x, p=p, features=features, labels=labels, symbols=symbols)


def generate_dataset(
    count: int,
    channel: ChannelModel,
    constellation: Constellation,
    rng: np.random.Generator,
) -> TrainingSet:
    """Training set with min-max feature normalization fitted on itself."""
    raw = generate_samples(count, channel, constellation, rng)
    return TrainingSet.from_raw(
        raw_features=raw.features,
        labels=raw.labels,
        n_classes=constellation.n_points,
    )

