"""Physical layer: N-PSK coherent-state modulation, lossy noisy channel,
heterodyne detection and distance features.

Conventions (shot-noise units, vacuum quadrature variance 1):
- a coherent state of complex amplitude alpha has detected quadrature means
  (2*Re alpha, 2*Im alpha), so the constellation radius alpha = sqrt(Vm/2)
  gives modulation variance Vm per quadrature and total variance V = Vm + 1;
- the heterodyne outcome for each quadrature is Gaussian with variance
  (2 + eta*T*excess + 2*v_el)/2 around the attenuated, rotated mean: one
  vacuum unit, the heterodyne unit, channel excess noise referred to the
  input, and electronic noise;
- phase drift is a constant offset plus zero-mean Gaussian jitter per pulse.

Feature vectors are the Euclidean distances from a measured point to the
noiseless detected means of the constellation (receiver-side references:
attenuation and the deterministic phase offset applied, jitter not).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qknn.dataset import TrainingSet


@dataclass(frozen=True)
class Constellation:
    """Equal-amplitude PSK ring: ``n_points`` states at phases 2*pi*k/N."""

    n_points: int
    modulation_variance: float

    def __post_init__(self):
        n = self.n_points
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
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
    phase_offset: float = 0.0
    phase_jitter_std: float = 0.0

    def __post_init__(self):
        # each test is a negated in-range comparison, so NaN fails it too
        if not (0.0 <= self.distance_km < math.inf and 0.0 <= self.loss_db_per_km < math.inf):
            raise ValueError("distance and loss must be non-negative and finite")
        if not (0.0 <= self.excess_noise < math.inf and 0.0 <= self.electronic_noise < math.inf):
            raise ValueError("noise parameters must be non-negative and finite")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        if not (0.0 <= self.phase_jitter_std < math.inf and math.isfinite(self.phase_offset)):
            raise ValueError("phase jitter must be non-negative and phases finite")

    @property
    def loss_db(self) -> float:
        return self.loss_db_per_km * self.distance_km

    @property
    def transmittance(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)

    @property
    def quadrature_noise_variance(self) -> float:
        eta_t = self.detector_efficiency * self.transmittance
        return (2.0 + eta_t * self.excess_noise + 2.0 * self.electronic_noise) / 2.0

def detected_mean(amplitude: complex, channel: ChannelModel) -> tuple[float, float]:
    """Noiseless detected quadrature means after loss, efficiency and the
    deterministic phase offset."""
    scale = math.sqrt(channel.detector_efficiency * channel.transmittance)
    rotated = amplitude * np.exp(1j * channel.phase_offset)
    return 2.0 * scale * rotated.real, 2.0 * scale * rotated.imag


def transmit_and_detect_batch(
    amplitudes: np.ndarray, channel: ChannelModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized channel + heterodyne sampling."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    scale = math.sqrt(channel.detector_efficiency * channel.transmittance)
    phase = channel.phase_offset
    if channel.phase_jitter_std > 0:
        phase = phase + rng.normal(0.0, channel.phase_jitter_std, size=amplitudes.shape)
    rotated = amplitudes * np.exp(1j * phase)
    sigma = math.sqrt(channel.quadrature_noise_variance)
    x = 2.0 * scale * rotated.real + rng.normal(0.0, sigma, size=amplitudes.shape)
    p = 2.0 * scale * rotated.imag + rng.normal(0.0, sigma, size=amplitudes.shape)
    return x, p


def reference_points(constellation: Constellation, channel: ChannelModel) -> np.ndarray:
    """(N, 2) noiseless detected means of the standard constellation states."""
    refs = np.empty((constellation.n_points, 2))
    for k in range(constellation.n_points):
        refs[k] = detected_mean(complex(constellation.points[k]), channel)
    return refs


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
    if count < 1:
        raise ValueError("need at least one sample")
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

