"""Physical layer: N-PSK coherent-state modulation, lossy noisy channel,
heterodyne detection, phase-sector labels and distance features.

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

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qknn.dataset import TrainingSet


@dataclass(frozen=True)
class Constellation:
    """Equal-amplitude PSK ring: ``n_points`` states at phases 2*pi*k/N."""

    n_points: int
    modulation_variance: float

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("constellation needs at least one point")
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

    def to_dict(self) -> dict:
        return {
            "distance_km": self.distance_km,
            "loss_db_per_km": self.loss_db_per_km,
            "excess_noise": self.excess_noise,
            "detector_efficiency": self.detector_efficiency,
            "electronic_noise": self.electronic_noise,
            "phase_offset": self.phase_offset,
            "phase_jitter_std": self.phase_jitter_std,
        }


@dataclass(frozen=True)
class QuadratureSample:
    """One heterodyne outcome (both quadratures, shot-noise units)."""

    x: float
    p: float


def modulate(symbol: int, constellation: Constellation) -> complex:
    """Transmitted amplitude for one symbol index."""
    if not 0 <= symbol < constellation.n_points:
        raise ValueError(f"symbol {symbol} outside 0..{constellation.n_points - 1}")
    return complex(constellation.points[symbol])


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


def assign_label(x: float, p: float, n_points: int) -> int:
    """Phase-sector label: sector 1 is centered on phase 0, sectors advance
    counterclockwise with width 2*pi/N. Points exactly on a boundary take
    the lower-index sector; the origin resolves to sector 1."""
    if x == 0.0 and p == 0.0:
        return 1
    sector_width = 2.0 * math.pi / n_points
    position = math.atan2(p, x) / sector_width
    nearest = math.floor(position + 0.5)
    if position + 0.5 == nearest:  # boundary: round down to the lower sector
        nearest -= 1
    return int(nearest % n_points) + 1


def reference_points(constellation: Constellation, channel: ChannelModel) -> np.ndarray:
    """(N, 2) noiseless detected means of the standard constellation states."""
    refs = np.empty((constellation.n_points, 2))
    for k in range(constellation.n_points):
        refs[k] = detected_mean(complex(constellation.points[k]), channel)
    return refs


def extract_features(
    sample: QuadratureSample, constellation: Constellation, channel: ChannelModel
) -> np.ndarray:
    """Distances from the measured point to every constellation reference."""
    refs = reference_points(constellation, channel)
    return np.hypot(refs[:, 0] - sample.x, refs[:, 1] - sample.p)


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
        quadratures=np.stack([raw.x, raw.p], axis=1),
    )


# ---------------------------------------------------------------------------
# dataset export / import
# ---------------------------------------------------------------------------

def save_dataset_csv(
    train: TrainingSet,
    path: str | Path,
    channel: ChannelModel | None = None,
    constellation: Constellation | None = None,
) -> None:
    """Write raw quadratures, raw distance features and labels as CSV, plus a
    JSON sidecar carrying channel parameters and normalization constants."""
    path = Path(path)
    if train.raw_features is None or train.quadratures is None:
        raise ValueError("training set lacks raw features or quadratures")
    dim = train.raw_features.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "p"] + [f"d_{i}" for i in range(dim)] + ["label"])
        for j in range(train.size):
            row = [repr(float(train.quadratures[j, 0])), repr(float(train.quadratures[j, 1]))]
            row += [repr(float(v)) for v in train.raw_features[j]]
            row.append(int(train.labels[j]))
            writer.writerow(row)
    sidecar = {
        "n_classes": train.n_classes,
        "normalization": train.scaler.to_dict(),
        "channel": None if channel is None else channel.to_dict(),
        "constellation": None
        if constellation is None
        else {
            "n_points": constellation.n_points,
            "modulation_variance": constellation.modulation_variance,
        },
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def load_dataset_csv(path: str | Path) -> TrainingSet:
    """Rebuild a training set from the CSV and its JSON sidecar."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    quadratures, features, labels = [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 3
        for row in reader:
            quadratures.append([float(row[0]), float(row[1])])
            features.append([float(v) for v in row[2 : 2 + dim]])
            labels.append(int(row[-1]))
    from .qknn.dataset import FeatureScaler

    scaler = FeatureScaler.from_dict(sidecar["normalization"])
    raw = np.asarray(features)
    return TrainingSet(
        features=scaler.transform(raw),
        labels=np.asarray(labels, int),
        n_classes=int(sidecar["n_classes"]),
        scaler=scaler,
        raw_features=raw,
        quadratures=np.asarray(quadratures),
    )
