"""Optical-layer checks: modulation, channel statistics, labels, features."""
import math

import numpy as np
import pytest

from qknn_cvqkd import optics

RNG = np.random.default_rng


def ideal_channel(**overrides):
    base = dict(
        distance_km=0.0,
        loss_db_per_km=0.2,
        excess_noise=0.0,
        detector_efficiency=1.0,
        electronic_noise=0.0,
    )
    base.update(overrides)
    return optics.ChannelModel(**base)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field",
    ["distance_km", "loss_db_per_km", "excess_noise", "detector_efficiency",
     "electronic_noise"],
)
def test_channel_rejects_non_finite_parameters(field, bad):
    with pytest.raises(ValueError):
        ideal_channel(**{field: bad})


@pytest.mark.parametrize(
    "field,bad",
    [
        ("distance_km", -1.0),
        ("loss_db_per_km", -0.1),
        ("excess_noise", -0.01),
        ("detector_efficiency", 0.0),
        ("detector_efficiency", 1.5),
        ("electronic_noise", -0.01),
    ],
)
def test_channel_rejects_out_of_range_parameters(field, bad):
    with pytest.raises(ValueError):
        ideal_channel(**{field: bad})


@pytest.mark.parametrize(
    "n_points,variance",
    [(0, 0.38), (8, 0.0), (8, -1.0), (2.5, 1.0), (4.0, 1.0), (True, 1.0)],
)
def test_constellation_rejects_empty_ring_or_non_positive_variance(n_points, variance):
    # the ring size must be an integer; bool is not taken as N = 1
    with pytest.raises(ValueError):
        optics.Constellation(n_points, variance)
    assert optics.Constellation(np.int64(4), 1.0).points.shape == (4,)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constellation_rejects_non_finite_variance(bad):
    with pytest.raises(ValueError):
        optics.Constellation(8, bad)


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------

def test_modulate_symbol_zero_is_real_axis():
    const = optics.Constellation(8, 0.38)
    alpha = const.points[0]
    assert alpha.imag == 0.0
    assert alpha.real == pytest.approx(math.sqrt(0.19), abs=1e-15)


def test_modulate_half_turn():
    const = optics.Constellation(8, 0.38)
    assert const.points[4] == pytest.approx(-const.points[0], abs=1e-12)


def test_modulation_variance_amplitude_relation():
    const = optics.Constellation(4, 0.33)
    assert abs(const.points[1]) ** 2 == pytest.approx(0.165, abs=1e-12)


def test_constellation_points_equally_spaced():
    const = optics.Constellation(8, 1.0)
    pts = const.points
    assert np.allclose(np.abs(pts), const.amplitude)
    phases = np.sort(np.angle(pts) % (2 * math.pi))
    assert np.allclose(np.diff(phases), 2 * math.pi / 8)


# ---------------------------------------------------------------------------
# channel + detection statistics
# ---------------------------------------------------------------------------

def test_ideal_channel_mean_and_unit_variance():
    channel = ideal_channel()
    alpha = 0.7 + 0.4j
    x, p = optics.transmit_and_detect_batch(np.full(100_000, alpha), channel, RNG(0))
    n = x.size
    assert x.mean() == pytest.approx(2 * alpha.real, abs=4 / math.sqrt(n))
    assert p.mean() == pytest.approx(2 * alpha.imag, abs=4 / math.sqrt(n))
    # variance 2 per quadrature, the vacuum unit and the heterodyne unit,
    # within 3 sigma of the sampling error
    for series in (x, p):
        var = series.var()
        assert abs(var - 2.0) < 3 * 2.0 * math.sqrt(2.0 / n)


def test_strong_attenuation_kills_the_mean():
    channel = ideal_channel(distance_km=500.0)  # 100 dB
    x, p = optics.transmit_and_detect_batch(np.full(20_000, 3.0 + 0j), channel, RNG(1))
    assert abs(x.mean()) < 0.05
    assert abs(p.mean()) < 0.05


def test_ten_km_transmittance():
    channel = ideal_channel(distance_km=10.0)
    assert channel.transmittance == pytest.approx(10 ** (-0.2), abs=1e-12)
    x, p = optics.detected_means(np.array([1.0 + 0j]), channel)
    assert x[0] == pytest.approx(2 * math.sqrt(10 ** (-0.2)), abs=1e-12)
    assert p[0] == 0.0


def test_noise_variance_formula():
    channel = ideal_channel(distance_km=5.0, excess_noise=0.03,
                            detector_efficiency=0.6, electronic_noise=0.05)
    eta_t = 0.6 * 10 ** (-0.1)
    assert channel.quadrature_noise_variance == pytest.approx(
        2 + eta_t * 0.03 + 2 * 0.05, abs=1e-12
    )


@pytest.mark.parametrize("n_points,distance", [(1, 0.0), (3, 20.0), (8, 50.0)])
def test_samples_follow_the_documented_stream_bit_for_bit(n_points, distance):
    # the symbols, then every x noise, then every p noise, from one
    # generator, around the detected means 2*sqrt(eta*T)*alpha
    const = optics.Constellation(n_points, 0.38)
    channel = ideal_channel(distance_km=distance, excess_noise=0.01,
                            detector_efficiency=0.6, electronic_noise=0.05)
    raw = optics.generate_samples(300, channel, const, RNG(11))

    rng = RNG(11)
    symbols = rng.integers(0, n_points, size=300)
    alpha = const.points[symbols]
    t = 10.0 ** (-0.2 * distance / 10.0)
    gain = 2.0 * math.sqrt(0.6 * t)
    # eta*(1 + T*xi + chi_het) with chi_het = (2 - eta + 2*v_el)/eta
    sigma = math.sqrt(0.6 * (1.0 + t * 0.01 + (1.0 + (1.0 - 0.6) + 2.0 * 0.05) / 0.6))
    x = gain * alpha.real + rng.normal(0.0, sigma, size=300)
    p = gain * alpha.imag + rng.normal(0.0, sigma, size=300)
    refs = gain * const.points
    features = np.hypot(x[:, None] - refs.real[None, :], p[:, None] - refs.imag[None, :])
    for got, want in ((raw.symbols, symbols), (raw.labels, symbols + 1), (raw.x, x),
                      (raw.p, p), (raw.features, features)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_points", [1, 4, 8])
@pytest.mark.parametrize("distance", [0.0, 20.0, 50.0])
def test_sample_noise_is_the_detector_rule(n_points, distance):
    # the bench channel; residuals around the detected means have zero mean
    # and the shared variance eta*(1 + T*xi + chi_het), within 4 standard errors
    const = optics.Constellation(n_points, 0.38)
    channel = ideal_channel(distance_km=distance, excess_noise=0.01,
                            detector_efficiency=0.6, electronic_noise=0.05)
    chi_het = optics.heterodyne_added_noise(0.6, 0.05)
    variance = 0.6 * (1.0 + channel.transmittance * 0.01 + chi_het)
    assert channel.quadrature_noise_variance == variance
    raw = optics.generate_samples(20_000, channel, const, RNG(23))
    means = optics.detected_means(const.points[raw.symbols], channel)
    n = raw.symbols.size
    for residual in (raw.x - means[0], raw.p - means[1]):
        assert abs(residual.mean()) < 4 * math.sqrt(variance / n)
        assert abs(residual.var() - variance) < 4 * variance * math.sqrt(2.0 / n)


def test_mean_radius_decreases_with_distance():
    const = optics.Constellation(8, 5.0)
    radii = []
    for distance in (0.0, 10.0, 25.0, 50.0):
        channel = ideal_channel(distance_km=distance)
        raw = optics.generate_samples(20_000, channel, const, RNG(7))
        radii.append(np.hypot(raw.x, raw.p).mean())
    assert all(a > b for a, b in zip(radii, radii[1:]))


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def features_at(x: float, p: float, refs: np.ndarray) -> np.ndarray:
    """Distance features of one measured point, through the batch code."""
    return optics._features_batch(np.array([x]), np.array([p]), refs)[0]


def test_features_at_reference_point():
    const = optics.Constellation(8, 2.0)
    channel = ideal_channel(distance_km=5.0)
    refs = optics.reference_points(const, channel)
    d = features_at(*refs[0], refs)
    assert d[0] == pytest.approx(0.0, abs=1e-12)
    diameter = 2 * np.hypot(*refs[0])
    assert d[4] == pytest.approx(diameter, abs=1e-12)


def test_features_at_origin_all_equal():
    const = optics.Constellation(8, 2.0)
    channel = ideal_channel(distance_km=5.0)
    d = features_at(0.0, 0.0, optics.reference_points(const, channel))
    assert np.allclose(d, d[0])


def test_features_match_independent_distance_computation():
    const = optics.Constellation(8, 2.0)
    channel = ideal_channel(distance_km=12.0)
    rng = RNG(4)
    x, p = rng.normal(size=2)
    refs = optics.reference_points(const, channel)
    d = features_at(x, p, refs)
    manual = np.array([math.sqrt((x - rx) ** 2 + (p - rp) ** 2) for rx, rp in refs])
    assert np.abs(d - manual).max() < 1e-12


def test_noiseless_samples_classify_by_nearest_reference():
    const = optics.Constellation(8, 1.5)
    channel = ideal_channel(distance_km=15.0)
    refs = optics.reference_points(const, channel)
    xs, ps = optics.detected_means(const.points, channel)
    for symbol in range(8):
        d = features_at(xs[symbol], ps[symbol], refs)
        assert int(np.argmin(d)) == symbol
        assert np.allclose(refs[symbol], (xs[symbol], ps[symbol]))


def test_sent_symbol_feature_is_smallest_in_median_at_short_distance():
    const = optics.Constellation(8, 30.0)
    channel = ideal_channel(distance_km=5.0, detector_efficiency=0.6,
                            excess_noise=0.01, electronic_noise=0.05)
    raw = optics.generate_samples(20_000, channel, const, RNG(5))
    for symbol in range(8):
        rows = raw.symbols == symbol
        own = np.median(raw.features[rows, symbol])
        others = [np.median(raw.features[rows, other]) for other in range(8) if other != symbol]
        assert own < min(others)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def test_dataset_reproducible_for_fixed_seed():
    const = optics.Constellation(8, 0.38)
    channel = ideal_channel(distance_km=5.0, excess_noise=0.01)
    a = optics.generate_dataset(500, channel, const, RNG(42))
    b = optics.generate_dataset(500, channel, const, RNG(42))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("n_points", [2, 4, 8, 16])
def test_label_is_the_sent_symbols_sector(n_points):
    # symbol k sits at the center of sector k+1, the first on the positive
    # x axis; a ring wide against the unit noise detects every sample
    # nearest its own reference
    const = optics.Constellation(n_points, 2.0e4)
    raw = optics.generate_samples(400, ideal_channel(), const, RNG(n_points))
    assert np.array_equal(raw.labels, raw.symbols + 1)
    assert np.array_equal(np.argmin(raw.features, axis=1) + 1, raw.labels)
    first = raw.labels == 1
    assert (raw.x[first] > 0).all()
    assert np.abs(raw.p[first]).max() < np.abs(raw.x[first]).min()


def test_label_marginal_is_uniform():
    const = optics.Constellation(8, 0.38)
    raw = optics.generate_samples(10_000, ideal_channel(), const, RNG(6))
    counts = np.bincount(raw.labels, minlength=9)[1:]
    expect = 10_000 / 8
    sigma = math.sqrt(10_000 * (1 / 8) * (7 / 8))
    assert np.abs(counts - expect).max() < 4 * sigma


def test_dataset_features_are_normalized():
    const = optics.Constellation(8, 0.38)
    train = optics.generate_dataset(200, ideal_channel(distance_km=20.0), const, RNG(8))
    assert train.features.min() >= 0.0
    assert train.features.max() <= 1.0
    assert train.feature_dim == 8
