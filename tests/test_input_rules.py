"""The rules several stages share, each checked at every entry point that
applies it: positive integers, 1-based labels and register widths, plus the
one description of the channel that the samples and the key rate read."""
import dataclasses
import math

import numpy as np
import pytest

from qknn_cvqkd import metrics, optics, secrate
from qknn_cvqkd.qknn import (
    FeatureScaler,
    SimilarityTable,
    TrainingSet,
    amplitude_estimate,
    classical_knn_predict,
    compute_similarity_table,
    k_maximal_find,
    knn_predict_batch,
    majority_vote,
    prepare_training_state,
    prepare_uniform_superposition,
    qknn_predict,
    qubits_for,
)

RNG = np.random.default_rng

RATE_INPUTS = dict(
    modulation_variance=0.38, transmittance=0.5, excess_noise=0.01, detector_efficiency=0.6,
    electronic_noise=0.05, reconciliation_efficiency=0.98, psk_order=8,
)

# ---------------------------------------------------------------------------
# positive integers
# ---------------------------------------------------------------------------

SIX_ROWS = TrainingSet(
    RNG(0).uniform(size=(6, 2)), [1, 2, 1, 2, 1, 2], 2,
    FeatureScaler(minimum=np.zeros(2), maximum=np.ones(2)),
)
QUERY = np.array([0.3, 0.7])
BENCH_CHANNEL = optics.ChannelModel(20.0, excess_noise=0.01, detector_efficiency=0.6,
                                    electronic_noise=0.05)

# each entry point given a count or a k, returning the count it used
POSITIVE_INTEGER_ENTRY_POINTS = {
    "Constellation": lambda n: optics.Constellation(n, 1.0).n_points,
    "generate_samples": lambda n: optics.generate_samples(
        n, BENCH_CHANNEL, optics.Constellation(4, 0.38), RNG(0)
    ).labels.size,
    "generate_dataset": lambda n: optics.generate_dataset(
        n, BENCH_CHANNEL, optics.Constellation(4, 0.38), RNG(0)
    ).size,
    "classical_knn_predict": lambda k: classical_knn_predict(
        SIX_ROWS, QUERY, k
    ).neighbor_indices.size,
    "knn_predict_batch": lambda k: next(iter(knn_predict_batch(SIX_ROWS, QUERY, [k]))),
    "qknn_predict": lambda k: qknn_predict(SIX_ROWS, QUERY, k, RNG(0)).neighbor_indices.size,
    "k_maximal_find": lambda k: len(
        k_maximal_find(compute_similarity_table(SIX_ROWS, QUERY), k, RNG(0))[0].selected
    ),
    "KeyRateInputs.psk_order": lambda n: secrate.KeyRateInputs(
        **{**RATE_INPUTS, "psk_order": n}
    ).psk_order,
    "KeyRateInputs.fock_cutoff": lambda n: secrate.KeyRateInputs(
        **RATE_INPUTS, fock_cutoff=n
    ).fock_cutoff,
    "prepare_uniform_superposition": lambda n: np.count_nonzero(
        prepare_uniform_superposition(n, RNG(0)).state.amplitudes
    ),
}


@pytest.mark.parametrize("entry", sorted(POSITIVE_INTEGER_ENTRY_POINTS))
def test_positive_integer_rule_at_every_entry_point(entry):
    build = POSITIVE_INTEGER_ENTRY_POINTS[entry]
    for bad in (0, -3, 2.5, 4.0, True):
        # KeyRateDomainError is a ValueError
        with pytest.raises(ValueError):
            build(bad)
    for good in (4, np.int64(4)):
        assert build(good) == 4


# ---------------------------------------------------------------------------
# 1-based labels
# ---------------------------------------------------------------------------

N_CLASSES = 2


def _training_set(labels):
    features = RNG(0).uniform(size=(2, 2))
    scaler = FeatureScaler(minimum=np.zeros(2), maximum=np.ones(2))
    return TrainingSet(features, labels, N_CLASSES, scaler)


LABEL_ENTRY_POINTS = {
    "TrainingSet": _training_set,
    "majority_vote": majority_vote,
    "confusion": lambda labels: metrics.confusion([1, 2], labels, N_CLASSES),
    "roc_macro": lambda labels: metrics.roc_macro(
        np.array([[0.9, 0.1], [0.2, 0.8]]), labels, N_CLASSES
    ),
}
BAD_LABELS = {
    "not integers": [1.5, 2.0],
    "zero": [0, 2],
    "above the class count": [1, N_CLASSES + 1],
}


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_label_rule_at_every_entry_point(entry, case):
    if entry == "majority_vote" and case == "above the class count":
        # a vote is given no class count, so any label of at least 1 is valid
        assert majority_vote(BAD_LABELS[case]) == 1
        return
    with pytest.raises(ValueError, match="labels must"):
        LABEL_ENTRY_POINTS[entry](BAD_LABELS[case])
    LABEL_ENTRY_POINTS[entry](np.array([1, 2], dtype=np.int64))


# each entry point given labels that are not 1-D, with its other arguments
# shaped to match them
LABEL_SHAPE_CASES = {
    "TrainingSet": lambda: _training_set(1),
    "majority_vote": lambda: majority_vote([[1, 2], [2, 2]]),
    "confusion": lambda: metrics.confusion([[1, 2], [2, 1]], [[1, 2], [1, 2]], N_CLASSES),
    "roc_macro": lambda: metrics.roc_macro(np.full((4, 2), 0.5), [[1, 2], [1, 2]], N_CLASSES),
}


@pytest.mark.parametrize("entry", sorted(LABEL_SHAPE_CASES))
def test_label_shape_rule_at_every_entry_point(entry):
    with pytest.raises(ValueError, match="labels must be one-dimensional"):
        LABEL_SHAPE_CASES[entry]()


# ---------------------------------------------------------------------------
# register widths
# ---------------------------------------------------------------------------

def _float_width(values: int) -> int:
    """The float formula every width used to carry: ceil(log2 n), at least 1."""
    return max(1, math.ceil(math.log2(values)))


def test_register_width_matches_the_float_formula_to_two_to_the_twenty():
    values = range(1, (1 << 20) + 1)
    assert [qubits_for(n) for n in values] == [_float_width(n) for n in values]


def test_register_width_is_exact_for_numpy_and_large_integers():
    for k in range(1, 46):
        for n in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            assert qubits_for(np.int64(n)) == qubits_for(n) == _float_width(n), n
    # beyond 2^53 the float formula rounds 2^60 + 1 down to 2^60
    assert qubits_for((1 << 60) + 1) == 61
    assert _float_width((1 << 60) + 1) == 60


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 16, 17, 131, np.int64(33)])
def test_every_register_width_reads_one_rule(count):
    assert SimilarityTable(fidelity=np.zeros(count), mode="analytic").register_width == (
        _float_width(max(count, 2))
    )
    assert amplitude_estimate(0.3, count).grid_size == 1 << _float_width(count)
    # the 1-based index kets |1>..|M> of the uniform superposition
    assert prepare_uniform_superposition(count, RNG(0)).layout["index"].width == (
        _float_width(count + 1)
    )
    values = np.linspace(0.0, 1.0, count)[:, None]  # count distinct values in one feature
    scratch = prepare_training_state(values, strip_scratch=False).layout["scratch"]
    assert scratch.width == _float_width(max(count, 2))


# ---------------------------------------------------------------------------
# one description of the channel
# ---------------------------------------------------------------------------

NOISE_FIELDS = {"excess_noise", "detector_efficiency", "electronic_noise"}


def test_every_channel_field_reaches_the_key_rate():
    channel_fields = {f.name for f in dataclasses.fields(optics.ChannelModel)}
    rate_fields = {f.name for f in dataclasses.fields(secrate.KeyRateInputs)}
    assert channel_fields == {"distance_km", "loss_db_per_km"} | NOISE_FIELDS
    assert NOISE_FIELDS <= rate_fields
    # distance and loss reach the rate only as their transmittance
    assert "transmittance" in rate_fields
    assert not {"distance_km", "loss_db_per_km"} & rate_fields
    noise = dict(excess_noise=0.01, detector_efficiency=0.6, electronic_noise=0.05)
    rates = set()
    for distance, loss in ((10.0, 0.2), (20.0, 0.1), (4.0, 0.5)):
        channel = optics.ChannelModel(distance, loss, **noise)
        inputs = secrate.KeyRateInputs(
            modulation_variance=0.38, transmittance=channel.transmittance,
            reconciliation_efficiency=0.98, psk_order=4,
            **{name: getattr(channel, name) for name in NOISE_FIELDS},
        )
        rates.add(secrate.key_rate(inputs, "conventional").key_rate)
    assert len(rates) == 1


class ScaleRecorder:
    """Stands in for the generator of ``transmit_and_detect_batch``: records
    the scale of every normal draw and adds no noise."""

    def __init__(self):
        self.scales = []

    def normal(self, loc, scale, size):
        self.scales.append(scale)
        return np.zeros(size)


def _channels_and_variances():
    """Every bench channel, 0 to 50 km with both bench modulation
    variances, then 200 seeded random (channel, V_m) pairs."""
    noise = dict(excess_noise=0.01, detector_efficiency=0.6, electronic_noise=0.05)
    for distance in np.arange(0.0, 51.0, 5.0):
        for vm in (0.33, 0.38):
            yield optics.ChannelModel(float(distance), **noise), vm
    rng = RNG(19)
    for _ in range(200):
        channel = optics.ChannelModel(
            distance_km=float(rng.uniform(0.0, 150.0)),
            excess_noise=float(rng.uniform(0.0, 0.1)),
            detector_efficiency=float(rng.uniform(0.3, 1.0)),
            electronic_noise=float(rng.uniform(0.0, 0.2)),
        )
        yield channel, float(np.exp(rng.uniform(np.log(0.01), np.log(12.0))))


def test_samples_carry_the_snr_of_the_key_rate():
    # the signal is the per-quadrature variance of the detected means over a
    # QPSK ring, the noise the variance the samples are drawn with; 2^I - 1
    # is taken as expm1(I ln 2). The 2e-15 floor is a few ulps of the ratio
    # h / (h - T*V_m) whose log is I: at small I that ratio is near 1, and
    # its rounding alone reads up to 8e-12 relative on these pairs
    for channel, vm in _channels_and_variances():
        x, p = optics.detected_means(optics.Constellation(4, vm).points, channel)
        recorder = ScaleRecorder()
        optics.transmit_and_detect_batch(np.zeros(1, dtype=complex), channel, recorder)
        assert len(recorder.scales) == 2 and recorder.scales[0] == recorder.scales[1]
        noise = recorder.scales[0] ** 2
        inputs = secrate.KeyRateInputs(
            modulation_variance=vm, transmittance=channel.transmittance,
            reconciliation_efficiency=0.98, psk_order=4,
            **{name: getattr(channel, name) for name in NOISE_FIELDS},
        )
        snr = math.expm1(secrate.mutual_information(inputs) * math.log(2.0))
        for signal in (np.mean(x * x), np.mean(p * p)):
            assert signal / noise == pytest.approx(snr, rel=1e-12, abs=2e-15), (channel, vm)
