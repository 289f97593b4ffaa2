"""Workloads, correctness gates and metrics of the repository benchmark.

Every workload is a closed loop driven by one client in one process: the
next query starts only after the previous one has returned.

- ``analytic_paper``: the paper's headline result. QPSK (V_m 0.33) and 8-PSK
  (V_m 0.38) at four distances, 2048 training rows and 100 test queries per
  point; every query runs analytic QkNN (k=7, unknown marked count), then
  each point gets the classical fidelity kNN baseline for k=1..15, the
  confusion matrix and precision, the macro AUC and both key rates. The
  Grover k-maximal search does most of the work; qsim and the encoding
  circuits do none.
- ``gate_desk``: the gate-mode check on a desk-scale subset. QPSK and 8-PSK
  at one distance with 16 training rows and 50 queries each, gate-mode QkNN
  (k=5, delta=0.1, so R=131 on an 8-bit counting register), plus the
  paper's uniform superposition and training-state preparation per
  training set. Swap tests, amplitude estimation and encoding do the work;
  the analytic search and secrate are not used.
- ``keyrate_scan``: secrate alone. N in {4, 8} x twelve V_m from 0.2 to 12
  (Fock cutoff 16 to 32) x 41 losses from 0 to 20 dB x both schemes, 1968
  points. Loss varies fastest at a fixed (N, V_m), so all but 24 points
  rebuild a tau an earlier point already built; a query is one key-rate
  point.

A run repeats identical passes, each reseeded from the workload seed, until
its time budget is spent. Untraced passes call the public entry points
(``qknn_predict``, ``key_rate``); traced passes call the layers one at a
time under spans, and a verification step checks that each composition
equals its entry point.
"""
from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qknn_cvqkd
from qknn_cvqkd import metrics, optics, qsim, secrate
from qknn_cvqkd.qknn import (
    QknnPrediction,
    amplitude_estimate,
    compute_similarity_table,
    k_maximal_find,
    knn_predict_batch,
    majority_vote,
    prepare_query_state,
    prepare_training_row_state,
    prepare_training_state,
    prepare_uniform_superposition,
    qknn_predict,
    required_iterations,
)
from spans import Tracer

CHANNEL_NOISE = dict(excess_noise=0.01, detector_efficiency=0.6, electronic_noise=0.05)
RECONCILIATION = 0.98
PSK = (("QPSK", 4, 0.33), ("8PSK", 8, 0.38))
RATE_SCHEMES = ("conventional", "qknn")
DELTA = 0.1  # amplitude-estimation error bound, R = 131 operator iterations
ANALYTIC_K = 7
GATE_DISTANCE_KM = 20.0
SCAN_PSK_ORDERS = (4, 8)
SCAN_AUC = 0.9  # classifier AUC behind every scanned qknn key rate
MIN_SETUP_SAMPLES = 3
VERIFY_QUERIES = 2  # per point: composed pipeline checked against qknn_predict
# a scanned rate passes within relative 1e-9 or absolute 1e-12 bit/pulse,
# whichever is wider; the absolute floor decides for |rate| below 1e-3
KEYRATE_RTOL = 1e-9
KEYRATE_ATOL = 1e-12
REFERENCE_PATH = Path(__file__).with_name("keyrate_reference.json")
SRC_DIR = Path(qknn_cvqkd.__file__).resolve().parents[1]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, qknn_cvqkd.qknn, qknn_cvqkd.optics, qknn_cvqkd.metrics, "
    "qknn_cvqkd.secrate, qknn_cvqkd.qsim; "
    "print(time.perf_counter() - t)"
)

# independent random streams derived from the workload seed
STREAM_DATA, STREAM_QUERY, STREAM_PREP, STREAM_ORDER = range(4)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# spans reported as <name>.s (self seconds) and <name>.calls; optics per
# set-up, the gate-table rebuild per rebuilt table, the rest per traced pass
SPANS = (
    "optics.generate_dataset",
    "qknn.similarity.compute_similarity_table.analytic",
    "qknn.similarity.compute_similarity_table.gate",
    "qknn.search.k_maximal_find",
    "qknn.classify.majority_vote",
    "qknn.classify.knn_predict_batch",
    "qknn.encoding.prepare_uniform_superposition",
    "qknn.encoding.prepare_training_state",
    "metrics.confusion",
    "metrics.roc_macro",
    "secrate.mutual_information",
    "secrate.build_tau",
    "secrate.correlation_term",
    "secrate.symplectic_spectrum",
    "secrate.holevo_bound",
    "qknn.encoding.prepare_query_state",
    "qknn.encoding.prepare_training_row_state",
    "qsim.tensor_product",
    "qsim.cswap_test",
    "qsim.born_probabilities",
    "qknn.similarity.amplitude_estimate",
)
REBUILD_SPANS = SPANS[15:]

COUNTERS = {
    "optics.generate_dataset.samples": ("count", "higher"),
    "qknn.search.k_maximal_find.rounds": ("count", "lower"),
    "qknn.search.k_maximal_find.replacements": ("count", "lower"),
    "qknn.search.k_maximal_find.oracle_calls": ("count", "lower"),
    "qknn.search.k_maximal_find.verifications": ("count", "lower"),
    "qknn.search.useful_ratio": ("ratio", "higher"),
    "qknn.search.oracle_calls_per_query": ("count", "lower"),
    "metrics.complexity_report.k_maximal": ("count", "lower"),
    "metrics.complexity_report.estimation": ("count", "lower"),
    "qknn.similarity.register_width": ("qubits", "lower"),
    "qknn.similarity.grid_step_max": ("count", "lower"),
    "qknn.similarity.amplitude_estimate.iterations": ("count", "lower"),
    "qknn.similarity.amplitude_estimate.grid_size": ("count", "lower"),
    "qsim.swap_system.qubits": ("qubits", "lower"),
    "qknn.encoding.training_state.qubits": ("qubits", "lower"),
    "qknn.encoding.prepare_uniform_superposition.attempts": ("count", "lower"),
    "qknn.encoding.prepare_uniform_superposition.success_probability": ("ratio", "higher"),
    "secrate.build_tau.n_max": ("count", "lower"),
    "secrate.build_tau.support_dim": ("count", "lower"),
    "secrate.tau_reuse_share": ("ratio", "higher"),
    "secrate.domain_errors": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """{metric: (unit, better)} for every per-layer metric, in print order."""
    units = {}
    for name in SPANS:
        units[f"{name}.s"] = ("s", "lower")
        units[f"{name}.calls"] = ("count", "lower")
    units.update(COUNTERS)
    return units


class RunTimeout(Exception):
    """The run outlived its wall-time limit."""


# ---------------------------------------------------------------------------
# per-pass bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Latencies, counters, failures and outputs of one pass (or set-up)."""

    latencies: list[float] = field(default_factory=list)
    keyrate_latencies: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    results: list[dict] = field(default_factory=list)
    tau_keys: set = field(default_factory=set)
    wall: float = 0.0

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)


_UNTRACED = nullcontext()


class Direct:
    """Untraced pass: the public entry points."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger

    def span(self, name: str, query: str | None = None):
        return _UNTRACED

    def classify(self, train, query, k, rng, mode) -> QknnPrediction:
        return qknn_predict(train, query, k, rng, mode=mode, delta=DELTA)

    def key_rate(self, inputs: secrate.KeyRateInputs, scheme: str) -> float:
        return secrate.key_rate(inputs, scheme).key_rate


class Traced(Direct):
    """Traced pass: each layer called on its own under a span."""

    def __init__(self, ledger: Ledger, tracer: Tracer):
        super().__init__(ledger)
        self.tracer = tracer

    def span(self, name: str, query: str | None = None):
        return self.tracer.span(name, query)

    def classify(self, train, query, k, rng, mode) -> QknnPrediction:
        return composed_qknn_predict(train, query, k, rng, mode, self.tracer)

    def key_rate(self, inputs: secrate.KeyRateInputs, scheme: str) -> float:
        rate, operators = composed_key_rate(inputs, scheme, self.tracer)
        self.ledger.peak("secrate.build_tau.n_max", operators.n_max)
        self.ledger.peak("secrate.build_tau.support_dim", operators.support_dim)
        return rate


def composed_qknn_predict(train, query, k, rng, mode, tracer: Tracer) -> QknnPrediction:
    """``qknn_predict`` as similarity table -> k-maximal search -> vote."""
    with tracer.span(f"qknn.similarity.compute_similarity_table.{mode}"):
        table = compute_similarity_table(train, query, mode=mode, delta=DELTA)
    with tracer.span("qknn.search.k_maximal_find"):
        neighbors, report = k_maximal_find(table, k, rng, mode=mode)
    chosen = np.asarray(neighbors.selected, dtype=int)
    labels = train.labels[chosen]
    with tracer.span("qknn.classify.majority_vote"):
        label = majority_vote(labels.tolist())
    scores = np.bincount(labels, minlength=train.n_classes + 1)[1:] / k
    return QknnPrediction(label, scores, chosen, table, report)


def composed_key_rate(inputs: secrate.KeyRateInputs, scheme: str, tracer: Tracer):
    """``key_rate`` as tau -> correlation -> spectrum -> Holevo bound, plus
    the mutual information; returns the rate and the Fock operators."""
    with tracer.span("secrate.mutual_information"):
        info = secrate.mutual_information(inputs)
    with tracer.span("secrate.build_tau"):
        operators = secrate.build_tau(inputs.constellation, inputs.fock_cutoff)
    with tracer.span("secrate.correlation_term"):
        z, w = secrate.correlation_term(inputs, operators)
    with tracer.span("secrate.symplectic_spectrum"):
        spectrum = secrate.symplectic_spectrum(inputs, z, w)
    with tracer.span("secrate.holevo_bound"):
        holevo = secrate.holevo_bound(spectrum)
    if scheme == "conventional":
        rate = inputs.reconciliation_efficiency * info - holevo
    else:
        rate = (
            inputs.reconciliation_efficiency * inputs.classifier_auc * info
            - holevo / inputs.psk_order
        )
    return rate, operators


def rebuilt_gate_table(features: np.ndarray, query: np.ndarray, tracer: Tracer):
    """Gate-mode estimated P(0) per row from the circuit pieces that
    ``compute_similarity_table(mode="gate")`` runs, with the swap-system
    width and the last amplitude estimate."""
    iterations = required_iterations(DELTA)
    with tracer.span("qknn.encoding.prepare_query_state"):
        query_state = prepare_query_state(query)
    width = query_state.state.n_qubits
    control = 2 * width
    estimated = np.empty(features.shape[0])
    for j in range(features.shape[0]):
        with tracer.span("qknn.encoding.prepare_training_row_state"):
            row_state = prepare_training_row_state(features, j)
        with tracer.span("qsim.tensor_product"):
            system = qsim.tensor_product(query_state.state, row_state.state, qsim.new_register(1))
        with tracer.span("qsim.cswap_test"):
            out = qsim.cswap_test(system, control, (0, width), (width, width))
        with tracer.span("qsim.born_probabilities"):
            p_zero = float(qsim.born_probabilities(out, (control, 1))[0])
        with tracer.span("qknn.similarity.amplitude_estimate"):
            estimate = amplitude_estimate(p_zero, iterations)
        estimated[j] = estimate.estimate
    return estimated, system.n_qubits, estimate


def same_prediction(a: QknnPrediction, b: QknnPrediction) -> bool:
    ra, rb = a.search_report, b.search_report
    return (
        a.label == b.label
        and np.array_equal(a.scores, b.scores)
        and np.array_equal(a.neighbor_indices, b.neighbor_indices)
        and np.array_equal(a.table.sim_continuous, b.table.sim_continuous)
        and np.array_equal(a.table.sim_register, b.table.sim_register)
        and (ra.oracle_calls, ra.verifications, ra.replacements, len(ra.rounds))
        == (rb.oracle_calls, rb.verifications, rb.replacements, len(rb.rounds))
    )


def rate_inputs(order: int, vm: float, transmittance: float, auc: float) -> secrate.KeyRateInputs:
    return secrate.KeyRateInputs(
        modulation_variance=vm,
        transmittance=transmittance,
        reconciliation_efficiency=RECONCILIATION,
        psk_order=order,
        classifier_auc=auc,
        **CHANNEL_NOISE,
    )


def timed_key_rate(calls: Direct, inputs: secrate.KeyRateInputs, scheme: str) -> float | None:
    """One key-rate point: latency, tau reuse and domain errors recorded."""
    ledger = calls.ledger
    ledger.attempted += 1
    tau_key = (inputs.psk_order, inputs.modulation_variance, inputs.fock_cutoff)
    ledger.add("secrate.tau_builds", 1)
    if tau_key in ledger.tau_keys:
        ledger.add("secrate.tau_reused", 1)
    ledger.tau_keys.add(tau_key)
    start = time.perf_counter()
    try:
        rate = calls.key_rate(inputs, scheme)
    except secrate.KeyRateDomainError as exc:
        ledger.add("secrate.domain_errors", 1)
        ledger.fail(f"key rate domain error: {exc}")
        return None
    ledger.keyrate_latencies.append(time.perf_counter() - start)
    return rate


# ---------------------------------------------------------------------------
# classification workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """One (constellation, distance) data point: normalized training set and
    test queries with their true labels."""

    scheme: str
    order: int
    vm: float
    channel: optics.ChannelModel
    train: object
    queries: np.ndarray
    labels: np.ndarray


def make_points(seed: int, calls: Direct, distances, rows: int, queries: int) -> list[Point]:
    points = []
    for index, ((scheme, order, vm), distance) in enumerate(
        (psk, d) for psk in PSK for d in distances
    ):
        rng = np.random.default_rng([seed, STREAM_DATA, index])
        channel = optics.ChannelModel(distance_km=distance, **CHANNEL_NOISE)
        constellation = optics.Constellation(order, vm)
        with calls.span("optics.generate_dataset"):
            train = optics.generate_dataset(rows, channel, constellation, rng)
        raw = optics.generate_samples(queries, channel, constellation, rng)
        calls.ledger.add("optics.generate_dataset.samples", rows)
        points.append(
            Point(scheme, order, vm, channel, train, train.normalize_queries(raw.features), raw.labels)
        )
    return points


def query_rng(seed: int, point: int, query: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAM_QUERY, point, query])


def classify_point(calls: Direct, seed: int, index: int, point: Point, k: int, mode: str):
    """Closed loop over the point's queries; returns predictions."""
    ledger = calls.ledger
    predictions = []
    for q, query in enumerate(point.queries):
        rng = query_rng(seed, index, q)
        ledger.attempted += 1
        start = time.perf_counter()
        with calls.span("bench.query", f"{index}:{q}"):
            prediction = calls.classify(point.train, query, k, rng, mode)
        ledger.latencies.append(time.perf_counter() - start)
        report = prediction.search_report
        ledger.add("qknn.search.k_maximal_find.rounds", len(report.rounds))
        ledger.add("qknn.search.k_maximal_find.replacements", report.replacements)
        ledger.add("qknn.search.k_maximal_find.oracle_calls", report.oracle_calls)
        ledger.add("qknn.search.k_maximal_find.verifications", report.verifications)
        ledger.peak("qknn.similarity.register_width", prediction.table.register_width)
        predictions.append(prediction)
    model = metrics.complexity_report(point.train.feature_dim, point.train.size, k, DELTA)
    ledger.peak("metrics.complexity_report.k_maximal", model.quantum_stages["k_maximal"])
    ledger.peak("metrics.complexity_report.estimation", model.quantum_stages["estimation"])
    return predictions


def score_point(calls: Direct, point: Point, labels: np.ndarray, scores: np.ndarray):
    """Confusion matrix, precision and macro AUC of one point's predictions."""
    with calls.span("metrics.confusion"):
        matrix = metrics.confusion(labels, point.labels, point.order)
    precision = metrics.precision_per_class(matrix)[1]
    with calls.span("metrics.roc_macro"):
        auc = metrics.roc_macro(scores, point.labels, point.order).auc
    return precision, auc


@dataclass(frozen=True)
class PaperConfig:
    distances_km: tuple = (5.0, 20.0, 35.0, 50.0)
    train_rows: int = 2048
    queries_per_point: int = 100
    baseline_k: tuple = tuple(range(1, 16))


class AnalyticPaper:
    name = "analytic_paper"

    def __init__(self, config: PaperConfig | None = None):
        self.config = config or PaperConfig()

    def setup(self, seed: int, calls: Direct):
        c = self.config
        return make_points(seed, calls, c.distances_km, c.train_rows, c.queries_per_point)

    def run_pass(self, points, seed: int, calls: Direct) -> None:
        c, ledger = self.config, calls.ledger
        for index, point in enumerate(points):
            predictions = classify_point(calls, seed, index, point, ANALYTIC_K, "analytic")
            labels = np.array([p.label for p in predictions])
            scores = np.stack([p.scores for p in predictions])
            with calls.span("qknn.classify.knn_predict_batch"):
                baseline = knn_predict_batch(point.train, point.queries, c.baseline_k, "fidelity")
            precision, auc = score_point(calls, point, labels, scores)
            rates = {}
            for scheme in RATE_SCHEMES:
                inputs = rate_inputs(point.order, point.vm, point.channel.transmittance, auc)
                rates[scheme] = timed_key_rate(calls, inputs, scheme)
            ledger.outputs.append((index, labels, scores, baseline[ANALYTIC_K]))
            ledger.results.append(
                {
                    "scheme": point.scheme,
                    "distance_km": point.channel.distance_km,
                    "precision": precision,
                    "baseline_accuracy": float(np.mean(baseline[ANALYTIC_K][0] == point.labels)),
                    "auc": auc,
                    "key_rate": rates,
                }
            )

    def check(self, points, ledger: Ledger) -> None:
        """QkNN labels and scores equal the fidelity kNN baseline."""
        for index, labels, scores, (ref_labels, ref_scores) in ledger.outputs:
            bad = (labels != ref_labels) | np.any(scores != ref_scores, axis=1)
            if bad.any():
                ledger.fail(
                    f"point {index}: {int(bad.sum())} QkNN predictions differ from fidelity kNN",
                    int(bad.sum()),
                )
        ledger.outputs.clear()

    def verify(self, points, seed: int, ledger: Ledger, tracer: Tracer) -> None:
        verify_predictions(ledger, points, seed, ANALYTIC_K, "analytic")
        verify_key_rates(ledger, [rate_inputs(o, vm, 0.5, 0.9) for _, o, vm in PSK])


def verify_predictions(ledger: Ledger, points, seed: int, k: int, mode: str) -> None:
    """The first queries of each point: composed pipeline == ``qknn_predict``."""
    scratch = Tracer()
    for index, point in enumerate(points):
        for q, query in enumerate(point.queries[:VERIFY_QUERIES]):
            composed = composed_qknn_predict(
                point.train, query, k, query_rng(seed, index, q), mode, scratch
            )
            public = qknn_predict(
                point.train, query, k, query_rng(seed, index, q), mode=mode, delta=DELTA
            )
            ledger.check(
                same_prediction(composed, public), f"point {index} query {q}: composed {mode} QkNN differs"
            )


def verify_key_rates(ledger: Ledger, inputs_list) -> None:
    scratch = Tracer()
    for inputs in inputs_list:
        for scheme in RATE_SCHEMES:
            composed, _ = composed_key_rate(inputs, scheme, scratch)
            public = secrate.key_rate(inputs, scheme).key_rate
            ledger.check(composed == public, f"composed key rate {composed!r} != {public!r}")


@dataclass(frozen=True)
class GateConfig:
    train_rows: int = 16
    queries_per_scheme: int = 50
    k: int = 5


class GateDesk:
    name = "gate_desk"

    def __init__(self, config: GateConfig | None = None):
        self.config = config or GateConfig()

    def setup(self, seed: int, calls: Direct):
        c = self.config
        return make_points(seed, calls, (GATE_DISTANCE_KM,), c.train_rows, c.queries_per_scheme)

    def run_pass(self, points, seed: int, calls: Direct) -> None:
        c, ledger = self.config, calls.ledger
        for index, point in enumerate(points):
            rng = np.random.default_rng([seed, STREAM_PREP, index])
            ledger.attempted += 1
            with calls.span("qknn.encoding.prepare_uniform_superposition"):
                uniform = prepare_uniform_superposition(point.train.size, rng)
            ledger.add("qknn.encoding.prepare_uniform_superposition.attempts", uniform.attempts)
            ledger.peak(
                "qknn.encoding.prepare_uniform_superposition.success_probability",
                uniform.success_probability,
            )
            ledger.attempted += 1
            with calls.span("qknn.encoding.prepare_training_state"):
                encoded = prepare_training_state(point.train)
            predictions = classify_point(calls, seed, index, point, c.k, "gate")
            labels = np.array([p.label for p in predictions])
            scores = np.stack([p.scores for p in predictions])
            precision, auc = score_point(calls, point, labels, scores)
            ledger.outputs.append((index, encoded, predictions))
            ledger.results.append(
                {
                    "scheme": point.scheme,
                    "distance_km": point.channel.distance_km,
                    "precision": precision,
                    "auc": auc,
                    "uniform_attempts": uniform.attempts,
                }
            )

    def check(self, points, ledger: Ledger) -> None:
        """Gate registers within one grid step of analytic, no excluded row
        outranking the selected set, and the training state in closed form."""
        for index, encoded, predictions in ledger.outputs:
            point = points[index]
            if not np.allclose(
                encoded.state.amplitudes, closed_form_training_state(point.train.features, encoded.layout),
                rtol=0.0, atol=1e-12,
            ):
                ledger.fail(f"point {index}: training state differs from its closed form")
            for q, prediction in enumerate(predictions):
                analytic = compute_similarity_table(point.train, point.queries[q], mode="analytic")
                step = int(np.max(np.abs(prediction.table.sim_register - analytic.sim_register)))
                ledger.peak("qknn.similarity.grid_step_max", step)
                ranking = prediction.table.ranking_value
                selected = np.zeros(ranking.size, dtype=bool)
                selected[prediction.neighbor_indices] = True
                outranked = selected.all() or ranking[selected].min() >= ranking[~selected].max()
                if step > 1 or not outranked:
                    ledger.fail(f"point {index} query {q}: grid step {step}, top-k held {outranked}")
        ledger.outputs.clear()

    def verify(self, points, seed: int, ledger: Ledger, tracer: Tracer) -> None:
        verify_predictions(ledger, points, seed, self.config.k, "gate")
        for point in points:
            unstripped = prepare_training_state(point.train, strip_scratch=False)
            ledger.peak("qknn.encoding.training_state.qubits", unstripped.state.n_qubits)
        point = points[-1]
        estimated, system_qubits, estimate = rebuilt_gate_table(
            point.train.features, point.queries[0], tracer
        )
        public = compute_similarity_table(point.train, point.queries[0], mode="gate", delta=DELTA)
        ledger.check(
            np.array_equal(estimated, public.estimated_p_zero),
            "rebuilt gate similarity table differs from compute_similarity_table",
        )
        ledger.peak("qsim.swap_system.qubits", system_qubits)
        ledger.peak("qknn.similarity.amplitude_estimate.iterations", estimate.iterations_requested)
        ledger.peak("qknn.similarity.amplitude_estimate.grid_size", estimate.grid_size)


def closed_form_training_state(features: np.ndarray, layout) -> np.ndarray:
    """sum_j,i |j>|i>|1>(sqrt(1-v^2)|0> + v|1>) / sqrt(M*U) on ``layout``."""
    rows, width = features.shape
    j, i = np.meshgrid(np.arange(1, rows + 1), np.arange(1, width + 1), indexing="ij")
    base = (
        (j << layout["index"].offset)
        | (i << layout["feature"].offset)
        | (1 << layout["marker"].offset)
    ).ravel()
    weight = 1.0 / math.sqrt(rows * width)
    values = features.ravel()
    amplitudes = np.zeros(1 << layout.n_qubits, dtype=np.complex128)
    amplitudes[base] = np.sqrt(1.0 - values**2) * weight
    amplitudes[base | (1 << layout["amplitude"].offset)] = values * weight
    return amplitudes


# ---------------------------------------------------------------------------
# key-rate scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanConfig:
    modulation_variances: tuple = (0.2, 0.35, 0.6, 1.0, 1.5, 2.2, 3.2, 4.5, 6.0, 8.0, 10.0, 12.0)
    losses_db: tuple = tuple(0.5 * i for i in range(41))


def reference_key(order: int, vm: float, loss_db: float, scheme: str) -> str:
    return f"{order}|{vm!r}|{loss_db!r}|{scheme}"


def load_reference() -> dict[str, float]:
    return json.loads(REFERENCE_PATH.read_text())["key_rates"]


class KeyrateScan:
    name = "keyrate_scan"

    def __init__(self, config: ScanConfig | None = None):
        self.config = config or ScanConfig()

    def setup(self, seed: int, calls: Direct):
        """(N, V_m) blocks in a seed-drawn order, and the reference rates."""
        c = self.config
        blocks = [(n, vm) for n in SCAN_PSK_ORDERS for vm in c.modulation_variances]
        order = np.random.default_rng([seed, STREAM_ORDER]).permutation(len(blocks))
        return [blocks[i] for i in order], load_reference()

    def run_pass(self, inputs, seed: int, calls: Direct) -> None:
        blocks, _reference = inputs
        c, ledger = self.config, calls.ledger
        for order, vm in blocks:
            base = rate_inputs(order, vm, 1.0, SCAN_AUC)
            for loss in c.losses_db:
                point_inputs = base.at_loss_db(loss)
                for scheme in RATE_SCHEMES:
                    key = reference_key(order, vm, loss, scheme)
                    with calls.span("bench.query", key):
                        rate = timed_key_rate(calls, point_inputs, scheme)
                    ledger.outputs.append((key, rate))
        ledger.latencies = ledger.keyrate_latencies  # a query here is one key-rate point

    def check(self, inputs, ledger: Ledger) -> None:
        """Every rate matches the committed reference."""
        _blocks, reference = inputs
        for key, rate in ledger.outputs:
            expected = reference.get(key)
            if rate is not None and (
                expected is None
                or not math.isclose(rate, expected, rel_tol=KEYRATE_RTOL, abs_tol=KEYRATE_ATOL)
            ):
                ledger.fail(f"key rate {key}: {rate!r}, reference {expected!r}")
        ledger.outputs.clear()

    def verify(self, inputs, seed: int, ledger: Ledger, tracer: Tracer) -> None:
        blocks, _reference = inputs
        order, vm = blocks[0]
        base = rate_inputs(order, vm, 1.0, SCAN_AUC)
        verify_key_rates(ledger, [base.at_loss_db(loss) for loss in self.config.losses_db])


def reference_rates(config: ScanConfig | None = None) -> dict[str, float]:
    """Key rates of the full scan grid from ``key_rate``, keyed as checked."""
    c = config or ScanConfig()
    rates = {}
    for order in SCAN_PSK_ORDERS:
        for vm in c.modulation_variances:
            base = rate_inputs(order, vm, 1.0, SCAN_AUC)
            for loss in c.losses_db:
                for scheme in RATE_SCHEMES:
                    rates[reference_key(order, vm, loss, scheme)] = secrate.key_rate(
                        base.at_loss_db(loss), scheme
                    ).key_rate
    return rates


WORKLOADS = {w.name: w for w in (AnalyticPaper, GateDesk, KeyrateScan)}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    record: dict
    problems: list[str]
    tracer: Tracer | None


def _raise_timeout(signum, frame):
    raise RunTimeout("run exceeded its wall-time limit")


def measure_import_seconds() -> float:
    """Package import time in a fresh interpreter with this process's
    environment (so the same thread pinning)."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    config=None,
    limit: float | None = None,
) -> RunResult:
    """Set up, then repeat passes until ``seconds`` have been spent.

    A set-up sample (package import in a fresh interpreter plus the
    workload's input generation) is taken before every pass, so the set-up
    median covers the same stretch of time as the passes. With ``trace``
    the passes alternate untraced and traced (at least one of each) and the
    per-layer metrics are reported; otherwise the end-to-end ones.
    ``limit`` caps the whole run's wall time: a pass still running then is
    stopped and counted as one failed operation.
    """
    workload = WORKLOADS[name](config)
    totals = Ledger()
    untraced: list[Ledger] = []
    traced: list[tuple[Ledger, dict]] = []
    setup_times, import_times, setup_tracer = [], [], Tracer()
    verify_ledger, verify_tracer = Ledger(), Tracer()
    kept_tracer = None

    def timed_setup():
        ledger = Ledger()
        calls = Traced(ledger, setup_tracer) if trace else Direct(ledger)
        start = time.perf_counter()
        inputs = workload.setup(seed, calls)
        setup_times.append(time.perf_counter() - start)
        import_times.append(measure_import_seconds())
        return inputs, ledger

    if limit is not None:
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        inputs, setup_ledger = timed_setup()
        if trace:
            workload.verify(inputs, seed, verify_ledger, verify_tracer)
        begin = time.perf_counter()
        while not totals.failed:
            if untraced:
                timed_setup()
            use_trace = trace and len(traced) < len(untraced)
            ledger = Ledger()
            tracer = Tracer() if use_trace else None
            calls = Traced(ledger, tracer) if use_trace else Direct(ledger)
            try:
                start = time.perf_counter()
                workload.run_pass(inputs, seed, calls)
                ledger.wall = time.perf_counter() - start
                workload.check(inputs, ledger)
            finally:
                totals.attempted += ledger.attempted
                totals.failed += ledger.failed
                totals.problems += ledger.problems
            ledger.outputs.clear()
            if use_trace:
                traced.append((ledger, tracer.self_times()))
                kept_tracer = kept_tracer or tracer
            else:
                untraced.append(ledger)
            if time.perf_counter() - begin >= seconds and (traced or not trace):
                break
        while len(setup_times) < MIN_SETUP_SAMPLES:
            timed_setup()
    except Exception as exc:  # a failing or hung run is reported, not raised
        totals.attempted += 1
        totals.fail(f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
    finally:
        if limit is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    totals.attempted += verify_ledger.attempted
    totals.failed += verify_ledger.failed
    totals.problems += verify_ledger.problems

    complete = bool(untraced) and (bool(traced) or not trace) and totals.failed == 0
    metric_out = {}
    if complete:
        if trace:
            values = layer_metrics(
                setup_tracer, len(setup_times), setup_ledger, traced, untraced,
                verify_tracer, verify_ledger,
            )
            units = {k: u for k, (u, _) in per_layer_units().items()}
        else:
            setup_s = statistics.median(import_times) + statistics.median(setup_times)
            values, units = end_to_end_metrics(setup_s, untraced), END_TO_END
        metric_out = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setup_times),
        "pass_wall_s": [l.wall for l in untraced],
        "failed_ratio": totals.failed / max(totals.attempted, 1),
        "keyrate_points_per_s": _rate(untraced, "keyrate_latencies"),
        "results": untraced[0].results if untraced else [],
    }
    return RunResult(
        correct=complete,
        attempted=max(totals.attempted, 1),
        failed=totals.failed,
        metrics=metric_out,
        record=record,
        problems=totals.problems,
        tracer=kept_tracer,
    )


def _rate(ledgers: list[Ledger], attribute: str) -> float | None:
    latencies = [x for l in ledgers for x in getattr(l, attribute)]
    return len(latencies) / sum(latencies) if latencies else None


def end_to_end_metrics(setup_s: float, untraced: list[Ledger]) -> dict[str, float]:
    latencies = np.array([x for l in untraced for x in l.latencies])
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(l.wall for l in untraced),
        "queries_per_s": statistics.median(len(l.latencies) / sum(l.latencies) for l in untraced),
        "query_p50_ms": 1e3 * float(p50),
        "query_p90_ms": 1e3 * float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(setup_tracer, setups, setup_ledger, traced, untraced, verify_tracer, verify_ledger):
    """Span self times per set-up, per traced pass and per rebuilt table;
    counters from the first traced pass (every pass repeats them)."""
    out: dict[str, float] = {}
    setup_times = setup_tracer.self_times()
    rebuild_times = verify_tracer.self_times()
    for name in SPANS:
        if name == "optics.generate_dataset":
            seconds, calls = setup_times.get(name, (0.0, 0))
            seconds, calls = seconds / setups, calls // setups
        elif name in REBUILD_SPANS:
            seconds, calls = rebuild_times.get(name, (0.0, 0))
        else:
            seconds = sum(t.get(name, (0.0, 0))[0] for _, t in traced) / len(traced)
            calls = traced[0][1].get(name, (0.0, 0))[1]
        out[f"{name}.s"] = seconds
        out[f"{name}.calls"] = calls
    counters = {**setup_ledger.counters, **verify_ledger.counters, **traced[0][0].counters}
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    searches = out["qknn.search.k_maximal_find.calls"]
    out["qknn.search.useful_ratio"] = (
        out["qknn.search.k_maximal_find.replacements"]
        / max(out["qknn.search.k_maximal_find.verifications"], 1)
    )
    out["qknn.search.oracle_calls_per_query"] = (
        out["qknn.search.k_maximal_find.oracle_calls"] / searches if searches else 0
    )
    builds = counters.get("secrate.tau_builds", 0)
    out["secrate.tau_reuse_share"] = counters.get("secrate.tau_reused", 0) / builds if builds else 0
    out["trace.overhead_s"] = statistics.median(l.wall for l, _ in traced) - statistics.median(
        l.wall for l in untraced
    )
    return out
