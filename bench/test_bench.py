"""Checks of the benchmark itself, on reduced inputs.

    python3 -m pytest -q bench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads as w  # noqa: E402
from qknn_cvqkd import optics, secrate  # noqa: E402
from qknn_cvqkd.qknn import compute_similarity_table, qknn_predict  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "analytic_paper": w.PaperConfig(
        distances_km=(5.0,), train_rows=64, queries_per_point=8, baseline_k=(1, 7)
    ),
    "gate_desk": w.GateConfig(train_rows=8, queries_per_scheme=4, k=3),
    "keyrate_scan": w.ScanConfig(modulation_variances=(0.2, 12.0), losses_db=(0.0, 10.0)),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_run(name, trace, seed=3, limit=None):
    return w.run(name, seed, 0.0, trace, config=SMALL[name], limit=limit)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result = small_run(name, trace)
    assert result.correct and result.failed == 0, result.problems
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result.metrics.items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result.metrics.values())
    if not trace:
        assert all(v["value"] > 0 for v in result.metrics.values())


def test_benchmark_spec_matches_workloads():
    assert [x["name"] for x in SPEC["workloads"]] == list(w.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(w.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == w.per_layer_units()


def desk_set(rows=8, order=4, seed=5):
    rng = np.random.default_rng(seed)
    channel = optics.ChannelModel(distance_km=10.0, **w.CHANNEL_NOISE)
    constellation = optics.Constellation(order, 0.38)
    train = optics.generate_dataset(rows, channel, constellation, rng)
    raw = optics.generate_samples(3, channel, constellation, rng)
    return train, train.normalize_queries(raw.features)


@pytest.mark.parametrize("mode", ["analytic", "gate"])
def test_composed_qknn_equals_qknn_predict(mode):
    train, queries = desk_set()
    for q, query in enumerate(queries):
        composed = w.composed_qknn_predict(
            train, query, 3, np.random.default_rng(q), mode, Tracer()
        )
        public = qknn_predict(train, query, 3, np.random.default_rng(q), mode=mode, delta=w.DELTA)
        assert w.same_prediction(composed, public)


def test_rebuilt_gate_table_equals_compute_similarity_table():
    train, queries = desk_set()
    tracer = Tracer()
    estimated, qubits, estimate = w.rebuilt_gate_table(train.features, queries[0], tracer)
    public = compute_similarity_table(train, queries[0], mode="gate", delta=w.DELTA)
    assert np.array_equal(estimated, public.estimated_p_zero)
    assert estimate.iterations_requested == 131 and estimate.grid_size == 256
    assert tracer.self_times()["qsim.cswap_test"][1] == train.size


@pytest.mark.parametrize("order", [4, 8])
def test_composed_key_rate_equals_key_rate(order):
    for loss in (0.0, 7.5, 20.0):
        inputs = w.rate_inputs(order, 3.2, 10.0 ** (-loss / 10.0), 0.8)
        for scheme in w.RATE_SCHEMES:
            rate, operators = w.composed_key_rate(inputs, scheme, Tracer())
            assert rate == secrate.key_rate(inputs, scheme).key_rate
            assert operators.n_max >= secrate.MIN_FOCK_CUTOFF


def test_counters_repeat_exactly_for_a_fixed_seed():
    for name in SMALL:
        first, second = small_run(name, True), small_run(name, True)
        counters = [k for k in first.metrics if not k.endswith(".s") and k != "trace.overhead_s"]
        assert {k: first.metrics[k] for k in counters} == {k: second.metrics[k] for k in counters}


def test_traced_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer", "q1"):
        with tracer.span("inner"):
            sum(range(10000))
    (outer, o_start, o_end, o_parent, _), (inner, i_start, i_end, i_parent, i_query) = tracer.spans
    assert (o_parent, i_parent, i_query) == (-1, 0, "q1")
    times = tracer.self_times()
    assert math.isclose(times["outer"][0], (o_end - o_start) - (i_end - i_start))


def test_key_rate_off_reference_counts_as_failed():
    scan = w.KeyrateScan(SMALL["keyrate_scan"])
    blocks, reference = scan.setup(1, w.Direct(w.Ledger()))
    key = w.reference_key(4, 0.2, 0.0, "qknn")
    tampered = {**reference, key: reference[key] * (1 + 1e-6)}
    ledger = w.Ledger()
    scan.run_pass((blocks, tampered), 1, w.Direct(ledger))
    scan.check((blocks, tampered), ledger)
    assert ledger.failed == 1 and key in ledger.problems[0]


def test_wall_time_limit_records_a_failed_run():
    result = small_run("gate_desk", False, limit=0.05)
    assert not result.correct and result.failed >= 1
    assert "wall-time limit" in result.problems[-1]


def test_launcher_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "keyrate_scan", "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
