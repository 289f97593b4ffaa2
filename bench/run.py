"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload analytic_paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. The lines
before it hold the run record (seed, versions, thread pinning, passes,
per-point results) and one ``name value unit`` line per metric. With
``--trace 1`` the spans of the first traced pass are written to
``.bench_out/``. Exit status: 0 when every operation and check passed, 1
when one failed, 2 when the package source is missing.
"""
import os
import sys

# Pin BLAS and OpenMP pools to one thread before NumPy is first imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("analytic_paper", "gate_desk", "keyrate_scan")
# a seed kept out of tuning; performance claims are re-checked on it
HELD_OUT_SEED = 20230807
# a run still busy this long after its --seconds budget is stopped and
# counted failed; a child of --workload all gets a further margin to exit
RUN_LIMIT_MARGIN_S = 120.0
CHILD_MARGIN_S = 30.0


def versions() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_one(args) -> int:
    import workloads

    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        limit=args.seconds + RUN_LIMIT_MARGIN_S,
    )
    record = {**result.record, "held_out_seed": HELD_OUT_SEED, **versions()}
    print(json.dumps({"record": record}))
    for problem in result.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if result.tracer is not None:
        result.tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print_result(result.correct, result.attempted, result.failed, result.metrics)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter; metrics prefixed by workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    timeout = args.seconds + RUN_LIMIT_MARGIN_S + CHILD_MARGIN_S
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            out = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            print(f"FAILED: {name} did not finish in {timeout} s", file=sys.stderr)
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print(lines[0] if lines else "")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and out.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qknn_cvqkd" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
