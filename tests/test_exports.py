"""Every public name of ``qsim``, ``qknn``, ``optics``, ``secrate`` and
``metrics`` has a caller: the package itself, the benchmark, or a named test
that uses it as a reference."""
import ast
from collections import Counter
from pathlib import Path

import pytest

from qknn_cvqkd import metrics, optics, qknn, qsim, secrate

ROOT = Path(__file__).resolve().parents[1]

# exports that only tests call, each with the test that needs it
TEST_REFERENCES = {
    "apply_cmp": "tests/test_qknn_encoding.py::reference_uniform_prep",
    "apply_phase_flip": "tests/test_qknn_search.py::_gate_grover_state",
    "apply_reflection_about_uniform": "tests/test_qknn_search.py::_gate_grover_state",
    "basis_state": "tests/test_qknn_encoding.py::reference_uniform_prep",
    "classical_knn_predict": "tests/test_qknn_classify.py::test_batch_predictions_match_single_queries",
    "complexity_classical": "tests/test_metrics.py::test_classical_count_reference_point",
    "complexity_quantum": "tests/test_metrics.py::test_quantum_count_reference_point",
    "estimation_error_bound": "tests/test_qknn_similarity.py::test_estimate_error_bound_on_coarse_grid",
    "measure": "tests/test_qknn_encoding.py::reference_uniform_prep",
    "oracle_budget_kmax": "tests/test_metrics.py::test_budget_small_match_count_literal_sum",
}


def _references(path: Path) -> Counter:
    """Names a module reads, as bare names or attributes, by name. A
    top-level definition's reads of its own name do not count, and import
    statements and ``__all__`` strings hold no reads."""
    counts = Counter()
    for statement in ast.parse(path.read_text()).body:
        reads = _reads(statement)
        reads.pop(getattr(statement, "name", None), None)
        counts += reads
    return counts


def _reads(tree: ast.AST) -> Counter:
    """Names loaded in ``tree``; the target of an assignment is no read."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _package_and_bench_references() -> Counter:
    counts = Counter()
    for path in [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]:
        counts += _references(path)
    return counts


def _public_top_level_names(module) -> list[str]:
    """Functions, classes and constants a module defines without a leading underscore."""
    names = []
    for statement in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.append(statement.name)
        elif isinstance(statement, ast.Assign):
            names += [target.id for target in statement.targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


@pytest.mark.parametrize(
    "names",
    [qsim.__all__, qknn.__all__, _public_top_level_names(optics), _public_top_level_names(secrate),
     _public_top_level_names(metrics)],
    ids=["qsim", "qknn", "optics", "secrate", "metrics"],
)
def test_every_export_has_a_caller(names):
    referenced = _package_and_bench_references()
    dead = [name for name in names if not referenced[name] and name not in TEST_REFERENCES]
    assert not dead, f"exported but never called outside tests: {dead}"


def test_secrate_public_names_are_found():
    names = _public_top_level_names(secrate)
    assert {"build_tau", "fock_magnitudes", "FOCK_TAIL_TOLERANCE", "KeyRateInputs"} <= set(names)
    assert not {"_half_log_factorials", "math", "np"} & set(names)


def test_test_only_exports_are_exported_and_used_by_the_named_test():
    referenced = _package_and_bench_references()
    exported = {*qsim.__all__, *qknn.__all__, *_public_top_level_names(metrics)}
    for name, test in TEST_REFERENCES.items():
        assert name in exported, name
        assert not referenced[name], f"{name} has a caller outside tests; drop it from the list"
        test_file, test_name = test.split("::")
        tree = ast.parse((ROOT / test_file).read_text())
        function = next(s for s in tree.body if getattr(s, "name", None) == test_name)
        assert _reads(function)[name], f"{test} does not call {name}"


# the closed-form chain; the circuit builders the benchmark runs stay in encoding.py
CLOSED_FORM_MODULES = [
    "qknn/search.py",
    "qknn/similarity.py",
    "qknn/classify.py",
    "qknn/dataset.py",
    "optics.py",
    "metrics.py",
    "secrate.py",
]


def _imported_modules(tree: ast.AST):
    """Every dotted name an import statement of ``tree`` can bind: the
    module of ``import a.b`` and of ``from a import b``, and ``a.b`` for
    each name ``b`` that a ``from`` import takes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", CLOSED_FORM_MODULES)
def test_closed_form_modules_import_nothing_from_qsim(module):
    tree = ast.parse((ROOT / "src" / "qknn_cvqkd" / module).read_text())
    imported = [name for name in _imported_modules(tree) if "qsim" in name.split(".")]
    assert not imported, f"{module} imports {imported}"


def test_encoding_reads_no_qsim_name_but_its_state_types():
    # the uniform superposition is written in closed form; its gate-level
    # circuit lives in tests/test_qknn_encoding.py as the reference
    tree = ast.parse((ROOT / "src" / "qknn_cvqkd" / "qknn" / "encoding.py").read_text())
    qsim_names = set(qsim.__all__) | {"qsim"}
    used = {name for name in _reads(tree) if name in qsim_names}
    imported = {name for name in _imported_modules(tree) if "qsim" in name.split(".")}
    assert used <= {"StateVector", "RegisterLayout"}, used
    assert imported <= {"qsim", "qsim.StateVector", "qsim.RegisterLayout"}, imported


MATRIX_PRODUCTS = {"outer", "dot", "vdot", "vecdot", "matmul", "einsum"}


def test_secrate_makes_no_linalg_call():
    # the trace and w of a PSK ring are sums over its N block weights; a
    # LAPACK call or a D x D matrix product per key-rate point costs time
    # and memory (the matrix form lives in tests/test_secrate.py)
    tree = ast.parse((ROOT / "src" / "qknn_cvqkd" / "secrate.py").read_text())
    imported = [name for name in _imported_modules(tree) if "linalg" in name.split(".")]
    read = [name for name in _reads(tree) if name == "linalg"]
    assert not imported and not read, f"secrate.py uses {imported + read}"
    matmul = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
    products = sorted(set(_reads(tree)) & MATRIX_PRODUCTS)
    assert not matmul and not products, f"secrate.py multiplies matrices: {matmul} {products}"
