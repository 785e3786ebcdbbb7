"""The benchmark's span tracer names only functions that exist, and the
solver still calls every function the benchmark's self-test expects."""

import ast
import importlib
import importlib.util
from pathlib import Path

from helpers import protocol_system

import ktsolve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
SELFTEST = PERFBENCH / "selftest.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def selftest_constant(name):
    """A literal module-level constant of perfbench/selftest.py, read
    without importing it (its imports expect perfbench on sys.path)."""
    for node in ast.parse(SELFTEST.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not defined in {SELFTEST}")


def test_traced_functions_exist():
    """Every function perfbench/spans.py wraps is still defined in its
    ktsolve module, so `run.py --trace 1` cannot break on a rename."""
    spans = load_spans()
    missing = [
        f"ktsolve.{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"ktsolve.{layer}"), name, None))
    ]
    assert not missing, missing


def test_protocol_solve_reaches_every_traced_function():
    """Solving one protocol system in each basis calls every traced
    function whose metrics the self-test requires on `protocol`, so a
    change that routes around one fails here, not only in the benchmark."""
    spans = load_spans()
    prefixes = selftest_constant("EXERCISED")["protocol"]
    labels = [
        f"{layer}.{name}.{basis.value}" if name == "kts_solve" else f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        for basis in (ktsolve.Basis if name == "kts_solve" else [None])
    ]
    required = [label for label in labels if f"{label}.".startswith(prefixes)]
    assert "basis.eval_bi" in required and "kernels.zonotope_origin_inside" in required

    tracer = spans.Tracer()
    tracer.install()
    try:
        for basis in ktsolve.Basis:
            ktsolve.kts_solve(ktsolve.convert(protocol_system(600), basis))
    finally:
        tracer.uninstall()
    calls = {name: count for name, (count, _, _) in tracer.totals().items()}
    silent = [label for label in required if not calls.get(label)]
    assert not silent, silent
