"""The benchmark's span tracer names only functions that exist, and the
solver still calls every function the benchmark's self-test expects."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
from helpers import protocol_system, unit_power_system

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


def near_coincident_system():
    """F1 = G, F2 = G * H + 1e-4 on the unit square: G a circle of radius
    1/4 about the centre, H = 1 + x/4 - y/8 > 0 there, so F has no zero
    but its two curves run 1e-4 / H apart."""
    g = np.zeros((3, 3))
    g[0, 0], g[1, 0], g[2, 0], g[0, 1], g[0, 2] = 0.4375, -1.0, 1.0, -1.0, 1.0
    h = np.array([[1.0, -0.125], [0.25, 0.0]])
    grid = np.zeros((4, 4, 2))
    grid[:3, :3, 0] = g
    for (p, q), gpq in np.ndenumerate(g):
        grid[p : p + 2, q : q + 2, 1] += gpq * h
    grid[0, 0, 1] += 1e-4
    return unit_power_system(grid)


def required_labels(workload):
    """Span labels of the traced functions whose metrics the self-test
    requires on a workload."""
    spans = load_spans()
    prefixes = selftest_constant("EXERCISED")[workload]
    labels = [
        f"{layer}.{name}.{basis.value}" if name == "kts_solve" else f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        for basis in (ktsolve.Basis if name == "kts_solve" else [None])
    ]
    return [label for label in labels if f"{label}.".startswith(prefixes)]


def uncalled(labels, system):
    """The labels that no traced call made while solving the system in
    each basis."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for basis in ktsolve.Basis:
            ktsolve.kts_solve(ktsolve.convert(system, basis))
    finally:
        tracer.uninstall()
    calls = {name: count for name, (count, _, _) in tracer.totals().items()}
    return [label for label in labels if not calls.get(label)]


def test_protocol_solve_reaches_every_traced_function():
    """Solving one protocol system in each basis calls every traced
    function whose metrics the self-test requires on `protocol`, so a
    change that routes around one fails here, not only in the benchmark."""
    required = required_labels("protocol")
    assert "basis.eval_bi" in required and "kernels.zonotope_origin_inside" in required
    assert not uncalled(required, protocol_system(600))


def test_near_coincident_solve_reaches_every_traced_function():
    """The same contract on `near-coincident`: a zero-free solve still
    reaches the Lipschitz bound through kantorovich_test, and the zonotope
    kernel through contains_origin."""
    required = required_labels("near-coincident")
    assert "solver.lipschitz_bound" in required and "kernels.zonotope_origin_inside" in required
    f = near_coincident_system()
    for basis in ktsolve.Basis:
        report = ktsolve.kts_solve(ktsolve.convert(f, basis))
        assert not report.zeros and not report.unresolved, basis
    assert not uncalled(required, f)


def test_near_coincident_trace_records_outcomes():
    """A traced near-coincident solve records exclusion_test outcomes, some
    of them exclusions, and kantorovich_test outcomes: the self-test needs
    `solver.exclusion_test.excluded_ratio` above 0 there. The solver's
    one-component screen decides most exclusions without calling
    exclusion_test, so a change that decided every exclusion that way
    would otherwise fail only in the benchmark."""
    assert "solver.exclusion_test.excluded_ratio" not in selftest_constant("MAY_BE_ZERO")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for basis in ktsolve.Basis:
            ktsolve.kts_solve(ktsolve.convert(near_coincident_system(), basis))
    finally:
        tracer.uninstall()
    calls = {name: count for name, (count, _, _) in tracer.totals().items()}
    assert calls["solver.exclusion_test"] > tracer.counts["solver.exclusion_test.excluded"] > 0
    assert calls["solver.kantorovich_test"] > 0
    assert "solver.kantorovich_test.passed" in tracer.counts
