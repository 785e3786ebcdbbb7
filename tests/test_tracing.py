"""The benchmark's span tracer names only functions that exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    """Every function perfbench/spans.py wraps is still defined in its
    ktsolve module, so `run.py --trace 1` cannot break on a rename."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"ktsolve.{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"ktsolve.{layer}"), name, None))
    ]
    assert not missing, missing
