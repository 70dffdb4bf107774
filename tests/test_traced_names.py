"""The benchmark's span tracer (`perfbench/spans.py`) wraps probdiar functions
by their `layer.function` names; a name that no longer exists makes every
traced benchmark run fail when the tracer is installed."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    """The TRACED tuple, read from the source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {SPANS}")


def test_traced_functions_exist():
    names = _traced_names()
    assert names
    for qual in names:
        layer, fname = qual.split(".")
        module = importlib.import_module(f"probdiar.{layer}")
        assert callable(getattr(module, fname, None)), qual
