"""Every function the benchmark's tracer wraps exists where it looks for it.

`perfbench/tracing.py` swaps module attributes by name and skips a name
that is missing, which would read as 0 ms in the per-layer metrics. This
reads its `TRACED` table from the file's source, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no TRACED table in {TRACING}")


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
