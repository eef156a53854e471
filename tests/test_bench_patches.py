"""The benchmark's tracer (perfbench/tracing.py) wraps engine functions by
module and attribute name; every name it lists must still resolve."""

import ast
import functools
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Modules of the benchmark itself, not of the engine.
BENCH_MODULES = {"workloads", "harness"}


def patch_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's PATCHES list, read
    from its source without importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no PATCHES list")


def test_every_traced_engine_name_resolves():
    targets = [(m, a) for m, a in patch_targets() if m not in BENCH_MODULES]
    assert len(targets) > 20
    missing = []
    for module, attribute in targets:
        try:
            functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attribute}")
    assert not missing, missing
