"""The benchmark traces scenemask functions by name (bench/spans.py); a renamed
or deleted function would only fail there, at benchmark time.  This reads the
two name lists from the source with ``ast``, without importing the benchmark,
and checks that every traced name exists in the package."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _literal(name: str):
    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_traced_functions_exist():
    traced = _literal("TRACED_FUNCTIONS")
    assert traced
    for module_name, functions in traced:
        module = importlib.import_module(f"scenemask.{module_name}")
        for fn in functions:
            assert callable(getattr(module, fn, None)), f"scenemask.{module_name}.{fn}"


def test_traced_methods_exist():
    traced = _literal("TRACED_METHODS")
    assert traced
    for module_name, cls_name, method in traced:
        cls = getattr(importlib.import_module(f"scenemask.{module_name}"), cls_name, None)
        assert callable(getattr(cls, method, None)), f"scenemask.{module_name}.{cls_name}.{method}"
