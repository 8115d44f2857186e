"""The benchmark traces scenemask functions by name (bench/spans.py) and calls
the package through a module handle (bench/run.py); a renamed or deleted name
would only fail there, at benchmark time.  This reads the trace lists and the
calls from the source with ``ast``, without importing the benchmark, and checks
that every name exists in the package."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
RUN = SPANS.with_name("run.py")


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


def _bench_calls() -> set:
    """Dotted names run.py reaches through ``sm.`` or ``self.sm.``, its handles
    on the scenemask package."""
    names = set()

    def visit(node):
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id == "self" and chain[:1] == ["sm"]:
            chain, root = chain[1:], ast.Name("sm")
        if chain and isinstance(root, ast.Name) and root.id == "sm":
            names.add(".".join(chain))
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(RUN.read_text(), str(RUN)))
    return names


def test_bench_calls_resolve():
    names = _bench_calls()
    assert "data.image_layout" in names
    package = importlib.import_module("scenemask")
    for dotted in sorted(names):
        target = package
        for part in dotted.split("."):
            target = getattr(target, part, None)
        assert target is not None, f"scenemask.{dotted}"
