"""The demos are not run by the suite (each trains models for minutes), so this
checks the part that breaks silently when the package changes: each demo
compiles, and every name it imports from scenemask exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_compiles_and_its_imports_resolve(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scenemask":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}:{node.lineno} imports {missing} from {node.module}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scenemask":
                    importlib.import_module(alias.name)
