"""Every example must at least parse and import-check cleanly.

The examples run minutes of simulation, so executing them belongs to a
manual/benchmark pass; here we guarantee they cannot bit-rot silently:
they compile, carry a docstring and a main() entry point, and only
import names that exist.
"""

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    assert "main" in names, f"{path.name} lacks a main()"
    compile(source, str(path), "exec")


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Each `from repro... import X` names something that exists."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} missing")


def test_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "placement_study.py",
            "arithmetic_intensity.py", "runtime_interference.py",
            "cg_vs_gemm.py", "gpu_transfers.py",
            "collectives_demo.py"} <= names
