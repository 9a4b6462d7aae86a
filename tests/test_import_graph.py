"""The package's modules import each other at module level, in one direction,
and only linalg applies the rank cutoff.

Reads the source with ast only (nothing is imported), so a cycle that
an import inside a function would hide at load time is still reported.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entcert"


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree, names):
    """Sibling modules named by any import statement of one module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(a.name for a in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entcert."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("entcert."))
    return found & names


def test_no_function_level_imports():
    nested = {}
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    nested[f"{name}.py:{node.lineno}"] = None
    assert not nested, "imports inside function bodies: " + ", ".join(nested)


def test_import_graph_is_acyclic():
    modules = _modules()
    names = set(modules) - {"__init__"}
    graph = {name: _imported_modules(modules[name], names) - {name}
             for name in names}
    # raises graphlib.CycleError naming the cycle
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(order) == names


def test_rank_cutoff_is_applied_only_in_linalg():
    calls = [f"{name}.py:{node.lineno}"
             for name, tree in _modules().items() if name != "linalg"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "rank_cutoff"]
    assert not calls, "rank cutoffs outside linalg: " + ", ".join(calls)
