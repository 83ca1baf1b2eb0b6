"""Every auctionbench name the benchmark harness wraps or imports still exists.

``perfbench/tracing.py`` wraps functions by name and ``perfbench/worker.py``
and ``perfbench/oracles.py`` import them; a refactor that deletes or renames
one breaks traced benchmark runs, so it fails here first.  The harness files
are read, never changed: tracing.py is imported without installing anything,
the other two are parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(f"auctionbench.{module}", attr) for module, attr, *_ in tracing.TARGETS]


def imported_names(path: Path):
    """(module, name) for ``from auctionbench... import name`` and ``x.name`` on
    ``x = importlib.import_module("auctionbench...")``."""
    tree = ast.parse(path.read_text())
    names, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("auctionbench"):
            names += [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "importlib.import_module"
            and isinstance(node.value.args[0], ast.Constant)
            and node.value.args[0].value.startswith("auctionbench")
        ):
            aliases[node.targets[0].id] = node.value.args[0].value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.append((aliases[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("module, attr", traced_targets())
def test_traced_target_resolves(module, attr):
    assert callable(resolve(module, attr))


@pytest.mark.parametrize("filename", ["worker.py", "oracles.py"])
def test_harness_imports_resolve(filename):
    names = imported_names(PERFBENCH / filename)
    assert names
    for module, attr in names:
        resolve(module, attr)
