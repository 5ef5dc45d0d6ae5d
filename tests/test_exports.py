"""Every name a curvlab module exports, or the benchmark calls, exists.

Tools that look exports up by name (the benchmark's tracer among them)
skip a missing name silently, so a stale `__all__` entry must fail here,
and so must a name that `bench/` reads off a curvlab module.
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import curvlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(curvlab.__path__))
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_local(name):
    module = importlib.import_module(f"curvlab.{name}")
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports), f"duplicate names in curvlab.{name}.__all__"
    for export in exports:
        assert export in vars(module), f"curvlab.{name}.__all__ names missing {export!r}"
        defined_in = getattr(vars(module)[export], "__module__", module.__name__)
        assert defined_in == module.__name__, \
            f"curvlab.{name}.{export} is imported from {defined_in}"


def bench_attributes():
    """(file, module, name) for every `module.name` that bench/*.py reads.

    `module` is a curvlab module the file imports with `from curvlab import`,
    under its local name; the files are parsed, never imported.
    """
    found = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = {alias.asname or alias.name: alias.name
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "curvlab"
                 for alias in node.names}
        found += [(path.name, local[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in local]
    return found


def test_bench_calls_only_existing_names():
    found = bench_attributes()
    # the workloads reach the oracle and the FD cross-check through these
    assert ("workloads.py", "frames", "cm_min_oracle") in found
    assert ("workloads.py", "curvature", "compare_exact_vs_fd") in found
    for filename, module, name in found:
        assert hasattr(importlib.import_module(f"curvlab.{module}"), name), \
            f"bench/{filename} calls curvlab.{module}.{name}, which does not exist"
