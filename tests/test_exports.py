"""Every name a curvlab module exports, or the benchmark calls, exists.

Tools that look exports up by name (the benchmark's tracer among them)
skip a missing name silently, so a stale `__all__` entry must fail here,
and so must a name that `bench/` reads off a curvlab module.  Every export
must also have a caller outside its own definition, in the library or the
benchmark; a helper only tests call belongs in a `tests/` reference module.
"""
import ast
import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvlab
from curvlab import frames
from curvature_references import fubini_study_riemann
from frame_references import count_calls

MODULES = sorted(info.name for info in pkgutil.iter_modules(curvlab.__path__))
SRC = Path(curvlab.__file__).resolve().parent
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


def _defines(statement, name):
    """Whether a top-level statement is the definition of `name`."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name == name
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def code_references(tree, skip=None):
    """Names that Name (read) and Attribute nodes of a parsed file refer to.

    The top-level definition of `skip` is left out, so a name does not
    count as used by its own body.  Strings and docstrings never count.
    """
    return {node.id if isinstance(node, ast.Name) else node.attr
            for statement in tree.body if not _defines(statement, skip)
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_export_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]}
    unused = []
    for name in MODULES:
        home = SRC / f"{name}.py"
        for export in getattr(importlib.import_module(f"curvlab.{name}"), "__all__", ()):
            if not any(export in code_references(tree, export if path == home else None)
                       for path, tree in trees.items()):
                unused.append(f"{name}.{export}")
    assert not unused, f"called by nothing in src/curvlab or bench/: {unused}"


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


# The benchmark's tracer (`--trace 1`) reads these by name; a renamed one
# breaks a traced run or zeroes its counters without failing any other
# check.  One entry per observer in bench/spans.py.
TRACED_FIELDS = [
    # _observe_cm_min counts evaluations and the winning outcome
    ("frames", "CmResult", ("method", "evaluations")),
    # _observe_sweep counts sweeps that stopped early
    ("constructions", "PositivityReport", ("complete",)),
    # _observe_search counts the candidates tried from the passing scale
    ("constructions", "EpsilonSearchResult", ("epsilon",)),
]


@pytest.mark.parametrize("module,cls,names", TRACED_FIELDS)
def test_traced_result_fields_exist(module, cls, names):
    fields = {f.name for f in dataclasses.fields(getattr(
        importlib.import_module(f"curvlab.{module}"), cls))}
    for name in names:
        assert name in fields, f"bench/spans.py reads {cls}.{name}"


def test_sampling_goes_through_the_traced_module_functions(monkeypatch):
    # the tracer counts sampling through a wrapper on frames.random_frames,
    # so it must be reached through the module.  On CP^4 at m = 3 the
    # route's bound 20 stays below the minimum 24, so C_3 is not certified:
    # cm_min descends and draws nothing.  The oracle draws once per
    # 4096-frame chunk
    calls = count_calls(monkeypatch, frames, ("random_frames",))
    res = frames.cm_min(fubini_study_riemann(8), 3)
    assert res.method != "certificate"
    assert calls == {"random_frames": []}
    frames.cm_min_oracle(fubini_study_riemann(8), 3, seed=4)
    assert calls["random_frames"] == [4096] * 4 + [frames.ORACLE_SAMPLES - 4 * 4096]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the runtime must not import it, neither
    # on import nor in the route that proves C_(n-2) and C_3 of a dense tensor
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    certified = ("import numpy as np; from curvlab import curvature, frames; "
                 "rd = curvature.random_curvature_tensor(6, np.random.default_rng(8)); "
                 "print(frames.cm_min(rd, 4).method, "
                 "frames.cm_min(rd, 3).method); ")
    for probe, expected in ((f"import sys, curvlab.cli; {loaded}", "[]"),
                            (f"import sys; {certified}{loaded}", "certificate certificate\n[]")):
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, cwd=Path(curvlab.__file__).parents[1])
        assert out.stdout.strip() == expected
