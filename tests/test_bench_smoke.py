"""One pass of the benchmark's verdicts at a fixed seed, as a test.

`bench/run.py` reports a run incorrect when a check of a workload unit
fails or a unit's second run reports other bytes.  This runs the same
units, once each and then once more, with the same checks, so a change to
curvlab that breaks a benchmark verdict fails here first.  `bench/` is
loaded from its file and left unchanged.  `dense-cm` is cut to its product
and FD units and one tensor unit, which certifies, plus the tensor unit of
another seed where `cm_min` descends, which keeps the whole file near 3 s.
"""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 5


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _picked_units(name, inputs):
    if name != "dense-cm":
        return range(len(inputs.units))
    kinds = [item[0] for item in inputs.work]
    return [kinds.index("tensor")] + [i for i, kind in enumerate(kinds) if kind != "tensor"]


def _run_twice(tmp_path, inputs, units):
    """Run each unit twice with the benchmark's checks; returns the first run's reports."""
    checks = workloads.Checks()
    reports = []
    for i in units:
        # the harness reports a unit under the same directory every time
        unit_dir = tmp_path / f"{i:02d}"
        reports.append(inputs.run_unit(i, unit_dir, checks))
        shutil.rmtree(unit_dir, ignore_errors=True)
        assert inputs.run_unit(i, unit_dir, checks) == reports[-1], \
            f"{inputs.units[i]}: the second run reports other bytes"
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures
    return reports


@pytest.mark.parametrize("name", ["algebra", "eps-search", "dense-cm"])
def test_every_verdict_holds_and_repeats(tmp_path, name):
    inputs = workloads.WORKLOADS[name](SEED)
    _run_twice(tmp_path, inputs, _picked_units(name, inputs))


def test_the_descent_branch_holds_and_repeats(tmp_path):
    # dense-cm tensor unit 13 at seed 19 is an open (7, 5) draw: the route
    # does not close, so cm_min descends from two starts
    inputs = workloads.WORKLOADS["dense-cm"](19)
    assert inputs.units[13] == "tensor dim=7 m=5"
    (report,) = _run_twice(tmp_path, inputs, [13])
    assert json.loads(report["cm_min"])["method"] != "certificate"
