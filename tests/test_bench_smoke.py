"""One pass of the benchmark's verdicts at a fixed seed, as a test.

`bench/run.py` reports a run incorrect when a check of a workload unit
fails or a unit's second run reports other bytes.  This runs the same
units, once each and then once more, with the same checks, so a change to
curvlab that breaks a benchmark verdict fails here first.  `bench/` is
loaded from its file and left unchanged.  `dense-cm` is cut to its product
and FD units and one tensor unit, which keeps the whole file near 2 s.
"""
import importlib.util
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


@pytest.mark.parametrize("name", ["algebra", "eps-search", "dense-cm"])
def test_every_verdict_holds_and_repeats(tmp_path, name):
    inputs = workloads.WORKLOADS[name](SEED)
    checks = workloads.Checks()
    for i in _picked_units(name, inputs):
        # the harness reports a unit under the same directory every time
        unit_dir = tmp_path / f"{i:02d}"
        first = inputs.run_unit(i, unit_dir, checks)
        shutil.rmtree(unit_dir, ignore_errors=True)
        assert inputs.run_unit(i, unit_dir, checks) == first, \
            f"{inputs.units[i]}: the second run reports other bytes"
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures
