"""Benchmark of the curvlab verifier: one workload per invocation.

    python3 bench/run.py --workload {eps-search,dense-cm,algebra} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  curvlab is imported from `src/` of the
checkout this file sits in.  The workload's inputs come from `--seed`.  One
pass of the workload is a list of units (see workloads.py); the benchmark
runs them in pass order, one caller in a closed loop, round and round: one
whole pass, then on until the next unit would end after `--seconds`.  It
checks every verdict and that every run of a unit reports the same bytes.

A calibration kernel runs before and after every unit, and each unit's wall
time is rescaled to the machine speed at which the kernel takes
KERNEL_REF_S (see Calibration): the shared machine's speed drifts too much
for raw wall times to compare from run to run.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json: the
rescaled time of one pass (the sum of the units' median rescaled times),
the median of several set-up times (import plus input generation, each but
the first in a fresh interpreter) and the peak resident memory.  With
`--trace 1` it spends the first half of the time on untraced whole passes
and the rest on whole passes with every public function of the curvlab
layers wrapped (see spans.py), and reports the per-layer metrics, the
tracing overhead among them.  Spans and a metric summary are written to
`.curvbench/trace-<workload>.{npz,json}`.

Standard output ends with one JSON line:
{"correct": ..., "attempted": <checks>, "failed": <failed checks>, "metrics": {...}}.
The line before it holds the machine facts.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".curvbench"
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("eps-search", "dense-cm", "algebra")
KERNEL_REF_S = 0.010       # the calibration kernel's time at the reference speed
KERNEL_SHARE = 0.05        # of each unit's time spent on the kernel after it


def _setup(workload: str, seed: int):
    """Import curvlab from the checkout and generate the inputs; returns (inputs, s)."""
    start = time.perf_counter()
    if not (SRC / "curvlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvlab.cli  # noqa: F401  (the CLI imports every layer)
    import workloads

    if not Path(curvlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: curvlab was imported from {curvlab.__file__}, not {SRC}")
    inputs = workloads.WORKLOADS[workload](seed)
    return inputs, time.perf_counter() - start


def _setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


class Calibration:
    """A fixed kernel of small work, timed between units.

    The shared machine's speed drifts by tens of percent over seconds to
    minutes.  The kernel, small-matrix numpy linear algebra in a Python loop
    and nothing of curvlab, is timed right before and right after every
    unit, and the unit's wall time is divided by the mean of the two kernel
    times: that rescales it to the speed at which the kernel takes
    KERNEL_REF_S.  After a unit of t seconds the kernel runs until
    KERNEL_SHARE * t is spent, at least once.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.random.default_rng(0).standard_normal((6, 6))
        self.times: list[float] = []
        self.last: float | None = None

    def _kernel(self) -> float:
        np, a = self.np, self.small
        acc = 0.0
        for i in range(200):
            q, _ = np.linalg.qr(a + i)
            acc += float(np.linalg.eigvalsh(a + a.T)[0] + q[0, 0])
            acc += sum(j * 0.5 for j in range(100))
        return acc

    def _batch(self, unit_s: float) -> float:
        first = len(self.times)
        while True:
            t0 = time.perf_counter()
            self._kernel()
            self.times.append(time.perf_counter() - t0)
            if sum(self.times[first:]) >= KERNEL_SHARE * unit_s:
                return statistics.median(self.times[first:])

    def start(self) -> None:
        self.last = self._batch(0.0)

    def rescale(self, unit_s: float) -> float:
        """The unit's wall time at the reference speed; call right after the unit."""
        after = self._batch(unit_s)
        scaled = KERNEL_REF_S * unit_s / (0.5 * (self.last + after))
        self.last = after
        return scaled


class Runner:
    """Timed runs of one workload's units, with their checks."""

    def __init__(self, inputs, work: Path, seconds: float):
        import spans
        import workloads

        self.spans = spans
        self.inputs = inputs
        self.out = work / "out"
        self.seconds = seconds
        self.checks = workloads.Checks()
        self.calibration = Calibration()
        self.reference: dict[int, dict[str, bytes]] = {}
        self.times: list[list[float]] = [[] for _ in inputs.units]
        self.started = time.perf_counter()

    def _unit(self, i: int) -> float:
        # a unit always reports under the same directory: reports embed it
        unit_dir = self.out / f"{i:02d}"
        shutil.rmtree(unit_dir, ignore_errors=True)
        t0 = time.perf_counter()
        reports = self.inputs.run_unit(i, unit_dir, self.checks)
        wall = time.perf_counter() - t0
        self.times[i].append(wall)
        reference = self.reference.setdefault(i, reports)
        if reports is not reference:
            diff = sorted(k for k in reports.keys() | reference.keys()
                          if reports.get(k) != reference.get(k))
            self.checks.check(not diff, f"{self.inputs.units[i]}: reports differ "
                                        f"from its first run: {diff}")
        return wall

    def _elapsed(self) -> float:
        return time.perf_counter() - self.started

    def cycle(self, until: float) -> list[list[float]]:
        """Units in pass order, round and round: one whole pass, then on
        until the next unit would end after `until` s from the start.
        Returns every unit's rescaled times."""
        count = len(self.inputs.units)
        scaled = [[] for _ in range(count)]
        self.calibration.start()
        with self.spans.count_fp_warnings():
            for j in itertools.count():
                i = j % count
                if j >= count and self._elapsed() + min(self.times[i]) > until:
                    return scaled
                scaled[i].append(self.calibration.rescale(self._unit(i)))

    def passes(self, until: float, tracer=None) -> tuple[list[float], list[list[float]]]:
        """Whole passes until the next would end after `until` s (at least one).
        Returns the wall time of each pass without the calibration kernel,
        and every unit's rescaled times."""
        count = len(self.inputs.units)
        walls, scaled = [], [[] for _ in range(count)]
        self.calibration.start()
        while True:
            scope = (tracer.traced_pass() if tracer is not None
                     else self.spans.count_fp_warnings())
            kernel_s = 0.0
            with scope:
                t0 = time.perf_counter()
                for i in range(count):
                    wall = self._unit(i)
                    k0 = time.perf_counter()
                    scaled[i].append(self.calibration.rescale(wall))
                    kernel_s += time.perf_counter() - k0
                walls.append(time.perf_counter() - t0 - kernel_s)
            if tracer is not None:
                tracer.exclude(kernel_s)
            if self._elapsed() + statistics.median(walls) > until:
                return walls, scaled

    def repeat_check(self) -> None:
        """Run one unit once more; it must report the bytes of its first run."""
        i = self.inputs.repeat_unit
        runs = len(self.times[i])
        self._unit(i)
        self.checks.check(len(self.times[i]) == runs + 1 and bool(self.reference[i]),
                          f"{self.inputs.units[i]}: repeated run reported nothing")


def _pass_time(scaled: list[list[float]]) -> float:
    """Rescaled time of one whole pass: the sum of the units' medians."""
    return sum(statistics.median(t) for t in scaled)


def _measure(runner: Runner, trace: bool, workload: str, facts: dict) -> dict:
    if not trace:
        scaled = runner.cycle(runner.seconds)
        runner.repeat_check()
        times, kernel = runner.times, runner.calibration.times
        print(f"{workload}: runs per unit {[len(t) for t in times]}; "
              f"sum of unit median wall times {_pass_time(times):.4f} s; "
              f"{len(kernel)} kernel runs, median {statistics.median(kernel):.6f} s",
              file=sys.stderr)
        return {"wall_s": _pass_time(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    import curvlab

    untraced, untraced_scaled = runner.passes(runner.seconds / 2)
    tracer = runner.spans.Tracer()
    tracer.install(curvlab)
    try:
        traced, traced_scaled = runner.passes(runner.seconds, tracer)
    finally:
        tracer.uninstall()
    runner.repeat_check()
    per_pass = tracer.pass_metrics()
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    base = _pass_time(untraced_scaled)
    metrics["trace.untraced_wall_s"] = base
    metrics["trace.overhead_s"] = _pass_time(traced_scaled) - base
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / base
    metrics["trace.layer_share"] = metrics["trace.layer_self_s"] / metrics["trace.wall_s"]
    STATE_DIR.mkdir(exist_ok=True)
    tracer.save(STATE_DIR / f"trace-{workload}",
                {"workload": workload, "machine": facts, "untraced_walls_s": untraced,
                 "traced_walls_s": traced, "metrics": metrics})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import plus input generation, print it, and exit")
    args = parser.parse_args(argv)

    inputs, setup_first = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_first))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not args.trace:
        setup_times = [setup_first] + [_setup_in_child(args.workload, args.seed)
                                       for _ in range(SETUP_SAMPLES - 1)]
    facts = machine_facts()
    work = STATE_DIR / f"run-{os.getpid()}"
    runner = Runner(inputs, work, args.seconds)
    try:
        computed = _measure(runner, bool(args.trace), args.workload, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        computed["setup_s"] = statistics.median(setup_times)

    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    checks = runner.checks
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
