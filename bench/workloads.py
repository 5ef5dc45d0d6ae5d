"""The benchmark's workloads: inputs from a seed, one pass of verdicts, checks.

A workload object holds the inputs generated from the benchmark seed and
splits one pass of its verdicts into units: `units` names them in pass
order, and `run_unit(i, out_dir, checks)` performs the verdicts of unit i,
records each check in `checks`, and returns the bytes of everything the
unit reported, keyed by file or record.  Every pass runs the same units on
the same inputs, so every run of a unit must return the same bytes; that
is what the byte-identity checks compare.  `repeat_unit` is the unit the
harness runs once more after the timed passes.

The harness calls curvlab through module attributes (`frames.cm_min`, not
an imported name) so that the tracer's wrappers see these calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from curvlab import cli, constructions, curvature, frames, inequalities, report

FRAME_BUDGET = 100_000


class Checks:
    """Verdict checks attempted and failed, with a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _read_reports(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _invoke(argv: list[str], out_dir: Path, checks: Checks) -> tuple[int | None, list[Path]]:
    """Run the curvlab command in-process; returns (exit code, report paths)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv + ["--out", str(out_dir)])
    except Exception:  # a crash is a failed verdict, not a benchmark error
        checks.check(False, f"curvlab {' '.join(argv)} raised:\n{traceback.format_exc()}")
        return None, []
    if rc != 0:
        print(stderr.getvalue(), file=sys.stderr, end="")
    return rc, [Path(line) for line in stdout.getvalue().splitlines() if line]


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# eps-search: the halving search of acceptance criterion 5
# ---------------------------------------------------------------------------

class EpsSearch:
    """`verify-examples` in search mode for every construction pair at lambda 1 and 4.

    At lambda = 1 the scale 1 passes and the tightness sweep at 2 fails at
    its first radius; at lambda = 4 the scale 1 fails at r = 0 and 1/2
    passes.  A three-point grid keeps r = 0 first in the sweep order.
    """

    LAMBDAS = {1: 1.0, 4: 0.5}      # lambda -> expected sphere scale
    GRID_POINTS = 3
    R_MAX = 10

    def __init__(self, seed: int):
        self.curvlab_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        self.invocations = [(n, m, lam) for lam in self.LAMBDAS
                            for n, m in constructions.CONSTRUCTION_PAIRS]
        self.units = [f"verify-examples n={n} m={m} lambda={lam}"
                      for n, m, lam in self.invocations]
        # (6, 3) at lambda 4 goes through a rejected scale and a halving
        self.repeat_unit = self.invocations.index((6, 3, 4))

    def _argv(self, n, m, lam):
        return ["verify-examples", "--n", str(n), "--m", str(m), "--lambda", str(lam),
                "--grid-points", str(self.GRID_POINTS), "--r-max", str(self.R_MAX),
                "--frame-budget", str(FRAME_BUDGET), "--seed", str(self.curvlab_seed)]

    def _verify(self, n, m, lam, out_dir: Path, checks: Checks) -> None:
        tag = f"verify-examples n={n} m={m} lambda={lam}"
        rc, paths = _invoke(self._argv(n, m, lam), out_dir, checks)
        if rc is None:
            return
        checks.check(rc == 0, f"{tag}: exit code {rc}")
        if not checks.check(len(paths) == 1, f"{tag}: expected one report, got {paths}"):
            return
        rep = _load(paths[0])
        wit = rep["witnesses"]
        pos = wit["positivity"]
        checks.check(rep["pass"] is True, f"{tag}: report does not pass")
        checks.check(wit["epsilon"] == self.LAMBDAS[lam],
                     f"{tag}: epsilon {wit['epsilon']}, expected {self.LAMBDAS[lam]}")
        lo, hi = pos["coordinate_frame_value_range"]
        checks.check(_finite(lo, hi) and abs(lo - lam) <= 1e-9 and abs(hi - lam) <= 1e-9,
                     f"{tag}: coordinate-frame range [{lo}, {hi}] is not [{lam}, {lam}]")
        worst, worst_r = pos["worst"]["value"], pos["worst"]["r"]
        checks.check(_finite(worst, worst_r), f"{tag}: worst {worst} at r={worst_r}")
        checks.check(_finite(worst) and lam * (1 - 1e-6) <= worst <= lam + 1e-9,
                     f"{tag}: worst value {worst} outside [lambda(1-1e-6), lambda+1e-9]")
        checks.check(wit["tightness"]["pass"] is False,
                     f"{tag}: tightness sweep at twice epsilon passed")

    def run_unit(self, i: int, out_dir: Path, checks: Checks) -> dict[str, bytes]:
        self._verify(*self.invocations[i], out_dir, checks)
        return _read_reports(out_dir)


# ---------------------------------------------------------------------------
# dense-cm: the frame minimizer on dense, non-diagonal tensors
# ---------------------------------------------------------------------------

class DenseCm:
    """`cm_min` on random algebraic curvature tensors, model products and the FD engine.

    A pass minimizes C_m on TENSORS_PER_SHAPE seeded tensors of each shape
    in SHAPES (dimensions 4..8; m at both ends of 2..dim-2 and between) and
    cross-checks each by the sampling oracle, by C_1 = smallest Ricci
    eigenvalue and by 2 C_(n-1) = scalar curvature.  It adds one
    S^3 x R^(n-3) model per dimension in PRODUCT_DIMS, whose minimum is a
    seeded lambda, and one FD-vs-exact comparison per example metric at a
    seeded radius.  Descent time varies a lot from tensor to tensor, so a
    pass holds as many tensors as a run has time for.
    """

    SHAPES = ((4, 2), (5, 3), (6, 2), (7, 5), (8, 4))
    TENSORS_PER_SHAPE = 6
    PRODUCT_DIMS = (5, 6, 7)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.work = []
        for _ in range(self.TENSORS_PER_SHAPE):
            for dim, m in self.SHAPES:
                self.work.append(("tensor", curvature.random_curvature_tensor(dim, rng), m,
                                  int(rng.integers(0, 2**31))))
        for n in self.PRODUCT_DIMS:
            self.work.append(("product", n, float(rng.uniform(0.5, 4.0))))
        for pair in constructions.CONSTRUCTION_PAIRS:
            self.work.append(("fd", pair, float(rng.uniform(-1.0, 1.0))))
        self.units = [self._name(item) for item in self.work]
        self.repeat_unit = 0

    @staticmethod
    def _name(item) -> str:
        kind, a, b = item[:3]
        if kind == "tensor":
            return f"tensor dim={a.dim} m={b}"
        if kind == "product":
            return f"S^3 x R^{a - 3} lambda={b!r}"
        return f"FD vs exact n={a[0]} m={a[1]} r={b!r}"

    @staticmethod
    def _record(res) -> bytes:
        return report.canonical_json({"value": res.value, "argmin": res.argmin,
                                      "method": res.method,
                                      "evaluations": res.evaluations}).encode()

    def run_unit(self, i: int, out_dir: Path, checks: Checks) -> dict[str, bytes]:
        item, tag = self.work[i], self.units[i]
        if item[0] == "tensor":
            _, data, m, seed = item
            res = frames.cm_min(data, m, budget=FRAME_BUDGET, seed=seed)
            oracle = frames.cm_min_oracle(data, m, seed=seed)
            checks.check(_finite(res.value) and res.value <= oracle + 1e-9,
                         f"{tag}: cm_min {res.value} above the sampling oracle {oracle}")
            c1 = frames.cm_min(data, 1, budget=2000, seed=seed).value
            ric_min = float(np.linalg.eigvalsh(data.ricci)[0])
            checks.check(_finite(c1) and abs(c1 - ric_min) < 1e-6,
                         f"{tag}: C_1 {c1} vs smallest Ricci eigenvalue {ric_min}")
            top = frames.cm_of_frame(data, frames.coordinate_frame(data.dim,
                                                                   range(data.dim - 1)))
            checks.check(abs(2 * top - data.scalar) < 1e-8,
                         f"{tag}: 2 C_(n-1) = {2 * top} vs scalar {data.scalar}")
            return {"cm_min": self._record(res)}
        if item[0] == "product":
            _, n, lam = item
            model = curvature.product_sphere_flat_riemann(3, math.sqrt(2.0 / lam), n - 3)
            res = frames.cm_min(model, n - 2, budget=FRAME_BUDGET, seed=n)
            checks.check(abs(res.value - lam) < 1e-6,
                         f"{tag}: C_{n - 2} minimum {res.value} vs {lam}")
            return {"cm_min": self._record(res)}
        _, (fn, fm), r = item
        metric = constructions.build_counterexample(fn, fm, 1.0, 1.0)
        gap = curvature.compare_exact_vs_fd(metric, r)
        checks.check(gap < 1e-5, f"{tag}: FD vs exact discrepancy {gap}")
        return {"gap": repr(gap).encode()}


# ---------------------------------------------------------------------------
# algebra: exact sweeps, matrix inequalities, diameter bounds, tabulation
# ---------------------------------------------------------------------------

class Algebra:
    """Every subcommand but `verify-examples`, on every admissible pair with n <= 7."""

    def __init__(self, seed: int):
        self.curvlab_seed = str(int(np.random.default_rng(seed).integers(0, 2**31)))
        self.pairs = [(n, m) for n in range(3, 8) for m in range(1, n)
                      if inequalities.admissible(n, m).admissible]
        seed_args = ["--seed", self.curvlab_seed]
        self.invocations = [["scan-algebra"] + seed_args]
        for n, m in self.pairs:
            self.invocations.append(["matrix-inequalities", "--n", str(n), "--m", str(m)]
                                    + seed_args)
        for n, m in self.pairs:
            self.invocations.append(["diameter", "--n", str(n), "--m", str(m),
                                     "--lambda", "1"] + seed_args)
        for n, m in constructions.CONSTRUCTION_PAIRS:
            self.invocations.append(["curvature-report", "--n", str(n), "--m", str(m)]
                                    + seed_args)
        self.units = [" ".join(argv[:5]) for argv in self.invocations]
        # the multi-start float minimizers are the seeded part of this workload
        self.repeat_unit = self.invocations.index(
            ["matrix-inequalities", "--n", "7", "--m", "5"] + seed_args)

    def _exact_cross_check(self, n: int, m: int, rep: dict, checks: Checks) -> None:
        """The float minimizers in the report cannot beat the exact minima."""
        tag = f"matrix-inequalities n={n} m={m}"
        wit = rep["witnesses"]
        exact = inequalities.chen_min_exact(n, m).ratio
        d_value = float(inequalities.d_of(n, m).value)
        checks.check(abs(exact - d_value) <= 1e-9,
                     f"{tag}: exact Chen minimum {exact} vs D = {d_value}")
        checks.check(_finite(wit["chen"]["ratio"]) and wit["chen"]["ratio"] >= exact - 1e-9,
                     f"{tag}: Chen ratio {wit['chen']['ratio']} below exact {exact}")
        if inequalities.admissible(n, m).ineq1 > 0:
            low = inequalities.brendle_min_exact(n, m).ratio
            checks.check(_finite(wit["brendle"]["ratio"])
                         and wit["brendle"]["ratio"] >= low - 1e-9,
                         f"{tag}: minimal-case ratio {wit['brendle']['ratio']} "
                         f"below exact {low}")

    def run_unit(self, i: int, out_dir: Path, checks: Checks) -> dict[str, bytes]:
        argv = self.invocations[i]
        tag = self.units[i]
        rc, paths = _invoke(argv, out_dir, checks)
        if rc is None:
            return {}
        checks.check(rc == 0, f"{tag}: exit code {rc}")
        checks.check(len(paths) >= 1, f"{tag}: no report written")
        for path in paths:
            rep = _load(path)
            if "pass" in rep:
                checks.check(rep["pass"] is True, f"{tag}: {path.name} does not pass")
            else:
                values = [v for row in rep["rows"] for v in row.values()
                          if isinstance(v, float)]
                checks.check(_finite(*values), f"{tag}: {path.name} has non-finite rows")
            if argv[0] == "matrix-inequalities":
                self._exact_cross_check(int(argv[2]), int(argv[4]), rep, checks)
        return _read_reports(out_dir)


WORKLOADS = {"eps-search": EpsSearch, "dense-cm": DenseCm, "algebra": Algebra}
