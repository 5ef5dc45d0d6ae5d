"""Command-line front end: subcommand dispatch and report writing.

Exit codes are part of the contract: 0 means every checked property held,
1 means a verification ran and failed, 2 means the invocation itself was
bad (unknown flags, out-of-range parameters).  Standard output carries
only the paths of written reports, one per line; everything a human would
read (progress, timing, failure diagnostics) goes to standard error, so
scripts can consume report paths without filtering.

Reports serialize through `canonical_json` with timing excluded, which
makes identical invocations byte-identical across runs.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .constructions import (
    EpsilonSearchError,
    UnsupportedParameters,
    build_counterexample,
    counterexample_json,
    ode_residual,
    search_epsilon,
    solve_profile,
    verify_uniform_positivity,
)
from .curvature import riemann_exact
from .diameter import (
    BoundInput,
    antonelli_xu_bound,
    c0_identity_check,
    c0_identity_sweep,
    cm_diameter_bound,
    rotational_diameter,
    shen_ye_bound,
)
from .inequalities import (
    admissibility_sweep_rows,
    admissible,
    brendle_min_exact,
    check_d_third_expression,
    check_gamma_equivalence,
    check_recursion,
    chen_min_exact,
    d_of,
    d_table_rows,
)
from .report import RunConfig, VerificationReport, jsonable, write_csv, write_json

OK, VERIFY_FAILED, USAGE = 0, 1, 2


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _flatten(obj, prefix=""):
    """Depth-first (path, scalar) pairs for the CSV rendering of a report."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _emit_report(cfg: RunConfig, stem: str, report: VerificationReport) -> Path:
    payload = report.to_json_dict()
    out = Path(cfg.output_dir) / f"{stem}.{cfg.format}"
    if cfg.format == "json":
        return write_json(out, payload)
    return write_csv(out, ["key", "value"], list(_flatten(jsonable(payload))))


def _emit_table(cfg: RunConfig, stem: str, header, rows) -> Path:
    out = Path(cfg.output_dir) / f"{stem}.{cfg.format}"
    if cfg.format == "csv":
        return write_csv(out, header, [[row[h] for h in header] for row in rows])
    return write_json(out, {"header": list(header), "rows": jsonable(rows)})


def _finish(report: VerificationReport, paths, started: float) -> int:
    for path in paths:
        print(path)
    status = "pass" if report.passed else "FAIL"
    print(f"[{report.suite}] {status} in {time.perf_counter() - started:.2f}s",
          file=sys.stderr)
    return OK if report.passed else VERIFY_FAILED


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_examples(cfg: RunConfig, n: int, m: int, lam: float,
                        epsilon: float | None) -> int:
    started = time.perf_counter()
    try:
        sol = solve_profile(n, m, lam)
    except UnsupportedParameters as exc:
        return _usage_error(str(exc))

    r_grid = np.linspace(-cfg.r_max, cfg.r_max, cfg.grid_points)
    residuals = ode_residual(n, m, lam, sol, r_grid)
    residual_max = float(np.max(np.abs(residuals)))
    residual_ok = residual_max < 1e-9

    witnesses: dict = {
        "n": n, "m": m, "lambda": lam,
        "profile_case": sol.case,
        "profile_params": sol.params,
        "ode_residual_max": residual_max,
    }

    try:
        if epsilon is None:
            try:
                found = search_epsilon(n, m, lam, frame_budget=cfg.frame_budget,
                                       seed=cfg.seed, r_max=cfg.r_max,
                                       grid_points=cfg.grid_points)
            except EpsilonSearchError as exc:
                witnesses["positivity"] = exc.best_report.to_json_dict() \
                    if exc.best_report is not None else None
                witnesses["epsilon"] = None
                report = VerificationReport("verify-examples", False,
                                            witnesses, cfg)
                return _finish(report,
                               [_emit_report(cfg, f"verify_examples_n{n}_m{m}",
                                             report)], started)
            positivity = found.report
            witnesses["epsilon"] = found.epsilon
            witnesses["tightness"] = found.tightness_report.to_json_dict()
        else:
            metric = build_counterexample(n, m, lam, epsilon, r_max=cfg.r_max)
            positivity = verify_uniform_positivity(
                metric, lam, r_grid=r_grid, frame_budget=cfg.frame_budget,
                seed=cfg.seed)
            witnesses["epsilon"] = epsilon
            witnesses["metric"] = counterexample_json(n, m, lam, epsilon,
                                                      r_max=cfg.r_max)
    except ValueError as exc:  # out-of-range parameters or an r-range too wide
        return _usage_error(str(exc))

    witnesses["positivity"] = positivity.to_json_dict()
    passed = residual_ok and positivity.passed
    report = VerificationReport("verify-examples", passed, witnesses, cfg)
    return _finish(report, [_emit_report(cfg, f"verify_examples_n{n}_m{m}",
                                         report)], started)


def cmd_scan_algebra(cfg: RunConfig) -> int:
    started = time.perf_counter()
    adm_rows = admissibility_sweep_rows()
    d_rows = d_table_rows()
    third = check_d_third_expression()

    recursion_rows, recursion_ok = [], True
    for row in d_rows:
        n, m = row["n"], row["m"]
        if m < 2:
            continue
        rep = check_recursion(n, m)
        recursion_ok = recursion_ok and rep.passed
        recursion_rows.extend(rep.rows)

    gamma_rows, gamma_ok = [], True
    for n in range(2, 13):
        for m in range(1, n):
            agree = check_gamma_equivalence(n, m)
            gamma_ok = gamma_ok and agree
            gamma_rows.append({"n": n, "m": m, "agree": agree})

    identity_rows = c0_identity_sweep()
    identity_ok = all(r["equal"] for r in identity_rows)

    passed = third.passed and recursion_ok and gamma_ok and identity_ok
    witnesses = {
        "admissible_counts": {str(n): sorted(r["m"] for r in adm_rows
                                             if r["n"] == n and r["admissible"])
                              for n in range(3, 8)},
        "d_third_expression": {"pass": third.passed, "rows": third.rows},
        "recursion": {"pass": recursion_ok, "cases": len(recursion_rows)},
        "gamma_equivalence": {"pass": gamma_ok, "cases": len(gamma_rows)},
        "c0_identity": {"pass": identity_ok, "rows": identity_rows},
    }
    report = VerificationReport("scan-algebra", passed, witnesses, cfg)
    paths = [
        _emit_table(cfg, "scan_algebra_admissibility",
                    ["n", "m", "ineq1", "ineq2", "admissible"], adm_rows),
        _emit_table(cfg, "scan_algebra_d_table",
                    ["n", "m", "candidates", "D"], d_rows),
        _emit_table(cfg, "scan_algebra_gamma",
                    ["n", "m", "agree"], gamma_rows),
        _emit_report(cfg, "scan_algebra", report),
    ]
    return _finish(report, paths, started)


def cmd_matrix_inequalities(cfg: RunConfig, n: int, m: int) -> int:
    started = time.perf_counter()
    rec = admissible(n, m)
    if not rec.admissible:
        return _usage_error(f"(n, m) = ({n}, {m}) is not admissible")

    threshold = d_of(n, m).value
    chen = chen_min_exact(n, m)
    chen_ok = chen.ratio == threshold and min(chen.pivots) > 0
    brendle = brendle_min_exact(n, m)
    brendle_ok = min(brendle.pivots) > 0

    passed = chen_ok and brendle_ok
    witnesses = {
        "n": n, "m": m,
        "threshold_D": threshold,
        "chen": {"ratio": float(chen.ratio), "ratio_exact": chen.ratio,
                 "gap": float(chen.ratio - threshold),
                 "matrix": chen.matrix.astype(float), "pass": chen_ok},
        "brendle": {"ratio": brendle.ratio, "min_pivot": min(brendle.pivots),
                    "matrix": brendle.matrix, "pass": brendle_ok},
    }
    report = VerificationReport("matrix-inequalities", passed, witnesses, cfg)
    return _finish(report, [_emit_report(cfg, f"matrix_inequalities_n{n}_m{m}",
                                         report)], started)


def cmd_diameter(cfg: RunConfig, n: int, m: int, lam: float,
                 skip_model: bool) -> int:
    started = time.perf_counter()
    rec = admissible(n, m)
    if not rec.admissible:
        return _usage_error(f"(n, m) = ({n}, {m}) is not admissible")
    if lam <= 0:
        return _usage_error(f"lambda must be positive, got {lam}")

    bound = cm_diameter_bound(n, m, lam)
    d = n - m + 1
    gamma = Fraction(2 * m - 2, m)
    bounds: dict = {"partial_curvature": bound}
    # the comparison bounds take the Ricci-normalized lambda/(d-1)
    try:
        bounds["gradient_estimate"] = shen_ye_bound(
            BoundInput(d, gamma, lam / (d - 1)))
    except ValueError as exc:
        bounds["gradient_estimate"] = {"skipped": str(exc)}
    try:
        bounds["oscillation"] = antonelli_xu_bound(
            BoundInput(d, gamma, lam / (d - 1), ratio=1.0))
    except ValueError as exc:
        bounds["oscillation"] = {"skipped": str(exc)}

    passed = True
    witnesses: dict = {"n": n, "m": m, "lambda": lam, "bounds": bounds}
    if m >= 2:
        identity = c0_identity_check(n, m)
        witnesses["c0_identity"] = identity
        passed = passed and identity["equal"]
    else:
        witnesses["c0_identity"] = {"skipped": "needs m >= 2"}

    if m == n - 2 and not skip_model:
        rho = math.sqrt(2.0 / lam)
        model = rotational_diameter(
            lambda r: rho * np.sin(np.asarray(r) / rho),
            (0.0, rho * math.pi), 2,
            n_r=min(cfg.grid_points, 128), n_theta=min(cfg.grid_points, 128))
        rel = abs(model - bound) / bound
        model_ok = rel < 0.02
        witnesses["model"] = {"diameter": model, "bound": bound,
                              "relative_gap": rel, "pass": model_ok}
        passed = passed and model_ok

    report = VerificationReport("diameter", passed, witnesses, cfg)
    return _finish(report, [_emit_report(cfg, f"diameter_n{n}_m{m}", report)],
                   started)


def cmd_curvature_report(cfg: RunConfig, n: int, m: int, lam: float,
                         epsilon: float) -> int:
    started = time.perf_counter()
    try:
        metric = build_counterexample(n, m, lam, epsilon, r_max=cfg.r_max)
    except UnsupportedParameters as exc:
        return _usage_error(str(exc))

    r_grid = np.linspace(-cfg.r_max, cfg.r_max, cfg.grid_points)
    rows = []
    for r in r_grid:
        data = riemann_exact(metric, float(r))
        data.validate(1e-8, relative=True)
        eigs = np.linalg.eigvalsh(data.ricci)
        rows.append({
            "r": float(r),
            "scalar": data.scalar,
            "ricci_min": float(eigs[0]),
            "ricci_max": float(eigs[-1]),
            "ricci_radial": float(data.ricci[metric.sphere_dim, metric.sphere_dim]),
        })
    path = _emit_table(cfg, f"curvature_report_n{n}_m{m}",
                       ["r", "scalar", "ricci_min", "ricci_max", "ricci_radial"],
                       rows)
    print(path)
    print(f"[curvature-report] {len(rows)} grid rows in "
          f"{time.perf_counter() - started:.2f}s", file=sys.stderr)
    return OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--seed", type=int, help="base seed for sampling")
    common.add_argument("--r-max", type=float, dest="r_max",
                        help="radial half-width of verification grids")
    common.add_argument("--grid-points", type=int, dest="grid_points",
                        help="number of radial grid points")
    common.add_argument("--frame-budget", type=int, dest="frame_budget",
                        help="frame evaluations per minimization")
    common.add_argument("--out", dest="output_dir", help="report directory")
    common.add_argument("--format", choices=["json", "csv"],
                        help="report file format")

    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Numerical checks for partial curvature positivity, "
                    "warped counterexample metrics, and diameter bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-examples", parents=[common],
                       help="build a warped metric and verify uniform positivity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--epsilon", type=float, default=None,
                   help="sphere scale; searched when omitted")

    sub.add_parser("scan-algebra", parents=[common],
                   help="exact rational sweeps of the index inequalities")

    p = sub.add_parser("matrix-inequalities", parents=[common],
                       help="exact minima of the algebraic curvature forms "
                            "with an LDL^T certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("diameter", parents=[common],
                       help="evaluate diameter bounds and the constant identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--skip-model", action="store_true",
                   help="skip the rotational model diameter check")

    p = sub.add_parser("curvature-report", parents=[common],
                       help="tabulate curvature invariants on a radial grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--epsilon", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in
                 ("seed", "r_max", "grid_points", "frame_budget",
                  "output_dir", "format")}
    try:
        cfg = RunConfig.resolve(args.config, overrides)
    except (ValueError, OSError) as exc:
        return _usage_error(str(exc))

    if args.command == "verify-examples":
        return cmd_verify_examples(cfg, args.n, args.m, args.lam, args.epsilon)
    if args.command == "scan-algebra":
        return cmd_scan_algebra(cfg)
    if args.command == "matrix-inequalities":
        return cmd_matrix_inequalities(cfg, args.n, args.m)
    if args.command == "diameter":
        return cmd_diameter(cfg, args.n, args.m, args.lam, args.skip_model)
    if args.command == "curvature-report":
        return cmd_curvature_report(cfg, args.n, args.m, args.lam, args.epsilon)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
