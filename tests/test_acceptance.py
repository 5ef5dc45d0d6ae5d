"""Acceptance gate: one test per numbered criterion, stated tolerances only.

Each test finishes by printing a single `ACCEPTANCE k: PASS/FAIL` line
(visible with `pytest tests/test_acceptance.py -s`) and asserting the same
condition, so the suite is both human-readable and a hard gate.  Criterion 5
re-runs the full uniform-positivity search per construction pair on the
121-point grid.  Its sweeps take the exact minimum of C_m at every radius
from the class counts (`curvature.cm_min_exact`), so they sample no frame
and take no budget.
"""
import math
import time
from fractions import Fraction

import numpy as np

from curvlab.constructions import (
    CONSTRUCTION_PAIRS,
    build_counterexample,
    ode_residual,
    search_epsilon,
    solve_profile,
)
from curvlab.curvature import (
    compare_exact_vs_fd,
    random_curvature_tensor,
    riemann_exact,
    product_sphere_flat_riemann,
)
from curvlab.diameter import c0_identity_sweep
from curvlab.frames import cm_min, cm_of_frame, coordinate_frame, random_frames
from curvlab.inequalities import (
    admissible,
    brendle_min_exact,
    check_d_third_expression,
    check_gamma_equivalence,
    check_recursion,
    chen_min_exact,
    d_of,
)
from diameter_references import rotational_diameter
from float_minimizers import brendle_min, chen_min_ratio
from frame_references import cm_double_sum, complete_frame

EXPECTED_ADMISSIBLE = {3: {1, 2}, 4: {1, 2, 3}, 5: {1, 2, 3, 4},
                       6: {1, 4, 5}, 7: {1, 5, 6}}


def _line(index: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {index}: {status} - {detail}", flush=True)
    assert passed, f"criterion {index} failed: {detail}"


def _all_admissible_pairs():
    return [(n, m) for n in range(3, 8) for m in range(1, n)
            if admissible(n, m).admissible]


def test_criterion_01_admissibility_sets():
    started = time.perf_counter()
    found = {n: {m for m in range(1, n) if admissible(n, m).admissible}
             for n in range(3, 8)}
    elapsed = time.perf_counter() - started
    ok = found == EXPECTED_ADMISSIBLE and elapsed < 1.0
    _line(1, ok, f"admissible sets {found} in {elapsed:.3f}s")


def test_criterion_02_d_third_candidate_and_recursion():
    third = check_d_third_expression()
    recursion_ok, cases = True, 0
    for n, m in _all_admissible_pairs():
        if m < 2:
            continue
        rep = check_recursion(n, m)
        recursion_ok = recursion_ok and rep.passed
        cases += len(rep.rows)
    ok = third.passed and recursion_ok
    _line(2, ok, f"third-candidate rows {len(third.rows)}, "
                 f"recursion cases {cases}, exact arithmetic")


def test_criterion_03_gamma_equivalence():
    failures = [(n, m) for n in range(2, 13) for m in range(1, n)
                if not check_gamma_equivalence(n, m)]
    _line(3, not failures, f"checked all 1 <= m < n <= 12, "
                           f"failures {failures}")


def test_criterion_04_ode_residuals():
    started = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 101)
    worst = 0.0
    for n, m in CONSTRUCTION_PAIRS:
        for lam in (0.5, 1.0, 2.0):
            sol = solve_profile(n, m, lam)
            worst = max(worst, float(np.max(np.abs(
                ode_residual(sol, grid)))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 1.0
    _line(4, ok, f"max residual {worst:.3e} over 5 pairs x 3 lambdas "
                 f"in {elapsed:.3f}s")


def test_criterion_05_epsilon_search_all_pairs():
    lam = 1.0
    details, ok = [], True
    for n, m in CONSTRUCTION_PAIRS:
        started = time.perf_counter()
        found = search_epsilon(solve_profile(n, m, lam), np.linspace(-10, 10, 121))
        elapsed = time.perf_counter() - started
        rep = found.report
        coord_ok = (abs(rep.coord_value_min - lam) < 1e-9
                    and abs(rep.coord_value_max - lam) < 1e-9)
        pair_ok = (rep.passed and coord_ok
                   and rep.worst_value >= lam * (1 - 1e-6)
                   and elapsed < 300.0)
        ok = ok and pair_ok
        details.append(f"({n},{m}): eps={found.epsilon} "
                       f"min={rep.worst_value:.12f} {elapsed:.0f}s")
    _line(5, ok, "; ".join(details))


def test_criterion_06_chen_minimum():
    ok = True
    for n, m in _all_admissible_pairs():
        threshold = d_of(n, m).value
        exact = chen_min_exact(n, m)
        ok = ok and exact.ratio == threshold and min(exact.pivots) > 0
        witness = chen_min_ratio(n, m, budget=64, seed=0)
        ok = ok and witness.ratio >= float(threshold) - 1e-9
    w32 = chen_min_exact(3, 2)
    w42 = chen_min_exact(4, 2)
    half = Fraction(1, 2)
    ok = ok and w32.ratio == Fraction(3, 4) and w42.ratio == half
    ok = ok and (w32.matrix == np.diag([half, half])).all()
    ok = ok and (w42.matrix == np.diag([Fraction(0), half, half])).all()
    _line(6, ok, f"15 pairs: exact minimum == D with positive LDL^T pivots, "
                 f"descent >= D - 1e-9; (3,2)={w32.ratio}, (4,2)={w42.ratio}")


def test_criterion_07_minimal_case_positivity():
    ok = True
    lows, pivots = [], []
    for n, m in _all_admissible_pairs():
        exact = brendle_min_exact(n, m)
        descent = brendle_min(n, m, budget=64, seed=0)
        ok = ok and exact.ratio >= 0.0 and descent.ratio >= -1e-12
        if admissible(n, m).ineq1 > 0:
            ok = ok and min(exact.pivots) > 0
        lows.append(exact.ratio)
        pivots.append(min(exact.pivots))
    _line(7, ok, f"traceless norm-1 minima in "
                 f"[{min(lows):.6f}, {max(lows):.6f}] over 15 pairs; "
                 f"smallest LDL^T pivot {min(pivots)}")


def test_criterion_08_c0_identity():
    rows = c0_identity_sweep()
    ok = len(rows) == 10 and all(r["equal"] for r in rows)
    _line(8, ok, f"{len(rows)} admissible pairs with m >= 2, exact equality")


def test_criterion_09_curvature_engines():
    # finite differences against the closed form on the example metrics
    fd_worst = 0.0
    for n, m in CONSTRUCTION_PAIRS:
        metric = build_counterexample(n, m, 1.0, 1.0)
        fd_worst = max(fd_worst, compare_exact_vs_fd(metric, 0.5))
        riemann_exact(metric, 0.7).validate(1e-10)
    fd_ok = fd_worst < 1e-5

    # frame properties on random algebraic curvature tensors
    rng = np.random.default_rng(2024)
    prop_ok = True
    for i in range(100):
        dim = 4 + i % 4
        data = random_curvature_tensor(dim, rng)
        data.validate(1e-8)
        ricci, scalar = data.ricci, data.scalar

        m = 2 + i % (dim - 2)
        q = random_frames(dim, m, 1, rng)[0]
        rot = np.linalg.qr(rng.standard_normal((m, m)))[0]
        spread = abs(cm_of_frame(data, q) - cm_of_frame(data, q @ rot))
        prop_ok = prop_ok and spread < 1e-8

        # cm_min takes C_1 from the Ricci eigenvector, so the literal double
        # sum at its argmin checks the frame as well as the value
        c1 = cm_min(data, 1)
        ric_min = np.linalg.eigvalsh(ricci)[0]
        at_argmin = cm_double_sum(data, complete_frame(c1.argmin), 1)
        prop_ok = (prop_ok and abs(c1.value - ric_min) < 1e-6
                   and abs(at_argmin - ric_min) < 1e-6)

        top = cm_of_frame(data, coordinate_frame(dim, range(dim - 1)))
        prop_ok = prop_ok and abs(2 * top - scalar) < 1e-8

    ok = fd_ok and prop_ok
    _line(9, ok, f"FD-vs-exact worst {fd_worst:.2e}; symmetry, "
                 f"span-invariance, C1, and 2C_(n-1) on 100 random tensors")


def test_criterion_10_diameter_models():
    s2 = rotational_diameter(np.sin, (0.0, math.pi), 1)
    rho = math.sqrt(2.0)
    s3 = rotational_diameter(lambda r: rho * np.sin(np.asarray(r) / rho),
                             (0.0, rho * math.pi), 2)
    diam_ok = (abs(s2 - math.pi) / math.pi < 0.02
               and abs(s3 - math.pi * rho) / (math.pi * rho) < 0.02)

    model_ok = True
    records = []
    for n, lam in ((5, 1.0), (6, 1.0), (7, 2.0)):
        radius = math.sqrt(2.0 / lam)
        data = product_sphere_flat_riemann(3, radius, n - 3)
        result = cm_min(data, n - 2)
        model_ok = model_ok and abs(result.value - lam) < 1e-6
        records.append(f"n={n}: {result.value:.9f} vs {lam}")
    ok = diam_ok and model_ok
    _line(10, ok, f"S2 {s2:.5f}, S3(sqrt2) {s3:.5f}; " + "; ".join(records))
