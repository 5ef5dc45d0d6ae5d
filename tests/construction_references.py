"""Construction identities that the tests check `curvlab.constructions` against.

`metric_from_json` rebuilds a metric from the witnesses of a
`verify-examples` report, `coordinate_cm_value` is C_m at the
distinguished coordinate frame, and `radial_laplacian` with
`lift_laplacian_split` are the closed forms of the Laplacian of the torus
profile u and of its split over the last circle lift.  The split is not
reported by the CLI: its two parts sum to the full Laplacian by
2(m-2)/m + 2/m = 2(m-1)/m, so the check that carries weight is
`radial_laplacian` against the finite-difference `laplacian_fd`.
`curvature_report_rows` is the dense per-radius route that
`curvature-report` took before it read the diagonal Ricci values off the
sectional class table.  `per_radius_sweep` is the positivity sweep one
radius at a time, as it ran before it evaluated the grid as arrays, and
`class_count_minimum` the per-radius class-count formula it calls.
"""
from __future__ import annotations

import numpy as np

from curvlab.constructions import PASS_SLACK, PositivityReport, solve_profile
from curvlab.curvature import TIE_TOL, WarpedTorusMetric, _sectional_table, riemann_exact
from curvlab.frames import cm_of_frame, coordinate_frame


def metric_from_json(witnesses: dict) -> WarpedTorusMetric:
    """Rebuild a metric from the witnesses of a `verify-examples` report.

    Both modes name the metric there: `n`, `m`, `lambda`, `epsilon`,
    `profile_case` and `profile_params`.  Only profile cases produced by
    `solve_profile` are accepted; the stored parameters are recomputed from
    (n, m, lambda) and must match.
    """
    case = witnesses["profile_case"]
    if case not in ("equality", "strict"):
        raise ValueError(f"cannot rebuild profiles of case {case!r}")
    n, m = int(witnesses["n"]), int(witnesses["m"])
    sol = solve_profile(n, m, float(witnesses["lambda"]))
    if sol.case != case or sol.params != witnesses["profile_params"]:
        raise ValueError("stored profile parameters disagree with (n, m, lambda)")
    return WarpedTorusMetric(n, m, float(witnesses["epsilon"]), sol.f, sol.u)


def coordinate_cm_value(metric: WarpedTorusMetric, r: float) -> float:
    """C_m at the distinguished frame (radial direction plus torus directions)."""
    frame = coordinate_frame(metric.n, range(metric.sphere_dim, metric.n))
    return cm_of_frame(riemann_exact(metric, r), frame)


def curvature_report_rows(metric: WarpedTorusMetric, r_grid) -> list[dict]:
    """`curvature-report`'s rows from the n^4 components at each radius.

    Each radius builds `riemann_exact`'s tensor, validates its symmetries
    to 1e-8 and reads the Ricci extremes off `eigvalsh`; the full Ricci
    matrix is kept under "ricci".
    """
    rows = []
    for r in r_grid:
        data = riemann_exact(metric, float(r))
        data.validate(1e-8)
        eigs = np.linalg.eigvalsh(data.ricci)
        rows.append({
            "r": float(r),
            "scalar": data.scalar,
            "ricci_min": float(eigs[0]),
            "ricci_max": float(eigs[-1]),
            "ricci_radial": float(data.ricci[metric.sphere_dim, metric.sphere_dim]),
            "ricci": data.ricci,
        })
    return rows


def radial_laplacian(metric: WarpedTorusMetric, r) -> np.ndarray:
    """Laplacian of the torus profile u as a function of r on the full metric."""
    r = np.asarray(r, dtype=float)
    n, m = metric.n, metric.m
    u, lf1 = metric.u_profile, metric.f_profile.dlog(r)
    lu1 = u.dlog(r)
    return u(r) * (u.d2_ratio(r) + ((n - m) * lf1 + 2.0 * (m - 1) / m * lu1) * lu1)


def lift_laplacian_split(metric: WarpedTorusMetric, r) -> tuple[np.ndarray, np.ndarray]:
    """Split the Laplacian of u over the last circle lift.

    Returns (base part, fiber-gradient coupling): the Laplacian on the
    metric with one torus direction removed, and (1/w) <grad w, grad u> for
    the fiber coefficient w = u^(2/m).  Their sum equals `radial_laplacian`.
    """
    r = np.asarray(r, dtype=float)
    n, m = metric.n, metric.m
    u, lf1 = metric.u_profile, metric.f_profile.dlog(r)
    uv, lu1 = u(r), u.dlog(r)
    base = uv * (u.d2_ratio(r) + ((n - m) * lf1 + 2.0 * (m - 2) / m * lu1) * lu1)
    coupling = uv * (2.0 / m * lu1 * lu1)
    return base, coupling


def class_count_minimum(metric: WarpedTorusMetric, table: np.ndarray, r: float):
    """(value, counts, subset, coordinate value) of the exact C_m minimum at r.

    The count vectors' values are formed from the class table at r in the
    order `curvature._class_count_minima` states; the coordinate value is
    the last one's, the count vector (0, 1, m - 1) of the distinguished
    frame.  Raises ValueError naming r when a value is not finite.
    """
    s, m, t = metric.sphere_dim, metric.m, metric.torus_dim
    counts = np.array([(i, rho, m - i - rho) for i in range(min(m, s), -1, -1)
                       for rho in (1, 0) if 0 <= m - i - rho <= t])
    i, rho, j = counts.T
    (k_ss, k_sr, k_st), (_, _, k_rt), (_, _, k_tt) = table
    with np.errstate(all="ignore"):
        r_s = (s - 1) * k_ss + k_sr + t * k_st
        r_r = s * k_sr + t * k_rt
        r_t = s * k_st + k_rt + (t - 1) * k_tt
        pairs = (i * (i - 1) / 2 * k_ss + j * (j - 1) / 2 * k_tt
                 + i * rho * k_sr + i * j * k_st + rho * j * k_rt)
        values = i * r_s + rho * r_r + j * r_t - pairs
    if not np.isfinite(values).all():
        raise ValueError(f"C_m at r = {r!r}: class-count values are not finite")
    lowest = float(values.min())
    i, rho, j = (int(c) for c in counts[np.flatnonzero(values <= lowest + TIE_TOL)[0]])
    subset = tuple(range(i)) + (s,) * rho + tuple(range(s + 1, s + 1 + j))
    return lowest, (i, rho, j), subset, float(values[-1])


def per_radius_sweep(metric: WarpedTorusMetric, lam: float, r_grid,
                     fail_fast: bool = False) -> PositivityReport:
    """`verify_uniform_positivity` one radius at a time, in sweep order.

    Each radius builds `riemann_exact`'s tensor, which raises where the
    curvature is not finite, and takes `class_count_minimum`, whose last
    count vector gives C_m at the distinguished coordinate frame; a
    fail-fast sweep stops after the first radius below the threshold.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0:
        raise ValueError("the radial grid is empty")
    threshold = lam * (1.0 - PASS_SLACK)
    order = sorted(range(len(r_grid)), key=lambda i: (abs(r_grid[i]), r_grid[i]))
    visited = []  # (r, value, counts, subset) in sweep order
    cmin, cmax = np.inf, -np.inf
    for i in order:
        r = float(r_grid[i])
        riemann_exact(metric, r)
        *minimum, cv = class_count_minimum(metric, _sectional_table(metric, r), r)
        visited.append((r, *minimum))
        cmin, cmax = min(cmin, cv), max(cmax, cv)
        if fail_fast and visited[-1][1] < threshold:
            break
    lowest = min(value for _, value, _, _ in visited)
    worst_r, worst_value, counts, subset = next(
        v for v in visited if v[1] <= lowest + TIE_TOL)
    return PositivityReport(
        passed=bool(lowest >= threshold), lam=float(lam),
        epsilon=metric.epsilon, r_max=float(np.max(np.abs(r_grid))),
        grid_points=len(r_grid), worst_r=worst_r, worst_value=worst_value,
        worst_frame=coordinate_frame(metric.n, subset), worst_counts=counts,
        coord_value_min=float(cmin), coord_value_max=float(cmax),
        complete=len(visited) == len(r_grid))
