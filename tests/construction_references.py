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
sectional class table.
"""
from __future__ import annotations

import numpy as np

from curvlab.constructions import solve_profile
from curvlab.curvature import WarpedTorusMetric, riemann_exact
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
    frame = coordinate_frame(metric.n, metric.coordinate_frame_indices())
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
