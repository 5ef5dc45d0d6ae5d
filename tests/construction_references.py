"""Construction identities that the tests check `curvlab.constructions` against.

`metric_from_json` rebuilds a metric from `counterexample_json` output,
`coordinate_cm_value` is C_m at the distinguished coordinate frame, and
`radial_laplacian` with `lift_laplacian_split` are the closed forms of the
Laplacian of the torus profile u and of its split over the last circle
lift.  The split is not reported by the CLI: its two parts sum to the full
Laplacian by 2(m-2)/m + 2/m = 2(m-1)/m, so the check that carries weight
is `radial_laplacian` against the finite-difference `laplacian_fd`.
"""
from __future__ import annotations

import numpy as np

from curvlab.constructions import solve_profile
from curvlab.curvature import WarpedTorusMetric, riemann_exact
from curvlab.frames import cm_of_frame, coordinate_frame


def metric_from_json(data: dict) -> WarpedTorusMetric:
    """Rebuild a metric from its chart description.

    Only profile cases produced by `solve_profile` are accepted; the stored
    parameters are recomputed from (n, m, lambda) and must match.
    """
    case = data["profile"]["case"]
    if case not in ("equality", "strict"):
        raise ValueError(f"cannot rebuild profiles of case {case!r}")
    n, m = int(data["n"]), int(data["m"])
    sol = solve_profile(n, m, float(data["profile"]["lambda"]))
    if sol.case != case or sol.params != data["profile"]["params"]:
        raise ValueError("stored profile parameters disagree with (n, m, lambda)")
    lo, hi = (float(v) for v in data["r_domain"])
    return WarpedTorusMetric(n, m, float(data["epsilon"]), sol.f, sol.u, (lo, hi))


def coordinate_cm_value(metric: WarpedTorusMetric, r: float) -> float:
    """C_m at the distinguished frame (radial direction plus torus directions)."""
    frame = coordinate_frame(metric.n, metric.coordinate_frame_indices())
    return cm_of_frame(riemann_exact(metric, r), frame)


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
