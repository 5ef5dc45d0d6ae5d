"""Diameter bounds and a graph-based estimator for rotational metrics.

Three bound formulas with different hypotheses and normalizations live
side by side and take plain values.  `c0_identity_check` ties them
together: the partial-curvature bound constant C0, the third candidate of
D(n, m), satisfies

    1/C0 = (d-1) + (d-3)^2 / (4/gamma - (d-1)),
    d = n - m + 1,  gamma = (2m-2)/m,

exactly in rational arithmetic, which is the slice-dimension form of the
gradient-estimate bound with Ricci-normalized lambda/(d-1).  Callers own
that normalization translation; nothing here rescales lambda silently.

`rotational_diameter` estimates the intrinsic diameter of
dr^2 + f(r)^2 g_round on interval x S^k by shortest paths on a chart graph:
the (r, polar angle) rectangle with window-3 primitive neighbor chords
measured by Simpson quadrature along straight chart segments.  Chord
lengths always dominate true distances, so pairwise graph distances are
upper estimates; grid sampling of the diametral pair is the only source of
underestimate, and the validation examples bound the net error by 2% at the
default resolution.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .inequalities import DIMENSIONS, admissible, d_of

__all__ = [
    "c0_of",
    "shen_ye_bound",
    "antonelli_xu_bound",
    "cm_diameter_bound",
    "c0_identity_check",
    "c0_identity_sweep",
    "rotational_diameter",
]

WINDOW = 3  # Chebyshev radius of the chord directions


def c0_of(n: int, m: int) -> Fraction:
    """Exact bound constant (m^2-mn+m+n)/(2(m^2-mn+2n-2)) for admissible pairs."""
    return d_of(n, m).candidates[2]


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def _check_common(d: int, gamma: Fraction | float, lam: float) -> None:
    if d < 3:
        raise ValueError(f"need dimension d >= 3, got {d}")
    if gamma < 0:
        raise ValueError(f"need gamma >= 0, got {gamma}")
    if not lam > 0:
        raise ValueError(f"need lambda > 0, got {lam}")


def shen_ye_bound(d: int, gamma: Fraction | float, lam: float) -> float:
    """Diameter bound sqrt(d-1 + (d-3)^2/(4/gamma - d + 1)) * pi/sqrt((d-1) lam).

    Validity: gamma < 4/(d-1) for d > 3; gamma <= 2 when d = 3, where the
    (d-3)^2 factor kills the correction term regardless of gamma, so the
    correction is defined as 0 there (and at gamma = 0).  `lam` uses this
    formula's own normalization.
    """
    _check_common(d, gamma, lam)
    if d == 3:
        if gamma > 2:
            raise ValueError(f"need gamma <= 2 at d = 3, got {gamma}")
        correction = 0.0
    else:
        if gamma >= Fraction(4, d - 1):
            raise ValueError(f"need gamma < 4/(d-1) = {Fraction(4, d - 1)} "
                             f"at d = {d}, got {gamma}")
        correction = 0.0 if gamma == 0 else (d - 3) ** 2 / (4.0 / float(gamma) - (d - 1))
    return math.sqrt((d - 1) + correction) * math.pi / math.sqrt((d - 1) * lam)


def antonelli_xu_bound(d: int, gamma: Fraction | float, lam: float, ratio: float) -> float:
    """Diameter bound pi/sqrt(lam) * ratio^(gamma (d-3)/(d-1)).

    `ratio` is the eigenfunction oscillation u_max/u_min.
    """
    _check_common(d, gamma, lam)
    if gamma > Fraction(d - 1, d - 2):
        raise ValueError(f"need gamma <= (d-1)/(d-2) = {Fraction(d - 1, d - 2)}, "
                         f"got {gamma}")
    if not ratio > 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    exponent = float(gamma) * (d - 3) / (d - 1)
    return math.pi / math.sqrt(lam) * ratio ** exponent


def cm_diameter_bound(n: int, m: int, lam: float) -> float:
    """Diameter bound pi/sqrt(lam C0(n, m)) under uniformly positive C_m."""
    if not lam > 0:
        raise ValueError(f"need lambda > 0, got {lam}")
    return math.pi / math.sqrt(lam * float(c0_of(n, m)))


# ---------------------------------------------------------------------------
# the identity tying the constants together
# ---------------------------------------------------------------------------

def c0_identity_check(n: int, m: int) -> dict:
    """Exact check that 1/C0 matches the slice-dimension gradient bound.

    Uses d = n-m+1 and gamma = (2m-2)/m; every quantity is a Fraction and
    the comparison is exact equality, no tolerance.
    """
    if m < 2:
        raise ValueError("the identity needs m >= 2 (gamma would vanish)")
    c0 = c0_of(n, m)
    d = n - m + 1
    gamma = Fraction(2 * m - 2, m)
    lhs = 1 / c0
    rhs = (d - 1) + Fraction((d - 3) ** 2) / (Fraction(4) / gamma - (d - 1))
    return {
        "n": n, "m": m, "d": d,
        "gamma": gamma, "c0": c0,
        "lhs": lhs, "rhs": rhs,
        "equal": lhs == rhs,
    }


def c0_identity_sweep() -> list[dict]:
    """Identity reports for every admissible pair with m >= 2 and n in DIMENSIONS."""
    rows = []
    for n in DIMENSIONS:
        for m in range(2, n):
            if admissible(n, m).admissible:
                rows.append(c0_identity_check(n, m))
    return rows


# ---------------------------------------------------------------------------
# rotational diameter estimation
# ---------------------------------------------------------------------------

def _window_offsets() -> list[tuple[int, int]]:
    """Primitive half-plane chord directions within the Chebyshev window WINDOW."""
    offsets = []
    for di in range(WINDOW + 1):
        for dj in range(-WINDOW, WINDOW + 1):
            if (di, dj) == (0, 0) or (di == 0 and dj < 0):
                continue
            if math.gcd(di, abs(dj)) == 1:
                offsets.append((di, dj))
    return offsets


def rotational_diameter(f, interval: tuple[float, float], n_fiber: int,
                        n_r: int = 96, n_theta: int = 96) -> float:
    """Intrinsic diameter estimate for dr^2 + f(r)^2 (round S^n_fiber).

    The fiber only enters through its diameter pi, so the computation runs
    on the (r, theta) rectangle with theta in [0, pi]; rotational symmetry
    lets shortest paths start from the theta = 0 column only.  Chords are
    straight chart segments with 5-point Simpson lengths, so every graph
    distance is an admissible-path length and hence an upper estimate of
    the true distance; where f vanishes at an interval end the angular
    chords degenerate to zero length and the boundary circle collapses to
    a point on its own.
    """
    lo, hi = (float(interval[0]), float(interval[1]))
    if not hi > lo:
        raise ValueError("interval must be nondegenerate")
    if n_fiber < 1:
        raise ValueError("fiber sphere dimension must be at least 1")
    if n_r < 2 or n_theta < 2:
        raise ValueError("need at least a 2 x 2 grid")

    r = np.linspace(lo, hi, n_r)
    f_nodes = np.broadcast_to(np.asarray(f(r), dtype=float), r.shape)
    if np.any(f_nodes[1:-1] <= 0) or np.any(f_nodes < -1e-12):
        raise ValueError("warp factor must be positive on the open interval")

    hr = (hi - lo) / (n_r - 1)
    ht = math.pi / (n_theta - 1)
    n_nodes = n_r * n_theta
    simpson_w = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
    t_samples = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    rows, cols, lengths = [], [], []
    for di, dj in _window_offsets():
        ii = np.arange(0, n_r - di)
        jj = np.arange(0, n_theta - dj) if dj >= 0 else np.arange(-dj, n_theta)
        if len(ii) == 0 or len(jj) == 0:
            continue
        # f along the chord, sampled at 5 points of the straight segment
        r_start = r[ii][:, None]
        r_path = r_start + t_samples[None, :] * (di * hr)  # (len(ii), 5)
        f_path = np.broadcast_to(np.asarray(f(r_path), dtype=float), r_path.shape)
        dtheta = dj * ht
        integrand = np.sqrt((di * hr) ** 2 + f_path ** 2 * dtheta ** 2)
        chord = integrand @ simpson_w  # (len(ii),), same for every j
        a = (ii[:, None] * n_theta + jj[None, :]).ravel()
        b = ((ii[:, None] + di) * n_theta + (jj[None, :] + dj)).ravel()
        rows.append(a)
        cols.append(b)
        lengths.append(np.repeat(chord, len(jj)))

    graph = csr_matrix(
        (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes))
    sources = np.arange(n_r) * n_theta
    dist = dijkstra(graph, directed=False, indices=sources)
    finite = dist[np.isfinite(dist)]
    if finite.size == 0:
        raise RuntimeError("distance graph is disconnected")
    return float(np.max(finite))
