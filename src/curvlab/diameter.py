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

The shortest paths come from a label-correcting sweep over the polar-angle
columns (Bellman 1958) rather than Dijkstra's algorithm.  The metric is
rotational, so by Clairaut's relation a minimizing geodesic from the
theta = 0 meridian never turns back in theta, and one ascending sweep
usually settles every distance.  A vectorized check that no chord, in
either direction, shortens any label certifies the result; while it fails,
the sweep repeats in the opposite order.  Each label is the left-to-right
float sum along some path and float addition is monotone, so the certified
labels are the least such sums over all paths, which is exactly what
Dijkstra's algorithm returns: the diameters are the same bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
CHECK_BLOCK = 4  # theta columns per slab of the distance certificate


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


def _chords(f, r: np.ndarray, hr: float, n_theta: int) -> list[tuple[int, int, np.ndarray]]:
    """(di, dj, lengths) for every window offset that fits the grid.

    lengths[i] is the 5-point Simpson length of the straight chart segment
    from node (i, j) to node (i + di, j + dj), the same for every column j.
    Raises ValueError when f is not finite at a Simpson point or a length
    is not finite.
    """
    n_r, ht = len(r), math.pi / (n_theta - 1)
    simpson_w = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
    t_samples = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    chords = []
    for di, dj in _window_offsets():
        if di >= n_r or abs(dj) >= n_theta:
            continue
        # f along the chord, sampled at 5 points of the straight segment
        r_path = r[:n_r - di][:, None] + t_samples[None, :] * (di * hr)
        f_path = np.broadcast_to(np.asarray(f(r_path), dtype=float), r_path.shape)
        if not np.all(np.isfinite(f_path)):
            raise ValueError(f"warp factor is not finite along the ({di}, {dj}) chords")
        dtheta = dj * ht
        with np.errstate(over="ignore"):
            try:
                integrand = np.sqrt((di * hr) ** 2 + f_path ** 2 * dtheta ** 2)
            except OverflowError:  # (di * hr) ** 2 is a Python float
                integrand = np.full(r_path.shape, math.inf)
            chord = integrand @ simpson_w
        if not np.all(np.isfinite(chord)):
            raise ValueError(f"the ({di}, {dj}) chord lengths are not finite")
        chords.append((di, dj, chord))
    return chords


def _sweep(dist: np.ndarray, chords, columns, reached: np.ndarray) -> None:
    """Relax every column in the given order: pull from its neighbors, then scan it.

    A column pulls along every chord from the columns up to WINDOW away on
    either side that some earlier step has reached, then scans its own
    (1, 0) chords upward and downward.  Every label stays the
    left-to-right float sum of some path from its source.
    """
    n_theta, n_r = dist.shape[:2]
    pulls, w_up = [], None
    for di, dj, w in chords:
        if dj == 0:
            w_up = w.tolist()
            continue
        w = w[:, None]
        # into (i + di, j) from (i, j - dj), and into (i, j) from (i + di, j + dj)
        pulls.append((-dj, slice(di, None), slice(0, n_r - di), w))
        pulls.append((dj, slice(0, n_r - di), slice(di, None), w))
    for j in columns:
        col = dist[j]
        for shift, rows_to, rows_from, w in pulls:
            c = j + shift
            if 0 <= c < n_theta and reached[c]:
                target = col[rows_to]
                np.minimum(target, dist[c, rows_from] + w, out=target)
        rows = list(col)
        for ordered, lengths in ((rows, w_up), (rows[::-1], w_up[::-1])):
            below = ordered[0]
            for row, w in zip(ordered[1:], lengths):
                np.minimum(row, below + w, out=row)
                below = row
        reached[j] = True


def _certified(dist: np.ndarray, chords) -> bool:
    """True iff no chord shortens a label: dist[v] <= dist[u] + w both ways.

    Zero-length chords count as edges.  Runs over slabs of CHECK_BLOCK
    columns, each small enough to stay in cache.
    """
    n_theta, n_r = dist.shape[:2]
    for di, dj, w in chords:
        w = w[None, :, None]
        first, stop = max(0, -dj), n_theta - max(0, dj)
        for c in range(first, stop, CHECK_BLOCK):
            end = min(c + CHECK_BLOCK, stop)
            a = dist[c:end, :n_r - di]
            b = dist[c + dj:end + dj, di:]
            if np.any(b > a + w) or np.any(a > b + w):
                return False
    return True


def _distances(chords, n_r: int, n_theta: int) -> np.ndarray:
    """Certified distances dist[j, i, s] from node (s, 0) to node (i, j)."""
    dist = np.full((n_theta, n_r, n_r), np.inf)
    dist[0, np.arange(n_r), np.arange(n_r)] = 0.0
    columns, reached = range(n_theta), np.zeros(n_theta, dtype=bool)
    while True:
        _sweep(dist, chords, columns, reached)
        if _certified(dist, chords):
            return dist
        columns = columns[::-1]


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

    Distances from every theta = 0 node come from sweeps over the theta
    columns of one array dist[j, i, s] (column, row, source row): each
    column pulls along its chords from the columns on either side, then
    scans its own radial chords up and down.  A check over every chord in
    both directions, zero-length polar chords included, certifies the
    labels; while it fails, the sweep runs again in the opposite order.
    Certified labels are the least left-to-right float path sums, the
    distances Dijkstra's algorithm gives (see the module docstring).

    Raises ValueError when the interval ends or its length, f at the grid
    nodes or the Simpson points, or a chord length are not finite.
    """
    lo, hi = (float(interval[0]), float(interval[1]))
    if not math.isfinite(hi - lo):
        raise ValueError(f"interval ends and length must be finite, got ({lo}, {hi})")
    if not hi > lo:
        raise ValueError("interval must be nondegenerate")
    if n_fiber < 1:
        raise ValueError("fiber sphere dimension must be at least 1")
    if n_r < 2 or n_theta < 2:
        raise ValueError("need at least a 2 x 2 grid")

    r = np.linspace(lo, hi, n_r)
    f_nodes = np.broadcast_to(np.asarray(f(r), dtype=float), r.shape)
    if not np.all(np.isfinite(f_nodes)):
        raise ValueError("warp factor is not finite at the grid nodes")
    if np.any(f_nodes[1:-1] <= 0) or np.any(f_nodes < -1e-12):
        raise ValueError("warp factor must be positive on the open interval")

    chords = _chords(f, r, (hi - lo) / (n_r - 1), n_theta)
    # every node is reachable along the radial and angular chords
    return float(np.max(_distances(chords, n_r, n_theta)))
