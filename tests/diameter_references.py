"""The chart-graph diameter estimator and the Dijkstra route it is checked against.

`curvlab.diameter` gives the m = n-2 model's diameter pi rho in closed
form; the two numerical routes here estimate it, and other rotational
diameters, as cross-checks.

`rotational_diameter` estimates the intrinsic diameter of
dr^2 + f(r)^2 g_round on interval x S^k by shortest paths on a chart graph:
the (r, polar angle) rectangle with window-3 primitive neighbor chords
measured by Simpson quadrature along straight chart segments.  Chord
lengths always dominate true distances, so pairwise graph distances are
upper estimates; grid sampling of the diametral pair is the only source of
underestimate, and the validation examples bound the net error by 2% at the
default resolution.

Its shortest paths come from a label-correcting sweep over the polar-angle
columns (Bellman 1958) rather than Dijkstra's algorithm.  The metric is
rotational, so by Clairaut's relation a minimizing geodesic from the
theta = 0 meridian never turns back in theta, and one ascending sweep
usually settles every distance.  A vectorized check that no chord, in
either direction, shortens any label certifies the result; while it fails,
the sweep repeats in the opposite order.  Each label is the left-to-right
float sum along some path and float addition is monotone, so the certified
labels are the least such sums over all paths, which is exactly what
Dijkstra's algorithm returns: the diameters are the same bit for bit.

`dijkstra_diameter` builds the same chart graph (the window offsets,
5-point Simpson chord lengths and `f` calls are the same expressions) and
hands it to scipy's Dijkstra from every theta = 0 node.  It shares no
shortest-path arithmetic with the column sweep, so bit equality of the two
diameters checks the sweep's fixed point.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

WINDOW = 3  # Chebyshev radius of the chord directions
CHECK_BLOCK = 4  # theta columns per slab of the distance certificate


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
            # np.square, not a float **, which would raise on overflow
            integrand = np.sqrt(np.square(di * hr) + f_path ** 2 * dtheta ** 2)
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


def chart_graph(f, interval: tuple[float, float], n_r: int, n_theta: int):
    """The undirected chord graph as a CSR matrix over nodes i * n_theta + j."""
    lo, hi = (float(interval[0]), float(interval[1]))
    r = np.linspace(lo, hi, n_r)
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
        r_start = r[ii][:, None]
        r_path = r_start + t_samples[None, :] * (di * hr)
        f_path = np.broadcast_to(np.asarray(f(r_path), dtype=float), r_path.shape)
        dtheta = dj * ht
        integrand = np.sqrt((di * hr) ** 2 + f_path ** 2 * dtheta ** 2)
        chord = integrand @ simpson_w
        a = (ii[:, None] * n_theta + jj[None, :]).ravel()
        b = ((ii[:, None] + di) * n_theta + (jj[None, :] + dj)).ravel()
        rows.append(a)
        cols.append(b)
        lengths.append(np.repeat(chord, len(jj)))

    return csr_matrix(
        (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes))


def dijkstra_distances(f, interval: tuple[float, float], n_r: int,
                       n_theta: int) -> np.ndarray:
    """Distances (n_r sources, n_r * n_theta nodes) from the theta = 0 column."""
    graph = chart_graph(f, interval, n_r, n_theta)
    return dijkstra(graph, directed=False, indices=np.arange(n_r) * n_theta)


def dijkstra_diameter(f, interval: tuple[float, float], n_r: int = 96,
                      n_theta: int = 96) -> float:
    """Largest finite distance from the theta = 0 column."""
    dist = dijkstra_distances(f, interval, n_r, n_theta)
    finite = dist[np.isfinite(dist)]
    if finite.size == 0:
        raise RuntimeError("distance graph is disconnected")
    return float(np.max(finite))
