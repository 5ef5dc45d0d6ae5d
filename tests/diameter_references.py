"""The shortest-path route that `curvlab.diameter` once used, kept as a cross-check.

`dijkstra_diameter` builds the same chart graph as `rotational_diameter`
(the window offsets, 5-point Simpson chord lengths and `f` calls are the
same expressions) and hands it to scipy's Dijkstra from every theta = 0
node.  It shares no shortest-path arithmetic with the library's column
sweep, so bit equality of the two diameters checks the sweep's fixed point.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from curvlab.diameter import _window_offsets


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
    """Largest finite distance from the theta = 0 column, as the library once returned."""
    dist = dijkstra_distances(f, interval, n_r, n_theta)
    finite = dist[np.isfinite(dist)]
    if finite.size == 0:
        raise RuntimeError("distance graph is disconnected")
    return float(np.max(finite))
