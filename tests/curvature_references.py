"""Curvature helpers that only the tests use, beside `curvlab.curvature`.

`constant_profile` is the constant warp factor, `laplacian_fd` the
Laplace-Beltrami operator of a chart function by the finite-difference
engine's stencils, and `constant_curvature_riemann` the space-form tensor.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from curvlab.curvature import (
    FD_STEP,
    CoordinateMetric,
    RadialProfile,
    RiemannData,
    _christoffel_at,
    _d1_stencil,
    kulkarni_nomizu,
)


def constant_profile(c: float = 1.0) -> RadialProfile:
    """The constant c > 0: log c with vanishing log-derivatives."""
    c = float(c)
    log_c = math.log(c)
    return RadialProfile(
        lambda r: np.full_like(np.asarray(r, dtype=float), log_c),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )


def laplacian_fd(metric: CoordinateMetric, fn: Callable[[np.ndarray], float],
                 x: Sequence[float]) -> float:
    """Laplace-Beltrami of a scalar chart function by central differences.

    Delta f = g^{ab} (d_a d_b f - Gamma^c_{ab} d_c f).
    """
    x = np.asarray(x, dtype=float)
    metric.require_inside(x, margin=4.5 * FD_STEP)
    dim = metric.dim
    ginv = np.linalg.inv(metric.g(x))
    gamma = _christoffel_at(metric, x, FD_STEP)

    grad = np.array([_d1_stencil(fn, x, a, FD_STEP) for a in range(dim)])
    hess = np.empty((dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = FD_STEP
        hess[a, a] = (-fn(x + 2 * e) + 16.0 * fn(x + e) - 30.0 * fn(x)
                      + 16.0 * fn(x - e) - fn(x - 2 * e)) / (12.0 * FD_STEP ** 2)
        for b in range(a + 1, dim):
            hess[a, b] = hess[b, a] = _d1_stencil(
                lambda y: _d1_stencil(fn, y, b, FD_STEP), x, a, FD_STEP)
    return float(np.einsum("ab,ab->", ginv, hess)
                 - np.einsum("ab,cab,c->", ginv, gamma, grad))


def constant_curvature_riemann(dim: int, k: float) -> RiemannData:
    """Space form of sectional curvature k: R = (k/2) * (g kn g)."""
    eye = np.eye(dim)
    return RiemannData.from_components(0.5 * k * kulkarni_nomizu(eye, eye))
