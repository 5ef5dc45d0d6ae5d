"""Curvature helpers that only the tests use, beside `curvlab.curvature`.

`constant_profile` is the constant warp factor, `laplacian_fd` the
Laplace-Beltrami operator of a chart function by the finite-difference
engine's stencils, `constant_curvature_riemann` the space-form tensor and
`fubini_study_riemann` the curvature of complex projective space, whose
minimum C_m `complex_projective_minimum` gives in closed form.
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


def fubini_study_riemann(dim: int) -> RiemannData:
    """Complex projective space of holomorphic sectional curvature 4, real dimension dim.

    With J the complex structure that pairs e_2k with e_2k+1,
    Rm(X, Y, Z, W) = (1/2)(g kn g) + <X, JZ><Y, JW> - <X, JW><Y, JZ> + 2 <X, JY><Z, JW>,
    so a plane has sectional curvature 1 + 3 <X, JY>^2 for orthonormal X, Y.
    """
    if dim % 2:
        raise ValueError(f"complex projective space has even real dimension, got {dim}")
    eye = np.eye(dim)
    j = np.zeros((dim, dim))
    j[1::2, ::2] = j[::2, 1::2] = np.eye(dim // 2)
    j[::2, 1::2] *= -1.0
    return RiemannData.from_components(
        0.5 * kulkarni_nomizu(eye, eye) + 0.5 * kulkarni_nomizu(j, j)
        + 2.0 * np.einsum("ab,cd->abcd", j, j))


def complex_projective_minimum(d: int, m: int) -> int:
    """min C_m on CP^d of holomorphic sectional curvature 4: 2m(d + 1) - C(m, 2) - 3 floor(m/2).

    Ric = 2(d + 1), so C_m(V) = 2m(d + 1) less the pair sum of the m-plane V,
    which is C(m, 2) + (3/2) |P_V J P_V|^2_F by the sectional curvature
    1 + 3 <X, JY>^2.  P_V J P_V is skew with operator norm at most 1, so its
    squared norm is at most 2 floor(m/2), with equality on a complex
    subspace plus at most a line, such as a coordinate subspace of
    `fubini_study_riemann(2d)`.
    """
    if not 1 <= m <= 2 * d:
        raise ValueError(f"require 1 <= m <= {2 * d}, got m = {m}")
    return 2 * m * (d + 1) - math.comb(m, 2) - 3 * (m // 2)
