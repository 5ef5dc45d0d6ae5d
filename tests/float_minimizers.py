"""Float cross-checks for the exact matrix minima in `curvlab.inequalities`.

Two multi-start descents with backtracking: `chen_min_ratio` on the H = 1
slice and `brendle_min` (a Rayleigh-quotient descent) on the traceless
norm-1 slice.  Both work in a Frobenius-orthonormal traceless basis
(Helmert vectors on the diagonal) and read the numerator only through the
float `chen_numerator` defined here, so they share no code with the exact
rational route they are played against.  `chen_functional` is that
numerator divided by H^2.
"""
from __future__ import annotations

import numpy as np

from curvlab.inequalities import (
    MatrixWitness,
    admissible,
    chen_weight_mask,
)


def chen_numerator(a: np.ndarray, mask: np.ndarray) -> float:
    """|A|_F^2 + sum over masked pairs of (a_ii a_jj - a_ij^2)."""
    diag = np.diag(a)
    pair_term = float(np.sum(mask * (np.outer(diag, diag) - a * a)))
    return float(np.sum(a * a)) + pair_term


def chen_functional(a: np.ndarray, n: int, m: int) -> float:
    """The ratio (numerator)/H^2; homogeneous of degree zero."""
    h = float(np.trace(a))
    if abs(h) < 1e-300:
        raise ValueError("trace must be nonzero for the ratio")
    return chen_numerator(a, chen_weight_mask(n, m)) / (h * h)


def _traceless_basis(p: int) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of traceless symmetric p x p matrices."""
    basis = []
    # Helmert vectors span the diagonal trace-zero subspace
    for k in range(1, p):
        v = np.zeros(p)
        v[:k] = 1.0
        v[k] = -k
        v /= np.sqrt(k * (k + 1))
        basis.append(np.diag(v))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(p):
        for j in range(i + 1, p):
            e = np.zeros((p, p))
            e[i, j] = e[j, i] = inv_sqrt2
            basis.append(e)
    return basis


def _quadratic_in_basis(n: int, m: int, basis: list[np.ndarray],
                        shift: np.ndarray | None = None):
    """Represent the numerator as c^T Q c + 2 b^T c + const over a matrix basis.

    The numerator is a homogeneous quadratic form in the matrix, so on the
    affine family shift + sum_k c_k basis_k it is exactly quadratic in c.
    """
    mask = chen_weight_mask(n, m)
    d = len(basis)
    if shift is None:
        shift = np.zeros_like(basis[0])

    def q(mat):
        return chen_numerator(mat, mask)

    const = q(shift)
    qe = np.array([q(e) for e in basis])
    b = np.empty(d)
    for k, e in enumerate(basis):
        b[k] = 0.5 * (q(shift + e) - const - qe[k])
    qmat = np.empty((d, d))
    for i in range(d):
        qmat[i, i] = qe[i]
        for j in range(i + 1, d):
            cross = 0.5 * (q(basis[i] + basis[j]) - qe[i] - qe[j])
            qmat[i, j] = qmat[j, i] = cross
    return qmat, b, const



def chen_min_ratio(n: int, m: int, budget: int = 64, seed: int = 0) -> MatrixWitness:
    """Multi-start projected gradient descent for the ratio on the H = 1 slice.

    `budget` counts random starts.  Coordinates live in a Frobenius-orthonormal
    traceless basis, so the trace constraint is built into the parameterization
    and plain descent with backtracking applies.
    """
    rec = admissible(n, m)
    if not rec.admissible:
        raise ValueError(f"(n, m) = ({n}, {m}) is not admissible")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    p = n - 1
    shift = np.eye(p) / p
    basis = _traceless_basis(p)
    qmat, b, const = _quadratic_in_basis(n, m, basis, shift)

    def value(c):
        return const + 2.0 * b @ c + c @ qmat @ c

    def grad(c):
        return 2.0 * (b + qmat @ c)

    rng = np.random.Generator(np.random.PCG64(seed))
    d = len(basis)
    starts = [np.zeros(d)] + [rng.standard_normal(d) for _ in range(budget - 1)]
    best_c, best_v = None, np.inf
    for c in starts:
        c = c.copy()
        v = value(c)
        for _ in range(500):
            g = grad(c)
            gn = float(np.linalg.norm(g))
            if gn < 1e-14:
                break
            step = 1.0 / (1.0 + gn)
            moved = False
            for _ in range(60):
                cand = c - step * g
                vc = value(cand)
                if vc < v - 1e-4 * step * gn * gn:
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
            if float(np.linalg.norm(cand - c)) < 1e-12:
                c, v = cand, vc
                break
            c, v = cand, vc
        if v < best_v:
            best_v, best_c = v, c
    mat = shift + sum(ck * e for ck, e in zip(best_c, basis))
    return MatrixWitness(n, m, mat, float(best_v), float(np.trace(mat)))


def _brendle_form_matrix(n: int, m: int) -> np.ndarray:
    """Matrix of the numerator quadratic form on the traceless orthonormal basis."""
    basis = _traceless_basis(n - 1)
    qmat, b, const = _quadratic_in_basis(n, m, basis)
    assert abs(const) < 1e-15 and float(np.linalg.norm(b)) < 1e-15
    return qmat



def brendle_min(n: int, m: int, budget: int = 64, seed: int = 0) -> MatrixWitness:
    """Multi-start projected descent on the traceless norm-1 slice.

    Rayleigh-quotient minimization with renormalization after every step;
    validated against `brendle_min_exact` in tests.
    """
    rec = admissible(n, m)
    if rec.ineq1 <= 0:
        raise ValueError(f"requires m^2 - mn + 2n - 2 > 0, got {rec.ineq1}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    qmat = _brendle_form_matrix(n, m)
    d = qmat.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))

    def value(c):
        return float(c @ qmat @ c)

    best_c, best_v = None, np.inf
    for s in range(budget):
        c = rng.standard_normal(d)
        c /= np.linalg.norm(c)
        v = value(c)
        for _ in range(500):
            g = 2.0 * (qmat @ c) - 2.0 * v * c  # sphere-tangent gradient
            gn = float(np.linalg.norm(g))
            if gn < 1e-13:
                break
            step = 1.0 / (1.0 + gn)
            moved = False
            for _ in range(60):
                cand = c - step * g
                cand /= np.linalg.norm(cand)
                vc = value(cand)
                if vc < v - 1e-6 * step * gn * gn:
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
            delta = float(np.linalg.norm(cand - c))
            c, v = cand, vc
            if delta < 1e-12:
                break
        if v < best_v:
            best_v, best_c = v, c
    basis = _traceless_basis(n - 1)
    mat = sum(ck * e for ck, e in zip(best_c, basis))
    return MatrixWitness(n, m, mat, float(best_v), float(np.trace(mat)))
