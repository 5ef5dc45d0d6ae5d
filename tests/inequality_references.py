"""The numerator on full upper-triangle coordinates, the reference for the reduced form.

`curvlab.inequalities` works on the diagonal block alone, because each
off-diagonal entry enters the numerator only as its own square.  This
module keeps the route that does not use that: the integer Hessian over all
T = p(p+1)/2 upper-triangle coordinates of a symmetric p x p matrix, its
(T-1)-dimensional traceless form, and the two minima taken on that form.
Tests play these against `chen_min_exact` and `brendle_min_exact`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from curvlab.inequalities import _ldl, _ldl_solve, chen_weight_mask

# A symmetric p x p matrix A has upper-triangle coordinates x = (a_ij), i <= j.


def _coordinates(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p) for j in range(i, p)]


def _numerator_hessian(n: int, m: int) -> np.ndarray:
    """Integer matrix M with numerator(A) = x^T M x / 2.

    The numerator is |A|_F^2 plus, over the pairs of `chen_weight_mask`,
    a_ii a_jj - a_ij^2.
    """
    p = n - 1
    coords = _coordinates(p)
    index = {c: k for k, c in enumerate(coords)}
    mask = chen_weight_mask(n, m)
    # |A|_F^2 counts a_ij^2 twice off the diagonal; a masked pair removes one
    hess = np.diag([2 if i == j else 4 - 2 * int(mask[i, j]) for i, j in coords])
    for i, j in zip(*np.nonzero(mask)):
        hess[index[i, i], index[j, j]] = hess[index[j, j], index[i, i]] = 1
    return hess


def _traceless_basis(p: int) -> np.ndarray:
    """Coordinates (columns) of E_kk - E_(p-1)(p-1), k < p-1, then E_ij + E_ji, i < j."""
    coords = _coordinates(p)
    index = {c: k for k, c in enumerate(coords)}
    basis = np.zeros((len(coords), len(coords) - 1), dtype=np.int64)
    for k in range(p - 1):
        basis[index[k, k], k] = 1
        basis[index[p - 1, p - 1], k] = -1
    off_diagonal = [c for c in coords if c[0] < c[1]]
    for col, c in enumerate(off_diagonal, start=p - 1):
        basis[index[c], col] = 1
    return basis


def _symmetric_matrix(x, p: int) -> np.ndarray:
    """The symmetric matrix with upper-triangle coordinates x (any dtype)."""
    mat = np.empty((p, p), dtype=np.asarray(x).dtype)
    for (i, j), v in zip(_coordinates(p), x):
        mat[i, j] = mat[j, i] = v
    return mat


def _traceless_form(n: int, m: int):
    """The numerator on the H = 1 slice as exact (Q, b, const).

    On A = I/p + sum_k c_k B_k over the traceless basis B the numerator is
    const + 2 b^T c + c^T Q c; Q is the numerator's own form on traceless
    matrices.  Every entry is a Fraction.
    """
    p = n - 1
    hess = _numerator_hessian(n, m)
    basis = _traceless_basis(p)
    eye = np.array([int(i == j) for i, j in _coordinates(p)])  # p times I/p
    q = (basis.T @ hess @ basis).astype(object) * Fraction(1, 2)
    b = (basis.T @ hess @ eye).astype(object) * Fraction(1, 2 * p)
    const = int(eye @ hess @ eye) * Fraction(1, 2 * p * p)
    return q, b, const


def chen_min_reference(n: int, m: int) -> tuple[Fraction, np.ndarray]:
    """The exact Chen minimum and its witness, solved on the full traceless form."""
    p = n - 1
    q, b, const = _traceless_form(n, m)
    low, piv = _ldl(q)
    c = _ldl_solve(low, piv, -b)
    x = _traceless_basis(p) @ c + np.array([Fraction(int(i == j), p)
                                            for i, j in _coordinates(p)], dtype=object)
    return const + b @ c, _symmetric_matrix(x, p)


def brendle_min_reference(n: int, m: int) -> float:
    """Smallest eigenvalue of the full traceless pencil (Q, G), G the Frobenius Gram matrix.

    With m = 1 the numerator is |A|_F^2, so its form is the Gram matrix.
    """
    q, gram = _traceless_form(n, m)[0], _traceless_form(n, 1)[0]
    inv = np.linalg.inv(np.linalg.cholesky(gram.astype(float)))
    return float(np.linalg.eigvalsh(inv @ q.astype(float) @ inv.T)[0])
