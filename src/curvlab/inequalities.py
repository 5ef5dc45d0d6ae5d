"""Exact-rational admissibility sweeps and the sharp matrix inequalities.

All (n, m)-indexed constants are computed with `fractions.Fraction`, so the
case checks below are genuine equalities and strict inequalities, not
tolerance tests.  The matrix functionals are rational quadratic forms:
their minima are exact, with a rational LDL^T certificate of positive
definiteness.  Floating point enters only in the float value and witness
of the minimal case; the float numerator that tests play against the exact
forms lives in `tests/float_minimizers.py`.

The second-fundamental-form functional uses hypersurface index labels
2..n, stored at 0-based positions 0..n-2 of a symmetric (n-1) x (n-1)
matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "DIMENSIONS",
    "AdmissibilityRecord",
    "DValue",
    "MatrixWitness",
    "admissible",
    "d_of",
    "check_d_third_expression",
    "check_recursion",
    "check_gamma_equivalence",
    "stability_coefficients",
    "chen_weight_mask",
    "chen_min_exact",
    "brendle_min_exact",
    "admissibility_sweep_rows",
    "d_table_rows",
]

DIMENSIONS = range(3, 8)  # the dimensions n of every sweep and table


# ---------------------------------------------------------------------------
# admissibility and the constant D(n, m)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityRecord:
    """Exact values of the two admissibility polynomials for a pair (n, m)."""

    n: int
    m: int
    ineq1: Fraction  # m^2 - mn + 2n - 2
    ineq2: Fraction  # m^2 - mn + m + n
    admissible: bool


@dataclass(frozen=True)
class DValue:
    """The three candidate rationals and their exact minimum.

    For m = 1 the first candidate m/(2m-2) is undefined and stored as None;
    it is treated as +infinity when taking the minimum.
    """

    n: int
    m: int
    candidates: tuple[Optional[Fraction], Fraction, Fraction]
    value: Fraction


def admissible(n: int, m: int) -> AdmissibilityRecord:
    """Evaluate both admissibility polynomials exactly."""
    if not (1 <= m < n):
        raise ValueError(f"require 1 <= m < n, got (n, m) = ({n}, {m})")
    ineq1 = Fraction(m * m - m * n + 2 * n - 2)
    ineq2 = Fraction(m * m - m * n + m + n)
    return AdmissibilityRecord(n, m, ineq1, ineq2, ineq1 > 0 and ineq2 > 0)


def d_of(n: int, m: int) -> DValue:
    """Exact minimum of the three candidate rationals defining D(n, m)."""
    rec = admissible(n, m)
    if not rec.admissible:
        raise ValueError(f"(n, m) = ({n}, {m}) is not admissible")
    first = Fraction(m, 2 * m - 2) if m > 1 else None
    second = Fraction(1, n - m)
    third = rec.ineq2 / (2 * rec.ineq1)
    pool = [c for c in (first, second, third) if c is not None]
    return DValue(n, m, (first, second, third), min(pool))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exact sweep with one row per checked case."""

    passed: bool
    rows: tuple[dict, ...]


def check_d_third_expression() -> SweepReport:
    """Check that D(n, m) equals its third candidate on every admissible pair, m >= 2."""
    rows = []
    ok = True
    for n in DIMENSIONS:
        for m in range(2, n):
            rec = admissible(n, m)
            if not rec.admissible:
                continue
            dv = d_of(n, m)
            third = dv.candidates[2]
            match = dv.value == third
            ok = ok and match
            rows.append({"n": n, "m": m, "D": dv.value, "third": third, "equal": match})
    return SweepReport(ok, tuple(rows))


def check_recursion(n: int, m: int) -> SweepReport:
    """Check D(n-l, m-l) >= (l-1)/(2l) for l = 0..m-2, exactly.

    l = 0 passes vacuously (the right-hand side is -infinity).  Intermediate
    pairs that leave the admissible set are recorded rather than raised.
    """
    rec = admissible(n, m)
    if not rec.admissible or m < 2:
        raise ValueError(f"(n, m) = ({n}, {m}) must be admissible with m >= 2")
    rows = []
    ok = True
    for ell in range(0, m - 1):
        if ell == 0:
            rows.append({"l": 0, "pair": (n, m), "bound": None, "D": d_of(n, m).value,
                         "holds": True, "note": "vacuous"})
            continue
        ni, mi = n - ell, m - ell
        bound = Fraction(ell - 1, 2 * ell)
        sub = admissible(ni, mi)
        if not sub.admissible:
            ok = False
            rows.append({"l": ell, "pair": (ni, mi), "bound": bound, "D": None,
                         "holds": False, "note": "intermediate pair not admissible"})
            continue
        dv = d_of(ni, mi).value
        holds = dv >= bound
        ok = ok and holds
        rows.append({"l": ell, "pair": (ni, mi), "bound": bound, "D": dv,
                     "holds": holds, "note": ""})
    return SweepReport(ok, tuple(rows))


def check_gamma_equivalence(n: int, m: int) -> bool:
    """Whether (2m-2)/m < 4/(n-m) and m^2 - mn + m + n > 0 agree as truth values."""
    if not (1 <= m < n):
        raise ValueError(f"require 1 <= m < n, got (n, m) = ({n}, {m})")
    lhs = Fraction(2 * m - 2, m) < Fraction(4, n - m)
    rhs = admissible(n, m).ineq2 > 0
    return lhs == rhs


def stability_coefficients(k: Fraction) -> tuple[Fraction, Fraction]:
    """Return (1 + k^2/(4 eps), 4/(4-k)) with eps = k - k^2/4, both exact.

    The two coefficients coincide for every rational k in (0, 4); the pair is
    returned so `scan-algebra` can check the identity rather than trust it.
    """
    k = Fraction(k)
    if not (0 < k < 4):
        raise ValueError("k must lie in (0, 4)")
    eps = k - k * k / 4
    return 1 + k * k / (4 * eps), Fraction(4, 1) / (4 - k)


def admissibility_sweep_rows() -> list[dict]:
    rows = []
    for n in DIMENSIONS:
        for m in range(1, n):
            rec = admissible(n, m)
            rows.append({"n": n, "m": m, "ineq1": rec.ineq1, "ineq2": rec.ineq2,
                         "admissible": rec.admissible})
    return rows


def d_table_rows() -> list[dict]:
    rows = []
    for n in DIMENSIONS:
        for m in range(1, n):
            if admissible(n, m).admissible:
                dv = d_of(n, m)
                rows.append({"n": n, "m": m, "candidates": dv.candidates, "D": dv.value})
    return rows


# ---------------------------------------------------------------------------
# the second-fundamental-form functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixWitness:
    """A symmetric matrix together with the functional value it achieves.

    `ratio` is the functional divided by H^2 on the trace slice (Chen case),
    or the numerator value on the traceless norm-1 slice (minimal case,
    where H = 0).  `pivots` are the LDL^T pivots of the numerator on
    traceless matrices: all of them are positive exactly when the form is
    positive definite there.
    """

    n: int
    m: int
    matrix: np.ndarray
    ratio: Fraction | float
    H: Fraction | float
    pivots: tuple[Fraction, ...] = ()


def chen_weight_mask(n: int, m: int) -> np.ndarray:
    """Boolean (n-1) x (n-1) mask of the weighted pairs.

    Entry (t, s) is True when the label pair (i, j) = (t+2, s+2) satisfies
    2 <= i <= m and i < j <= n.  Empty for m = 1.
    """
    p = n - 1
    mask = np.zeros((p, p), dtype=bool)
    for t in range(p):
        if t + 2 > m:
            break
        mask[t, t + 1:] = True
    return mask


# -- the numerator as an exact quadratic form --------------------------------
#
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


def _ldl(q: np.ndarray) -> tuple[np.ndarray, tuple[Fraction, ...]]:
    """Rational LDL^T of a symmetric Fraction matrix: (unit lower L, pivots).

    Raises ValueError unless q is positive semidefinite: a negative pivot,
    or a zero pivot with a nonzero entry below it, certifies a direction of
    negative value.  A zero pivot over a zero column leaves that column of
    L zero.
    """
    d = len(q)
    low = np.eye(d, dtype=np.int64).astype(object) * Fraction(1)
    piv = np.zeros(d, dtype=object)
    for j in range(d):
        col = q[j:, j] - (low[j:, :j] * piv[:j]) @ low[j, :j]
        piv[j] = col[0]
        if piv[j] < 0 or (piv[j] == 0 and col[1:].any()):
            raise ValueError(f"matrix is not positive semidefinite (pivot {j})")
        if piv[j]:
            low[j + 1:, j] = col[1:] / piv[j]
    return low, tuple(piv)


def _ldl_solve(low: np.ndarray, piv: tuple[Fraction, ...], rhs: np.ndarray) -> np.ndarray:
    """Solve L D L^T c = rhs for positive pivots."""
    d = len(piv)
    y = rhs.copy()
    for i in range(d):
        y[i] = rhs[i] - low[i, :i] @ y[:i]
    c = y / np.array(piv, dtype=object)
    for i in reversed(range(d)):
        c[i] -= low[i + 1:, i] @ c[i + 1:]
    return c


def chen_min_exact(n: int, m: int) -> MatrixWitness:
    """Exact minimum of the ratio, a Fraction, with its exact witness on H = 1.

    The LDL^T pivots of Q prove the numerator positive definite on
    traceless matrices, so the slice quadratic const + 2 b^T c + c^T Q c is
    strictly convex and its stationary point Q c = -b is the unique global
    minimizer; the minimum is const + b^T c.
    """
    rec = admissible(n, m)
    if not rec.admissible:
        raise ValueError(f"(n, m) = ({n}, {m}) is not admissible")
    p = n - 1
    q, b, const = _traceless_form(n, m)
    low, piv = _ldl(q)
    if min(piv) <= 0:
        raise ValueError(f"the ({n}, {m}) numerator is singular on traceless matrices")
    c = _ldl_solve(low, piv, -b)
    x = _traceless_basis(p) @ c + np.array([Fraction(int(i == j), p)
                                            for i, j in _coordinates(p)], dtype=object)
    return MatrixWitness(n, m, _symmetric_matrix(x, p), const + b @ c, Fraction(1), piv)


# ---------------------------------------------------------------------------
# the minimal-case functional on traceless norm-1 matrices
# ---------------------------------------------------------------------------

def brendle_min_exact(n: int, m: int) -> MatrixWitness:
    """Minimum of the numerator on {tr A = 0, |A|_F = 1}, certified exactly.

    The minimum is positive exactly when the traceless form Q of
    `chen_min_exact` is positive definite, which its LDL^T pivots decide
    in rational arithmetic.  The float value is the smallest eigenvalue of
    the pencil (Q, G), G the Frobenius Gram matrix of the basis, and the
    witness its eigenvector.
    """
    rec = admissible(n, m)
    if rec.ineq1 <= 0:
        raise ValueError(f"requires m^2 - mn + 2n - 2 > 0, got {rec.ineq1}")
    p = n - 1
    q = _traceless_form(n, m)[0]
    _, piv = _ldl(q)
    # with m = 1 the numerator is |A|_F^2, so its form is the Gram matrix
    gram = _traceless_form(n, 1)[0]
    inv = np.linalg.inv(np.linalg.cholesky(gram.astype(float)))
    w, vecs = np.linalg.eigh(inv @ q.astype(float) @ inv.T)
    mat = _symmetric_matrix(_traceless_basis(p) @ (inv.T @ vecs[:, 0]), p)
    return MatrixWitness(n, m, mat, float(w[0]), float(np.trace(mat)), piv)
