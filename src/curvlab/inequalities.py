"""Exact-rational admissibility sweeps and the sharp matrix inequalities.

All (n, m)-indexed constants are computed with `fractions.Fraction`, so the
case checks below are genuine equalities and strict inequalities, not
tolerance tests.

The matrix functionals share one numerator, a rational quadratic form in
a symmetric p x p matrix A, p = n-1.  Each off-diagonal entry a_ij enters
it only as its own square, with weight 2 - mask_ij (1 or 2), so the whole
problem is a p x p form on the diagonal: on traceless matrices, a
(p-1) x (p-1) block, and the off-diagonal weights.  The minima are exact:
twice the block is an integer matrix, and one fraction-free elimination
of it in Python integers (`_bareiss`) certifies positive definiteness
through its leading minors and solves for the minimizer, so a `Fraction`
is built only for each output.  Both minimizers are diagonal.  Floating
point enters only in the float value and witness of the minimal case.
The rational LDL^T on `Fraction` arrays and the form on full
upper-triangle coordinates live in `tests/inequality_references.py`, and
the float numerator that tests play against the exact forms in
`tests/float_minimizers.py`.

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
    traceless matrices, the diagonal block's followed by the off-diagonal
    weights: all of them are positive exactly when the form is positive
    definite there.
    """

    n: int
    m: int
    matrix: np.ndarray
    ratio: Fraction | float
    pivots: tuple[Fraction, ...] = ()


# -- the numerator as an exact quadratic form --------------------------------
#
# On traceless matrices the form is block diagonal: a (p-1) x (p-1) block on
# the diagonal and one weight per off-diagonal entry.  So its LDL^T pivots
# are the block's pivots followed by the weights.

def _traceless_block(n: int, m: int) -> tuple[list[list[int]], list[int], tuple[Fraction, ...]]:
    """The numerator in integers: the block D^T (2M) D, the row sums of 2M, the weights.

    On a symmetric A with diagonal d the numerator is
    d^T M d + sum_(i<j) weights_ij a_ij^2, weights in row-major order.
    2M = 2I + mask + mask^T is an integer matrix: off the diagonal,
    (2M)_ij = 1 exactly when the pair is masked, min(i, j) + 2 <= m.  The
    integer columns D_k = e_k - e_(p-1), k < p-1, span the traceless
    diagonals, and D^T (2M) D is twice the form there.  For n = 2 the
    diagonal is 1 x 1 and has no traceless direction, so n < 3 is rejected.
    """
    if n < 3:
        raise ValueError(f"the exact minimum needs dimension n >= 3 for a traceless "
                         f"direction, got n = {n}")
    p = n - 1
    two_m = [[2 if i == j else int(min(i, j) + 2 <= m) for j in range(p)] for i in range(p)]
    last = two_m[-1]
    block = [[row[j] - row[-1] - last[j] + last[-1] for j in range(p - 1)]
             for row in two_m[:-1]]
    one, two = Fraction(1), Fraction(2)
    weights = tuple(one if i + 2 <= m else two for i in range(p) for _ in range(i + 1, p))
    return block, [sum(row) for row in two_m], weights


def _bareiss(a: list[list[int]], rhs: list[int] | None = None
             ) -> tuple[list[int], list[int] | None]:
    """Fraction-free elimination of a symmetric integer matrix, without pivoting.

    Returns the leading minors delta_k of a, read from its upper triangle,
    and, when rhs is given and a is nonsingular, the integer vector
    det(a) a^-1 rhs (else None).  delta_k / delta_(k-1) is the k-th LDL^T
    pivot.  Each step divides by the previous minor, and Sylvester's
    identity makes every division exact (E. H. Bareiss, Math. Comp. 22,
    1968), so all arithmetic stays in Python integers, which cannot
    overflow.

    Raises ValueError unless a is positive semidefinite: a negative pivot,
    or a zero pivot with a nonzero entry below it, certifies a direction of
    negative value.  A zero pivot over a zero column is reported as 0 and
    its step is skipped with the divisor unchanged, so later minors are
    taken over the indices kept.
    """
    d = len(a)
    rows = [list(row) for row in a]
    b = None if rhs is None else list(rhs)
    minors = []
    prev = 1
    for k in range(d):
        top = rows[k]
        pivot = top[k]
        if pivot < 0 or (pivot == 0 and any(top[k + 1:])):
            raise ValueError(f"matrix is not positive semidefinite (pivot {k})")
        minors.append(pivot)
        if not pivot:
            continue
        for i in range(k + 1, d):
            f, row = top[i], rows[i]
            row[i:] = [(pivot * x - f * y) // prev for x, y in zip(row[i:], top[i:])]
            if b is not None:
                b[i] = (pivot * b[i] - f * b[k]) // prev
        prev = pivot
    if b is None or 0 in minors:
        return minors, None
    x = [0] * d
    for k in reversed(range(d)):
        top = rows[k]
        x[k] = (prev * b[k] - sum(top[j] * x[j] for j in range(k + 1, d))) // top[k]
    return minors, x


def _half_pivots(minors: list[int]) -> tuple[Fraction, ...]:
    """The LDL^T pivots of a/2 from the leading minors of a, a skipped step as 0."""
    pivots, prev = [], 1
    for delta in minors:
        pivots.append(Fraction(delta, 2 * prev))
        prev = delta or prev
    return tuple(pivots)


def chen_min_exact(n: int, m: int) -> MatrixWitness:
    """Exact minimum of the ratio, a Fraction, with its exact witness on H = 1.

    On A = I/p + diag(D c) + (off-diagonal part) the numerator is
    const + 2 b^T c + c^T Q c + (off-diagonal squares), with Q = D^T M D,
    b = D^T (2M) 1/(2p) and const = 1^T (2M) 1/(2p^2).  The integer
    elimination of the block 2Q proves the numerator positive definite on
    traceless matrices, so the minimizer is diagonal and Q c = -b is the
    unique stationary point; the minimum is const + b^T c.  The
    elimination also returns x = det(2Q) (2Q)^-1 D^T (2M) 1, so
    c = -x/(p det) and every output is one Fraction of integers.
    """
    rec = admissible(n, m)
    if not rec.admissible:
        raise ValueError(f"(n, m) = ({n}, {m}) is not admissible")
    p = n - 1
    block, sums, weights = _traceless_block(n, m)
    rhs = [s - sums[-1] for s in sums[:-1]]
    minors, x = _bareiss(block, rhs)
    if x is None:
        raise ValueError(f"the ({n}, {m}) numerator is singular on traceless matrices")
    det = minors[-1]
    scale = p * det
    diagonal = [Fraction(det - xk, scale) for xk in x] + [Fraction(det + sum(x), scale)]
    ratio = Fraction(det * sum(sums) - sum(r * xk for r, xk in zip(rhs, x)), 2 * p * scale)
    return MatrixWitness(n, m, np.diag(np.array(diagonal, dtype=object)), ratio,
                         _half_pivots(minors) + weights)


# ---------------------------------------------------------------------------
# the minimal-case functional on traceless norm-1 matrices
# ---------------------------------------------------------------------------

def brendle_min_exact(n: int, m: int) -> MatrixWitness:
    """Minimum of the numerator on {tr A = 0, |A|_F = 1}, certified exactly.

    The minimum is positive exactly when the traceless form of
    `chen_min_exact` is positive definite, which the integer elimination
    of its block decides exactly.  The float value is the smallest
    eigenvalue of the diagonal block's pencil (Q, G), G = D^T D = I + J
    the Frobenius Gram matrix of D, and the witness is the diagonal matrix
    of its eigenvector.

    The off-diagonal directions cannot go lower.  E_ij + E_ji has ratio
    (2 - mask_ij)/2, which is 1/2 or 1.  For m >= 2 the traceless diagonal
    (e_0 - e_1)/sqrt(2) already gives 1/2, since pair (0, 1) is masked; for
    m = 1 there is no mask and every direction gives 1.
    """
    rec = admissible(n, m)
    if rec.ineq1 <= 0:
        raise ValueError(f"requires m^2 - mn + 2n - 2 > 0, got {rec.ineq1}")
    block, _, weights = _traceless_block(n, m)
    minors, _ = _bareiss(block)
    p = n - 1
    basis = np.eye(p, p - 1, dtype=np.int64)
    basis[p - 1] = -1
    inv = np.linalg.inv(np.linalg.cholesky((basis.T @ basis).astype(float)))
    w, vecs = np.linalg.eigh(inv @ (0.5 * np.array(block)) @ inv.T)
    return MatrixWitness(n, m, np.diag(basis @ (inv.T @ vecs[:, 0])), float(w[0]),
                         _half_pivots(minors) + weights)
