"""Exact-rational admissibility sweeps and the sharp matrix inequalities.

All (n, m)-indexed constants are computed with `fractions.Fraction`, so the
case checks below are genuine equalities and strict inequalities, not
tolerance tests.

The matrix functionals share one numerator, a rational quadratic form in
a symmetric p x p matrix A, p = n-1.  Each off-diagonal entry a_ij enters
it only as its own square, with weight 2 - mask_ij (1 or 2), and the mask
treats the first m-1 diagonal positions (block A) alike and the other n-m
(block B) alike.  So on traceless matrices the form is a scalar on each of
a few invariant sectors: the one diagonal direction v that is constant on
each block, the sum-zero diagonals on A and on B, and the off-diagonal
entries.  Both minima follow from these in integers and `Fraction`s, with
no elimination: the minimal-case minimum is the least sector value, and
the Chen minimizer, constant on each block, is found along v.  Floating
point enters only in the minimal case's float witness.  The integer
elimination of the full diagonal block, the rational LDL^T and the form on
full upper-triangle coordinates live in `tests/inequality_references.py`,
and the float numerator that tests play against the exact forms in
`tests/float_minimizers.py`.

The second-fundamental-form functional uses hypersurface index labels
2..n, stored at 0-based positions 0..n-2 of a symmetric (n-1) x (n-1)
matrix.
"""
from __future__ import annotations

import math
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
    where H = 0); the exact routes give it as a Fraction.  `sectors` are
    the (name, value) pairs of the numerator's invariant pieces on
    traceless matrices, in the order v, A, B, off-diagonal (see `_sectors`):
    all values are positive exactly when the form is positive definite
    there, and the least of them is the minimal-case minimum.
    """

    n: int
    m: int
    matrix: np.ndarray
    ratio: Fraction | float
    sectors: tuple[tuple[str, Fraction], ...] = ()


# -- the numerator on its invariant sectors ----------------------------------
#
# The mask treats the first a = m-1 diagonal positions (block A) alike and the
# other b = n-m (block B) alike, and each off-diagonal entry enters the
# numerator only as its own square.  So on traceless matrices the form is a
# scalar on each piece of `_sectors`, and the pieces are orthogonal for it
# and for the Frobenius product.

def _twice_form(diagonal: list[int], m: int) -> int:
    """2N(diag(d)) = 2|d|^2 + sum of d_i d_j over ordered masked pairs, in integers.

    A pair i < j of 0-based positions is masked exactly when i + 2 <= m,
    that is when i lies in block A.
    """
    total, tail = 0, sum(diagonal)
    for i, d in enumerate(diagonal):
        tail -= d
        total += 2 * d * d + (2 * d * tail if i + 2 <= m else 0)
    return total


def _sectors(n: int, m: int) -> list[tuple[str, Fraction, np.ndarray]]:
    """The invariant pieces of the traceless form as (name, value, representative).

    In the order v, A, B, off-diagonal, each piece present or left out:
    - v = (b on A, -a on B), when a >= 1;
    - A: sum-zero diagonals on block A, when a >= 2;
    - B: sum-zero diagonals on block B, when b >= 2;
    - off-diagonal: E_01 + E_10.  E_ij + E_ji has value (2 - mask_ij)/2,
      and pair (0, 1) is masked whenever any pair is, so it is the least.
    The representative X is an integer symmetric matrix of the piece, and
    the value N(X)/|X|_F^2 is the form's on every matrix of the piece.  For
    n = 2 the diagonal is 1 x 1 and has no traceless direction, so n < 3 is
    rejected.
    """
    if n < 3:
        raise ValueError(f"the exact minimum needs dimension n >= 3 for a traceless "
                         f"direction, got n = {n}")
    p, a = n - 1, m - 1
    b = p - a
    diagonals = []
    if a >= 1:
        diagonals.append(("v", [b] * a + [-a] * b))
    if a >= 2:
        diagonals.append(("A", [1, -1] + [0] * (p - 2)))
    if b >= 2:
        diagonals.append(("B", [0] * a + [1, -1] + [0] * (b - 2)))
    sectors = [(name, Fraction(_twice_form(d, m), 2 * sum(x * x for x in d)), np.diag(d))
               for name, d in diagonals]
    off = np.zeros((p, p), dtype=np.int64)
    off[0, 1] = off[1, 0] = 1
    # N(E_01 + E_10) = 2 - mask_01 and |E_01 + E_10|_F^2 = 2
    sectors.append(("off-diagonal", Fraction(2 - (2 <= m), 2), off))
    return sectors


def chen_min_exact(n: int, m: int) -> MatrixWitness:
    """Exact minimum of the ratio, a Fraction, with its exact witness on H = 1.

    On admissible pairs every sector value is positive, so the problem is
    strictly convex; it is invariant under permuting A and permuting B, so
    its unique minimizer is constant on each block, and off the diagonal it
    is zero.  On the trace-one slice those matrices are (I + t v)/p, whose
    numerator is Q(I + t v)/(2p^2) with Q = 2N; t = -Q(I, v)/Q(v) minimizes
    it.  For m = 1 block A is empty, there is no v, and the minimizer is I/p.
    """
    rec = admissible(n, m)
    if not rec.admissible:
        raise ValueError(f"(n, m) = ({n}, {m}) is not admissible")
    sectors = _sectors(n, m)
    p, a = n - 1, m - 1
    b = p - a
    v = [b] * a + [-a] * b
    q_one, q_v = _twice_form([1] * p, m), _twice_form(v, m)
    cross = (_twice_form([1 + x for x in v], m) - q_one - q_v) // 2
    t = Fraction(-cross, q_v) if a else Fraction(0)
    diagonal = [(1 + t * x) / p for x in v]
    ratio = (q_one + t * cross) / (2 * p * p)
    return MatrixWitness(n, m, np.diag(np.array(diagonal, dtype=object)), ratio,
                         tuple(sector[:2] for sector in sectors))


# ---------------------------------------------------------------------------
# the minimal-case functional on traceless norm-1 matrices
# ---------------------------------------------------------------------------

def brendle_min_exact(n: int, m: int) -> MatrixWitness:
    """Minimum of the numerator on {tr A = 0, |A|_F = 1}, exactly.

    The form is a scalar on each invariant sector and the sectors are
    orthogonal, so the minimum is the least sector value, a Fraction.  The
    witness is the float unit-norm representative of the first sector, in
    the order of `_sectors`, that attains it.
    """
    rec = admissible(n, m)
    if rec.ineq1 <= 0:
        raise ValueError(f"requires m^2 - mn + 2n - 2 > 0, got {rec.ineq1}")
    sectors = _sectors(n, m)
    _, ratio, rep = min(sectors, key=lambda sector: sector[1])
    return MatrixWitness(n, m, rep / math.sqrt((rep * rep).sum()), ratio,
                         tuple(sector[:2] for sector in sectors))
