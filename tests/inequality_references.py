"""Reference routes for the exact matrix inequalities.

`curvlab.inequalities` takes both minima from the numerator's invariant
sectors.  This module keeps the routes that use no symmetry:

- the diagonal block of the form on traceless matrices in Python integers
  (`_traceless_block`), its fraction-free elimination (`_bareiss`,
  `_half_pivots`), and the Chen minimum and LDL^T pivots solved with them
  (`chen_min_elimination`, `traceless_pivots`);
- the rational LDL^T on numpy object arrays of `Fraction` (`_ldl`,
  `_ldl_solve`), the reference for the integer elimination;
- the boolean mask of the weighted pairs (`chen_weight_mask`) and the
  block as numpy integer matrices (`_diagonal_form`), the reference for
  `_traceless_block`;
- the integer Hessian over all T = p(p+1)/2 upper-triangle coordinates of
  a symmetric p x p matrix, its (T-1)-dimensional traceless form, and the
  two minima taken on that form.

Tests play these against `chen_min_exact` and `brendle_min_exact`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


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


def _diagonal_form(n: int, m: int) -> tuple[np.ndarray, np.ndarray, tuple[Fraction, ...]]:
    """The numerator as (2M, D, weights).

    On a symmetric A with diagonal d the numerator is
    d^T M d + sum_(i<j) weights_ij a_ij^2, weights in row-major order.
    2M = 2I + mask + mask^T is an integer matrix, and the integer columns
    D_k = e_k - e_(p-1), k < p-1, span the traceless diagonals.  For n = 2
    the block is 1 x 1 and has no traceless direction, so n < 3 is rejected.
    """
    if n < 3:
        raise ValueError(f"the exact minimum needs dimension n >= 3 for a traceless "
                         f"direction, got n = {n}")
    p = n - 1
    mask = chen_weight_mask(n, m)
    two_m = 2 * np.eye(p, dtype=np.int64) + mask + mask.T
    basis = np.eye(p, p - 1, dtype=np.int64)
    basis[p - 1] = -1
    weights = tuple(Fraction(2 - int(mask[i, j])) for i in range(p) for j in range(i + 1, p))
    return two_m, basis, weights


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


def traceless_pivots(n: int, m: int) -> tuple[Fraction, ...]:
    """The LDL^T pivots of the numerator on traceless matrices, by integer elimination.

    The diagonal block's pivots followed by the off-diagonal weights.
    Raises ValueError where the form is not positive semidefinite.
    """
    block, _, weights = _traceless_block(n, m)
    return _half_pivots(_bareiss(block)[0]) + weights


def chen_min_elimination(n: int, m: int) -> tuple[Fraction, list[Fraction]]:
    """The exact Chen minimum and the diagonal of its witness, solved on the block.

    On A = I/p + diag(D c) + (off-diagonal part) the numerator is
    const + 2 b^T c + c^T Q c + (off-diagonal squares), with Q = D^T M D,
    b = D^T (2M) 1/(2p) and const = 1^T (2M) 1/(2p^2).  The elimination
    of the block 2Q returns x = det(2Q) (2Q)^-1 D^T (2M) 1, so the
    stationary point Q c = -b is c = -x/(p det) and the minimum is
    const + b^T c.
    """
    p = n - 1
    block, sums, _ = _traceless_block(n, m)
    rhs = [s - sums[-1] for s in sums[:-1]]
    minors, x = _bareiss(block, rhs)
    if x is None:
        raise ValueError(f"the ({n}, {m}) numerator is singular on traceless matrices")
    det = minors[-1]
    scale = p * det
    diagonal = [Fraction(det - xk, scale) for xk in x] + [Fraction(det + sum(x), scale)]
    ratio = Fraction(det * sum(sums) - sum(r * xk for r, xk in zip(rhs, x)), 2 * p * scale)
    return ratio, diagonal


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
