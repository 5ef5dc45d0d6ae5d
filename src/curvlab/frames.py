"""Minimizing the partial curvature sum over orthonormal m-frames.

For an m-frame F = (e_1, ..., e_m) completed to an orthonormal basis, the
quantity of interest is

    C_m(F) = sum_{p=1}^m sum_{q=p+1}^n Rm(e_p, e_q, e_p, e_q),

which depends only on the span of F.  Writing P = Q Q^T for the projection
onto that span,

    C_m(F) = tr(Ric P) - 1/2 Rm_{pqrs} P_{pr} P_{qs}.

The minimizer scores a frame on this form in the n^2 entries p of P:

    C_m = ric . p - 1/2 p . F p,    F_{(a,b),(q,s)} = Rm_{aqbs},

with ric the flattened Ricci tensor; F is symmetric by the pair
symmetries of Rm.  One evaluation of a frame is p = (Q Q^T).ravel() and
one (n^2, n^2) product b = F p.  From it follow the value and
B_ab = Rm_{aqbs} P_qs, which is b read as an (n, n) matrix, hence the
Euclidean gradient 2 (Ric - B) Q.  The value of a coordinate frame e_I
needs no frame at all:

    C_m(e_I) = sum_{p in I} Ric_pp - 1/2 sum_{p, q in I} K_pq,    K_pq = Rm_pqpq.

`cm_min_oracle` reads the 4-tensor in the same matrix layout through its
own code, on stacks of full projections, and the literal completed-basis
double sum lives in the tests as an independent slow route that both are
checked against.  The oracle draws frames of
k = min(m, n - m) columns: for m > n - m they span the complement U, and
it scores V = U^perp through P_V = I - P_U (Haar on U is Haar on V).

The minimizer serves dense tensors.  On the warped torus family the
curvature operator is diagonal on coordinate 2-vectors, and
`curvature.cm_min_exact` gives the minimum from the class counts; the
positivity sweep runs the same class-count kernel on its whole grid and
reads C_m at the distinguished coordinate frame off it too.  The tests
play `cm_min` and `cm_of_frame` against it.

Only the sampling oracle handles stacks of frames.  They have shape
(B, n, k) and are read stack-last, (k, n, B), the layout Gram-Schmidt
produces, so that every operation runs over contiguous rows of length B.
One orthonormalization kernel, classical Gram-Schmidt applied twice and
vectorized over the stack, gives the positive-diagonal QR factor for
sampling and, on a one-frame stack, for the descent's retraction.

`cm_min` first tries to prove the minimum, by one route at every m.  C_m is
a quadratic form on k-vectors, k = min(m, n - m).  Let D_k(A) be the
derivation extension of a symmetric A to k-vectors and R^[2] the curvature
operator applied to every pair of slots.  For the unit k-vector xi of V
(when m <= n - m) or of its orthogonal complement U (when m > n - m),

    C_m(V) = <(D_k(Ric) - R^[2]) xi, xi>    or    C_m(V) = scal/2 - <R^[2] xi, xi>.

Every quadratic form Q that vanishes on decomposable k-vectors, such as a
combination of the Plücker relations, leaves these values unchanged.  So
C_m >= -lambda_max(R^[2] - D_k(Ric) + Q), or scal/2 - lambda_max(R^[2] + Q),
for every Q (Thorpe's trick: J. Thorpe 1972; R. Bettiol and R. Mendes
2018, here on k-vectors).  An L-BFGS ascent lowers lambda_max over the
integer Plücker relations, starting at Q = 0.  A top eigenvector,
contracted to an (n, C(n, k - 1)) matrix, gives V or U as the span of the
top k left singular vectors.  Before each ascent step that frame is
built and scored once, and the ascent stops as soon as the score is within
TIE_TOL of the current bound: the frame closes the proof as it is.  The
frame of the last top eigenvector, closed or not, is the route's frame,
returned with its score.  At k = 1 there are no relations: the route is
the smallest Ricci eigenvalue at m = 1 and the constant scal/2 at m = n - 1.
At k = 2 the relations are the 4-forms.
`cm_min` proves the minimum when the route's bound meets the best frame
it has scored (its docstring states the closure rule, the scale
normalization and how evaluations are counted).

Otherwise projected gradient descent on the Stiefel manifold runs from
two starts in turn: the best coordinate frame, then the route's frame.
Descent only accepts decreases, so the outcome is "coordinate-enumeration"
when a coordinate subset ties the best value, else "projected-descent".
`cm_min` samples no frame, so its results are bitwise reproducible with no
seed; only the oracle samples.

Step rule (Barzilai-Borwein steps on the Stiefel manifold, as in Wen and
Yin 2013): the first trial step is 1/(1 + |G|) for the tangent gradient G.
From the second iteration on it is the BB1 step <s, s>/<s, y>, with
s = Q_k - Q_{k-1} and y = G_k - G_{k-1} the last move and gradient
change, capped at 1/|G_k| so that a trial move Q - tG has at most
unit Frobenius length; when <s, y> <= 0 the step is the cap itself.  The
trial step is halved until the monotone Armijo test passes.  The cap is
needed: on the construction tensors an uncapped BB step can ask for a move
of nearly 3.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curvature import TIE_TOL, RiemannData

__all__ = [
    "CmResult",
    "coordinate_frame",
    "cm_of_frame",
    "random_frames",
    "cm_min",
    "cm_min_oracle",
]

SAMPLE_CHUNK = 4096
ORTHONORMAL_TOL = 1e-10
RANK_TOL = 1e-12
ARMIJO = 1e-4
STEP_TOL = 1e-10
HALVINGS = 60
MAX_ITER = 500      # descent iterations per start
ORACLE_SAMPLES = 20_000  # frames cm_min_oracle draws
ORACLE_SLICE = 512       # frames the oracle contracts at a time
ASCENT_ITER = 200   # quasi-Newton iterations of the Plücker ascent
MEMORY = 50         # (s, y) pairs the ascent's L-BFGS recursion keeps


# ---------------------------------------------------------------------------
# frames and evaluation
# ---------------------------------------------------------------------------

def coordinate_frame(n: int, subset: tuple[int, ...]) -> np.ndarray:
    """The m-frame of coordinate basis vectors with the given sorted indices."""
    if list(subset) != sorted(set(subset)) or not all(0 <= i < n for i in subset):
        raise ValueError(f"subset must be strictly increasing indices in [0, {n}), "
                         f"got {subset}")
    q = np.zeros((n, len(subset)))
    for col, idx in enumerate(subset):
        q[idx, col] = 1.0
    return q


def _check_frame(riemann: RiemannData, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = riemann.dim
    if q.ndim != 2 or q.shape[0] != n or not 1 <= q.shape[1] <= n:
        raise ValueError(f"frame must have shape ({n}, m) with 1 <= m <= {n}")
    # a non-finite or huge entry makes the defect NaN or inf, which must not pass
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
    if not defect <= ORTHONORMAL_TOL:
        raise ValueError(f"frame is not orthonormal (defect {defect:.2e})")
    return q


def cm_of_frame(riemann: RiemannData, q: np.ndarray) -> float:
    """C_m of a single orthonormal frame through the projection form."""
    q = _check_frame(riemann, q)
    p = q @ q.T
    quad = np.einsum("pqrs,pr,qs->", riemann.components, p, p)
    return float(np.einsum("ab,ab->", riemann.ricci, p) - 0.5 * quad)


def _symmetric_form(riemann: RiemannData) -> tuple[np.ndarray, np.ndarray]:
    """C_m = ric.p - 1/2 p.F p in the n^2 entries p of P = Q Q^T: (ric, F).

    ric is the flattened Ricci tensor and F_{(a,b),(q,s)} = Rm_{aqbs}, an
    (n^2, n^2) matrix, symmetric by the pair symmetries of Rm.
    """
    n = riemann.dim
    return riemann.ricci.ravel(), riemann.components.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _evaluate(q: np.ndarray, form: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray]:
    """The value and b = F p, shape (n^2,), of one frame (n, m): p = (Q Q^T).ravel().

    b is B_ab = Rm_{aqbs} P_qs, flattened.
    """
    ricci, fmat = form
    p = (q @ q.T).ravel()
    b = fmat @ p
    return float(ricci @ p - 0.5 * (p @ b)), b


# ---------------------------------------------------------------------------
# descent on the Stiefel manifold
# ---------------------------------------------------------------------------

def tangent_project(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project an ambient direction onto the Stiefel tangent space at the frame Q."""
    qtg = q.T @ g
    return g - q @ (0.5 * (qtg + qtg.T))


def _descend(form: tuple[np.ndarray, np.ndarray], q0: np.ndarray, max_iter: int):
    """Projected gradient descent on the Stiefel manifold from one frame (n, m).

    Frames are scored on `form`, a `_symmetric_form`.  The first trial
    step is 1/(1 + |g|), later ones the capped BB1 step from the last move
    and gradient change.  A trial step is halved until the Armijo test
    passes; the move then takes a new gradient 2 (Ric - B) Q, with Ric and
    the evaluation's B read as (n, n) matrices.  The descent stops when the
    gradient or the move falls below STEP_TOL, a move leaves the value
    unchanged, HALVINGS halvings all fail, max_iter iterations are spent,
    or the gradient is not finite (an overflow, reported as not
    converged).  Returns the frame, its value, the iterations, the
    evaluations and whether it converged.
    """
    n = len(q0)
    ricci = form[0].reshape(n, n)
    q = orthonormalize_frames(q0[None])[0]
    val, b = _evaluate(q, form)
    evals, converged, it = 1, False, 0
    qprev = gprev = None
    for it in range(1, max_iter + 1):
        g = tangent_project(q, 2.0 * (ricci - b.reshape(n, n)) @ q)
        with np.errstate(over="ignore", invalid="ignore"):
            gnorm2 = np.vdot(g, g)
        if not np.isfinite(gnorm2):
            break
        gnorm = np.sqrt(gnorm2)
        if gnorm < STEP_TOL:
            converged = True
            break
        if qprev is None:
            step = 1.0 / (1.0 + gnorm)
        else:
            # <s, y> <= 0 leaves the cap 1/|g| as the step
            s, y = q - qprev, g - gprev
            sy = np.vdot(s, y)
            step = 1.0 / gnorm
            if sy > 0:
                with np.errstate(over="ignore"):
                    step = min(np.vdot(s, s) / sy, step)
        qprev, gprev = q, g
        for _ in range(HALVINGS):
            cand = orthonormalize_frames((q - step * g)[None])[0]
            cand_val, cand_b = _evaluate(cand, form)
            evals += 1
            if cand_val <= val - ARMIJO * step * gnorm2:
                break
            step *= 0.5
        else:
            converged = True
            break
        # a step that leaves the value unchanged passed Armijo only because the
        # required decrease is below the value's rounding: nothing more to gain
        stalled = np.max(np.abs(cand - q)) < STEP_TOL or cand_val == val
        q, val, b = cand, cand_val, cand_b
        if stalled:
            converged = True
            break
    return q, val, it, evals, converged


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def orthonormalize_frames(a: np.ndarray) -> np.ndarray:
    """Positive-diagonal QR factor of a stack of (n, m) matrices, shape (B, n, m).

    Classical Gram-Schmidt applied twice, one column at a time and
    vectorized over the stack, which is held stack-last so that every
    operation runs over contiguous rows of length B.  A column whose
    residual after both passes is not above RANK_TOL times its own norm
    (zero and non-finite columns included) makes the input rank deficient.
    """
    cols = np.ascontiguousarray(np.asarray(a, dtype=float).transpose(2, 1, 0))
    floor = RANK_TOL * np.sqrt(np.einsum("jib,jib->jb", cols, cols))
    q = np.empty_like(cols)
    for j, v in enumerate(cols):
        for _ in range(2 if j else 0):
            v = v - np.einsum("jib,jb->ib", q[:j], np.einsum("jib,ib->jb", q[:j], v))
        norm = np.sqrt(np.einsum("ib,ib->b", v, v))
        if not (norm > floor[j]).all():
            raise ValueError("frames are rank deficient or not finite")
        np.divide(v, norm, out=q[j])
    return q.transpose(2, 1, 0)


def random_frames(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random m-frames, shape (count, n, m)."""
    return orthonormalize_frames(rng.standard_normal((count, n, m)))


# ---------------------------------------------------------------------------
# the full minimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CmResult:
    """Outcome of a C_m minimization: the bracket [lower_bound, value].

    `value` is the smallest value `cm_min` scored: the coordinate frames,
    the route's frame and, where the route does not close, the descent
    from the best of the first and from the second; no frame is sampled.
    `evaluations` counts those scores, each once.  `argmin` is a frame achieving
    `value` to within the tie tolerance, with coordinate frames preferred
    when they tie.  `lower_bound` is the bound of the route that
    `cm_min` takes at this m (see the module docstring); no frame goes
    below it.  `method` names the outcome: "certificate" when the bound
    proves the minimum at `argmin`, otherwise "coordinate-enumeration"
    when a coordinate subset ties the value, else "projected-descent".
    """

    value: float
    argmin: np.ndarray
    evaluations: int
    method: str
    lower_bound: float


class _Tables(NamedTuple):
    """Index tables of the k-vectors of R^n; see `_plucker_tables`.

    `ricci` and `riemann` hold (entry, index into Ric or Rm, sign) for
    D_k and R^[2], entries as flat indices into a (size, size) matrix.
    `relations` holds (relation, weight, row, column) for every matrix
    entry of every kept relation, `count` of them.  `interior` holds
    (slot, k-vector, sign) for the interior product, which has `columns`
    = C(n, k - 1) columns.
    """

    size: int
    ricci: tuple[np.ndarray, np.ndarray, np.ndarray]
    riemann: tuple[np.ndarray, np.ndarray, np.ndarray]
    relations: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    count: int
    interior: tuple[np.ndarray, np.ndarray, np.ndarray]
    columns: int


def _popcount(masks: np.ndarray) -> np.ndarray:
    """The number of members of each nonnegative bit-mask subset.

    Byte by byte from a 256-entry table, since np.bitwise_count needs
    numpy 2.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    byte_bits = bits.sum(axis=1, dtype=np.intp)
    count = np.zeros(np.shape(masks), dtype=np.intp)
    while np.any(masks):
        count += byte_bits[masks & 255]
        masks = masks >> 8
    return count


def _subsets(n: int, size: int) -> np.ndarray:
    """The size-subsets of range(n) as bit masks, in increasing order."""
    masks = np.arange(1 << n)
    return masks[_popcount(masks) == size]


def _below(masks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """How many members of each bit-mask subset are smaller than `index`."""
    return _popcount(masks & ((1 << index) - 1))


def _sign(parity: np.ndarray) -> np.ndarray:
    """(-1)^parity, as floats."""
    return 1.0 - 2.0 * (parity % 2)


def _exchange(basis: np.ndarray, number: np.ndarray, members: np.ndarray):
    """Entries of the operators that replace a group of slots of e_J by another group.

    `members` (G, s) lists the groups as sorted indices: singletons for
    D_k, pairs for R^[2].  For every column J, group g inside J and group h
    outside K = J - g, the entry at row K + h and column J takes the sign
    of e_g ^ e_K = +-e_J times that of e_h ^ e_K = +-e_(K+h).  Returns the
    flat entries, g, h and the signs.
    """
    groups = np.bitwise_or.reduce(1 << members, axis=1)
    col, g = np.nonzero((basis[:, None] & groups) == groups)
    rest = basis[col] & ~groups[g]
    term, h = np.nonzero((rest[:, None] & groups) == 0)
    col, g, rest = col[term], g[term], rest[term]
    parity = sum(_below(rest, members[g, i]) + _below(rest, members[h, i])
                 for i in range(members.shape[1]))
    return number[rest | groups[h]] * len(basis) + col, g, h, _sign(parity)


def _relations(n: int, k: int, number: np.ndarray):
    """The Plücker relations sum_(j in J) +-p_(I + j) p_(J - j), |I| = k - 1, |J| = k + 1.

    p_(I + j) = +-xi_(I + j), with the sign of moving e_j past the members
    of I above j.  Terms of one relation on the same monomial are summed,
    and of the relations left nonzero the first one of each distinct
    leading (largest) monomial is kept, so the kept ones are linearly
    independent.  Returns (relation, weight, row, column) for both
    entries of each monomial, with weight half its coefficient, and the
    number of relations kept.
    """
    size = math.comb(n, k)
    one = 1 << np.arange(n)
    small, large = _subsets(n, k - 1), _subsets(n, k + 1)
    i_idx, j_idx, j = np.nonzero(((large[None, :, None] & one) != 0)
                                 & ((small[:, None, None] & one) == 0))
    first = number[small[i_idx] | one[j]]
    second = number[large[j_idx] & ~one[j]]
    coef = _sign(_below(large[j_idx], j) + k - 1 - _below(small[i_idx], j))
    relation = i_idx * len(large) + j_idx
    keys = (relation * size + np.minimum(first, second)) * size + np.maximum(first, second)
    order = np.argsort(keys, kind="stable")
    keys, coef = keys[order], coef[order]
    start = np.diff(keys, prepend=-1) != 0
    coef = np.bincount(np.cumsum(start) - 1, coef)
    relation, monomial = np.divmod(keys[start][coef != 0], size * size)
    coef = coef[coef != 0]
    # keys are sorted, so a relation's last key holds its leading monomial;
    # a stable sort of those keeps the first relation of each
    last = np.flatnonzero(np.diff(relation, append=-1) != 0)
    order = last[np.argsort(monomial[last], kind="stable")]
    chosen = order[np.diff(monomial[order], prepend=-1) != 0]
    keep = np.zeros(len(small) * len(large), dtype=bool)
    keep[relation[chosen]] = True
    renumber = np.cumsum(keep) - 1
    kept = keep[relation]
    relation = renumber[relation[kept]]
    lo, hi = np.divmod(monomial[kept], size)
    weight = 0.5 * coef[kept]
    return (np.r_[relation, relation], np.r_[weight, weight], np.r_[lo, hi],
            np.r_[hi, lo]), len(chosen)


@functools.lru_cache(maxsize=None)
def _plucker_tables(n: int, k: int) -> _Tables:
    """Index tables for the operators of `_lower_bound` on the k-vectors of R^n.

    The basis k-vectors e_J, J a k-subset held as a bit mask, are numbered
    in increasing mask order.  Every table lists the entries an operator
    takes from one input, with the sign that sorting its indices costs:

    - D_k(A) e_J = sum over b in J and a of A_ab e_(J - b + a), the
      derivation extension;
    - R^[2] e_J = sum over c < d in J and a < b of Rm_abcd e_(J - cd + ab),
      R applied to every pair of slots;
    - the Plücker relations (see `_relations`) as symmetric quadratic forms;
    - the interior product, the (n, C(n, k - 1)) matrix
      M[a, K] = <xi, e_a ^ e_K>, whose columns span V when xi is the
      k-vector of V.

    The arrays are shared; callers must not write them.
    """
    basis = _subsets(n, k)
    number = np.full(1 << n, -1, dtype=np.intp)
    number[basis] = np.arange(len(basis))
    entry, b, a, sign = _exchange(basis, number, np.arange(n)[:, None])
    ricci = (entry, a * n + b, sign)
    low, high = np.triu_indices(n, 1)
    entry, cd, ab, sign = _exchange(basis, number, np.column_stack([low, high]))
    riemann = (entry, ((low[ab] * n + high[ab]) * n + low[cd]) * n + high[cd], sign)
    relations, count = _relations(n, k, number)
    # interior product: slot (a, K) with a not in K reads xi on K + a
    small = _subsets(n, k - 1)
    k_idx, a = np.nonzero((small[:, None] & (1 << np.arange(n))) == 0)
    interior = (a * len(small) + k_idx, number[small[k_idx] | (1 << a)],
                _sign(_below(small[k_idx], a)))
    tables = _Tables(len(basis), ricci, riemann, relations, count, interior, len(small))
    for table in (*ricci, *riemann, *relations, *interior):
        table.flags.writeable = False
    return tables


def _operators(riemann: RiemannData, k: int) -> tuple[np.ndarray, np.ndarray]:
    """D_k(Ric) and R^[2] as matrices on the k-vectors, in the basis of `_plucker_tables`."""
    tables = _plucker_tables(riemann.dim, k)
    size = tables.size

    def operator(table, values):
        entry, index, sign = table
        return np.bincount(entry, values.ravel()[index] * sign, size * size).reshape(size, size)

    return operator(tables.ricci, riemann.ricci), operator(tables.riemann, riemann.components)


def _ascent(base: np.ndarray, relations, count: int, closes) -> tuple[float, np.ndarray]:
    """min over c of lambda_max(base + sum_j c_j Q_j) by L-BFGS: (lambda_max, top vector).

    Q_j are the kept Plücker relations of `_plucker_tables`.  Where the top
    eigenvalue is simple, the gradient is v^T Q_j v for the top
    eigenvector v (quasi-Newton steps on a maximum eigenvalue: Lewis and
    Overton 2013).  The direction comes from the two-loop recursion over
    the last MEMORY pairs (s, y) with <s, y> > 0 (Liu and Nocedal 1989),
    on the initial inverse Hessian gamma I, gamma = <s, y>/<y, y> of the
    first pair kept, as in a full BFGS rescaled once; before that pair the
    direction is the steepest descent.  (Rescaling at every pair stalls on
    some dense tensors where the top eigenvalue is nearly double.)  Armijo
    backtracking halves the unit step.  Before each step, closes(lambda_max,
    v) tests whether the caller's proof is already complete; the ascent
    stops there.  Otherwise it stops after ASCENT_ITER iterations, when a
    direction is not a descent direction, when HALVINGS halvings all fail,
    or when an accepted step leaves lambda_max unchanged.  Any c gives a
    sound bound and lambda_max only falls, so where it stops only decides
    how tight the bound is.
    """
    relation, weight, row, col = relations
    size = len(base)
    entry = row * size + col

    def spectrum(coef):
        shift = np.bincount(entry, coef[relation] * weight, size * size)
        vals, vecs = np.linalg.eigh(base + shift.reshape(size, size))
        top = vecs[:, -1]
        return vals[-1], top, np.bincount(relation, weight * top[row] * top[col], count)

    coef = np.zeros(count)
    value, top, grad = spectrum(coef)
    memory = collections.deque(maxlen=MEMORY)
    gamma = 1.0
    for _ in range(ASCENT_ITER):
        if closes(value, top):
            break
        direction = -grad
        alphas = []
        for s, y, sy in reversed(memory):
            alphas.append((s @ direction) / sy)
            direction = direction - alphas[-1] * y
        direction = direction * gamma
        for (s, y, sy), alpha in zip(memory, reversed(alphas)):
            direction = direction + (alpha - (y @ direction) / sy) * s
        slope = grad @ direction
        if not slope < 0:
            break
        step = 1.0
        for _ in range(HALVINGS):
            trial = coef + step * direction
            t_value, t_top, t_grad = spectrum(trial)
            if t_value <= value + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = trial - coef, t_grad - grad
        unchanged = t_value == value
        coef, value, top, grad = trial, t_value, t_top, t_grad
        if unchanged:
            break
        sy = s @ y
        if sy > 0:
            if not memory:
                gamma = sy / (y @ y)
            memory.append((s, y, sy))
    return float(value), top


def _lower_bound(riemann: RiemannData, m: int,
                 form: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray, float, int]:
    """The route's lower bound on C_m: (bound, frame, its score, evaluations).

    The route works on the k-vectors, k = min(m, n - m), with the tables
    of `_plucker_tables`.  For m <= n - m, xi is the unit k-vector of V and
    C_m(V) = <T xi, xi> with T = D_k(Ric) - R^[2], so the bound is
    -lambda_max(R^[2] - D_k(Ric) + Q).  For m > n - m, xi is the k-vector
    of the complement U and C_m(V) = scal/2 - <R^[2] xi, xi>, so the bound
    is scal/2 - lambda_max(R^[2] + Q).  `_ascent` picks the combination Q
    of Plücker relations.  A frame comes from a top eigenvector xi: the
    top k left singular vectors of its interior product span V, or U and
    then their complement is the frame.  Before each ascent step the
    frame of the current xi is built and scored once on `form`, and the
    ascent stops when the score is at most the current bound plus TIE_TOL.
    The frame of the last xi, closed or not, is returned with its score,
    taken after the ascent only if no test had that xi.
    """
    n = riemann.dim
    k = min(m, n - m)
    tables = _plucker_tables(n, k)
    ricci, base = _operators(riemann, k)
    offset = 0.5 * riemann.scalar
    if k == m:
        base, offset = base - ricci, 0.0
    slot, index, sign = tables.interior
    last, scores = None, 0  # keep one (xi, frame, score): xi views a whole eigh matrix

    def score(top):
        nonlocal last, scores
        interior = np.zeros(n * tables.columns)
        interior[slot] = sign * top[index]
        left = np.linalg.svd(interior.reshape(n, tables.columns))[0]
        q = left[:, :k] if k == m else left[:, k:]
        last, scores = (top, q, _evaluate(q, form)[0]), scores + 1
        return last[2]

    top_value, top = _ascent(base, tables.relations, tables.count,
                             lambda value, top: score(top) <= offset - value + TIE_TOL)
    if last is None or last[0] is not top:  # a step followed the last test
        score(top)
    return offset - top_value, *last[1:], scores


def _check_input(riemann: RiemannData, m: int) -> None:
    """The checks both minimizers make: 1 <= m <= n and finite components."""
    n = riemann.dim
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= {n}, got m = {m}")
    if not np.isfinite(riemann.components).all():
        raise ValueError("curvature components are not finite")


def _unit_scale(riemann: RiemannData) -> tuple[RiemannData, float]:
    """(R / s, s) for the power of two s with max |R| / s in [1, 2), s = 1 for zero.

    Dividing by a power of two is exact unless an entry falls below the
    normal range.
    """
    peak = float(np.max(np.abs(riemann.components)))
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0
    return RiemannData(riemann.dim, riemann.components / scale, riemann.ricci / scale,
                       riemann.scalar / scale), scale


def _coordinate_values(riemann: RiemannData, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate m-subsets I in lexicographic order, shape (C(n, m), m), and C_m(e_I).

    Each value is read off the tensor, with no frame: the sum of Ric_pp
    over I less half the sum of K_pq = Rm_pqpq over I x I.
    """
    subsets = np.array(list(itertools.combinations(range(riemann.dim), m)))
    sectional = np.einsum("pqpq->pq", riemann.components)
    return subsets, (np.diag(riemann.ricci)[subsets].sum(axis=1)
                     - 0.5 * sectional[subsets[:, :, None], subsets[:, None, :]].sum(axis=(1, 2)))


def cm_min(riemann: RiemannData, m: int, budget: int = 100_000,
           seed: int = 0) -> CmResult:
    """Minimize C_m over m-frames: certificate, else enumeration and descent.

    Everything runs on R/s, where s = 2^floor(log2 max|Rm|) (1 for the
    zero tensor) scales the tensor, its Ricci tensor and its scalar
    curvature exactly, and the value and the bound are multiplied by s at
    the end.  So cm_min(2^j R) is 2^j cm_min(R) bit for bit, and TIE_TOL is
    relative to the size of the tensor.
    Coordinate subsets are enumerated first, their values read off the
    tensor as sums of Ric_pp and K_pq = Rm_pqpq (see the module
    docstring); their minimum is an upper bound.  `_lower_bound` gives the
    route's lower bound, its frame and that frame's score; the value is
    the smaller of the coordinate minimum and that score.  When value and
    bound agree within TIE_TOL on both sides, the minimum is proven, with
    method "certificate".
    Otherwise the descent runs from the best coordinate frame, then from
    the route's frame, for at most MAX_ITER iterations each; the first of
    equal values wins.  The route and the descent score on one symmetric
    form, built once per call.
    `lower_bound` is the route's bound on every path, and `evaluations`
    counts each score once: C(n, m), the route's and the descent's.
    On every path, when a coordinate subset comes within TIE_TOL of the
    best value found, the lexicographically first such subset is reported
    as the argmin.
    No frame is sampled, so nothing reads `budget` or `seed`; they are
    kept for callers that pass them, and `budget` < 1 still raises.
    Cost grows quickly with n: the route runs `eigh` on C(n, k) x C(n, k)
    matrices, up to ASCENT_ITER ascent steps, and its tables, built once
    per (n, k), hold 2^n masks and C(n, k - 1) C(n, k + 1) n relation
    terms.  Measured on 2 vCPU (numpy 2.4.6), a call takes a median of
    about 25 ms at (n, m) = (8, 4), 75 ms at (9, 4) and 300 ms at (10, 5),
    whose tables take about 40 ms and 19 MB at peak to build.  n = 10 is
    the largest size measured; the benchmark and the tests stop at n = 8.
    """
    _check_input(riemann, m)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    riemann, scale = _unit_scale(riemann)
    n = riemann.dim

    form = _symmetric_form(riemann)
    subsets, coord_vals = _coordinate_values(riemann, m)
    coord_best = int(np.argmin(coord_vals))
    upper = float(coord_vals[coord_best])
    lower, best_frame, route_value, route_evals = _lower_bound(riemann, m, form)
    best_value = min(upper, route_value)
    evaluations = len(subsets) + route_evals

    # both-sided: a bound far above an attained value is rounding, not a proof
    if abs(best_value - lower) <= TIE_TOL:
        method = "certificate"
    else:
        # descend from the best coordinate frame, then from the route's frame;
        # min keeps the first of equal values
        runs = [_descend(form, start, MAX_ITER)
                for start in (np.eye(n)[:, subsets[coord_best]], best_frame)]
        best_frame, desc_value = min(runs, key=lambda run: run[1])[:2]
        evaluations += sum(run[3] for run in runs)
        best_value, method = min(upper, desc_value), "projected-descent"

    tied = np.flatnonzero(coord_vals <= best_value + TIE_TOL)
    if tied.size:
        best_frame = np.eye(n)[:, subsets[tied[0]]]
        if method == "projected-descent":
            method = "coordinate-enumeration"
    return CmResult(scale * best_value, best_frame, evaluations, method, scale * lower)


def _oracle_values(riemann: RiemannData, qs: np.ndarray, m: int) -> np.ndarray:
    """C_m of a stack of frames (B, n, k) by direct contraction with the 4-tensor.

    With k = m the frames span V.  With k != m they span the complement U
    of V, and V's projection is P_V = I - P_U; at k = 0 that is I.  The
    4-tensor is read as the (n^2, n^2) matrix [(p, r), (q, s)] = Rm_pqrs,
    and the full projections P_V as stack-last (n^2, B) columns, the
    layout behind frames from `random_frames`; one GEMM gives
    Rm_pqrs P_qs, which is then dotted with P_V.  ORACLE_SLICE frames go
    at a time, which bounds the contraction's scratch memory.
    """
    n = riemann.dim
    rmat = riemann.components.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    ricci = riemann.ricci.ravel()
    identity = np.eye(n).reshape(n * n, 1)
    vals = np.empty(len(qs))
    for start in range(0, len(qs), ORACLE_SLICE):
        cols = qs[start:start + ORACLE_SLICE].transpose(2, 1, 0)
        ps = np.einsum("aib,ajb->ijb", cols, cols).reshape(n * n, -1)
        if qs.shape[2] != m:
            ps = identity - ps
        vals[start:start + ORACLE_SLICE] = (ricci @ ps
                                            - 0.5 * np.einsum("tb,tb->b", rmat @ ps, ps))
    return vals


def cm_min_oracle(riemann: RiemannData, m: int, seed: int = 0) -> float:
    """Pure-sampling baseline: min over ORACLE_SAMPLES random frames, no descent.

    C_m depends only on the span V of a frame, so each sample draws
    k = min(m, n - m) columns: V itself when m <= n - m, else its
    complement U, which `_oracle_values` scores through P_V = I - P_U.
    Orthogonal complement commutes with every rotation, so Haar measure
    on the k-planes U maps to Haar measure on the m-planes V.  `cm_min`
    samples nothing, so the oracle shares only the Gram-Schmidt kernel
    with it, through `random_frames`.  It draws from the first child of
    SeedSequence(seed), so its frames differ from those of any generator
    seeded with an integer, such as PCG64(seed + j).  Values come from
    its own reshape of the 4-tensor, contracted with full projections:
    the layout of `cm_min`'s symmetric form, read through separate code,
    so each checks the other.
    It checks its input as `cm_min` does.
    """
    _check_input(riemann, m)
    n = riemann.dim
    k = min(m, n - m)
    best = np.inf
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    remaining = ORACLE_SAMPLES
    while remaining > 0:
        count = min(SAMPLE_CHUNK, remaining)
        frames = random_frames(n, k, count, rng)
        best = min(best, float(np.min(_oracle_values(riemann, frames, m))))
        remaining -= count
    return best
