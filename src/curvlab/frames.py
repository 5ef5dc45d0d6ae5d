"""Minimizing the partial curvature sum over orthonormal m-frames.

For an m-frame F = (e_1, ..., e_m) completed to an orthonormal basis, the
quantity of interest is

    C_m(F) = sum_{p=1}^m sum_{q=p+1}^n Rm(e_p, e_q, e_p, e_q),

which depends only on the span of F.  Writing P = Q Q^T for the projection
onto that span,

    C_m(F) = tr(Ric P) - 1/2 Rm_{pqrs} P_{pr} P_{qs}.

P is symmetric, so the batched evaluator and the descent use one quadratic
form in the T = n(n + 1)/2 upper-triangle entries x of P:

    C_m = w . x - 1/2 x . W x,    w = E^T Ric,  W = E^T F E,

with E the map from x to the n^2 entries of P and F_{(q,s),(a,b)} =
Rm_{aqbs}.  `cm_min_oracle` contracts the raw 4-tensor instead, and the
literal completed-basis double sum lives in the tests as an independent
slow route that both are checked against.

Stacks of frames have shape (B, n, m), and the kernels read them
stack-last, (m, n, B), the layout Gram-Schmidt produces, so that every
operation runs over contiguous rows of length B.  One kernel evaluates a
stack: one product per row of P builds x, and one (T, T) GEMM gives W x.
From it follow the values and B_ab = Rm_{aqbs} P_qs, which is W x on the
diagonal and half of it off the diagonal, hence the Euclidean gradient
2 (Ric - B) Q.  One orthonormalization kernel, classical Gram-Schmidt
applied twice and vectorized over the stack, gives the positive-diagonal
QR factor for sampling and for the retraction.

`cm_min` first tries to prove the minimum.  With U the orthogonal
complement of the span V and R the curvature operator on 2-vectors (the
C(n, 2) x C(n, 2) matrix Rm_{abcd} over pairs a < b, c < d),

    C_m(V) = scal/2 - tr(R Pi_U) = tr(R (1 - Pi_U)),

where Pi_U projects onto the 2-vectors of U, a subspace of dimension
C(n - m, 2).  Each m takes one route to a lower bound, the strongest this
module has there:

- m = 1: C_1(e) = Ric(e, e), so the bound is the smallest Ricci
  eigenvalue, and its eigenvector is the route's frame.
- m = n - 2 (n >= 4): U is a 2-plane and Pi_U projects onto the single
  decomposable 2-vector u_1 ^ u_2, on which every 4-form eta vanishes as
  a quadratic form; so C_(n-2) >= scal/2 - lambda_max(R + eta) for every
  eta (Thorpe's trick: J. Thorpe 1972; R. Bettiol and R. Mendes 2018).  A
  BFGS loop in numpy lowers lambda_max over combinations of the C(n, 4)
  basis 4-forms, starting at eta = 0.  The top eigenvector of R + eta,
  read as an antisymmetric matrix, gives the 2-plane of its top two
  singular vectors, and a short descent polishes the complementary frame,
  the route's frame.
- any other m: by Ky Fan's maximum principle (Ky Fan 1949) the trace of R
  over any subspace of dimension k = C(n, 2) - C(n - m, 2) is at least the
  sum of the k smallest eigenvalues of R.  That bound has no frame.

Both special bounds are at least the Ky Fan bound: at m = 1 Ky Fan bounds
every unit vector's Ricci value, and at m = n - 2 the ascent starts from
it.  `cm_min` proves the minimum when the route's bound meets the best
frame it has scored (its docstring states the closure rule, the
`stop_below` witness and how evaluations are counted).

Otherwise projected gradient descent on the Stiefel manifold runs from
the best coordinate frame and the best of a chunked random sample, each
chunk's best found by partial selection.  Sampling only picks starts and
descent only accepts decreases, so the outcome is "coordinate-enumeration"
when a coordinate subset ties the best value, else "projected-descent".
The descent runs in lockstep over the stack of starts: every frame keeps
its own step size and Armijo test, frames still backtracking stay pending,
and a frame leaves the stack when it stops, so each start follows the
path it would follow alone (up to rounding).
Results are bitwise reproducible for a fixed seed and budget.

Step rule (Barzilai-Borwein steps on the Stiefel manifold, as in Wen and
Yin 2013): the first trial step is 1/(1 + |G|) for the tangent gradient G.
From the second iteration on it is the BB1 step <s, s>/<s, y>, with
s = Q_k - Q_{k-1} and y = G_k - G_{k-1} the last move and gradient change
of that frame, capped at 1/|G_k| so that a trial move Q - tG has at most
unit Frobenius length; when <s, y> <= 0 the step is the cap itself.  The
trial step is halved until the monotone Armijo test passes.  The cap is
needed: on the construction tensors an uncapped BB step can ask for a move
of nearly 3.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curvature import RiemannData

__all__ = [
    "CmResult",
    "coordinate_frame",
    "cm_of_frame",
    "cm_batch",
    "tangent_project",
    "stiefel_retract",
    "orthonormalize_frames",
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
DESCENT_STARTS = 8  # best random samples that descend beside the best coordinate frame
TIE_TOL = 1e-9      # a coordinate subset this close to the best value is reported
ORACLE_SAMPLES = 20_000  # frames cm_min_oracle draws
ORACLE_SLICE = 512       # frames the oracle contracts at a time
ASCENT_ITER = 200   # quasi-Newton iterations of the 4-form bound
POLISH_ITER = 50    # descent iterations that polish the 4-form witness


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
    defect = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
    if defect > ORTHONORMAL_TOL:
        raise ValueError(f"frame is not orthonormal (defect {defect:.2e})")
    return q


def cm_of_frame(riemann: RiemannData, q: np.ndarray) -> float:
    """C_m of a single orthonormal frame through the projection form."""
    q = _check_frame(riemann, q)
    p = q @ q.T
    quad = np.einsum("pqrs,pr,qs->", riemann.components, p, p)
    return float(np.einsum("ab,ab->", riemann.ricci, p) - 0.5 * quad)


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The T = n(n + 1)/2 pairs i <= j in row-major order, the (n, n) table of
    each entry's pair, and how many entries of a symmetric matrix each pair
    stands for (1 on the diagonal, 2 off it).  The arrays are shared;
    callers must not write them.
    """
    i, j = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    return i, j, pair, np.where(i == j, 1.0, 2.0)


def _symmetric_form(riemann: RiemannData) -> tuple[np.ndarray, np.ndarray]:
    """C_m = w.x - 1/2 x.W x in the upper-triangle coordinates x of P = Q Q^T.

    With E the (n^2, T) map from x to the entries of P and
    F_{(q,s),(a,b)} = Rm_{aqbs}, w = E^T Ric and W = E^T F E: each sums the
    entries that a coordinate stands for.  The sums below run over both
    orders of every pair, which counts a diagonal pair's one entry twice.
    """
    i, j, _, count = _pairs(riemann.dim)
    rm = riemann.components
    a, b = i[:, None], j[:, None]
    wmat = ((rm[a, i, b, j] + rm[a, j, b, i] + rm[b, i, a, j] + rm[b, j, a, i])
            * (0.25 * count[:, None] * count))
    return (riemann.ricci[i, j] + riemann.ricci[j, i]) * (0.5 * count), wmat


def _evaluate(qs: np.ndarray,
              form: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Values and W x, shape (T, B), for a stack of frames (B, n, m).

    The stack is read as its stack-last transpose (m, n, B), which is the
    contiguous array behind frames from `orthonormalize_frames`; row r of
    P gives the coordinates x_t = P_rj, j >= r.
    """
    weights, wmat = form
    cols = qs.transpose(2, 1, 0)
    n = cols.shape[1]
    x = np.empty((len(weights), cols.shape[2]))
    start = 0
    for r in range(n):
        np.einsum("ab,ajb->jb", cols[:, r], cols[:, r:], out=x[start:start + n - r])
        start += n - r
    wx = wmat @ x
    return weights @ x - 0.5 * np.einsum("tb,tb->b", x, wx), wx


def _contraction(wx: np.ndarray, n: int) -> np.ndarray:
    """B_ab = Rm_{aqbs} P_qs for a stack, shape (B, n, n), from W x.

    (W x)_t sums B over the entries that pair t stands for, so an
    off-diagonal entry is half of it.
    """
    _, _, pair, count = _pairs(n)
    return (wx / count[:, None])[pair].transpose(2, 0, 1)


def cm_batch(riemann: RiemannData, qs: np.ndarray) -> np.ndarray:
    """Projection-form values for a stack of frames, shape (B, n, m).

    The quadratic part is one GEMM of the (T, T) symmetric form W against
    the stack-last coordinates of the projections, T = n(n + 1)/2.
    """
    return _evaluate(np.asarray(qs, dtype=float), _symmetric_form(riemann))[0]


# ---------------------------------------------------------------------------
# descent on the Stiefel manifold
# ---------------------------------------------------------------------------

def tangent_project(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project an ambient direction onto the Stiefel tangent space at Q.

    Takes one frame or a stack of frames with matching directions.
    """
    qtg = np.swapaxes(q, -1, -2) @ g
    return g - q @ (0.5 * (qtg + np.swapaxes(qtg, -1, -2)))


def stiefel_retract(y: np.ndarray) -> np.ndarray:
    """Nearest-frame retraction: the positive-diagonal QR factor.

    Takes one (n, m) matrix or a stack of them, shape (B, n, m).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 2:
        return orthonormalize_frames(y[None])[0]
    return orthonormalize_frames(y)


def _descend(riemann: RiemannData, q0: np.ndarray, max_iter: int):
    """Projected gradient descent in lockstep from a stack of starts (k, n, m).

    Each round retracts and evaluates every pending frame at its own step
    in one call each.  A frame's first trial step is 1/(1 + |g|), later
    ones the capped BB1 step from its own last move and gradient change.
    A frame whose Armijo test fails halves its step and stays pending; one
    that passes moves, takes a fresh gradient from the B that the
    evaluation's W x gives, and stays in the stack until its gradient or
    its move falls below STEP_TOL, a move leaves its value unchanged,
    HALVINGS halvings all fail, max_iter iterations are spent, or its
    gradient is not finite (an overflow, reported as not converged).  Returns per-start
    frames, values, iterations, evaluations and converged flags.
    """
    n = riemann.dim
    form = _symmetric_form(riemann)
    q = stiefel_retract(q0)
    val, wx = _evaluate(q, form)
    bmat = _contraction(wx, n)
    k = len(q)
    iters = np.zeros(k, dtype=int)
    evals = np.ones(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    grad = np.zeros_like(q)
    qprev = np.zeros_like(q)
    gnorm2 = np.zeros(k)
    step = np.zeros(k)
    halvings = np.zeros(k, dtype=int)
    fresh = np.full(k, max_iter > 0)       # moved: needs a new gradient
    pending = np.zeros(k, dtype=bool)      # backtracking along its gradient
    while True:
        idx = np.flatnonzero(fresh)
        if idx.size:
            fresh[idx] = False
            iters[idx] += 1
            g = tangent_project(q[idx], 2.0 * (riemann.ricci - bmat[idx]) @ q[idx])
            with np.errstate(over="ignore", invalid="ignore"):
                g2 = np.einsum("kia,kia->k", g, g)
            finite = np.isfinite(g2)
            gnorm = np.sqrt(np.where(finite, g2, 0.0))
            small = finite & (gnorm < STEP_TOL)
            converged[idx[small]] = True
            go = finite & ~small
            moving = idx[go]
            g, gnorm = g[go], gnorm[go]
            step[moving] = 1.0 / (1.0 + gnorm)
            later = iters[moving] > 1
            if later.any():
                # <s, y> <= 0 leaves bb infinite, so the cap 1/|g| applies
                prev = moving[later]
                s = q[prev] - qprev[prev]
                y = g[later] - grad[prev]
                sy = np.einsum("kia,kia->k", s, y)
                bb = np.full(prev.size, np.inf)
                with np.errstate(over="ignore"):
                    np.divide(np.einsum("kia,kia->k", s, s), sy, out=bb, where=sy > 0)
                step[prev] = np.minimum(bb, 1.0 / gnorm[later])
            qprev[moving] = q[moving]
            grad[moving] = g
            gnorm2[moving] = g2[go]
            halvings[moving] = 0
            pending[moving] = True
        idx = np.flatnonzero(pending)
        if not idx.size:
            break
        cand = stiefel_retract(q[idx] - step[idx, None, None] * grad[idx])
        cand_val, cand_wx = _evaluate(cand, form)
        evals[idx] += 1
        ok = cand_val <= val[idx] - ARMIJO * step[idx] * gnorm2[idx]
        acc = idx[ok]
        # a step that leaves the value unchanged passed Armijo only because the
        # required decrease is below the value's rounding: nothing more to gain
        stalled = ((np.max(np.abs(cand[ok] - q[acc]), axis=(1, 2)) < STEP_TOL)
                   | (cand_val[ok] == val[acc]))
        q[acc], val[acc] = cand[ok], cand_val[ok]
        bmat[acc] = _contraction(cand_wx[:, ok], n)
        pending[acc] = False
        converged[acc[stalled]] = True
        fresh[acc[~stalled & (iters[acc] < max_iter)]] = True
        rej = idx[~ok]
        step[rej] *= 0.5
        halvings[rej] += 1
        spent = rej[halvings[rej] == HALVINGS]
        pending[spent] = False
        converged[spent] = True
    return q, val, iters, evals, converged


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

    `value` is the smallest value seen anywhere; `argmin` is a frame
    achieving it to within the tie tolerance, with coordinate frames
    preferred when they tie.  `lower_bound` is the bound of the route that
    `cm_min` takes at this m (see the module docstring); no frame goes
    below it.  `method` names the outcome: "certificate" when the bound
    proves the minimum at `argmin`, "witness" when the search stopped at a
    frame below the caller's `stop_below` (`value` is then that frame's
    value, an upper bound on the minimum, not the minimum), otherwise
    "coordinate-enumeration" when a coordinate subset ties the value, else
    "projected-descent".
    """

    value: float
    argmin: np.ndarray
    evaluations: int
    method: str
    lower_bound: float


def _curvature_operator(riemann: RiemannData) -> np.ndarray:
    """The curvature operator on 2-vectors: Rm_{abcd} over pairs a < b, c < d."""
    a, b = np.triu_indices(riemann.dim, 1)
    return riemann.components[a[:, None], b[:, None], a, b]


def _operator_lower_bound(riemann: RiemannData, m: int) -> float:
    """Sum of the smallest C(n, 2) - C(n - m, 2) eigenvalues of the curvature operator.

    The small eigenvalues are summed directly: scal/2 minus the large ones
    cancels catastrophically when the components are large.
    """
    n = riemann.dim
    count = math.comb(n, 2) - math.comb(n - m, 2)
    return float(np.sum(np.linalg.eigvalsh(_curvature_operator(riemann))[:count]))


@functools.lru_cache(maxsize=None)
def _four_forms(n: int) -> np.ndarray:
    """The basis 4-forms e_i ^ e_j ^ e_k ^ e_l, i < j < k < l, as operators on 2-vectors.

    Shape (C(n, 4), C(n, 2), C(n, 2)), in the pair order of
    `_curvature_operator`: E[(i, j), (k, l)] = E[(i, l), (j, k)] = 1 and
    E[(i, k), (j, l)] = -1, with their transposes.  <E w, w> is twice the
    coefficient of w ^ w on the basis 4-form, so it vanishes on every
    decomposable 2-vector.  The array is shared; callers must not write it.
    """
    a, b = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[a, b] = np.arange(len(a))
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp)
    i, j, k, l = quads.reshape(-1, 4).T
    t = np.arange(len(quads))
    basis = np.zeros((len(quads), len(a), len(a)))
    for p, q, sign in ((pair[i, j], pair[k, l], 1.0), (pair[i, k], pair[j, l], -1.0),
                       (pair[i, l], pair[j, k], 1.0)):
        basis[t, p, q] = basis[t, q, p] = sign
    basis.flags.writeable = False
    return basis


def _four_form_bound(riemann: RiemannData) -> tuple[float, np.ndarray, np.ndarray]:
    """Thorpe's lower bound on C_(n-2): scal/2 - lambda_max(R + eta) at a 4-form eta.

    A 4-form has zero trace on the 2-vectors of every subspace, so for
    every eta and every 2-plane U, C_(n-2)(U-perp) = tr((R + eta)(1 - Pi_U))
    is at least the sum of all eigenvalues of R + eta but the largest.
    BFGS with Armijo backtracking minimizes f(c) = lambda_max(R + sum c_t E_t)
    over the coefficients on `_four_forms`; its gradient, where the top
    eigenvalue is simple, is v^T E_t v for the top eigenvector v (BFGS on a
    maximum eigenvalue: Lewis and Overton 2013).  The inverse Hessian
    starts as the identity; when the first step has <s, y> > 0 it is
    rescaled by <s, y>/<y, y> before that step's update, and an update
    with <s, y> <= 0 is skipped.  The ascent stops after ASCENT_ITER
    iterations, when a direction is not a descent direction, when HALVINGS
    halvings all fail, or when an accepted step leaves f unchanged.  Any
    eta gives a sound bound, so where it stops only decides how tight the
    bound is.  Returns the bound, eta as an operator on 2-vectors and the
    top eigenvector of R + eta.
    """
    op = _curvature_operator(riemann)
    basis = _four_forms(riemann.dim).reshape(-1, op.size)

    def spectrum(coef):
        vals, vecs = np.linalg.eigh(op + (coef @ basis).reshape(op.shape))
        top = vecs[:, -1]
        return vals, top, basis @ np.outer(top, top).ravel()

    coef = np.zeros(len(basis))
    vals, top, grad = spectrum(coef)
    hinv = np.eye(len(coef))
    for it in range(ASCENT_ITER):
        direction = -hinv @ grad
        slope = grad @ direction
        if not slope < 0:
            break
        step = 1.0
        for _ in range(HALVINGS):
            trial = coef + step * direction
            t_vals, t_top, t_grad = spectrum(trial)
            if t_vals[-1] <= vals[-1] + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = trial - coef, t_grad - grad
        unchanged = t_vals[-1] == vals[-1]
        coef, vals, top, grad = trial, t_vals, t_top, t_grad
        if unchanged:
            break
        sy = s @ y
        if sy > 0:
            if it == 0:
                hinv *= sy / (y @ y)
            hy = hinv @ y
            hinv += (((sy + y @ hy) / sy) * np.outer(s, s) - np.outer(s, hy)
                     - np.outer(hy, s)) / sy
    return float(np.sum(vals[:-1])), (coef @ basis).reshape(op.shape), top


def _lower_bound(riemann: RiemannData, m: int) -> tuple[float, np.ndarray | None, int]:
    """The route's lower bound on C_m: (bound, frame or None, evaluations).

    m = 1: the smallest Ricci eigenvalue and its eigenvector.  The bound
    is taken from `eigvalsh`, like the Ky Fan bound, since `eigh` rounds
    its eigenvalues differently.  m = n - 2 (so n >= 4, as m >= 2 here):
    Thorpe's 4-form bound and the frame V = U-perp, with U the 2-plane of
    the top two singular vectors of the top eigenvector of R + eta read as
    an antisymmetric matrix, polished by at most POLISH_ITER descent
    iterations; the evaluations are the polish's.  Any other m: the Ky Fan
    bound, with no frame and no evaluations.
    """
    n = riemann.dim
    if m == 1:
        return (float(np.linalg.eigvalsh(riemann.ricci)[0]),
                np.linalg.eigh(riemann.ricci)[1][:, :1], 0)
    if n - m == 2:
        bound, _, top = _four_form_bound(riemann)
        a, b = np.triu_indices(n, 1)
        form = np.zeros((n, n))
        form[a, b], form[b, a] = top, -top
        start = np.linalg.svd(form)[0][:, 2:]
        polished, _, _, evals, _ = _descend(riemann, start[None], POLISH_ITER)
        return bound, polished[0], int(evals[0])
    return _operator_lower_bound(riemann, m), None, 0


def _smallest(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, exactly the prefix of a stable argsort.

    A partition finds the k-th smallest value; only the values not above it
    are sorted.  NaN is never below it, and when the k-th value is itself
    NaN every value takes part, so NaNs sort last in index order as well.
    """
    if len(vals) <= k:
        return np.argsort(vals, kind="stable")
    kth = np.partition(vals, k - 1)[k - 1]
    kept = np.flatnonzero(~(vals > kth))
    return kept[np.argsort(vals[kept], kind="stable")[:k]]


def _best_samples(riemann: RiemannData, m: int, budget: int, seed: int) -> np.ndarray:
    """The DESCENT_STARTS best of `budget` Haar frames, best first.

    Frames are drawn in chunks of SAMPLE_CHUNK, each from a fresh PCG64
    generator seeded with seed + chunk_index, so the stream is independent
    of chunk size bookkeeping.  Each chunk's best frames are copied out,
    so the chunk is freed after its turn; ties keep drawing order.
    `random_frames` and `cm_batch` are looked up as module globals on
    every chunk, so that wrappers installed on the module see each call.
    """
    kept_vals, kept_frames = [], []
    remaining = int(budget)
    chunk_index = 0
    while remaining > 0:
        count = min(SAMPLE_CHUNK, remaining)
        rng = np.random.Generator(np.random.PCG64(seed + chunk_index))
        frames = random_frames(riemann.dim, m, count, rng)
        vals = cm_batch(riemann, frames)
        best = _smallest(vals, DESCENT_STARTS)
        # fancy indexing copies, so that each chunk is freed after its turn
        kept_vals.append(vals[best])
        kept_frames.append(frames[best])
        remaining -= count
        chunk_index += 1
    best = _smallest(np.concatenate(kept_vals), DESCENT_STARTS)
    return np.concatenate(kept_frames)[best]


def _check_m(n: int, m: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= {n}, got m = {m}")


def cm_min(riemann: RiemannData, m: int, budget: int = 100_000, seed: int = 0, *,
           stop_below: float | None = None) -> CmResult:
    """Minimize C_m over m-frames: certificate, else enumeration and sampled descent.

    Coordinate subsets are enumerated first; their minimum is an upper
    bound.  `_lower_bound` gives this m's route: a lower bound and, at
    m = 1 and m = n - 2, a frame, which is scored once; the value is the
    smaller of the coordinate minimum and that score.  When value and
    bound agree within TIE_TOL on both sides, the minimum is proven, with
    method "certificate".  Otherwise, when the caller only asks whether
    C_m stays at or above `stop_below` and the value already goes below
    it, the frame that attains the value answers no, with method
    "witness": its value is an upper bound on the minimum, not the minimum.  Otherwise
    `budget` Haar frames are sampled (see `_best_samples`) and descent
    runs in lockstep from the best coordinate frame and the
    DESCENT_STARTS best samples; the route's frame is not kept.
    `lower_bound` is the route's bound on every path, and `evaluations`
    counts what ran: C(n, m), the route's evaluations, one for the score
    when there is a frame, and the samples and descent when they run.
    On every path, when a coordinate subset comes within TIE_TOL of the
    best value found, the lexicographically first such subset is reported
    as the argmin.
    """
    n = riemann.dim
    _check_m(n, m)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not np.isfinite(riemann.components).all():
        raise ValueError("curvature components are not finite")

    # coordinate subsets, in lexicographic order
    subsets = list(itertools.combinations(range(n), m))
    coord_qs = np.stack([coordinate_frame(n, s) for s in subsets])
    coord_vals = cm_batch(riemann, coord_qs)
    coord_best = int(np.argmin(coord_vals))
    upper = float(coord_vals[coord_best])
    lower, best_frame, route_evals = _lower_bound(riemann, m)
    evaluations = len(subsets) + route_evals
    best_value = upper
    if best_frame is not None:
        best_value = min(upper, float(cm_batch(riemann, best_frame[None])[0]))
        evaluations += 1

    # both-sided: a bound far above an attained value is rounding, not a proof
    if abs(best_value - lower) <= TIE_TOL:
        method = "certificate"
    elif stop_below is not None and best_value < stop_below:
        method = "witness"
    else:
        # lockstep descent from the best coordinate frame and the best samples
        starts = np.concatenate([coord_qs[coord_best][None],
                                 _best_samples(riemann, m, budget, seed)])
        desc_qs, desc_vals, _, evals, _ = _descend(riemann, starts, MAX_ITER)
        evaluations += int(budget) + int(evals.sum())
        desc_best = int(np.argmin(np.where(np.isnan(desc_vals), np.inf, desc_vals)))
        best_value = float(min(upper, desc_vals[desc_best]))
        best_frame, method = desc_qs[desc_best], "projected-descent"

    tied = np.flatnonzero(coord_vals <= best_value + TIE_TOL)
    if tied.size:
        best_frame = coord_qs[tied[0]]
        if method == "projected-descent":
            method = "coordinate-enumeration"
    return CmResult(best_value, best_frame, evaluations, method, lower)


def _oracle_values(riemann: RiemannData, qs: np.ndarray) -> np.ndarray:
    """C_m of a stack of frames (B, n, m) by direct contraction with the 4-tensor.

    Rm_pqrs P_pr is contracted first and then dotted with P, ORACLE_SLICE
    frames at a time, which bounds the contraction's scratch memory.
    """
    vals = np.empty(len(qs))
    for start in range(0, len(qs), ORACLE_SLICE):
        part = qs[start:start + ORACLE_SLICE]
        ps = np.einsum("nia,nja->nij", part, part)
        rp = np.einsum("pqrs,npr->nqs", riemann.components, ps, optimize=True)
        vals[start:start + ORACLE_SLICE] = (np.einsum("ab,nab->n", riemann.ricci, ps)
                                            - 0.5 * np.einsum("nqs,nqs->n", rp, ps))
    return vals


def cm_min_oracle(riemann: RiemannData, m: int, seed: int = 0) -> float:
    """Pure-sampling baseline: min over ORACLE_SAMPLES random frames, no descent.

    It shares the Gram-Schmidt kernel of `random_frames` with `cm_min`, but
    not its frames: it draws from the first child of SeedSequence(seed),
    a stream that none of `cm_min`'s chunk generators PCG64(seed + chunk)
    reproduces.  Values come from `_oracle_values`, a contraction of the
    raw 4-tensor with full projections, so they share no arithmetic with
    the symmetric form of `cm_batch` and the descent.
    """
    n = riemann.dim
    _check_m(n, m)
    best = np.inf
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    remaining = ORACLE_SAMPLES
    while remaining > 0:
        count = min(SAMPLE_CHUNK, remaining)
        frames = random_frames(n, m, count, rng)
        best = min(best, float(np.min(_oracle_values(riemann, frames))))
        remaining -= count
    return best
