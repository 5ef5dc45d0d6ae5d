"""Minimizing the partial curvature sum over orthonormal m-frames.

For an m-frame F = (e_1, ..., e_m) completed to an orthonormal basis, the
quantity of interest is

    C_m(F) = sum_{p=1}^m sum_{q=p+1}^n Rm(e_p, e_q, e_p, e_q),

which depends only on the span of F.  Writing P = Q Q^T for the projection
onto that span,

    C_m(F) = tr(Ric P) - 1/2 Rm_{pqrs} P_{pr} P_{qs},

and this projection form is what the batched evaluator and the descent use.
`cm_double_sum` keeps the literal completed-basis double sum alive as an
independent slow route; the two are tested against each other and are never
merged.

Stacks of frames have shape (B, n, m).  One kernel evaluates a stack: a
batched matmul builds the projections, and one GEMM against the (n^2, n^2)
flattening F_{(q,s),(a,b)} = Rm_{aqbs} gives B_ab = Rm_{aqbs} P_qs, from
which follow both the values tr(Ric P) - 1/2 <B, P> and the Euclidean
gradient 2 (Ric - B) Q.  One orthonormalization kernel, classical
Gram-Schmidt applied twice and vectorized over the stack, gives the
positive-diagonal QR factor for sampling and for the retraction.

`cm_min` runs three phases: coordinate-subset enumeration, chunked random
sampling with a fresh generator per chunk, and projected gradient descent on
the Stiefel manifold from the most promising starts.  The descent runs in
lockstep over the stack of starts: every frame keeps its own step size and
Armijo test, frames still backtracking stay pending, and a frame leaves the
stack when it stops, so each start follows the path it would follow alone
(up to rounding).  Results are bitwise reproducible for a fixed seed and
budget.

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

import itertools
from dataclasses import dataclass

import numpy as np

from .curvature import RiemannData

__all__ = [
    "CmResult",
    "DescentResult",
    "coordinate_frame",
    "complete_frame",
    "cm_of_frame",
    "cm_batch",
    "cm_double_sum",
    "cm_gradient",
    "tangent_project",
    "stiefel_retract",
    "stiefel_descent",
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
DESCENT_STARTS = 8  # best random samples that descend beside the best coordinate frame
TIE_TOL = 1e-9      # a coordinate subset this close to the best value is reported


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


def cm_of_frame(riemann: RiemannData, q: np.ndarray, check: bool = True) -> float:
    """C_m of a single frame through the projection form."""
    q = _check_frame(riemann, q) if check else np.asarray(q, dtype=float)
    p = q @ q.T
    quad = np.einsum("pqrs,pr,qs->", riemann.components, p, p)
    return float(np.einsum("ab,ab->", riemann.ricci, p) - 0.5 * quad)


def _flattening(riemann: RiemannData) -> tuple[np.ndarray, np.ndarray]:
    """F[(q, s), (a, b)] = Rm_{aqbs} as an (n^2, n^2) matrix, and Ric flattened."""
    n = riemann.dim
    return (riemann.components.transpose(1, 3, 0, 2).reshape(n * n, n * n),
            riemann.ricci.reshape(n * n))


def _evaluate(qs: np.ndarray, flat: np.ndarray,
              ricci_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and B_ab = Rm_{aqbs} P_qs for a stack of frames (B, n, m)."""
    b, n = qs.shape[:2]
    pf = (qs @ np.swapaxes(qs, 1, 2)).reshape(b, n * n)
    bf = pf @ flat
    vals = pf @ ricci_flat - 0.5 * np.einsum("bk,bk->b", bf, pf)
    return vals, bf.reshape(b, n, n)


def cm_batch(riemann: RiemannData, qs: np.ndarray) -> np.ndarray:
    """Projection-form values for a stack of frames, shape (B, n, m).

    The quadratic part is a single GEMM against the (n^2, n^2) matrix
    flattening of the curvature tensor.
    """
    return _evaluate(np.asarray(qs, dtype=float), *_flattening(riemann))[0]


def complete_frame(q: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
    """Extend an m-frame to a full orthonormal basis (columns).

    The first m columns reproduce q.  The others orthonormalize the columns
    of a seed block, in order, skipping those already in the span.  `extra`
    overrides the identity seed block, which lets tests confirm that
    downstream quantities do not depend on the completion.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    seed_block = np.eye(n) if extra is None else np.asarray(extra, dtype=float)
    full = stiefel_retract(q)
    if np.max(np.abs(full - q)) > 1e-9:
        raise ValueError("completion failed to preserve the input frame")
    for col in seed_block.T:
        if full.shape[1] == n:
            break
        try:
            full = stiefel_retract(np.column_stack([full, col]))
        except ValueError:
            continue
    if full.shape[1] < n:
        raise ValueError("the seed block does not span the complement of the frame")
    return full


def cm_double_sum(riemann: RiemannData, full_basis: np.ndarray, m: int) -> float:
    """Literal double sum over a completed basis; slow independent route."""
    full_basis = np.asarray(full_basis, dtype=float)
    n = riemann.dim
    if full_basis.shape != (n, n):
        raise ValueError("need a full orthonormal basis, one vector per column")
    total = 0.0
    for p_idx in range(m):
        for q_idx in range(p_idx + 1, n):
            ep, eq = full_basis[:, p_idx], full_basis[:, q_idx]
            total += float(np.einsum("pqrs,p,q,r,s->", riemann.components,
                                     ep, eq, ep, eq))
    return total


# ---------------------------------------------------------------------------
# gradient and descent on the Stiefel manifold
# ---------------------------------------------------------------------------

def cm_gradient(riemann: RiemannData, q: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the projection form at Q (no manifold projection).

    d/dQ [tr(Ric QQ^T) - 1/2 Rm(QQ^T, QQ^T)] = 2 (Ric - B) Q with
    B_ab = Rm_{aqbs} P_{qs}; B is symmetric by the pair symmetry of Rm.
    """
    q = np.asarray(q, dtype=float)
    p = q @ q.T
    b = np.einsum("aqbs,qs->ab", riemann.components, p)
    return 2.0 * (riemann.ricci - b) @ q


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


@dataclass(frozen=True)
class DescentResult:
    frame: np.ndarray
    value: float
    iterations: int
    evaluations: int
    converged: bool


def _descend(riemann: RiemannData, q0: np.ndarray, max_iter: int, armijo: float,
             step_tol: float):
    """Projected gradient descent in lockstep from a stack of starts (k, n, m).

    Each round retracts and evaluates every pending frame at its own step
    in one call each.  A frame's first trial step is 1/(1 + |g|), later
    ones the capped BB1 step from its own last move and gradient change.
    A frame whose Armijo test fails halves its step and stays pending; one
    that passes moves, takes a fresh gradient from the B the evaluation
    gave, and stays in the stack until its gradient or its move falls
    below step_tol, a move leaves its value unchanged, HALVINGS
    halvings all fail, max_iter iterations are spent, or its gradient is
    not finite (an overflow, reported as not converged).  Returns per-start
    frames, values, iterations, evaluations and converged flags.
    """
    flat, ricci_flat = _flattening(riemann)
    q = stiefel_retract(q0)
    val, bmat = _evaluate(q, flat, ricci_flat)
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
            small = finite & (gnorm < step_tol)
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
        cand_val, cand_b = _evaluate(cand, flat, ricci_flat)
        evals[idx] += 1
        ok = cand_val <= val[idx] - armijo * step[idx] * gnorm2[idx]
        acc = idx[ok]
        # a step that leaves the value unchanged passed Armijo only because the
        # required decrease is below the value's rounding: nothing more to gain
        stalled = ((np.max(np.abs(cand[ok] - q[acc]), axis=(1, 2)) < step_tol)
                   | (cand_val[ok] == val[acc]))
        q[acc], val[acc], bmat[acc] = cand[ok], cand_val[ok], cand_b[ok]
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


def stiefel_descent(riemann: RiemannData, q0: np.ndarray, max_iter: int = 500,
                    armijo: float = ARMIJO, step_tol: float = STEP_TOL) -> DescentResult:
    """Projected gradient descent from one frame.

    Capped Barzilai-Borwein trial steps with monotone Armijo backtracking
    (see the module docstring), retracted by the positive-diagonal QR
    factor computed by Gram-Schmidt.
    """
    q, val, iters, evals, converged = _descend(
        riemann, np.asarray(q0, dtype=float)[None], max_iter, armijo, step_tol)
    return DescentResult(q[0], float(val[0]), int(iters[0]), int(evals[0]),
                         bool(converged[0]))


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
    """Outcome of a C_m minimization.

    `value` is the smallest value seen anywhere; `argmin` is a frame
    achieving it to within the tie tolerance, with coordinate frames
    preferred when they tie.  `method` names the phase that produced the
    reported argmin.
    """

    value: float
    argmin: np.ndarray
    evaluations: int
    method: str
    coordinate_subset: tuple[int, ...] | None = None


def cm_min(riemann: RiemannData, m: int, budget: int = 100_000, seed: int = 0,
           max_iter: int = 500) -> CmResult:
    """Minimize C_m over m-frames: enumeration, sampling, then descent.

    The random phase draws `budget` Haar frames in chunks, seeding a fresh
    PCG64 generator with seed + chunk_index so the stream is independent of
    chunk size bookkeeping.  Descent runs in lockstep from the best
    coordinate frame and the DESCENT_STARTS best samples; `max_iter` = 0
    skips it.  When a coordinate subset comes within TIE_TOL of the best
    value found, the lexicographically first such subset is reported as the
    argmin.
    """
    n = riemann.dim
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= {n}, got m = {m}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not np.isfinite(riemann.components).all():
        raise ValueError("curvature components are not finite")

    # phase 1: coordinate subsets, in lexicographic order
    subsets = list(itertools.combinations(range(n), m))
    coord_qs = np.stack([coordinate_frame(n, s) for s in subsets])
    coord_vals = cm_batch(riemann, coord_qs)
    evaluations = len(subsets)
    coord_best = int(np.argmin(coord_vals))

    # phase 2: chunked random sampling
    top_vals: list[float] = []
    top_frames: list[np.ndarray] = []
    rand_best_val = np.inf
    rand_best_frame = None
    remaining = int(budget)
    chunk_index = 0
    while remaining > 0:
        count = min(SAMPLE_CHUNK, remaining)
        rng = np.random.Generator(np.random.PCG64(seed + chunk_index))
        frames = random_frames(n, m, count, rng)
        vals = cm_batch(riemann, frames)
        evaluations += count
        keep = min(DESCENT_STARTS, count)
        order = np.argsort(vals, kind="stable")[:keep]
        top_vals.extend(float(vals[i]) for i in order)
        # copies, not views, so that each chunk is freed after its turn
        top_frames.extend(frames[i].copy() for i in order)
        if vals[order[0]] < rand_best_val:
            rand_best_val = float(vals[order[0]])
            rand_best_frame = frames[order[0]].copy()
        remaining -= count
        chunk_index += 1

    # phase 3: lockstep descent from the best coordinate frame and best samples
    desc_best_val = np.inf
    desc_best_frame = None
    if max_iter > 0:
        starts = [coord_qs[coord_best]]
        if top_frames:
            order = np.argsort(np.asarray(top_vals), kind="stable")[:DESCENT_STARTS]
            starts.extend(top_frames[i] for i in order)
        q, vals, _, evals, _ = _descend(riemann, np.stack(starts), max_iter,
                                        ARMIJO, STEP_TOL)
        evaluations += int(evals.sum())
        best = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
        if vals[best] < desc_best_val:
            desc_best_val = float(vals[best])
            desc_best_frame = q[best]

    best_value = float(min(coord_vals[coord_best], rand_best_val, desc_best_val))

    for idx, s in enumerate(subsets):
        if coord_vals[idx] <= best_value + TIE_TOL:
            return CmResult(best_value, coord_qs[idx], evaluations,
                            "coordinate-enumeration", s)
    if rand_best_frame is not None and rand_best_val <= best_value:
        return CmResult(best_value, rand_best_frame, evaluations,
                        "random-sampling")
    return CmResult(best_value, desc_best_frame, evaluations,
                    "projected-descent")


def cm_min_oracle(riemann: RiemannData, m: int, samples: int = 20_000,
                  seed: int = 0) -> float:
    """Pure-sampling baseline: min over random frames only, no descent.

    Evaluation goes through a direct einsum contraction rather than the
    flattened matrix product used by `cm_batch`, so the two minimization
    routes share no arithmetic.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = riemann.dim
    best = np.inf
    rng = np.random.default_rng(seed)
    remaining = int(samples)
    while remaining > 0:
        count = min(SAMPLE_CHUNK, remaining)
        frames = random_frames(n, m, count, rng)
        ps = np.einsum("bia,bja->bij", frames, frames)
        vals = (np.einsum("ab,nab->n", riemann.ricci, ps)
                - 0.5 * np.einsum("pqrs,npr,nqs->n", riemann.components, ps, ps))
        best = min(best, float(np.min(vals)))
        remaining -= count
    return best
