"""Slow independent routes that the tests check `curvlab.frames` against.

`cm_double_sum` is the literal definition of C_m as a double sum over a
completed orthonormal basis, `complete_frame` builds that basis,
`cm_gradient` is the einsum form of the Euclidean gradient of the
projection form, and `oracle_values` is the one-pass 3-operand contraction
the sampling oracle once used.  None of them shares arithmetic with the
library's evaluation kernels.  `cm_batch` is the stacked evaluator that
`cm_min` once scored its coordinate frames with: the descent's symmetric
form applied to a whole stack in one (T, T) GEMM, a cross-check route for
the coordinate values that `cm_min` reads off the tensor.  `ky_fan_bound`
is the eigenvalue bound that `cm_min` took at most m before its Plücker
route, which must stay at or above it.  `sampled_search` is the sampled
start search that `cm_min`'s fallback must never lose to: descent from
the best coordinate frame and from each of the DESCENT_STARTS best of a
seeded Haar sample (`best_samples`), one start at a time.  `count_calls`
records the calls that go through module functions, the way the
benchmark's tracer sees them, and `coordinate_route` stands in for
`cm_min`'s route.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from curvlab import frames
from curvlab.curvature import RiemannData
from curvlab.frames import (MAX_ITER, SAMPLE_CHUNK, _descend, _evaluate, _symmetric_form,
                            _unit_scale, orthonormalize_frames)

DESCENT_STARTS = 8  # best random samples that descend beside the best coordinate frame


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
    full = orthonormalize_frames(q[None])[0]
    if np.max(np.abs(full - q)) > 1e-9:
        raise ValueError("completion failed to preserve the input frame")
    for col in seed_block.T:
        if full.shape[1] == n:
            break
        try:
            full = orthonormalize_frames(np.column_stack([full, col])[None])[0]
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


def cm_gradient(riemann: RiemannData, q: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the projection form at Q (no manifold projection).

    d/dQ [tr(Ric QQ^T) - 1/2 Rm(QQ^T, QQ^T)] = 2 (Ric - B) Q with
    B_ab = Rm_{aqbs} P_{qs}; B is symmetric by the pair symmetry of Rm.
    """
    q = np.asarray(q, dtype=float)
    p = q @ q.T
    b = np.einsum("aqbs,qs->ab", riemann.components, p)
    return 2.0 * (riemann.ricci - b) @ q


def oracle_values(riemann: RiemannData, qs: np.ndarray) -> np.ndarray:
    """C_m of a stack of frames (B, n, m) in one 3-operand einsum pass."""
    ps = np.einsum("bia,bja->bij", qs, qs)
    return (np.einsum("ab,nab->n", riemann.ricci, ps)
            - 0.5 * np.einsum("pqrs,npr,nqs->n", riemann.components, ps, ps))


def cm_batch(riemann: RiemannData, qs: np.ndarray) -> np.ndarray:
    """Projection-form values for a stack of frames, shape (B, n, m).

    The stack is read as its stack-last transpose (m, n, B); row r of P
    gives the upper-triangle coordinates x_t = P_rj, j >= r, and the
    quadratic part is one GEMM of the (T, T) symmetric form W against them.
    """
    weights, wmat = _symmetric_form(riemann)
    cols = np.asarray(qs, dtype=float).transpose(2, 1, 0)
    n = cols.shape[1]
    x = np.empty((len(weights), cols.shape[2]))
    start = 0
    for r in range(n):
        np.einsum("ab,ajb->jb", cols[:, r], cols[:, r:], out=x[start:start + n - r])
        start += n - r
    return weights @ x - 0.5 * np.einsum("tb,tb->b", x, wmat @ x)


def count_calls(monkeypatch, module, names):
    """Wrap `module.name` for each name so that every call records len(result).

    Returns {name: [len(result), ...]}, filled as calls go through the
    module attribute; `monkeypatch` restores the originals.
    """
    calls = {name: [] for name in names}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append(len(result))
            return result
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def coordinate_route(monkeypatch, bound) -> None:
    """Replace `cm_min`'s route by `bound(riemann, m)` and the first coordinate frame.

    The replacement scores that frame once, on the form `cm_min` passes, as
    the route scores the frame it returns.  The score never beats the
    coordinate minimum, so where the bound does not close `cm_min`
    descends from the best coordinate frame and that one.
    """
    def route(riemann, m, form):
        frame = frames.coordinate_frame(riemann.dim, tuple(range(m)))
        return bound(riemann, m), frame, _evaluate(frame, form)[0], 1

    monkeypatch.setattr(frames, "_lower_bound", route)


def curvature_operator(riemann: RiemannData) -> np.ndarray:
    """The curvature operator on 2-vectors: Rm_abcd over pairs a < b, c < d."""
    a, b = np.triu_indices(riemann.dim, 1)
    return riemann.components[a[:, None], b[:, None], a, b]


def ky_fan_bound(riemann: RiemannData, m: int) -> float:
    """Ky Fan's lower bound on C_m (Ky Fan 1949).

    With U the orthogonal complement of the span and Pi_U the projection
    onto the 2-vectors of U, C_m = tr(R (1 - Pi_U)), a trace of the
    curvature operator over a subspace of dimension C(n, 2) - C(n - m, 2);
    no such trace is below the sum of that many smallest eigenvalues.  They
    are summed directly: scal/2 minus the large ones cancels
    catastrophically when the components are large.
    """
    n = riemann.dim
    count = math.comb(n, 2) - math.comb(n - m, 2)
    return float(np.sum(np.linalg.eigvalsh(curvature_operator(riemann))[:count]))


def coordinate_frames(n: int, m: int) -> np.ndarray:
    """The coordinate m-frames of R^n, subsets in lexicographic order, shape (C(n, m), n, m)."""
    return np.stack([frames.coordinate_frame(n, s)
                     for s in itertools.combinations(range(n), m)])


def smallest(vals: np.ndarray, k: int) -> np.ndarray:
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


def best_samples(riemann: RiemannData, m: int, budget: int, seed: int) -> np.ndarray:
    """The DESCENT_STARTS best of `budget` Haar frames, best first.

    Frames are drawn in chunks of SAMPLE_CHUNK, each from a fresh PCG64
    generator seeded with seed + chunk_index, so the stream is independent
    of chunk size bookkeeping.  Each chunk's best frames are copied out,
    so the chunk is freed after its turn; ties keep drawing order.
    `random_frames` is looked up on `curvlab.frames`, and `cm_batch` on
    this module, on every chunk, so that wrappers installed on either see
    each call.
    """
    kept_vals, kept_frames = [], []
    remaining = int(budget)
    chunk_index = 0
    while remaining > 0:
        count = min(SAMPLE_CHUNK, remaining)
        rng = np.random.Generator(np.random.PCG64(seed + chunk_index))
        drawn = frames.random_frames(riemann.dim, m, count, rng)
        vals = cm_batch(riemann, drawn)
        best = smallest(vals, DESCENT_STARTS)
        # fancy indexing copies, so that each chunk is freed after its turn
        kept_vals.append(vals[best])
        kept_frames.append(drawn[best])
        remaining -= count
        chunk_index += 1
    best = smallest(np.concatenate(kept_vals), DESCENT_STARTS)
    return np.concatenate(kept_frames)[best]


def slow_path_starts(riemann: RiemannData, m: int, budget: int, seed: int) -> np.ndarray:
    """The starts of `sampled_search`: the best coordinate frame (the first on
    ties), then the best samples of `best_samples` in its order."""
    coords = coordinate_frames(riemann.dim, m)
    best = coords[np.argmin(cm_batch(riemann, coords))]
    return np.concatenate([best[None], best_samples(riemann, m, budget, seed)])


def sampled_search(riemann: RiemannData, m: int, budget: int, seed: int) -> float:
    """The smallest C_m that the sampled search finds: the coordinate minimum,
    or lower where descent from `slow_path_starts` gets there.

    Like `cm_min`, it runs on the tensor scaled to unit size and scales the
    value back.
    """
    unit, scale = _unit_scale(riemann)
    form = _symmetric_form(unit)
    coord_min = float(cm_batch(unit, coordinate_frames(unit.dim, m)).min())
    vals = [_descend(unit, form, q0, MAX_ITER)[1]
            for q0 in slow_path_starts(unit, m, budget, seed)]
    return scale * min(coord_min, *vals)
