"""Slow independent routes that the tests check `curvlab.frames` against.

`cm_double_sum` is the literal definition of C_m as a double sum over a
completed orthonormal basis, `complete_frame` builds that basis,
`cm_gradient` is the einsum form of the Euclidean gradient of the
projection form, and `oracle_values` is the one-pass 3-operand contraction
the sampling oracle once used.  None of them shares arithmetic with the
library's evaluation kernels.  `count_calls` records the calls that go
through module functions, the way the benchmark's tracer sees them.
"""
from __future__ import annotations

import numpy as np

from curvlab.curvature import RiemannData
from curvlab.frames import stiefel_retract


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
