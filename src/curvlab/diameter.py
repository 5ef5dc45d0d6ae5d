"""Diameter bounds under partial curvature positivity, and the identity between them.

Three bound formulas with different hypotheses and normalizations live
side by side and take plain values.  `c0_identity_check` ties them
together: the partial-curvature bound constant C0, the third candidate of
D(n, m), satisfies

    1/C0 = (d-1) + (d-3)^2 / (4/gamma - (d-1)),
    d = n - m + 1,  gamma = (2m-2)/m,

exactly in rational arithmetic, which is the slice-dimension form of the
gradient-estimate bound with Ricci-normalized lambda/(d-1).  Callers own
that normalization translation; nothing here rescales lambda silently.

The bound pi/sqrt(lam C0(n, m)) is sharp at m = n-2.  There both
admissibility polynomials equal 2, so C0(n, n-2) = 1/2 exactly, and the
model dr^2 + f(r)^2 g_(S^2) with f = rho sin(r/rho), rho = sqrt(2/lam), is
the round S^3 of radius rho: its diameter pi rho is the bound.  The
`diameter` subcommand reports that model in closed form.  A chart-graph
shortest-path estimator of the same diameter lives in
`tests/diameter_references.py`, where tests play it against scipy's
Dijkstra and against pi rho.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .inequalities import DIMENSIONS, admissible, d_of

__all__ = [
    "c0_of",
    "shen_ye_bound",
    "antonelli_xu_bound",
    "cm_diameter_bound",
    "c0_identity_check",
    "c0_identity_sweep",
]


def c0_of(n: int, m: int) -> Fraction:
    """Exact bound constant (m^2-mn+m+n)/(2(m^2-mn+2n-2)) for admissible pairs."""
    return d_of(n, m).candidates[2]


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def _check_common(d: int, gamma: Fraction | float, lam: float) -> None:
    if d < 3:
        raise ValueError(f"need dimension d >= 3, got {d}")
    if gamma < 0:
        raise ValueError(f"need gamma >= 0, got {gamma}")
    if not lam > 0:
        raise ValueError(f"need lambda > 0, got {lam}")


def shen_ye_bound(d: int, gamma: Fraction | float, lam: float) -> float:
    """Diameter bound sqrt(d-1 + (d-3)^2/(4/gamma - d + 1)) * pi/sqrt((d-1) lam).

    Validity: gamma < 4/(d-1) for d > 3; gamma <= 2 when d = 3, where the
    (d-3)^2 factor kills the correction term regardless of gamma, so the
    correction is defined as 0 there (and at gamma = 0).  `lam` uses this
    formula's own normalization.  The product (d-1) lam is never formed, so
    the bound is finite for every finite lam > 0, also where it would overflow.
    """
    _check_common(d, gamma, lam)
    if d == 3:
        if gamma > 2:
            raise ValueError(f"need gamma <= 2 at d = 3, got {gamma}")
        correction = 0.0
    else:
        if gamma >= Fraction(4, d - 1):
            raise ValueError(f"need gamma < 4/(d-1) = {Fraction(4, d - 1)} "
                             f"at d = {d}, got {gamma}")
        correction = 0.0 if gamma == 0 else (d - 3) ** 2 / (4.0 / float(gamma) - (d - 1))
    return math.sqrt(((d - 1) + correction) / (d - 1)) * math.pi / math.sqrt(lam)


def antonelli_xu_bound(d: int, gamma: Fraction | float, lam: float, ratio: float) -> float:
    """Diameter bound pi/sqrt(lam) * ratio^(gamma (d-3)/(d-1)).

    `ratio` is the eigenfunction oscillation u_max/u_min.
    """
    _check_common(d, gamma, lam)
    if gamma > Fraction(d - 1, d - 2):
        raise ValueError(f"need gamma <= (d-1)/(d-2) = {Fraction(d - 1, d - 2)}, "
                         f"got {gamma}")
    if not ratio > 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    exponent = float(gamma) * (d - 3) / (d - 1)
    return math.pi / math.sqrt(lam) * ratio ** exponent


def cm_diameter_bound(n: int, m: int, lam: float) -> float:
    """Diameter bound pi/sqrt(lam C0(n, m)) under uniformly positive C_m.

    The square roots are taken apart, so the bound is finite for every
    finite lam > 0, also where lam * C0 would underflow to 0.
    """
    if not lam > 0:
        raise ValueError(f"need lambda > 0, got {lam}")
    return math.pi / (math.sqrt(lam) * math.sqrt(c0_of(n, m)))


# ---------------------------------------------------------------------------
# the identity tying the constants together
# ---------------------------------------------------------------------------

def c0_identity_check(n: int, m: int) -> dict:
    """Exact check that 1/C0 matches the slice-dimension gradient bound.

    Uses d = n-m+1 and gamma = (2m-2)/m; every quantity is a Fraction and
    the comparison is exact equality, no tolerance.
    """
    if m < 2:
        raise ValueError("the identity needs m >= 2 (gamma would vanish)")
    c0 = c0_of(n, m)
    d = n - m + 1
    gamma = Fraction(2 * m - 2, m)
    lhs = 1 / c0
    rhs = (d - 1) + Fraction((d - 3) ** 2) / (Fraction(4) / gamma - (d - 1))
    return {
        "n": n, "m": m, "d": d,
        "gamma": gamma, "c0": c0,
        "lhs": lhs, "rhs": rhs,
        "equal": lhs == rhs,
    }


def c0_identity_sweep() -> list[dict]:
    """Identity reports for every admissible pair with m >= 2 and n in DIMENSIONS."""
    rows = []
    for n in DIMENSIONS:
        for m in range(2, n):
            if admissible(n, m).admissible:
                rows.append(c0_identity_check(n, m))
    return rows
