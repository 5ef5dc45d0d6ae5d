"""Closed-form warped metrics with uniformly positive partial curvature.

The radial profiles u, f solve

    (2m-2)/m * (u''/u + (n-m) (f'/f)(u'/u)) = -(n-m) f''/f - lambda,

with two closed branches: a Gaussian pair when 4/(n-m) = (2m-2)/m and a
cosh-power pair when 4/(n-m) < (2m-2)/m.  `build_counterexample` assembles
the warped torus metric from a profile solution; `verify_uniform_positivity`
sweeps a radial grid and takes the exact minimum of C_m at every point
from the class counts (`curvature.cm_min_exact`), so no frame is sampled;
`search_epsilon` looks for a sphere scale at which the sweep passes.

The circle-lift bookkeeping (`build_chain`) tracks the exponent chain that
turns one torus direction at a time into a warped circle factor, entirely
in rational arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import (
    TIE_TOL,
    RadialProfile,
    WarpedTorusMetric,
    cm_min_exact,
    cosh_power_profile,
    gaussian_profile,
    riemann_exact,
)
from .frames import cm_of_frame, coordinate_frame
from .inequalities import admissible

__all__ = [
    "UnsupportedParameters",
    "EpsilonSearchError",
    "ProfileSolution",
    "LiftChain",
    "PositivityReport",
    "EpsilonSearchResult",
    "CONSTRUCTION_PAIRS",
    "solve_profile",
    "ode_residual",
    "build_chain",
    "build_counterexample",
    "verify_uniform_positivity",
    "search_epsilon",
]

# the paper's pairs, 6 ≤ n ≤ 7
CONSTRUCTION_PAIRS = ((6, 2), (6, 3), (7, 2), (7, 3), (7, 4))

PASS_SLACK = 1e-6
MAX_HALVINGS = 20  # search_epsilon tries eps = 2^-t for t = 0..MAX_HALVINGS


class UnsupportedParameters(ValueError):
    """Raised when parameters violate a construction-range inequality."""


class EpsilonSearchError(RuntimeError):
    """No sphere scale in the search set passed; carries the best report.

    Every candidate's sweep is fail-fast, and its worst value is the exact
    minimum of C_m over the radii it visited.  The best report is the one
    with the highest such minimum.
    """

    def __init__(self, message: str, best_report: "PositivityReport"):
        super().__init__(message)
        self.best_report = best_report


# ---------------------------------------------------------------------------
# profile solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileSolution:
    """Closed-form (u, f) pair for given (n, m, lambda).

    c3 and c4 are the exact rational constants of the cosh branch; c4 = 0
    signals the Gaussian branch (the case test is an exact rational
    comparison, never floating point).
    """

    n: int
    m: int
    lam: float
    case: str
    c3: Fraction
    c4: Fraction
    u: RadialProfile
    f: RadialProfile
    params: dict


def solve_profile(n: int, m: int, lam: float) -> ProfileSolution:
    """Select and instantiate the closed profile branch for (n, m, lambda).

    For 1 <= m < n the construction range 4/(n-m) <= (2m-2)/m is exactly
    m^2 - mn + m + n <= 0, the failure of the second admissibility
    inequality; it forces m >= 2 and n - m >= 3.
    """
    if not 1 <= m < n:
        raise UnsupportedParameters(f"need 1 <= m < n, got (n, m) = ({n}, {m})")
    if admissible(n, m).ineq2 > 0:
        raise UnsupportedParameters(
            f"need 4/(n-m) <= (2m-2)/m, got {Fraction(4, n - m)} > "
            f"{Fraction(2 * m - 2, m)} at (n, m) = ({n}, {m})")
    if not lam > 0:
        raise UnsupportedParameters(f"need lambda > 0, got lambda = {lam}")

    c3 = Fraction(-2, n - m - 2)
    c4 = (Fraction(n - m) - Fraction(2 * m, m - 1)) / Fraction(n - m - 2) ** 2

    if c4 == 0:
        cu = Fraction(m, (2 * m - 2) * (n - m - 2))
        cf = Fraction(1, 2 * (n - m - 2))
        return ProfileSolution(
            n, m, float(lam), "equality", c3, c4,
            u=gaussian_profile(float(cu) * lam),
            f=gaussian_profile(-float(cf) * lam),
            params={"c_u": str(cu), "c_f": str(cf)})

    assert c4 > 0
    omega = math.sqrt(float(c4) * lam)
    pu = -m * c3 / ((2 * m - 2) * c4)
    pf = (c3 - 1) / ((n - m) * c4)
    return ProfileSolution(
        n, m, float(lam), "strict", c3, c4,
        u=cosh_power_profile(omega, float(pu)),
        f=cosh_power_profile(omega, float(pf)),
        params={"C3": str(c3), "C4": str(c4), "p_u": str(pu), "p_f": str(pf)})


def ode_residual(n: int, m: int, lam: float, sol: ProfileSolution, r) -> np.ndarray:
    """Defect of the profile equation at r (zero for both closed branches).

    Raises ValueError naming the first radius where the defect is not
    finite (the log-derivatives overflow far out on the Gaussian branch).
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(all="ignore"):
        lhs = (2.0 * m - 2.0) / m * (sol.u.d2_ratio(r)
                                     + (n - m) * sol.f.dlog(r) * sol.u.dlog(r))
        res = lhs + (n - m) * sol.f.d2_ratio(r) + lam
    bad = ~np.isfinite(res)
    if bad.any():
        raise ValueError(f"ODE residual at r = {float(r[bad][0])!r} is not finite")
    return res


# ---------------------------------------------------------------------------
# the circle-lift exponent chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftChain:
    """Exponent bookkeeping for turning torus directions into circle lifts.

    Stage j carries coefficient k_j = 2(m-1-j)/(m-j) and function u^((m-j)/m);
    each lift multiplies the fiber by the current function raised to
    4(2-k)/(4-k), which always collapses to u^(4/m) exactly.
    """

    n: int
    m: int
    k_sequence: tuple[Fraction, ...]
    function_exponents: tuple[Fraction, ...]
    fiber_exponent: Fraction
    identity_checks: tuple[tuple[str, bool], ...]

    @property
    def all_identities_hold(self) -> bool:
        return all(ok for _, ok in self.identity_checks)


def build_chain(n: int, m: int) -> LiftChain:
    """Exact rational chain for (n, m); m = 1 yields the empty chain."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"require 1 <= m <= n-1, got (n, m) = ({n}, {m})")
    if m == 1:
        return LiftChain(n, 1, (), (), Fraction(4, 1),
                         (("trivial chain", True),))

    ks = tuple(Fraction(2 * (m - 1 - j), m - j) for j in range(m))
    exps = tuple(Fraction(m - j, m) for j in range(m))
    fiber = Fraction(4, m)

    checks = [
        ("last coefficient vanishes", ks[-1] == 0),
        ("first coefficient is (2m-2)/m", ks[0] == Fraction(2 * m - 2, m)),
        ("step coefficient identity",
         all(Fraction(4) / (4 - ks[j + 1]) == Fraction(2 * (m - j - 1), m - j)
             for j in range(m - 1))),
        ("fiber exponent collapses to 4/m",
         all(exps[j] * 4 * (2 - ks[j + 1]) / (4 - ks[j + 1]) == fiber
             for j in range(m - 1))),
        ("function exponents step down",
         all(exps[j] * 2 / (4 - ks[j + 1]) == exps[j + 1]
             for j in range(m - 1))),
    ]
    return LiftChain(n, m, ks, exps, fiber, tuple(checks))


# ---------------------------------------------------------------------------
# metric assembly
# ---------------------------------------------------------------------------

def build_counterexample(n: int, m: int, lam: float, epsilon: float) -> WarpedTorusMetric:
    """Warped torus metric whose C_m is designed to stay at lambda."""
    if epsilon <= 0:
        raise UnsupportedParameters(f"need epsilon > 0, got {epsilon}")
    sol = solve_profile(n, m, lam)
    return WarpedTorusMetric(n, m, float(epsilon), sol.f, sol.u)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a radial-grid sweep of the exact C_m minimum.

    Every visited radius is decided exactly, so worst_value is the minimum
    of C_m over the radii the sweep visited (up to TIE_TOL, see
    `verify_uniform_positivity`).  worst_counts is the binding class-count
    vector (sphere, r, torus) there and worst_frame the coordinate frame
    of its subset.  `complete` is False when a fail-fast sweep stopped
    before the last radius.
    """

    passed: bool
    lam: float
    epsilon: float
    r_max: float
    grid_points: int
    worst_r: float
    worst_value: float
    worst_frame: np.ndarray
    worst_counts: tuple[int, int, int]
    coord_value_min: float
    coord_value_max: float
    complete: bool

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "grid": {"R": self.r_max, "points": self.grid_points},
            "complete": self.complete,
            "worst": {
                "r": self.worst_r,
                "value": self.worst_value,
                "frame": np.asarray(self.worst_frame).tolist(),
                "counts": list(self.worst_counts),
            },
            "coordinate_frame_value_range": [self.coord_value_min,
                                             self.coord_value_max],
        }


def verify_uniform_positivity(metric: WarpedTorusMetric, lam: float, r_grid,
                              fail_fast: bool = False) -> PositivityReport:
    """Take the exact minimum of C_m at every grid radius and compare against lambda.

    Passes iff the grid minimum is at least lambda * (1 - 1e-6).  The
    reported worst radius, value, class counts and frame belong to the
    first radius in sweep order whose value is within TIE_TOL of that
    minimum.  Also records the range of C_m at the distinguished
    coordinate frame, which the construction pins to lambda exactly,
    evaluated on the full curvature tensor by `cm_of_frame`, independently
    of the class counts.  A radius whose curvature cannot be evaluated
    (non-finite components) raises `riemann_exact`'s ValueError, which
    names that radius and the |r| up to which the curvature is finite; a
    non-finite class-count value raises `cm_min_exact`'s ValueError, which
    names the radius.  So a sweep never passes on values it did not
    compute; an empty grid raises ValueError before any radius.

    Grid points are processed in order of increasing |r| (violations
    cluster near the origin); with fail_fast=True the sweep stops at the
    first radius below the threshold and the report is marked incomplete
    when radii remain.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0:
        raise ValueError("the radial grid is empty")
    threshold = lam * (1.0 - PASS_SLACK)
    coord_q = coordinate_frame(metric.n, metric.coordinate_frame_indices())
    order = sorted(range(len(r_grid)), key=lambda i: (abs(r_grid[i]), r_grid[i]))

    visited = []  # (r, value, counts, subset) in sweep order
    cmin, cmax = np.inf, -np.inf
    for i in order:
        r = float(r_grid[i])
        rd = riemann_exact(metric, r)
        visited.append((r, *cm_min_exact(metric, r)))
        cv = cm_of_frame(rd, coord_q)
        cmin, cmax = min(cmin, cv), max(cmax, cv)
        if fail_fast and visited[-1][1] < threshold:
            break

    # the family is symmetric in r, so a strict minimum would leave the
    # choice between -r and r to rounding; report the first near-tie instead
    lowest = min(value for _, value, _, _ in visited)
    worst_r, worst_value, counts, subset = next(
        v for v in visited if v[1] <= lowest + TIE_TOL)
    return PositivityReport(
        passed=bool(lowest >= threshold), lam=float(lam),
        epsilon=metric.epsilon, r_max=float(np.max(np.abs(r_grid))),
        grid_points=len(r_grid), worst_r=worst_r, worst_value=worst_value,
        worst_frame=coordinate_frame(metric.n, subset), worst_counts=counts,
        coord_value_min=float(cmin), coord_value_max=float(cmax),
        complete=len(visited) == len(r_grid))


@dataclass(frozen=True)
class EpsilonSearchResult:
    """A passing sphere scale, its report, and the behavior at twice it."""

    epsilon: float
    report: PositivityReport
    tightness_report: PositivityReport


def search_epsilon(n: int, m: int, lam: float, r_grid) -> EpsilonSearchResult:
    """Halving search for a sphere scale with a passing positivity sweep.

    Tries epsilon = 2^-t for t = 0..MAX_HALVINGS and returns the first
    (largest) passing scale together with a sweep at twice that scale as
    tightness evidence.  Each scale is swept once, fail-fast, on the radii
    of `r_grid`.  The tightness report of a passing t >= 1 is therefore the
    failed report of candidate t - 1; only when t = 0 passes is scale 2
    swept, as t = -1.

    A failed fail-fast sweep reports, as its worst value, the exact
    minimum over the radii it visited.  When no scale passes,
    EpsilonSearchError carries the failed report with the highest such
    minimum.  An empty grid, or one holding a radius whose curvature is
    not finite (NaN and infinite radii included), raises the sweep's
    ValueError, which names that radius.

    The profile depends on (n, m, lambda) alone, so it is solved once and
    every scale's metric shares it.
    """
    sol = solve_profile(n, m, lam)

    def sweep(t: int) -> PositivityReport:
        metric = WarpedTorusMetric(n, m, 2.0 ** (-t), sol.f, sol.u)
        return verify_uniform_positivity(metric, lam, r_grid, fail_fast=True)

    failed = []
    for t in range(MAX_HALVINGS + 1):
        rep = sweep(t)
        if rep.passed:
            return EpsilonSearchResult(2.0 ** (-t), rep,
                                       failed[-1] if failed else sweep(-1))
        failed.append(rep)
    # max keeps the first of equal reports, the earliest scale
    raise EpsilonSearchError(
        f"no epsilon in 2^-t, t <= {MAX_HALVINGS}, passed for "
        f"(n, m, lambda) = ({n}, {m}, {lam})",
        max(failed, key=lambda rep: rep.worst_value))
