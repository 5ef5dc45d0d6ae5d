"""Closed-form warped metrics with uniformly positive partial curvature.

The radial profiles u, f solve

    (2m-2)/m * (u''/u + (n-m) (f'/f)(u'/u)) = -(n-m) f''/f - lambda,

with two closed branches: a Gaussian pair when 4/(n-m) = (2m-2)/m and a
cosh-power pair when 4/(n-m) < (2m-2)/m.  `build_counterexample` assembles
the warped torus metric from a profile solution; `verify_uniform_positivity`
sweeps a radial grid and minimizes C_m at every point; `search_epsilon`
looks for a sphere scale at which the sweep passes.

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
    RadialProfile,
    WarpedTorusMetric,
    cosh_power_profile,
    gaussian_profile,
    riemann_exact,
)
from .frames import TIE_TOL, cm_min, cm_of_frame, coordinate_frame
from .inequalities import admissible
from .report import task_seed

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
    "counterexample_json",
    "verify_uniform_positivity",
    "search_epsilon",
]

# all (n, m) accepted by build_counterexample, n up to 7
CONSTRUCTION_PAIRS = ((6, 2), (6, 3), (7, 2), (7, 3), (7, 4))

PASS_SLACK = 1e-6
MAX_HALVINGS = 20  # search_epsilon tries eps = 2^-t for t = 0..MAX_HALVINGS


class UnsupportedParameters(ValueError):
    """Raised when parameters violate a construction-range inequality."""


class EpsilonSearchError(RuntimeError):
    """No sphere scale in the search set passed; carries the best report."""

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
    """Defect of the profile equation at r (zero for both closed branches)."""
    r = np.asarray(r, dtype=float)
    lhs = (2.0 * m - 2.0) / m * (sol.u.d2_ratio(r)
                                 + (n - m) * sol.f.dlog(r) * sol.u.dlog(r))
    return lhs + (n - m) * sol.f.d2_ratio(r) + lam


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
# metric assembly and serialization
# ---------------------------------------------------------------------------

def _check_construction_range(n: int, m: int) -> None:
    """The paper's scope, 6 <= n <= 7; `solve_profile` checks the range of m."""
    if not 6 <= n <= 7:
        raise UnsupportedParameters(f"need 6 <= n <= 7, got n = {n}")


def build_counterexample(n: int, m: int, lam: float, epsilon: float,
                         r_max: float = 10.0) -> WarpedTorusMetric:
    """Warped torus metric whose C_m is designed to stay at lambda."""
    _check_construction_range(n, m)
    if epsilon <= 0:
        raise UnsupportedParameters(f"need epsilon > 0, got {epsilon}")
    sol = solve_profile(n, m, lam)
    return WarpedTorusMetric(n, m, float(epsilon), sol.f, sol.u,
                             (-float(r_max), float(r_max)))


def counterexample_json(n: int, m: int, lam: float, epsilon: float,
                        r_max: float = 10.0) -> dict:
    """The portable chart description of a constructed metric."""
    metric = build_counterexample(n, m, lam, epsilon, r_max)
    sol = solve_profile(n, m, lam)
    return {
        "n": metric.n,
        "m": metric.m,
        "epsilon": metric.epsilon,
        "profile": {"case": sol.case, "lambda": lam, "params": sol.params},
        "r_domain": list(metric.r_domain),
    }


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a radial-grid sweep of the C_m minimizer."""

    passed: bool
    lam: float
    epsilon: float | None
    r_max: float
    grid_points: int
    worst_r: float
    worst_value: float
    worst_frame: np.ndarray
    coord_value_min: float
    coord_value_max: float
    evaluations: int
    complete: bool
    certified_radii: int

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "grid": {"R": self.r_max, "points": self.grid_points},
            "certified_radii": self.certified_radii,
            "worst": {
                "r": self.worst_r,
                "value": self.worst_value,
                "frame": np.asarray(self.worst_frame).tolist(),
            },
            "coordinate_frame_value_range": [self.coord_value_min,
                                             self.coord_value_max],
        }


def verify_uniform_positivity(metric: WarpedTorusMetric, lam: float, r_grid,
                              frame_budget: int = 100_000, seed: int = 0,
                              fail_fast: bool = False) -> PositivityReport:
    """Minimize C_m at every grid radius and compare against lambda.

    Passes iff the grid minimum is at least lambda * (1 - 1e-6).  The
    reported worst radius, value and frame belong to the first radius in
    sweep order whose value is within TIE_TOL of that minimum.  Also
    records the range of C_m at the distinguished coordinate frame, which
    the construction pins to lambda exactly, and how many radii the
    minimizer's certificate decided without sampling.  A radius whose curvature
    cannot be evaluated (non-finite components) raises ValueError naming
    that radius, so a sweep never passes on values it did not compute.

    Grid points are processed in order of increasing |r| (violations
    cluster near the origin); with fail_fast=True the sweep stops at the
    first violation and the report is marked incomplete.  Every grid index
    seeds its own minimizer via task_seed(seed, index), so results do not
    depend on evaluation order.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    threshold = lam * (1.0 - PASS_SLACK)
    coord_q = coordinate_frame(metric.n, metric.coordinate_frame_indices())
    order = sorted(range(len(r_grid)), key=lambda i: (abs(r_grid[i]), r_grid[i]))

    lowest, visited = np.inf, []  # visited: (r, value, frame) in sweep order
    cmin, cmax = np.inf, -np.inf
    evals = certified = 0
    stopped = False
    for count, i in enumerate(order, 1):
        r = float(r_grid[i])
        try:
            rd = riemann_exact(metric, r)
        except ValueError as exc:
            raise ValueError(f"curvature at r = {r!r}: {exc}") from exc
        res = cm_min(rd, metric.m, budget=frame_budget, seed=task_seed(seed, i))
        evals += res.evaluations
        certified += res.method == "certificate"
        cv = cm_of_frame(rd, coord_q)
        cmin, cmax = min(cmin, cv), max(cmax, cv)
        visited.append((r, res.value, res.argmin))
        lowest = min(lowest, res.value)
        if fail_fast and res.value < threshold:
            stopped = count < len(order)
            break

    # the family is symmetric in r, so a strict minimum would leave the
    # choice between -r and r to rounding; report the first near-tie instead
    worst_r, worst_value, worst_frame = next(
        v for v in visited if v[1] <= lowest + TIE_TOL)
    return PositivityReport(
        passed=bool(lowest >= threshold), lam=float(lam),
        epsilon=metric.epsilon, r_max=float(np.max(np.abs(r_grid))),
        grid_points=len(r_grid), worst_r=worst_r,
        worst_value=float(worst_value), worst_frame=worst_frame,
        coord_value_min=float(cmin), coord_value_max=float(cmax),
        evaluations=evals, complete=not stopped, certified_radii=certified)


@dataclass(frozen=True)
class EpsilonSearchResult:
    """A passing sphere scale, its report, and the behavior at twice it."""

    epsilon: float
    report: PositivityReport
    tightness_report: PositivityReport


def search_epsilon(n: int, m: int, lam: float,
                   frame_budget: int = 100_000, seed: int = 0,
                   r_max: float = 10.0, grid_points: int = 121) -> EpsilonSearchResult:
    """Halving search for a sphere scale with a passing positivity sweep.

    Tries epsilon = 2^-t for t = 0..MAX_HALVINGS and returns the first
    (largest) passing scale together with a sweep at twice that scale as
    tightness evidence.  Each scale is swept once, fail-fast, on the grid
    of `grid_points` radii spanning [-r_max, r_max]; the sweep at scale
    2^-t seeds its grid from task_seed(seed, t).  The tightness report of
    a passing t >= 1 is therefore the failed report of candidate t - 1;
    only when t = 0 passes is scale 2 swept, as t = -1.
    """
    _check_construction_range(n, m)
    r_grid = np.linspace(-r_max, r_max, grid_points)

    def sweep(t: int) -> PositivityReport:
        metric = build_counterexample(n, m, lam, 2.0 ** (-t), r_max=r_max)
        return verify_uniform_positivity(metric, lam, r_grid,
                                         frame_budget=frame_budget,
                                         seed=task_seed(seed, t), fail_fast=True)

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
