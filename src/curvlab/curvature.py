"""Curvature tensors of warped torus metrics and of generic coordinate charts.

Two independent engines live here.  `riemann_exact` evaluates the closed-form
orthonormal components of the warped torus family

    g = eps^2 f(r)^2 g_sphere + dr^2 + u(r)^(4/m) (dx_1^2 + ... + dx_{m-1}^2)

while `riemann_fd` differentiates arbitrary chart metrics with nested
fourth-order central differences and knows nothing about the family.  Tests
play them against each other.

Conventions.  Rm[a, b, c, d] = g(R(e_a, e_b) e_d, e_c) with

    R^e_{dab} = d_a Gamma^e_{bd} - d_b Gamma^e_{ad}
                + Gamma^e_{ap} Gamma^p_{bd} - Gamma^e_{bp} Gamma^p_{ad},

so the round unit sphere has Rm(e_i, e_j, e_i, e_j) = +1 and
ricci[a][b] = sum_c Rm[c][a][c][b] is positive on spheres.

Orthonormal frame order for the warped torus family: the n-m sphere
directions first, then r, then the m-1 torus directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RadialProfile",
    "gaussian_profile",
    "cosh_power_profile",
    "WarpedTorusMetric",
    "RiemannData",
    "CoordinateMetric",
    "riemann_exact",
    "diagonal_ricci",
    "cm_min_exact",
    "riemann_fd",
    "to_subchart",
    "compare_exact_vs_fd",
    "kulkarni_nomizu",
    "random_curvature_tensor",
    "product_sphere_flat_riemann",
]

FD_STEP = 1e-3  # step of every central difference in the finite-difference engine
TIE_TOL = 1e-9  # a coordinate subset this close to the best value is reported


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """A positive smooth function v(r) given by log v and its two derivatives.

    Curvature needs v only through the ratios v'/v = (log v)' and
    v''/v = (log v)'' + (log v)'^2, so each profile carries those three
    closed forms; they stay finite where v itself overflows or underflows.
    """

    log: Callable[[np.ndarray], np.ndarray]
    dlog: Callable[[np.ndarray], np.ndarray]
    d2log: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r):
        return np.exp(self.log(r))

    def d2_ratio(self, r):
        """v''/v, squaring by multiplication.

        numpy's scalar `** 2` is not always the correctly rounded square
        that `x * x` and the array `** 2` give, so with it a radius
        evaluated alone could differ in its last bit from the same radius
        in a grid.
        """
        d = self.dlog(r)
        return self.d2log(r) + d * d


def gaussian_profile(a: float) -> RadialProfile:
    """exp(a r^2): log-derivatives 2 a r and 2 a."""
    a = float(a)

    def log(r):
        r = np.asarray(r, dtype=float)
        return a * (r * r)

    return RadialProfile(
        log,
        lambda r: 2.0 * a * np.asarray(r, dtype=float),
        lambda r: np.full_like(np.asarray(r, dtype=float), 2.0 * a),
    )


def _log_cosh(x):
    """log cosh x = |x| + log1p(exp(-2|x|)) - log 2, finite for every finite x."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def _sech2(x):
    """sech^2 x = 4 e^(-2|x|) / (1 + e^(-2|x|))^2, without overflowing cosh."""
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / ((1.0 + e) * (1.0 + e))


def cosh_power_profile(omega: float, power: float) -> RadialProfile:
    """cosh(omega r)^power: log-derivatives p w tanh(w r) and p w^2 sech^2(w r)."""
    w, p = float(omega), float(power)
    return RadialProfile(
        lambda r: p * _log_cosh(w * np.asarray(r, dtype=float)),
        lambda r: p * w * np.tanh(w * np.asarray(r, dtype=float)),
        lambda r: p * w * w * _sech2(w * np.asarray(r, dtype=float)),
    )


# ---------------------------------------------------------------------------
# the warped torus family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpedTorusMetric:
    """dr^2 + eps^2 f^2(r) g_sphere + u^(4/m)(r) (flat torus), for every real r.

    The sphere factor S^(n-m) carries its radius-1 round metric scaled by
    eps^2 f^2(r); the torus factor contributes m-1 circle directions.
    Where its curvature stops being finite is for `riemann_exact` to find.
    """

    n: int
    m: int
    epsilon: float
    f_profile: RadialProfile
    u_profile: RadialProfile

    def __post_init__(self):
        if not (1 <= self.m <= self.n - 1):
            raise ValueError(f"require 1 <= m <= n-1, got (n, m) = ({self.n}, {self.m})")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def sphere_dim(self) -> int:
        return self.n - self.m

    @property
    def torus_dim(self) -> int:
        return self.m - 1

    def frame_labels(self) -> tuple[str, ...]:
        return (("sphere",) * self.sphere_dim + ("r",)
                + ("torus",) * self.torus_dim)


# ---------------------------------------------------------------------------
# curvature data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannData:
    """Orthonormal-frame curvature components with their contractions."""

    dim: int
    components: np.ndarray  # shape (dim,) * 4
    ricci: np.ndarray       # shape (dim, dim)
    scalar: float

    @classmethod
    def from_components(cls, components: np.ndarray) -> "RiemannData":
        components = np.asarray(components, dtype=float)
        dim = components.shape[0]
        if components.shape != (dim,) * 4:
            raise ValueError("components must be a 4-index table over one dimension")
        if not np.isfinite(components).all():
            raise ValueError("curvature components are not finite")
        with np.errstate(over="ignore", invalid="ignore"):
            ricci = np.einsum("cacb->ab", components)
            scalar = float(np.trace(ricci))
        if not (np.isfinite(ricci).all() and math.isfinite(scalar)):
            raise ValueError("curvature contractions are not finite")
        return cls(dim, components, ricci, scalar)

    def symmetry_residuals(self) -> dict[str, float]:
        r = self.components
        scale = float(np.max(np.abs(r))) or 1.0
        bianchi = r + np.einsum("bcad->abcd", r) + np.einsum("cabd->abcd", r)
        return {
            "antisym_ab": float(np.max(np.abs(r + np.einsum("bacd->abcd", r)))),
            "antisym_cd": float(np.max(np.abs(r + np.einsum("abdc->abcd", r)))),
            "pair": float(np.max(np.abs(r - np.einsum("cdab->abcd", r)))),
            "bianchi": float(np.max(np.abs(bianchi))),
            "ricci": float(np.max(np.abs(self.ricci - np.einsum("cacb->ab", r)))),
            "scalar": abs(self.scalar - float(np.trace(np.einsum("cacb->ab", r)))),
            "scale": scale,
        }

    def validate(self, tol: float = 1e-9) -> dict[str, float]:
        """Raise when any symmetry or contraction residual exceeds tol * max(1, scale).

        The component scale is the yardstick: residuals of large tensors and
        of finite-difference output grow with it.
        """
        res = self.symmetry_residuals()
        bound = tol * max(1.0, res["scale"])
        bad = {k: v for k, v in res.items()
               if k != "scale" and v > bound}
        if bad:
            raise ValueError(f"curvature symmetry residuals exceed {bound:g}: {bad}")
        return res


# index of each frame label in the sectional class table
_CLASS = {"sphere": 0, "r": 1, "torus": 2}


def _sectional_table(metric: WarpedTorusMetric, r: float | np.ndarray) -> np.ndarray:
    """The five sectional class values as a symmetric 3x3 table per radius.

    A scalar r gives a (3, 3) table, a 1-D grid of R radii an (R, 3, 3)
    stack, from the same formulas, and each grid row equals the scalar
    table of its radius bit for bit.  That holds because every square is
    taken as `x * x`: numpy's exp, tanh and log1p round a radius alone as
    they round it in an array, but its scalar `** 2` is not always the
    correctly rounded square that the array `** 2` gives.
    Rows and columns follow `_CLASS` (sphere, r, torus); the (r, r) entry
    never pairs two distinct directions and is an exact 0.  Every value
    comes from the profiles' log-derivatives and 1/(eps^2 f^2), so the
    table stays finite until 1/(eps^2 f^2) itself overflows.  An overflow
    raises no warning; it leaves inf or NaN in the table, which each
    caller rejects: `RiemannData.from_components`, `cm_min_exact`,
    `diagonal_ricci` and the positivity sweep.
    """
    f, u = metric.f_profile, metric.u_profile
    a = 2.0 / metric.m
    with np.errstate(all="ignore"):
        lf1, lu1 = f.dlog(r), u.dlog(r)
        eps2 = metric.epsilon * metric.epsilon  # a float ** would raise on overflow
        k_ss = np.exp(-2.0 * f.log(r)) / eps2 - lf1 * lf1
        k_st = -a * lf1 * lu1
        # v''/v as `RadialProfile.d2_ratio` forms it, from the dlog at hand
        k_sr = -(f.d2log(r) + lf1 * lf1)
        k_rt = -a * (u.d2log(r) + lu1 * lu1) - a * (a - 1.0) * lu1 * lu1
        k_tt = -(a * lu1) * (a * lu1)
    table = np.array([[k_ss, k_sr, k_st],
                      [k_sr, np.zeros(k_ss.shape), k_rt],
                      [k_st, k_rt, k_tt]], dtype=float)
    # the grid axis, if any, goes first; a (3, 3) table stays as built
    return table.transpose(*range(2, table.ndim), 0, 1)


def _class_count_minima(metric: WarpedTorusMetric, table: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact C_m minima of class tables (..., 3, 3): (lowest, counts, finite, coordinate).

    The one class-count kernel: `cm_min_exact` passes it one table, the
    positivity sweep a grid of them.  For each table, lowest is the
    minimum over the count vectors (i, rho, j), counts the first count
    vector within TIE_TOL of it (see `cm_min_exact` for the order),
    finite whether every count vector's value is finite, and coordinate
    the value of the last count vector, (0, 1, m - 1): C_m at the
    distinguished frame (e_r, torus).  lowest, counts and coordinate mean
    nothing where finite is False.  With r_s, r_r and r_t the Ricci values
    of a sphere, the radial and a torus direction, and c_xy how many
    (x, y) pairs a count vector holds, every value is formed elementwise
    in one order,

        r_s = ((s - 1) k_ss + k_sr) + t k_st,   r_r = s k_sr + t k_rt,
        r_t = (s k_st + k_rt) + (t - 1) k_tt,
        pairs = (((c_ss k_ss + c_tt k_tt) + c_sr k_sr) + c_st k_st) + c_rt k_rt,
        value = ((i r_s + rho r_r) + j r_t) - pairs,

    each operation rounded on its own, so a grid row equals the single
    table's result bit for bit, on every machine.
    """
    s, m, t = metric.sphere_dim, metric.m, metric.torus_dim
    counts = np.array([(i, rho, m - i - rho) for i in range(min(m, s), -1, -1)
                       for rho in (1, 0) if 0 <= m - i - rho <= t])
    i, rho, j = counts.T
    k_ss, k_sr, k_st, k_rt, k_tt = (table[..., a, b, None]
                                    for a, b in ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)))
    with np.errstate(all="ignore"):
        # a direction never pairs with itself, hence s - 1 and t - 1
        r_s = (s - 1) * k_ss + k_sr + t * k_st
        r_r = s * k_sr + t * k_rt
        r_t = s * k_st + k_rt + (t - 1) * k_tt
        pairs = (i * (i - 1) / 2 * k_ss + j * (j - 1) / 2 * k_tt + i * rho * k_sr
                 + i * j * k_st + rho * j * k_rt)
        values = i * r_s + rho * r_r + j * r_t - pairs
        lowest = values.min(axis=-1)
        first = np.argmax(values <= lowest[..., None] + TIE_TOL, axis=-1)
    return lowest, counts[first], np.isfinite(values).all(axis=-1), values[..., -1]


def _count_subset(metric: WarpedTorusMetric, counts) -> tuple[int, ...]:
    """The lexicographically first coordinate subset with class counts (i, rho, j)."""
    i, rho, j = counts
    s = metric.sphere_dim
    return tuple(range(i)) + (s,) * rho + tuple(range(s + 1, s + 1 + j))


def cm_min_exact(metric: WarpedTorusMetric,
                 r: float) -> tuple[float, tuple[int, int, int], tuple[int, ...]]:
    """Exact minimum of C_m at r: (value, class counts (i, rho, j), coordinate subset).

    The curvature operator of the family is diagonal on coordinate
    2-vectors, so by Cauchy-Binet C_m(V) = sum_I xi_I^2 C_m(e_I) for the
    unit Pluecker vector xi of V, and the minimum over all m-frames is the
    minimum over coordinate subsets I.  C_m(e_I) is the sum of the Ricci
    values of I minus the sectional values of the pairs within I, so it
    depends only on how many sphere (i), radial (rho) and torus (j)
    directions I holds: i + rho + j = m with i <= n - m, rho <= 1 and
    j <= m - 1, at most 2m count vectors.  They are visited with i
    descending, then rho descending, which is the lexicographic order of
    their first subsets (the lowest indices of each class).  So the first
    count vector within TIE_TOL of the minimum names the lexicographically
    first coordinate subset that ties it, the argmin rule of
    `frames.cm_min`.  Raises ValueError, naming r, when a count vector's
    value is not finite.  The values come from `_class_count_minima`, the
    kernel the positivity sweep runs on a whole grid.
    """
    lowest, counts, finite, _ = _class_count_minima(metric, _sectional_table(metric, r))
    if not finite:
        raise ValueError(f"C_m at r = {r!r}: class-count values are not finite")
    counts = tuple(int(c) for c in counts)
    return float(lowest), counts, _count_subset(metric, counts)


def _sectional_components(table: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """Components on a frame whose directions carry the given class labels.

    Rm_abcd = K_ab (delta_ac delta_bd - delta_ad delta_bc) for a != b, where
    K_ab is the value of the labels of e_a and e_b in the 3x3 class table.
    """
    classes = np.array([_CLASS[label] for label in labels])
    n = len(labels)
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    sectional = table[classes[a], classes[b]]
    comp = np.zeros((n,) * 4)
    comp[a, b, a, b] = sectional
    comp[a, b, b, a] = -sectional
    return comp


def _exact(metric: WarpedTorusMetric, r: float) -> RiemannData:
    return RiemannData.from_components(
        _sectional_components(_sectional_table(metric, r), metric.frame_labels()))


def riemann_exact(metric: WarpedTorusMetric, r: float) -> RiemannData:
    """Closed-form orthonormal curvature components of the warped torus family.

    Frame order: sphere block, then e_r, then the torus block.  Only the
    sectional pattern R[a,b,a,b] (and its symmetry images) is nonzero, with
    the class value of the labels of e_a and e_b.  Raises ValueError,
    naming r, when the components or their contractions are not finite;
    for a finite r whose curvature is finite at the origin, the message
    adds how far out, on r's side, the curvature stays finite.
    """
    try:
        return _exact(metric, r)
    except ValueError as exc:
        reach = _finite_reach(metric, r) if math.isfinite(r) else None
        clause = "" if reach is None else f"; curvature is finite for |r| <= {reach}"
        raise ValueError(f"curvature at r = {r!r}: {exc}{clause}") from exc


def _reject_first(metric: WarpedTorusMetric, radii: np.ndarray, finite: np.ndarray,
                  what: str, route: Callable | None = None) -> None:
    """Raise for the first of a grid's radii whose `finite` flag is False.

    The grid routes evaluate every radius at once and leave naming a
    failure to the scalar routes.  `riemann_exact` goes first, so a radius
    whose curvature is not finite gets its error, with the finite reach;
    then `route`, the scalar twin of the grid values, when given.  Should
    both accept the radius, the error says that `what` are not finite
    there.  Returns when every flag is True.
    """
    if finite.all():
        return
    r = float(radii[np.argmin(finite)])
    riemann_exact(metric, r)
    if route is not None:
        route(metric, r)
    raise ValueError(f"curvature at r = {r!r}: {what} are not finite")


def _finite_reach(metric: WarpedTorusMetric, r: float) -> float | None:
    """The largest |x| <= |r| found to keep the curvature finite on r's side.

    Bisects over the int64 bit patterns of the non-negative floats between
    0 and |r|, which are ordered as the floats are, so it ends on two
    adjacent floats after at most 64 probes whatever the size of |r|.  The
    result is floored to 4 significant digits, so the reach it states is
    never beyond the last finite radius.  None when the curvature is not
    finite at 0.
    """
    def as_float(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    def finite(bits: int) -> bool:
        try:
            _exact(metric, math.copysign(as_float(bits), r))
        except ValueError:
            return False
        return True

    lo, hi = 0, int(np.float64(abs(r)).view(np.int64))
    if not finite(lo):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    return float(Context(prec=4, rounding=ROUND_FLOOR).plus(Decimal(as_float(lo))))


def _table_ricci(metric: WarpedTorusMetric,
                 table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ricci values (R, n) and scalar curvature (R,) of a stack of class tables.

    Each Ricci value is the sum of its direction's class values over the
    other frame directions in frame index order, and each scalar one row
    reduction, as `np.trace` reduces (pairwise from n = 8), so both equal
    `riemann_exact`'s contractions of the same table bit for bit without
    building its n^4 components.  An inf or NaN class value or Ricci value
    leaves the scalar inf or NaN, so the scalar is finite exactly where
    `riemann_exact` accepts the table.  Overflow raises no warning.
    """
    classes = [_CLASS[label] for label in metric.frame_labels()]
    sectional = table[:, classes][:, :, classes]
    # a direction never pairs with itself
    sectional[:, range(metric.n), range(metric.n)] = 0.0
    with np.errstate(all="ignore"):
        ricci = sectional[:, 0].copy()  # C order: sum(axis=1) reduces each row alone
        for c in range(1, metric.n):
            ricci += sectional[:, c]
        return ricci, ricci.sum(axis=1)


def diagonal_ricci(metric: WarpedTorusMetric,
                   r_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ricci values (R, n) and scalar curvature (R,) on a grid of R radii.

    The Ricci tensor of the family is diagonal, so the n values per radius
    are all of it.  The class table is evaluated once on the whole grid;
    its rows equal the scalar tables `riemann_exact` reads because every
    class-value formula squares as `x * x`, never with numpy's scalar
    `** 2`.  The contractions are `_table_ricci`'s, equal to
    `riemann_exact`'s bit for bit.  When a value is not finite, the first
    such radius in grid order goes to `riemann_exact`, whose error names it
    and the finite reach.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    ricci, scalar = _table_ricci(metric, _sectional_table(metric, r_grid))
    _reject_first(metric, r_grid, np.isfinite(scalar), "Ricci values")
    return ricci, scalar


# ---------------------------------------------------------------------------
# finite-difference engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateMetric:
    """A chart metric: point -> symmetric positive-definite matrix."""

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    chart_box: tuple[tuple[float, float], ...]

    def require_inside(self, x: np.ndarray, margin: float = 0.0) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},)")
        for xi, (lo, hi) in zip(x, self.chart_box):
            if not (lo + margin <= xi <= hi - margin):
                raise ValueError(f"coordinate {xi} outside chart box "
                                 f"[{lo}, {hi}] with margin {margin}")


def _d1_stencil(fn, x, axis, h):
    """Fourth-order central first derivative along one axis."""
    e = np.zeros_like(x)
    e[axis] = 1.0
    return (-fn(x + 2 * h * e) + 8.0 * fn(x + h * e)
            - 8.0 * fn(x - h * e) + fn(x - 2 * h * e)) / (12.0 * h)


def _christoffel_at(metric: CoordinateMetric, x: np.ndarray, h: float) -> np.ndarray:
    gmat = metric.g(x)
    ginv = np.linalg.inv(gmat)
    dg = np.stack([_d1_stencil(metric.g, x, a, h) for a in range(metric.dim)])
    # Gamma^k_{ij} = 1/2 g^{kl} (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
    sym = np.einsum("ijl->ijl", dg) + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, sym)


def riemann_fd(metric: CoordinateMetric, x: Sequence[float]) -> RiemannData:
    """Riemann tensor of a chart metric by nested central differences.

    Christoffel symbols come from fourth-order differences of g; their
    derivatives from fourth-order differences of the symbols, so g is
    sampled up to 4 * FD_STEP away from x.  Components are returned in the
    orthonormal frame obtained from the Cholesky factor of g(x).
    """
    x = np.asarray(x, dtype=float)
    metric.require_inside(x, margin=4.5 * FD_STEP)
    gmat = metric.g(x)
    try:
        chol = np.linalg.cholesky(gmat)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric is not positive definite at the base point") from exc

    dim = metric.dim
    gamma = _christoffel_at(metric, x, FD_STEP)
    dgamma = np.stack([
        _d1_stencil(lambda y: _christoffel_at(metric, y, FD_STEP), x, a, FD_STEP)
        for a in range(dim)
    ])  # dgamma[a, e, b, d] = d_a Gamma^e_{bd}

    # R^e_{dab} = d_a Gamma^e_{bd} - d_b Gamma^e_{ad} + Gamma * Gamma terms
    r_updown = (np.einsum("aebd->edab", dgamma) - np.einsum("bead->edab", dgamma)
                + np.einsum("eap,pbd->edab", gamma, gamma)
                - np.einsum("ebp,pad->edab", gamma, gamma))
    rm = np.einsum("ce,edab->abcd", gmat, r_updown)

    frame = np.linalg.inv(chol).T  # columns are orthonormal frame vectors
    r_on = np.einsum("pqrs,pa,qb,rc,sd->abcd", rm, frame, frame, frame, frame)
    return RiemannData.from_components(r_on)


# ---------------------------------------------------------------------------
# chart export for cross-checks
# ---------------------------------------------------------------------------

def to_subchart(metric: WarpedTorusMetric):
    """Explicit chart through a great 2-sphere of the sphere factor.

    Coordinates (theta, phi, r, x_1, ..., x_t) with t = min(m-1, 2):

        g = diag(eps^2 f^2, eps^2 f^2 sin^2 theta, 1, u^(4/m), ...).

    The great 2-sphere is the fixed-point set of an isometric reflection of
    S^(n-m), hence totally geodesic, so the chart's intrinsic curvature
    components coincide with the ambient ones on the retained index classes.
    Every distinct component class of the family survives whenever t >= 2
    (t >= 1 suffices for m = 2, which has no torus-torus pairs).

    Returns (CoordinateMetric, labels) with labels matching frame positions.
    """
    if metric.sphere_dim < 2:
        raise ValueError("need a sphere factor of dimension >= 2 for the chart")
    t = min(metric.torus_dim, 2)
    eps2 = metric.epsilon ** 2
    four_over_m = 4.0 / metric.m
    f, u = metric.f_profile, metric.u_profile

    def g(x):
        theta, r = x[0], x[2]
        fv = float(f(r))
        uv = float(u(r))
        diag = np.concatenate([
            [eps2 * fv * fv, eps2 * fv * fv * np.sin(theta) ** 2, 1.0],
            np.full(t, uv ** four_over_m),
        ])
        return np.diag(diag)

    box = ((0.3, np.pi - 0.3), (-4.0, 4.0), (-np.inf, np.inf)) + ((-4.0, 4.0),) * t
    labels = ("sphere", "sphere", "r") + ("torus",) * t
    return CoordinateMetric(3 + t, g, box), labels


def compare_exact_vs_fd(metric: WarpedTorusMetric, r: float) -> float:
    """Max componentwise discrepancy between the two engines at radius r.

    Builds the expected chart-frame tensor from the exact class values and
    compares against the finite-difference result at theta = 1 entry by
    entry, scaling each difference by max(1, |expected entry|).
    """
    chart, labels = to_subchart(metric)
    expected = RiemannData.from_components(
        _sectional_components(_sectional_table(metric, r), labels)).components

    x = np.zeros(chart.dim)
    x[0], x[2] = 1.0, r
    fd = riemann_fd(chart, x)
    denom = np.maximum(1.0, np.abs(expected))
    return float(np.max(np.abs(fd.components - expected) / denom))


# ---------------------------------------------------------------------------
# algebraic curvature tensors for property tests
# ---------------------------------------------------------------------------

def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Curvature-type product of two symmetric matrices.

    The result carries every Riemann symmetry including the first Bianchi
    identity, which makes it the right generator for random test tensors.
    """
    return (np.einsum("ac,bd->abcd", a, b) + np.einsum("bd,ac->abcd", a, b)
            - np.einsum("ad,bc->abcd", a, b) - np.einsum("bc,ad->abcd", a, b))


def random_curvature_tensor(dim: int, rng: np.random.Generator) -> RiemannData:
    """Random tensor with all Riemann symmetries, as a sum of two products."""
    mats = []
    for _ in range(4):
        s = rng.standard_normal((dim, dim))
        mats.append(0.5 * (s + s.T))
    comp = kulkarni_nomizu(mats[0], mats[1]) + kulkarni_nomizu(mats[2], mats[3])
    return RiemannData.from_components(comp)


def product_sphere_flat_riemann(sphere_dim: int, radius: float, flat_dim: int) -> RiemannData:
    """Round sphere of the given radius times a flat factor, orthonormal frame."""
    dim = sphere_dim + flat_dim
    block = np.zeros((dim, dim))
    block[:sphere_dim, :sphere_dim] = np.eye(sphere_dim)
    return RiemannData.from_components(
        0.5 / radius ** 2 * kulkarni_nomizu(block, block))
