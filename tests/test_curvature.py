"""Tests for exact and finite-difference curvature engines."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from curvlab import curvature
from curvlab.constructions import (
    CONSTRUCTION_PAIRS,
    build_counterexample,
    solve_profile,
)
from curvlab.curvature import (
    CoordinateMetric,
    RadialProfile,
    RiemannData,
    WarpedTorusMetric,
    compare_exact_vs_fd,
    cosh_power_profile,
    diagonal_ricci,
    gaussian_profile,
    kulkarni_nomizu,
    product_sphere_flat_riemann,
    random_curvature_tensor,
    riemann_exact,
    riemann_fd,
    to_subchart,
)
from construction_references import curvature_report_rows
from curvature_references import constant_curvature_riemann, constant_profile, laplacian_fd

def equality_case_metric(n, m, lam=1.0, eps=1.0):
    """Gaussian-profile member used repeatedly below: u, f = exp(+-c lam r^2)."""
    c_u = m / ((2.0 * m - 2.0) * (n - m - 2.0))
    c_f = 1.0 / (2.0 * (n - m - 2.0))
    return WarpedTorusMetric(n, m, eps, gaussian_profile(-c_f * lam),
                             gaussian_profile(c_u * lam))


def sphere_chart(radius=1.0):
    def g(x):
        return np.diag([radius ** 2, radius ** 2 * np.sin(x[0]) ** 2])
    return CoordinateMetric(2, g, ((0.3, np.pi - 0.3), (-4.0, 4.0)))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class TestProfiles:
    @pytest.mark.parametrize("profile", [
        gaussian_profile(0.5),
        gaussian_profile(-0.25),
        cosh_power_profile(0.5, 3.0),
        cosh_power_profile(0.5, -2.0),
    ])
    def test_derivatives_match_finite_differences(self, profile):
        r = np.linspace(-2.0, 2.0, 9)
        h = 1e-5
        log = profile.log
        d1_fd = (log(r + h) - log(r - h)) / (2 * h)
        d2_fd = (log(r + h) - 2 * log(r) + log(r - h)) / h ** 2
        assert_allclose(profile.dlog(r), d1_fd, rtol=1e-8, atol=1e-8)
        assert_allclose(profile.d2log(r), d2_fd, rtol=1e-5, atol=1e-5)
        # v''/v against second differences of the value v = exp(log v)
        v2_fd = (profile(r + h) - 2 * profile(r) + profile(r - h)) / h ** 2
        assert_allclose(profile.d2_ratio(r) * profile(r), v2_fd, rtol=1e-5, atol=1e-5)

    def test_log_forms_finite_far_out(self):
        # cosh(500)^3 and exp(-0.25 r^2) at r = 1000 are out of float range;
        # their log-derivatives are not
        r = np.array([-1000.0, 1000.0])
        p = cosh_power_profile(0.5, 3.0)
        assert_allclose(p.log(r), 3.0 * (500.0 - np.log(2.0)), rtol=1e-15)
        assert_allclose(p.dlog(r), [-1.5, 1.5], rtol=1e-15)
        assert_allclose(p.d2log(r), 0.0, atol=1e-300)
        g = gaussian_profile(-0.25)
        assert_allclose(g.dlog(r), [500.0, -500.0])
        assert_allclose(g.d2_ratio(r), -0.5 + 500.0 ** 2)

    def test_constant_profile(self):
        p = constant_profile(3.0)
        r = np.array([0.0, 1.0])
        assert_allclose(p(r), [3.0, 3.0])
        assert_allclose(p.dlog(r), 0.0)
        assert_allclose(p.d2log(r), 0.0)


# ---------------------------------------------------------------------------
# metric container
# ---------------------------------------------------------------------------

class TestWarpedTorusMetric:
    def test_dimension_split(self):
        g = equality_case_metric(6, 2)
        assert g.sphere_dim == 4
        assert g.torus_dim == 1
        assert g.frame_labels() == ("sphere",) * 4 + ("r", "torus")
        assert g.coordinate_frame_indices() == (4, 5)

    def test_rejects_bad_parameters(self):
        c = constant_profile()
        with pytest.raises(ValueError):
            WarpedTorusMetric(6, 6, 1.0, c, c)
        with pytest.raises(ValueError):
            WarpedTorusMetric(6, 0, 1.0, c, c)
        with pytest.raises(ValueError):
            WarpedTorusMetric(6, 2, -1.0, c, c)


# ---------------------------------------------------------------------------
# exact curvature
# ---------------------------------------------------------------------------

class TestRiemannExact:
    def test_sectional_values_6_2(self):
        g = equality_case_metric(6, 2, lam=1.0)
        rd = riemann_exact(g, 0.5)
        c = rd.components
        # sphere-r: -f''/f with f = exp(-r^2/4)
        assert c[0, 4, 0, 4] == pytest.approx(0.4375, abs=1e-12)
        # torus-torus would need m >= 3; here torus-r and sphere-torus:
        assert c[4, 5, 4, 5] == pytest.approx(-1.25, abs=1e-12)
        assert c[0, 5, 0, 5] == pytest.approx(0.125, abs=1e-12)
        assert c[0, 1, 0, 1] == pytest.approx(np.exp(0.125) - 0.0625, rel=1e-12)

    def test_torus_torus_value(self):
        # m = 3: a = 2/3, u'/u = 2 c_u lam r with c_u = 3/4
        g = equality_case_metric(6, 3, lam=1.0)
        rd = riemann_exact(g, 0.5)
        u1 = 2 * 0.75 * 0.5
        assert rd.components[4, 5, 4, 5] == pytest.approx(-(2.0 / 3.0 * u1) ** 2,
                                                          rel=1e-12)

    def test_mixed_components_vanish(self):
        rd = riemann_exact(equality_case_metric(7, 3), 0.9)
        c = rd.components.copy()
        for a in range(7):
            for b in range(7):
                c[a, b, a, b] = c[a, b, b, a] = 0.0
        assert np.max(np.abs(c)) == 0.0

    def test_radial_ricci_matches_formula(self):
        g = equality_case_metric(6, 2, lam=1.0)
        for r in np.linspace(-2.0, 2.0, 7):
            rd = riemann_exact(g, float(r))
            assert rd.ricci[4, 4] == pytest.approx(1.0 - 2.0 * r * r, abs=1e-10)

    def test_ricci_diagonal_and_symmetries(self):
        rd = riemann_exact(equality_case_metric(7, 4, lam=0.5, eps=0.3), 1.7)
        rd.validate(1e-10)
        off = rd.ricci - np.diag(np.diag(rd.ricci))
        assert np.max(np.abs(off)) < 1e-12

    def test_product_limit_matches_oracle(self):
        # constant profiles: metric is S^2(sqrt 2) x R x T^3 up to frame order
        g = WarpedTorusMetric(6, 4, np.sqrt(2.0), constant_profile(),
                              constant_profile())
        rd = riemann_exact(g, 0.3)
        oracle = product_sphere_flat_riemann(2, np.sqrt(2.0), 4)
        assert_allclose(rd.components, oracle.components, atol=1e-14)

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_matches_direct_profile_route(self, n, m):
        radii = np.linspace(-10.0, 10.0, 121)
        worst = 0.0
        for lam in (1.0, 4.0):
            f, u = direct_profiles(n, m, lam)
            for eps in (1.0, 0.5):
                metric = build_counterexample(n, m, lam, eps)
                labels = metric.frame_labels()
                values = direct_class_values(m, eps, f, u, radii)
                for i, r in enumerate(radii):
                    ref = direct_tensor(labels, {k: v[i] for k, v in values.items()})
                    got = riemann_exact(metric, float(r)).components
                    worst = max(worst, float(np.max(np.abs(got - ref)
                                                    / np.maximum(1.0, np.abs(ref)))))
        assert worst <= 1e-13

    def test_finite_until_sphere_term_overflows(self):
        # (6, 2), lambda = eps = 1: 1/(eps f)^2 = exp(r^2/2) overflows at
        # r of about 37.68, and the scalar curvature (12 times it) a little
        # earlier; the value-based route already failed at r = 37.5
        metric = build_counterexample(6, 2, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rd = riemann_exact(metric, 37.6)
            assert np.isfinite(rd.components).all() and np.isfinite(rd.scalar)
            rd.validate(1e-8)
            with pytest.raises(ValueError, match="not finite"):
                riemann_exact(metric, 38.0)

    def test_defined_for_every_real_radius(self):
        # no declared radial domain: r = 20 lies beyond the default sweep grid [-10, 10]
        rd = riemann_exact(build_counterexample(7, 3, 1.0, 1.0), 20.0)
        assert np.isfinite(rd.components).all() and np.isfinite(rd.scalar)

    @pytest.mark.parametrize("r", [40.0, -40.0])
    def test_failure_names_the_finite_reach(self, r):
        metric = build_counterexample(6, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match=rf"^curvature at r = {r}: .*"
                                             r"; curvature is finite for \|r\| <= 37\.61$"):
            riemann_exact(metric, r)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_radius_has_no_reach(self, r):
        metric = build_counterexample(6, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match=rf"^curvature at r = {r}: ") as info:
            riemann_exact(metric, r)
        assert "finite for" not in str(info.value)

    def test_short_reach_keeps_four_significant_digits(self):
        # lambda = 1e10 shrinks the finite range of (6, 2) to |r| < 3.8e-4;
        # the reach is floored, so it evaluates and its next 4-digit step does not
        metric = build_counterexample(6, 2, 1e10, 1.0)
        with pytest.raises(ValueError, match=r"finite for \|r\| <= 0\.0003761$"):
            riemann_exact(metric, -4e-4)
        riemann_exact(metric, -0.0003761)
        with pytest.raises(ValueError):
            riemann_exact(metric, -0.0003762)

    @settings(max_examples=150, deadline=None)
    @given(pair=st.sampled_from(CONSTRUCTION_PAIRS),
           lam=st.floats(0.05, 16.0),
           eps=st.floats(2.0 ** -20, 4.0),
           r=st.floats(-40.0, 40.0))
    def test_finite_or_rejected(self, pair, lam, eps, r):
        metric = build_counterexample(*pair, lam, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rd = riemann_exact(metric, r)
            except ValueError:
                return
            rd.validate(1e-8)
        assert np.isfinite(rd.components).all()
        assert np.isfinite(rd.ricci).all() and np.isfinite(rd.scalar)


def constant_sphere_metric(k_ss):
    """(6, 2) metric whose only nonzero class value is k_ss = 1/f^2, at every r."""
    log_f = -0.5 * math.log(k_ss)
    f = RadialProfile(lambda r: log_f + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r)
    u = RadialProfile(lambda r: 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r)
    return WarpedTorusMetric(6, 2, 1.0, f, u)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestDiagonalRicci:
    PAIRS = [(6, 2), (6, 3), (7, 2), (7, 3), (7, 4), (8, 3), (9, 4), (12, 6)]

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1e300])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n,m", PAIRS)
    def test_matches_the_dense_route(self, n, m, lam, eps):
        metric = build_counterexample(n, m, lam, eps)
        grid = np.linspace(-10.0, 10.0, 121)
        ricci, scalar = diagonal_ricci(metric, grid)
        assert ricci.shape == (121, n) and scalar.shape == (121,)
        off_diagonal = ~np.eye(n, dtype=bool)
        for row, s, ref in zip(ricci, scalar, curvature_report_rows(metric, grid)):
            assert bits(row) == bits(np.diag(ref["ricci"]))
            assert bits(s) == bits(ref["scalar"])
            assert not ref["ricci"][off_diagonal].any()
            for new, old in ((row.min(), ref["ricci_min"]), (row.max(), ref["ricci_max"])):
                assert abs(new - old) <= 4 * np.spacing(abs(old))

    @settings(max_examples=100, deadline=None)
    @given(pair=st.sampled_from(PAIRS),
           lam=st.floats(0.05, 16.0),
           eps=st.floats(2.0 ** -20, 4.0),
           r=st.floats(-400.0, 400.0))
    def test_finite_or_rejected_as_riemann_exact(self, pair, lam, eps, r):
        metric = build_counterexample(*pair, lam, eps)
        try:
            rd = riemann_exact(metric, r)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                diagonal_ricci(metric, [r])
            assert str(excinfo.value) == str(exc)
            return
        ricci, scalar = diagonal_ricci(metric, [r])
        assert bits(ricci[0]) == bits(np.diag(rd.ricci))
        assert bits(scalar[0]) == bits(rd.scalar)

    def test_first_non_finite_radius_in_grid_order_is_named(self):
        metric = build_counterexample(6, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^curvature at r = 40\.0: .*"
                                             r"finite for \|r\| <= 37\.61$"):
            diagonal_ricci(metric, [0.0, 40.0, -40.0])

    @pytest.mark.parametrize("k_ss", [8e307, 4e307])
    def test_overflowing_contractions_are_rejected(self, k_ss):
        # every class value is finite; at 8e307 the Ricci values of the four
        # sphere directions (3 k_ss each) overflow, at 4e307 only their sum
        metric = constant_sphere_metric(k_ss)
        with pytest.raises(ValueError, match=r"^curvature at r = 0\.5: "
                                             r"curvature contractions are not finite$"):
            diagonal_ricci(metric, [0.5])

    def test_never_tabulates_a_value_riemann_exact_accepts(self, monkeypatch):
        monkeypatch.setattr(curvature, "riemann_exact", lambda metric, r: None)
        with pytest.raises(ValueError,
                           match=r"^curvature at r = 0\.5: Ricci values are not finite$"):
            diagonal_ricci(constant_sphere_metric(8e307), [0.5])


# the five class values from the profiles' values f, f', f'' (not their
# log-derivatives), assembled pair by pair: the reference for riemann_exact

def direct_profiles(n, m, lam):
    """(f, f', f'') and (u, u', u'') of the construction for (n, m, lambda)."""
    sol = solve_profile(n, m, lam)

    def gaussian(a):
        return (lambda r: np.exp(a * r ** 2),
                lambda r: 2.0 * a * r * np.exp(a * r ** 2),
                lambda r: (2.0 * a + 4.0 * a * a * r * r) * np.exp(a * r ** 2))

    def cosh_power(w, p):
        def d2(r):
            t = np.tanh(w * r)
            sech2 = 1.0 / np.cosh(w * r) ** 2
            return ((p * w * t) ** 2 + p * w * w * sech2) * np.cosh(w * r) ** p
        return (lambda r: np.cosh(w * r) ** p,
                lambda r: p * w * np.tanh(w * r) * np.cosh(w * r) ** p,
                d2)

    if sol.case == "equality":
        return (gaussian(-float(Fraction(sol.params["c_f"])) * lam),
                gaussian(float(Fraction(sol.params["c_u"])) * lam))
    w = np.sqrt(float(sol.c4) * lam)
    return (cosh_power(w, float(Fraction(sol.params["p_f"]))),
            cosh_power(w, float(Fraction(sol.params["p_u"]))))


def direct_class_values(m, eps, f_funcs, u_funcs, r):
    f, f1, f2 = (fn(r) for fn in f_funcs)
    u, u1, u2 = (fn(r) for fn in u_funcs)
    lf1, lu1 = f1 / f, u1 / u
    a = 2.0 / m
    return {
        frozenset({"sphere"}): 1.0 / (eps ** 2 * f * f) - lf1 * lf1,
        frozenset({"sphere", "torus"}): -a * lf1 * lu1,
        frozenset({"sphere", "r"}): -f2 / f,
        frozenset({"r", "torus"}): -a * (u2 / u) - a * (a - 1.0) * lu1 * lu1,
        frozenset({"torus"}): -(a * lu1) ** 2,
    }


def direct_tensor(labels, values):
    n = len(labels)
    comp = np.zeros((n,) * 4)
    for a in range(n):
        for b in range(a + 1, n):
            k = values[frozenset((labels[a], labels[b]))]
            comp[a, b, a, b] = comp[b, a, b, a] = k
            comp[a, b, b, a] = comp[b, a, a, b] = -k
    return comp


# ---------------------------------------------------------------------------
# curvature containers and algebra
# ---------------------------------------------------------------------------

class TestRiemannData:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            RiemannData.from_components(np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_components_rejected(self, bad):
        comp = constant_curvature_riemann(4, 1.0).components.copy()
        comp[0, 1, 0, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            RiemannData.from_components(comp)

    def test_overflowing_contractions_rejected(self):
        # finite components whose Ricci sums (3e308) are not
        with pytest.raises(ValueError, match="contractions are not finite"):
            constant_curvature_riemann(4, 1e308)

    def test_validate_catches_broken_symmetry(self):
        rd = constant_curvature_riemann(4, 1.0)
        bad = rd.components.copy()
        bad[0, 1, 0, 1] += 1e-3
        with pytest.raises(ValueError):
            RiemannData.from_components(bad).validate(1e-9)

    def test_constant_curvature_contractions(self):
        rd = constant_curvature_riemann(5, 1.0)
        assert_allclose(rd.ricci, 4.0 * np.eye(5), atol=1e-14)
        assert rd.scalar == pytest.approx(20.0)
        assert rd.components[0, 1, 0, 1] == pytest.approx(1.0)

    def test_product_oracle_contractions(self):
        rd = product_sphere_flat_riemann(3, 1.0, 3)
        assert_allclose(np.diag(rd.ricci), [2, 2, 2, 0, 0, 0], atol=1e-14)
        assert rd.scalar == pytest.approx(6.0)
        assert rd.components[0, 1, 0, 1] == pytest.approx(1.0)
        assert rd.components[3, 4, 3, 4] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tensors_have_all_symmetries(self, seed):
        rng = np.random.default_rng(seed)
        rd = random_curvature_tensor(5 + seed % 3, rng)
        rd.validate(1e-12)

    def test_kulkarni_nomizu_of_identity(self):
        kn = kulkarni_nomizu(np.eye(3), np.eye(3))
        rd = RiemannData.from_components(0.5 * kn)
        assert rd.components[0, 1, 0, 1] == pytest.approx(1.0)
        assert rd.scalar == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

class TestFiniteDifference:
    def test_round_sphere(self):
        rd = riemann_fd(sphere_chart(), [1.0, 0.2])
        assert rd.components[0, 1, 0, 1] == pytest.approx(1.0, abs=5e-7)
        assert_allclose(rd.ricci, np.eye(2), atol=5e-7)
        assert rd.scalar == pytest.approx(2.0, abs=2e-6)
        rd.validate(1e-6)

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_metric_scaling(self, c):
        rd = riemann_fd(sphere_chart(radius=c), [1.0, 0.2])
        assert rd.components[0, 1, 0, 1] == pytest.approx(1.0 / c ** 2, abs=5e-7)

    def test_flat_torus_exactly_flat(self):
        chart = CoordinateMetric(3, lambda x: np.eye(3),
                                 ((-4.0, 4.0),) * 3)
        rd = riemann_fd(chart, [0.1, -0.2, 0.3])
        assert np.max(np.abs(rd.components)) < 1e-12

    def test_polar_plane_flat_despite_symbols(self):
        chart = CoordinateMetric(
            2, lambda x: np.diag([1.0, x[0] ** 2]),
            ((0.5, 3.0), (-4.0, 4.0)))
        rd = riemann_fd(chart, [1.3, 0.4])
        assert np.max(np.abs(rd.components)) < 1e-7

    def test_rejects_point_near_boundary(self):
        with pytest.raises(ValueError):
            riemann_fd(sphere_chart(), [0.301, 0.0])

    def test_rejects_indefinite_metric(self):
        chart = CoordinateMetric(2, lambda x: np.diag([1.0, -1.0]),
                                 ((-1.0, 1.0),) * 2)
        with pytest.raises(ValueError):
            riemann_fd(chart, [0.0, 0.0])

    def test_laplacian_on_sphere(self):
        # Delta cos(theta) = -2 cos(theta) on the unit round sphere
        val = laplacian_fd(sphere_chart(), lambda x: np.cos(x[0]), [1.0, 0.2])
        assert val == pytest.approx(-2.0 * np.cos(1.0), rel=1e-6)

    def test_laplacian_flat(self):
        chart = CoordinateMetric(2, lambda x: np.eye(2), ((-4.0, 4.0),) * 2)
        val = laplacian_fd(chart, lambda x: x[0] ** 2 + x[1] ** 2, [0.3, -0.1])
        assert val == pytest.approx(4.0, rel=1e-8)


# ---------------------------------------------------------------------------
# the two engines against each other
# ---------------------------------------------------------------------------

class TestCrossEngine:
    def test_subchart_shape(self):
        chart, labels = to_subchart(equality_case_metric(6, 2))
        assert chart.dim == 4
        assert labels == ("sphere", "sphere", "r", "torus")
        chart, labels = to_subchart(equality_case_metric(7, 4, lam=0.5))
        assert chart.dim == 5
        assert labels == ("sphere", "sphere", "r", "torus", "torus")

    def test_subchart_needs_sphere_factor(self):
        c = constant_profile()
        g = WarpedTorusMetric(4, 3, 1.0, c, c)
        with pytest.raises(ValueError):
            to_subchart(g)

    def test_gaussian_profiles_agree(self):
        assert compare_exact_vs_fd(equality_case_metric(6, 2, lam=1.0), 0.5) < 1e-5
        assert compare_exact_vs_fd(
            equality_case_metric(6, 3, lam=1.0, eps=0.5), -0.7) < 1e-5

    def test_cosh_profiles_agree(self):
        # u = cosh(r/2)^3, f = cosh(r/2)^-2 solves the profile system at
        # (n, m) = (7, 3), lambda = 1
        g = WarpedTorusMetric(7, 3, 1.0, cosh_power_profile(0.5, -2.0),
                              cosh_power_profile(0.5, 3.0))
        assert compare_exact_vs_fd(g, 0.8) < 1e-5

    def test_cosh_profiles_agree_three_torus_directions(self):
        w = np.sqrt(1.0 / 3.0)
        g = WarpedTorusMetric(7, 4, 0.7, cosh_power_profile(w, -3.0),
                              cosh_power_profile(w, 4.0))
        assert compare_exact_vs_fd(g, 0.6) < 1e-5
