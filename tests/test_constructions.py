"""Tests for profile solutions, lift chains, and positivity verification."""
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from curvlab import cli, constructions, curvature, frames
from curvlab.constructions import (
    CONSTRUCTION_PAIRS,
    EpsilonSearchError,
    UnsupportedParameters,
    build_chain,
    build_counterexample,
    ode_residual,
    search_epsilon,
    solve_profile,
    verify_uniform_positivity,
)
from curvlab.curvature import (
    TIE_TOL,
    CoordinateMetric,
    RadialProfile,
    WarpedTorusMetric,
    cm_min_exact,
    riemann_exact,
    riemann_fd,
    to_subchart,
)
from curvlab.frames import cm_of_frame, coordinate_frame
from curvlab.inequalities import admissible, chen_min_exact, d_of
from construction_references import (
    class_count_minimum,
    coordinate_cm_value,
    lift_laplacian_split,
    metric_from_json,
    per_radius_sweep,
    radial_laplacian,
)
from curvature_references import constant_profile, laplacian_fd
from frame_references import cm_batch, coordinate_route, sampled_search

LAMBDAS = (0.5, 1.0, 2.0)
# the default radial grid of the CLI
GRID = np.linspace(-10.0, 10.0, 121)


def forbid_frame_search(monkeypatch):
    """Make the frame minimizer and the frame sampler raise when called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("frame search called")

    monkeypatch.setattr(frames, "cm_min", forbidden)
    monkeypatch.setattr(frames, "random_frames", forbidden)


class TestSolveProfile:
    def test_gaussian_branch_6_2(self):
        sol = solve_profile(6, 2, 1.0)
        assert sol.case == "equality"
        assert sol.c4 == 0
        assert sol.u(0.5) == pytest.approx(np.exp(0.125), rel=1e-14)
        assert sol.f(0.5) == pytest.approx(np.exp(-0.0625), rel=1e-14)
        assert sol.params == {"c_u": "1/2", "c_f": "1/4"}

    def test_gaussian_branch_6_3(self):
        sol = solve_profile(6, 3, 1.0)
        assert sol.case == "equality"
        assert sol.params == {"c_u": "3/4", "c_f": "1/2"}

    def test_cosh_branch_7_2(self):
        sol = solve_profile(7, 2, 1.0)
        assert sol.case == "strict"
        assert sol.c3 == Fraction(-2, 3)
        assert sol.c4 == Fraction(1, 9)
        r = 1.2
        assert sol.f(r) == pytest.approx(np.cosh(r / 3.0) ** -3, rel=1e-13)
        assert sol.u(r) == pytest.approx(np.cosh(r / 3.0) ** 6, rel=1e-13)

    def test_cosh_branch_7_3(self):
        sol = solve_profile(7, 3, 1.0)
        assert (sol.c3, sol.c4) == (Fraction(-1), Fraction(1, 4))
        assert sol.params["p_u"] == "3"
        assert sol.params["p_f"] == "-2"

    def test_cosh_branch_7_4(self):
        sol = solve_profile(7, 4, 1.0)
        assert (sol.c3, sol.c4) == (Fraction(-2), Fraction(1, 3))

    def test_lambda_scaling(self):
        sol = solve_profile(6, 2, 2.0)
        assert sol.u(1.0) == pytest.approx(np.e, rel=1e-14)

    @pytest.mark.parametrize("n,m,lam", [
        (6, 1, 1.0),    # m too small
        (6, 4, 1.0),    # sphere factor too thin
        (5, 2, 1.0),    # 4/(n-m) exceeds (2m-2)/m
        (6, 2, 0.0),    # lambda not positive
        (6, 0, 1.0),    # no torus factor
        (6, 6, 1.0),    # no sphere factor
    ])
    def test_rejected_parameters(self, n, m, lam):
        with pytest.raises(UnsupportedParameters):
            solve_profile(n, m, lam)

    def test_rejection_names_inequality(self):
        with pytest.raises(UnsupportedParameters, match="4/\\(n-m\\)"):
            solve_profile(5, 2, 1.0)

    def test_range_is_the_failure_of_ineq2(self):
        # for 1 <= m < n, 4/(n-m) <= (2m-2)/m holds exactly when
        # m^2 - mn + m + n <= 0, and that forces m >= 2 and n - m >= 3
        for n in range(3, 16):
            for m in range(1, n):
                inside = Fraction(4, n - m) <= Fraction(2 * m - 2, m)
                assert inside == (admissible(n, m).ineq2 <= 0), (n, m)
                if inside:
                    assert m >= 2 and n - m >= 3, (n, m)
                    solve_profile(n, m, 1.0)
                else:
                    with pytest.raises(UnsupportedParameters, match="4/\\(n-m\\)"):
                        solve_profile(n, m, 1.0)
        in_scope = tuple((n, m) for n in (6, 7) for m in range(1, n)
                         if admissible(n, m).ineq2 <= 0)
        assert in_scope == CONSTRUCTION_PAIRS


class TestOdeResidual:
    def test_pointwise_example(self):
        sol = solve_profile(6, 2, 1.0)
        assert abs(float(ode_residual(sol, 0.5))) < 1e-12

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_grid_residual_both_branches(self, n, m, lam):
        sol = solve_profile(n, m, lam)
        res = ode_residual(sol, np.linspace(-5.0, 5.0, 101))
        assert np.max(np.abs(res)) < 1e-9

    def test_perturbed_profile_detected(self):
        # u * (1 + 0.01 r^2), in log form
        sol = solve_profile(6, 2, 1.0)
        u = sol.u

        def plog(r):
            return u.log(r) + np.log1p(0.01 * np.asarray(r, float) ** 2)

        def pdlog(r):
            r = np.asarray(r, float)
            return u.dlog(r) + 0.02 * r / (1.0 + 0.01 * r * r)

        def pd2log(r):
            r = np.asarray(r, float)
            return u.d2log(r) + 0.02 * (1.0 - 0.01 * r * r) / (1.0 + 0.01 * r * r) ** 2

        bent = type(sol)(sol.n, sol.m, sol.lam, sol.case, sol.c3, sol.c4,
                         u=RadialProfile(plog, pdlog, pd2log),
                         f=sol.f, params=sol.params)
        assert abs(float(ode_residual(bent, 1.0))) > 1e-3


class TestLiftChain:
    def test_three_torus_chain(self):
        chain = build_chain(7, 3)
        assert chain.k_sequence == (Fraction(4, 3), Fraction(1), Fraction(0))
        assert chain.function_exponents == (Fraction(1), Fraction(2, 3),
                                            Fraction(1, 3))
        assert chain.fiber_exponent == Fraction(4, 3)
        assert chain.all_identities_hold

    def test_two_torus_chain_square_fiber(self):
        chain = build_chain(6, 2)
        assert chain.k_sequence == (Fraction(1), Fraction(0))
        assert chain.fiber_exponent == Fraction(2)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_identities_exact(self, m):
        chain = build_chain(7, m)
        assert chain.k_sequence[-1] == 0
        assert chain.all_identities_hold
        assert len(chain.k_sequence) == m

    def test_trivial_chain(self):
        chain = build_chain(5, 1)
        assert chain.k_sequence == ()
        assert chain.all_identities_hold

    def test_bad_m(self):
        with pytest.raises(ValueError):
            build_chain(5, 0)
        with pytest.raises(ValueError):
            build_chain(5, 5)


class TestBuildCounterexample:
    def test_square_torus_coefficient(self):
        metric = build_counterexample(6, 2, 1.0, 0.1)
        assert metric.u_profile(1.0) ** 2 == pytest.approx(np.e, rel=1e-13)
        assert metric.epsilon == 0.1

    def test_linear_torus_coefficient(self):
        metric = build_counterexample(7, 4, 1.0, 0.3)
        assert metric.torus_dim == 3
        assert 4.0 / metric.m == 1.0

    def test_all_pairs_accepted(self):
        # the range is m^2 - mn + m + n <= 0 alone, beyond the paper's n <= 7
        for n, m in CONSTRUCTION_PAIRS + ((8, 2),):
            metric = build_counterexample(n, m, 1.0, 0.5)
            assert (metric.n, metric.m) == (n, m)

    @pytest.mark.parametrize("n,m,eps", [(6, 4, 0.5), (5, 2, 0.5),
                                         (8, 1, 0.5), (6, 2, -1.0)])
    def test_rejections(self, n, m, eps):
        with pytest.raises(UnsupportedParameters):
            build_counterexample(n, m, 1.0, eps)

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS + ((8, 2), (12, 6)))
    def test_homothety_in_lambda(self, n, m):
        # the (lambda, eps) metric is 1/lambda times the (1, eps sqrt(lambda))
        # one under r -> sqrt(lambda) r, so eps*^2 lambda depends on (n, m) alone
        for lam in (0.3, 4.0, 17.0):
            root = math.sqrt(lam)
            for eps in (0.25, 1.0):
                scaled = build_counterexample(n, m, lam, eps)
                unit = build_counterexample(n, m, 1.0, eps * root)
                for r in (-3.0, -0.7, 0.0, 0.4, 2.5):
                    assert_allclose(riemann_exact(scaled, r).components,
                                    lam * riemann_exact(unit, root * r).components,
                                    rtol=1e-12, atol=0.0)

    def test_json_roundtrip(self, tmp_path):
        # one report with --epsilon, one from the search, which passes at 1
        for i, (pair_args, expected) in enumerate((
                (["--n", "6", "--m", "3", "--lambda", "1.5", "--epsilon", "0.25"],
                 (6, 3, 1.5, 0.25)),
                (["--n", "7", "--m", "3"], (7, 3, 1.0, 1.0)))):
            metric = metric_from_json(report_witnesses(tmp_path / str(i), pair_args))
            direct = build_counterexample(*expected)
            assert_allclose(riemann_exact(metric, 0.7).components,
                            riemann_exact(direct, 0.7).components, atol=1e-14)

    def test_json_tamper_detected(self, tmp_path):
        witnesses = report_witnesses(tmp_path, ["--n", "6", "--m", "2"])
        assert witnesses["profile_case"] == "equality"
        metric_from_json(witnesses)
        tampered = dict(witnesses, profile_params={**witnesses["profile_params"],
                                                   "c_u": "2/3"})
        with pytest.raises(ValueError):
            metric_from_json(tampered)
        with pytest.raises(ValueError):
            metric_from_json(dict(witnesses, profile_case="custom"))


def report_witnesses(tmp_path, pair_args) -> dict:
    """Witnesses of the report a small `verify-examples` run writes."""
    argv = ["verify-examples", *pair_args, "--out", str(tmp_path),
            "--grid-points", "9", "--r-max", "3"]
    assert cli.main(argv) == 0
    (path,) = tmp_path.glob("*.json")
    return json.loads(path.read_text(encoding="utf-8"))["witnesses"]


class TestChainEquality:
    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_coordinate_frame_value_is_lambda(self, n, m, lam):
        for eps in (0.1, 1.0):
            metric = build_counterexample(n, m, lam, eps)
            for r in np.linspace(-10.0, 10.0, 21):
                assert coordinate_cm_value(metric, float(r)) == pytest.approx(
                    lam, abs=1e-9)


class TestLaplacian:
    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_split_recombines(self, n, m):
        metric = build_counterexample(n, m, 1.0, 0.5)
        r = np.linspace(-5.0, 5.0, 101)
        base, coupling = lift_laplacian_split(metric, r)
        full = radial_laplacian(metric, r)
        scale = np.maximum(1.0, np.abs(full))
        assert np.max(np.abs(base + coupling - full) / scale) < 1e-9

    def test_full_formula_against_fd(self):
        # the subchart keeps 2 of the 3 sphere directions and 2 torus
        # directions, so the drift uses those multiplicities
        metric = build_counterexample(6, 3, 1.0, 0.7)
        chart, labels = to_subchart(metric)
        t = labels.count("torus")
        u = metric.u_profile
        r0 = 0.6
        x = np.zeros(chart.dim)
        x[0], x[2] = 1.0, r0
        fd = laplacian_fd(chart, lambda y: float(u(y[2])), x)
        lf1, lu1 = metric.f_profile.dlog(r0), u.dlog(r0)
        expected = u(r0) * (u.d2_ratio(r0)
                            + (2.0 * lf1 + t * (2.0 / metric.m) * lu1) * lu1)
        assert fd == pytest.approx(expected, rel=1e-5)

    def test_circle_lift_ricci_two_dim(self):
        # fiber coefficient u^2 (m = 2): Ric(e_theta, e_theta) = -u''/u
        sol = solve_profile(6, 2, 1.0)
        chart = CoordinateMetric(
            2, lambda x: np.diag([1.0, float(sol.u(x[0])) ** 2]),
            ((-3.0, 3.0), (-4.0, 4.0)))
        rd = riemann_fd(chart, [0.8, 0.1])
        expected = -sol.u.d2_ratio(0.8)
        assert rd.ricci[1, 1] == pytest.approx(expected, rel=1e-5)

    def test_circle_lift_ricci_three_dim(self):
        # base (r, x1) with coefficient u^(4/3), fiber w = u^(2/3):
        # Ric(e_theta, e_theta) = -(w'' + (2/3)(u'/u) w') / w
        sol = solve_profile(6, 3, 1.0)
        u = sol.u

        def g(x):
            c = float(u(x[0])) ** (4.0 / 3.0)
            return np.diag([1.0, c, c])

        chart = CoordinateMetric(3, g, ((-3.0, 3.0), (-4.0, 4.0), (-4.0, 4.0)))
        rd = riemann_fd(chart, [0.7, 0.0, 0.0])
        r0 = 0.7
        uv = u(r0)
        u1, u2 = uv * u.dlog(r0), uv * u.d2_ratio(r0)
        w = uv ** (2.0 / 3.0)
        w1 = (2.0 / 3.0) * uv ** (-1.0 / 3.0) * u1
        w2 = ((2.0 / 3.0) * uv ** (-1.0 / 3.0) * u2
              - (2.0 / 9.0) * uv ** (-4.0 / 3.0) * u1 * u1)
        expected = -(w2 + (2.0 / 3.0) * (u1 / uv) * w1) / w
        assert rd.ricci[2, 2] == pytest.approx(expected, rel=1e-5)


class TestVerify:
    def test_flat_control_fails(self):
        # constant profiles: S^2 x R x S^1, flat on the (r, torus) 2-plane
        flat = WarpedTorusMetric(4, 2, 1.0, constant_profile(), constant_profile())
        rep = verify_uniform_positivity(flat, 0.1, np.linspace(-1, 1, 5))
        assert not rep.passed
        assert rep.worst_value == 0.0
        assert rep.epsilon == 1.0

    def test_large_epsilon_fails_at_origin(self, monkeypatch):
        # the class counts decide every radius: the frame minimizer is never
        # called and no frame is sampled
        forbid_frame_search(monkeypatch)
        metric = build_counterexample(6, 2, 1.0, 10.0)
        rep = verify_uniform_positivity(metric, 1.0, np.linspace(-2, 2, 9),
                                        fail_fast=True)
        assert not rep.passed
        assert not rep.complete
        assert rep.worst_r == 0.0
        # the sphere/torus coordinate pair: Ric_s + Ric_t = (3/eps^2 + 1/2) - 1
        assert rep.worst_value == pytest.approx(3.0 / 100.0 - 0.5, rel=1e-14)
        assert rep.worst_counts == (1, 0, 1)
        rd = riemann_exact(metric, rep.worst_r)
        assert cm_of_frame(rd, rep.worst_frame) == pytest.approx(rep.worst_value,
                                                                 rel=1e-12)
        assert rep.to_json_dict()["worst"]["counts"] == [1, 0, 1]

    def test_small_epsilon_passes(self, monkeypatch):
        forbid_frame_search(monkeypatch)
        metric = build_counterexample(6, 2, 1.0, 0.05)
        rep = verify_uniform_positivity(metric, 1.0, np.linspace(-6, 6, 13))
        assert rep.passed and rep.complete
        assert rep.coord_value_min == pytest.approx(1.0, abs=1e-9)
        assert rep.coord_value_max == pytest.approx(1.0, abs=1e-9)
        # the distinguished frame (e_r, e_x1) binds: counts (0, 1, 1)
        assert rep.worst_value == pytest.approx(1.0, abs=1e-9)
        assert rep.worst_counts == (0, 1, 1)

    def test_deterministic_reports(self):
        metric = build_counterexample(7, 2, 1.0, 0.5)
        grid = np.linspace(-3, 3, 7)
        a = verify_uniform_positivity(metric, 1.0, grid)
        b = verify_uniform_positivity(metric, 1.0, grid)
        assert a.worst_value == b.worst_value
        assert a.worst_r == b.worst_r
        assert a.worst_counts == b.worst_counts
        assert np.array_equal(a.worst_frame, b.worst_frame)

    def test_report_schema(self):
        metric = build_counterexample(6, 2, 1.0, 0.1)
        rep = verify_uniform_positivity(metric, 1.0, np.linspace(-1, 1, 3))
        d = rep.to_json_dict()
        assert set(d) == {"pass", "lambda", "epsilon", "grid", "complete", "worst",
                          "coordinate_frame_value_range"}
        assert d["complete"] is True
        assert set(d["grid"]) == {"R", "points"}
        assert set(d["worst"]) == {"r", "value", "frame", "counts"}
        assert d["worst"]["counts"] == [0, 1, 1]
        assert isinstance(d["worst"]["frame"], list)

    @pytest.mark.parametrize("grid,first_bad", [([-40.0, -39.0, 39.0, 40.0], -39.0),
                                                ([-40.0, 0.0, 40.0], -40.0)])
    def test_non_finite_curvature_never_passes(self, grid, first_bad):
        # 1/f^2 for the Gaussian f of (6, 2) overflows beyond r of about 37.6;
        # the sweep used to pass on the first grid (worst value inf at
        # r = nan) and to skip the NaN radii of the second
        metric = build_counterexample(6, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match=f"r = {first_bad}.*"
                                             r"finite for \|r\| <= 37\.61$"):
            verify_uniform_positivity(metric, 1.0, grid)
        riemann_exact(metric, -37.61)
        with pytest.raises(ValueError):
            riemann_exact(metric, -37.62)

    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_non_finite_class_count_value_never_passes(self, fail_fast):
        # every class value and Ricci value is finite, so riemann_exact
        # accepts the radius, but the radial-torus subset sums two Ricci
        # values of 1e308 and overflows: k_rt = -u''/u = 1e308,
        # k_ss = 1 - (f'/f)^2 = -1e307, and k_sr = k_st = k_tt = 0
        c = math.sqrt(1.0 + 1e307)
        f = RadialProfile(lambda r: 0.0 * r, lambda r: c + 0.0 * r,
                          lambda r: -(c * c) + 0.0 * r)
        u = RadialProfile(lambda r: 0.0 * r, lambda r: 0.0 * r,
                          lambda r: -1e308 + 0.0 * r)
        metric = WarpedTorusMetric(6, 2, 1.0, f, u)
        rd = riemann_exact(metric, 0.5)
        assert np.isfinite(rd.ricci).all() and np.isfinite(rd.scalar)
        with pytest.raises(ValueError, match=r"r = 0\.5: class-count values are not finite"):
            cm_min_exact(metric, 0.5)
        with pytest.raises(ValueError, match=r"r = 0\.5"):
            verify_uniform_positivity(metric, 1.0, [0.5, 1.0], fail_fast=fail_fast)

    def test_empty_grid_is_rejected(self):
        metric = build_counterexample(6, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match="radial grid is empty"):
            verify_uniform_positivity(metric, 1.0, [])
        with pytest.raises(ValueError, match="radial grid is empty"):
            search_epsilon(solve_profile(6, 2, 1.0), [])


class TestWorstRadius:
    @pytest.mark.parametrize("delta,reported_r", [(-1e-12, -1.0), (1e-12, -1.0),
                                                  (-2e-9, 1.0), (2e-9, -1.0)])
    def test_near_ties_report_the_first_radius_in_sweep_order(self, monkeypatch,
                                                              delta, reported_r):
        # the sweep visits r = 0, -1, 1; C_m is v at -1 and v + delta at 1,
        # so only a difference beyond TIE_TOL = 1e-9 moves the report to r = 1
        v = 1.0
        values = {0.0: 5.0, -1.0: v, 1.0: v + delta}
        counts = {0.0: (2, 0, 0), -1.0: (1, 1, 0), 1.0: (1, 0, 1)}
        subsets = {0.0: (0, 1), -1.0: (0, 4), 1.0: (0, 5)}

        sweep_order = (0.0, -1.0, 1.0)

        def fake_grid(metric, table):
            # the class-count kernel sees the sweep's table, one row per radius
            assert len(table) == len(sweep_order)
            assert all(curvature._count_subset(metric, counts[r]) == subsets[r]
                       for r in sweep_order)
            return (np.array([values[r] for r in sweep_order]),
                    np.array([counts[r] for r in sweep_order]), np.ones(3, dtype=bool),
                    np.ones(3))

        monkeypatch.setattr(curvature, "_class_count_minima", fake_grid)
        # the threshold sits 5e-13 below v: the verdict reads the true minimum
        threshold = v - 5e-13
        lam = threshold / (1.0 - constructions.PASS_SLACK)
        rep = verify_uniform_positivity(build_counterexample(6, 2, 1.0, 0.5),
                                        lam, [-1.0, 0.0, 1.0])
        assert rep.worst_r == reported_r
        assert rep.worst_value == values[reported_r]
        assert rep.worst_counts == counts[reported_r]
        assert_array_equal(rep.worst_frame, coordinate_frame(6, subsets[reported_r]))
        assert rep.passed == (delta > 0)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def python_float_class_values(metric, table):
    """The count vectors' values from one class table, in Python floats.

    Each operation is one rounded double operation, in the order that
    `curvature._class_count_minima` states, with no fused multiply-add.
    """
    s, m, t = metric.sphere_dim, metric.m, metric.torus_dim
    (k_ss, k_sr, k_st), (_, _, k_rt), (_, _, k_tt) = table.tolist()
    r_s = (s - 1) * k_ss + k_sr + t * k_st
    r_r = s * k_sr + t * k_rt
    r_t = s * k_st + k_rt + (t - 1) * k_tt
    return [i * r_s + rho * r_r + j * r_t
            - (i * (i - 1) / 2 * k_ss + j * (j - 1) / 2 * k_tt + i * rho * k_sr
               + i * j * k_st + rho * j * k_rt)
            for i in range(min(m, s), -1, -1) for rho in (1, 0)
            for j in [m - i - rho] if 0 <= j <= t]


def report_text(rep):
    """Every field of a positivity report; json writes each float's repr, so bits count."""
    return json.dumps(rep.to_json_dict())


def sweep_outcome(sweep, *args, **kwargs):
    """A sweep's report text, or the message of the ValueError it raised."""
    try:
        return report_text(sweep(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestGridSweep:
    """The sweep evaluates its grid as arrays, with the per-radius sweep's results."""

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_kernel_rows_equal_the_scalar_minimum(self, n, m):
        # each row of the shared class-count kernel equals cm_min_exact at its
        # radius, and the per-radius formula it replaced, bit for bit
        for lam in (1.0, 4.0):
            for eps in (2.0, 1.0, 0.5, 0.25):
                metric = build_counterexample(n, m, lam, eps)
                table = curvature._sectional_table(metric, GRID)
                lowest, counts, finite, coordinate = curvature._class_count_minima(
                    metric, table)
                assert finite.all()
                for r, value, row, cv in zip(GRID, lowest, counts, coordinate):
                    row = tuple(int(c) for c in row)
                    got = (bits(value), row, curvature._count_subset(metric, row))
                    reference = class_count_minimum(
                        metric, curvature._sectional_table(metric, r), r)
                    for want in (cm_min_exact(metric, r), reference):
                        assert got == (bits(want[0]), want[1], want[2]), (lam, eps, r)
                    assert bits(cv) == bits(reference[3])

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS + ((12, 6),))
    def test_kernel_rows_equal_the_per_table_formula_on_random_tables(self, n, m):
        # class values over 16 orders of magnitude, where any other order of
        # the sums, or an FMA, rounds some rows' values differently
        rng = np.random.default_rng(10 * n + m)
        raw = rng.standard_normal((1500, 3, 3)) * np.exp(rng.uniform(-18.0, 18.0, (1500, 3, 3)))
        tables = raw + raw.transpose(0, 2, 1)
        tables[:, 1, 1] = 0.0
        metric = build_counterexample(n, m, 1.0, 1.0)
        lowest, counts, finite, coordinate = curvature._class_count_minima(metric, tables)
        assert finite.all()
        for table, value, row, cv in zip(tables, lowest, counts, coordinate):
            want = class_count_minimum(metric, table, 0.0)
            row = tuple(int(c) for c in row)
            assert (bits(value), row, bits(cv)) == (bits(want[0]), want[1], bits(want[3]))
            values = python_float_class_values(metric, table)
            assert (bits(value), bits(cv)) == (bits(min(values)), bits(values[-1]))

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_coordinate_row_is_cm_of_frame_on_the_full_tensor(self, n, m):
        # the kernel's last count vector is the distinguished frame; its value
        # against cm_of_frame's contraction of riemann_exact's n^4 tensor
        for lam in (1.0, 4.0):
            for eps in (2.0, 1.0, 0.5, 0.25):
                metric = build_counterexample(n, m, lam, eps)
                table = curvature._sectional_table(metric, GRID)
                *_, finite, coordinate = curvature._class_count_minima(metric, table)
                assert finite.all()
                for r, cv in zip(GRID, coordinate):
                    want = coordinate_cm_value(metric, float(r))
                    assert abs(cv - want) <= 1e-11 * max(1.0, abs(want)), (lam, eps, r)

    def test_fail_fast_stops_before_a_non_finite_radius(self):
        # at eps = 10 the origin already fails; the curvature of (6, 2) is not
        # finite at r = 40, which only a sweep that goes on reaches
        metric = build_counterexample(6, 2, 1.0, 10.0)
        rep = verify_uniform_positivity(metric, 1.0, [0.0, 40.0], fail_fast=True)
        assert not rep.passed and not rep.complete
        assert rep.worst_r == 0.0
        with pytest.raises(ValueError, match=r"^curvature at r = 40\.0: .*"
                                             r"finite for \|r\| <= 37\.67$"):
            verify_uniform_positivity(metric, 1.0, [0.0, 40.0], fail_fast=False)

    def test_a_finite_sweep_tabulates_once_and_builds_no_scalar_tensor(self, monkeypatch):
        tabulated, built, tensors = [], [], []
        table, exact = curvature._sectional_table, curvature.riemann_exact
        components = curvature._sectional_components

        def spy_table(metric, r):
            tabulated.append(np.shape(r))
            return table(metric, r)

        def spy_exact(metric, r):
            built.append(r)
            return exact(metric, r)

        def spy_components(table, labels):
            tensors.append(len(labels))
            return components(table, labels)

        monkeypatch.setattr(curvature, "_sectional_table", spy_table)
        monkeypatch.setattr(curvature, "riemann_exact", spy_exact)
        monkeypatch.setattr(curvature, "_sectional_components", spy_components)
        rep = verify_uniform_positivity(build_counterexample(7, 3, 1.0, 1.0), 1.0, GRID)
        assert rep.passed and rep.complete
        # long grids, failing fast at the origin, and n^4 = 20736 at (12, 6)
        grid = np.linspace(-10.0, 10.0, 401)
        cases = [(7, 3, 1.0, False), (6, 2, 10.0, True), (8, 2, 0.5, False),
                 (12, 6, 1.0, False)]
        reports = [verify_uniform_positivity(build_counterexample(n, m, 1.0, eps), 1.0,
                                             grid, fail_fast=fail_fast)
                   for n, m, eps, fail_fast in cases]
        assert tabulated == [(121,)] + [(401,)] * len(cases)
        assert built == [] and tensors == []
        monkeypatch.undo()
        for (n, m, eps, fail_fast), rep in zip(cases, reports):
            want = per_radius_sweep(build_counterexample(n, m, 1.0, eps), 1.0, grid, fail_fast)
            assert report_text(rep) == report_text(want)

    @pytest.mark.parametrize("n,m,eps,r", [(6, 2, 1.0, 37.611110226729444),
                                           (7, 3, 1e-3, 348.1274422039358)])
    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_finite_class_counts_do_not_pass_overflowing_contractions(self, n, m, eps, r,
                                                                      fail_fast):
        # just inside the overflow of 1/(eps^2 f^2) every class-count value is
        # finite and the minimum is lambda, but the scalar curvature is not
        # finite, so riemann_exact rejects the radius and the sweep must too
        metric = build_counterexample(n, m, 1.0, eps)
        lowest, _, finite, _ = curvature._class_count_minima(
            metric, curvature._sectional_table(metric, r))
        assert finite and lowest == 1.0
        with pytest.raises(ValueError) as want:
            riemann_exact(metric, r)
        assert "contractions are not finite" in str(want.value)
        with pytest.raises(ValueError) as got:
            verify_uniform_positivity(metric, 1.0, [0.0, r], fail_fast=fail_fast)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("grid", [np.linspace(-40.0, 40.0, 801),
                                      np.linspace(0.0, 39.0, 400)])
    def test_a_non_finite_radius_in_a_later_slice_is_named(self, grid):
        # (6, 2) at eps = 1 is finite for |r| <= 37.61: the first radius beyond
        # lies hundreds of radii into the sweep, and its error is the per-radius one
        metric = build_counterexample(6, 2, 1.0, 1.0)
        want = sweep_outcome(per_radius_sweep, metric, 1.0, grid)
        assert want.startswith("ValueError: curvature at r = ")
        assert sweep_outcome(verify_uniform_positivity, metric, 1.0, grid) == want

    @settings(max_examples=150, deadline=None)
    @given(pair=st.sampled_from(CONSTRUCTION_PAIRS + ((8, 2), (9, 4))),
           lam=st.floats(0.05, 16.0),
           eps=st.floats(2.0 ** -6, 8.0),
           grid=st.lists(st.one_of(st.floats(-12.0, 12.0), st.floats(-60.0, 60.0),
                                   st.sampled_from([0.0, -0.0, 1.0, -1.0])),
                         min_size=1, max_size=12),
           fail_fast=st.booleans())
    def test_report_or_error_equals_the_per_radius_sweep(self, pair, lam, eps, grid,
                                                         fail_fast):
        metric = build_counterexample(*pair, lam, eps)
        want = sweep_outcome(per_radius_sweep, metric, lam, grid, fail_fast)
        assert sweep_outcome(verify_uniform_positivity, metric, lam, grid,
                             fail_fast=fail_fast) == want


class TestClassCounts:
    """The exact class-count minimum against the full-tensor routes."""

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_value_is_the_pluecker_average_of_coordinate_values(self, n, m):
        # Cauchy-Binet on a diagonal curvature operator: C_m(V) is the
        # average of C_m(e_I) over coordinate subsets I with weights xi_I^2,
        # the squared Pluecker coordinates of V, so no frame goes below the
        # coordinate minimum
        subsets = list(itertools.combinations(range(n), m))
        coords = np.stack([coordinate_frame(n, s) for s in subsets])
        qs = frames.random_frames(n, m, 64, np.random.default_rng(10 * n + m))
        xi2 = np.stack([np.linalg.det(qs[:, list(s), :]) for s in subsets], axis=1) ** 2
        assert_allclose(xi2.sum(axis=1), 1.0, rtol=1e-13)
        for eps in (0.25, 1.0, 10.0):
            metric = build_counterexample(n, m, 1.0, eps)
            for r in (-3.0, 0.0, 0.7, 2.0):
                rd = riemann_exact(metric, r)
                assert_allclose(cm_batch(rd, qs), xi2 @ cm_batch(rd, coords),
                                rtol=1e-12, err_msg=f"eps={eps}, r={r}")

    @pytest.mark.parametrize("n,m,r", [(6, 3, 0.0), (7, 4, 0.0), (4, 2, None),
                                       (5, 3, None), (6, 2, None)])
    def test_ties_name_the_first_coordinate_subset(self, n, m, r):
        # r = None: f'/f = 2 with f''/f = 0 and a constant u give K_ss = 1 - 4
        # and every other class value 0, so C_m(e_I) depends on the sphere
        # count alone and many subsets tie.  The reported subset is the
        # lexicographically first within TIE_TOL, as in cm_min
        if r is None:
            f = RadialProfile(lambda r: 0.0 * r, lambda r: 2.0 + 0.0 * r,
                              lambda r: -4.0 + 0.0 * r)
            metric, r = WarpedTorusMetric(n, m, 1.0, f, constant_profile()), 0.0
        else:
            metric = build_counterexample(n, m, 1.0, 1.0)
        subsets = list(itertools.combinations(range(n), m))
        rd = riemann_exact(metric, r)
        vals = cm_batch(rd, np.stack([coordinate_frame(n, s) for s in subsets]))
        tied = np.flatnonzero(vals <= vals.min() + TIE_TOL)
        assert len(tied) > 1
        subset = cm_min_exact(metric, r)[2]
        assert subset == subsets[tied[0]]
        assert_array_equal(frames.cm_min(rd, m).argmin,
                           coordinate_frame(n, subset))

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_sampled_minimizer_never_beats_the_exact_minimum(self, monkeypatch, n, m):
        # the reference sampled search, and cm_min with no route bound to
        # close on, which descends from the best coordinate frame and the
        # route's frame
        coordinate_route(monkeypatch, lambda riemann, m: -np.inf)
        rng = np.random.default_rng(n * 10 + m)
        for eps in (0.25, 1.0, 10.0):
            metric = build_counterexample(n, m, 1.0, eps)
            for r in rng.uniform(-3.0, 3.0, 2):
                exact = cm_min_exact(metric, r)[0]
                rd = riemann_exact(metric, r)
                res = frames.cm_min(rd, m)
                assert res.method != "certificate"
                assert exact - 1e-9 <= res.value <= exact + 1e-9, (eps, r)
                sampled = sampled_search(rd, m, 2000, seed=1)
                assert exact - 1e-9 <= sampled <= exact + 1e-9, (eps, r)

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_worst_frame_carries_the_worst_value(self, n, m):
        for lam in (1.0, 4.0):
            for eps in (0.25, 1.0, 10.0):
                metric = build_counterexample(n, m, lam, eps)
                rep = verify_uniform_positivity(metric, lam, np.linspace(-3.0, 3.0, 13))
                value = cm_of_frame(riemann_exact(metric, rep.worst_r), rep.worst_frame)
                assert value == pytest.approx(rep.worst_value, rel=1e-12), (lam, eps)


class TestSearchEpsilon:
    def test_finds_passing_scale(self):
        res = search_epsilon(solve_profile(6, 2, 1.0), np.linspace(-3.0, 3.0, 7))
        assert 0.0 < res.epsilon <= 1.0
        assert res.report.passed
        assert res.report.coord_value_min == pytest.approx(1.0, abs=1e-9)
        assert res.tightness_report.epsilon == pytest.approx(2 * res.epsilon)


    def test_range_check(self):
        # the range is checked where the profile is solved, before any sweep
        with pytest.raises(UnsupportedParameters):
            search_epsilon(solve_profile(6, 4, 1.0), GRID)

    def test_search_failure_carries_best_report(self, monkeypatch):
        # lambda = 4 at scale 1 behaves like lambda = 1 at scale 2, which
        # fails, so a zero-halving search has no passing candidate
        monkeypatch.setattr(constructions, "MAX_HALVINGS", 0)
        with pytest.raises(EpsilonSearchError) as exc:
            search_epsilon(solve_profile(6, 2, 4.0), np.linspace(-2.0, 2.0, 5))
        assert exc.value.best_report is not None
        assert not exc.value.best_report.passed
        # the fail-fast sweep stops at r = 0, and its worst value is the
        # exact minimum there: the sphere/torus pair at 1 < 4
        worst = exc.value.best_report.to_json_dict()["worst"]
        metric = build_counterexample(6, 2, 4.0, 1.0)
        assert (worst["r"], worst["counts"]) == (0.0, [1, 0, 1])
        assert worst["value"] == cm_min_exact(metric, 0.0)[0] == pytest.approx(1.0)

    def test_search_failure_carries_the_highest_failing_report(self, monkeypatch):
        # (6, 2) at lambda 16 has sharp scale sqrt(e/24) < 1/2, so both
        # candidates fail; the error carries the one whose worst value is highest
        monkeypatch.setattr(constructions, "MAX_HALVINGS", 1)
        swept = []
        sweep = constructions.verify_uniform_positivity

        def recording(*args, **kwargs):
            swept.append(sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(constructions, "verify_uniform_positivity", recording)
        with pytest.raises(EpsilonSearchError) as exc:
            search_epsilon(solve_profile(6, 2, 16.0), np.linspace(-2.0, 2.0, 5))
        assert len(swept) == 2 and not any(rep.passed for rep in swept)
        assert exc.value.best_report is max(swept, key=lambda rep: rep.worst_value)

    @pytest.mark.parametrize("lam,scales", [(4.0, (0, 1)), (1.0, (0, -1))])
    def test_each_scale_is_swept_once(self, monkeypatch, lam, scales):
        # (6, 3) has sharp scale 1/sqrt(lambda).  At lambda = 4 scale 1 fails
        # and 1/2 passes, so the failed sweep at 1 is the tightness evidence;
        # at lambda = 1 scale 1 passes and scale 2 is swept as t = -1
        swept = []
        sweep = constructions.verify_uniform_positivity

        def recording(*args, **kwargs):
            swept.append(sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(constructions, "verify_uniform_positivity", recording)
        res = search_epsilon(solve_profile(6, 3, lam), np.linspace(-3.0, 3.0, 7))
        assert [rep.epsilon for rep in swept] == [2.0 ** -t for t in scales]
        assert res.epsilon == 1 / math.sqrt(lam)
        assert res.report is swept[0 if lam == 1.0 else 1]
        assert res.tightness_report is swept[1 if lam == 1.0 else 0]
        assert res.tightness_report.epsilon == 2 * res.epsilon
        assert not res.tightness_report.passed

    def test_profile_is_solved_once(self, monkeypatch, tmp_path):
        # verify-examples on (6, 3) at lambda 4 solves the profile once, for
        # the residual and then for the search over scales 1 and 1/2 or for
        # the sweep at the given scale
        solved = []
        solve = constructions.solve_profile

        def recording(*args):
            solved.append(args)
            return solve(*args)

        for module in (cli, constructions):
            monkeypatch.setattr(module, "solve_profile", recording)
        for mode in ([], ["--epsilon", "0.5"]):
            solved.clear()
            out = tmp_path / str(len(mode))
            assert cli.main(["verify-examples", "--n", "6", "--m", "3", "--lambda", "4",
                             "--r-max", "10", "--grid-points", "3", "--out", str(out),
                             *mode]) == 0
            assert solved == [(6, 3, 4.0)], mode

    def test_construction_searches_sample_no_frame(self, monkeypatch):
        # the class counts decide every radius of every sweep, so the
        # searches of criterion 5 pass with the frame search forbidden
        forbid_frame_search(monkeypatch)
        for lam, expected in ((1.0, 1.0), (4.0, 0.5)):
            for n, m in CONSTRUCTION_PAIRS:
                res = search_epsilon(solve_profile(n, m, lam), GRID)
                assert res.epsilon == expected and res.report.passed, (n, m, lam)
                assert not res.tightness_report.passed, (n, m, lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_radius_it_cannot_evaluate_is_named(self, bad):
        # the grid is the caller's, so the sweep alone keeps a non-finite
        # radius from passing
        with pytest.raises(ValueError, match=re.escape(f"curvature at r = {bad!r}:")):
            search_epsilon(solve_profile(6, 2, 1.0), [-1.0, bad, 1.0])
        # the radii of a grid as wide as [-max/2, max/2] are finite, and
        # riemann_exact names the first one whose curvature is not
        half = float(np.finfo(float).max) / 2
        with pytest.raises(ValueError, match=re.escape(f"curvature at r = {-half!r}:")):
            search_epsilon(solve_profile(6, 2, 1.0), np.linspace(-half, half, 3))

    def test_search_recovers_after_failure(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_HALVINGS", 3)
        res = search_epsilon(solve_profile(6, 2, 4.0), np.linspace(-2.0, 2.0, 5))
        assert res.epsilon < 1.0
        assert res.report.passed


def test_sharpness_atlas():
    # every pair with 3 <= n <= 12 is either admissible, where the Chen
    # minimum is the sharp constant D(n, m) with a positive LDL^T certificate,
    # or in the construction range, where the exact class-count minimum
    # proves C_m >= lambda on the grid at epsilon = 1
    admissible_pairs, constructible_pairs = [], []
    for n in range(3, 13):
        for m in range(1, n):
            try:
                solve_profile(n, m, 1.0)
            except UnsupportedParameters:
                admissible_pairs.append((n, m))
            else:
                constructible_pairs.append((n, m))
            assert admissible(n, m).admissible == ((n, m) in admissible_pairs), (n, m)
    assert (len(admissible_pairs), len(constructible_pairs)) == (30, 35)
    for n, m in admissible_pairs:
        chen = chen_min_exact(n, m)
        assert chen.ratio == d_of(n, m).value, (n, m)
        assert min(value for _, value in chen.sectors) > 0, (n, m)
    for n, m in constructible_pairs:
        metric = build_counterexample(n, m, 1.0, 1.0)
        grid = np.linspace(-3.0, 3.0, 5)
        rep = verify_uniform_positivity(metric, 1.0, grid)
        assert rep.passed, (n, m)
        # the class-count minimum is the minimum over all C(n, m) coordinate
        # subsets, evaluated on the full tensor
        subsets = np.stack([coordinate_frame(n, s)
                            for s in itertools.combinations(range(n), m)])
        for r in grid:
            coordinate_min = cm_batch(riemann_exact(metric, r), subsets).min()
            assert cm_min_exact(metric, r)[0] == pytest.approx(coordinate_min,
                                                               rel=1e-13), (n, m, r)
