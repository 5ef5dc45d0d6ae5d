"""Tests for the diameter bound formulas and the graph estimator kept as a reference."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlab.diameter import (
    antonelli_xu_bound,
    c0_identity_check,
    c0_identity_sweep,
    c0_of,
    cm_diameter_bound,
    shen_ye_bound,
)
from curvlab.inequalities import admissible, d_of
from diameter_references import (
    _certified,
    _chords,
    _distances,
    _sweep,
    dijkstra_diameter,
    dijkstra_distances,
    rotational_diameter,
)


class TestC0:
    def test_exact_values(self):
        assert c0_of(5, 2) == Fraction(1, 4)
        assert c0_of(7, 6) == Fraction(7, 12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_codimension_two_value(self, n):
        # both defining polynomials collapse to 2 at m = n-2
        assert c0_of(n, n - 2) == Fraction(1, 2)

    def test_first_index_matches_ricci_constant(self):
        for n in range(3, 8):
            assert c0_of(n, 1) == Fraction(1, n - 1)

    def test_equals_d_on_every_admissible_pair(self):
        # C0 is the third candidate of D(n, m), and D takes that value on
        # every admissible pair with n <= 7, m = 1 included
        pairs = [(n, m) for n in range(3, 8) for m in range(1, n)
                 if admissible(n, m).admissible]
        assert len(pairs) == 15
        for n, m in pairs:
            assert c0_of(n, m) == d_of(n, m).value

    def test_inadmissible_pair_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            c0_of(6, 3)
        with pytest.raises(ValueError, match="not admissible"):
            c0_of(7, 4)


class TestShenYeBound:
    def test_three_dimensional_case_is_pi(self):
        # correction term vanishes with the (d-3)^2 factor
        assert_allclose(shen_ye_bound(3, Fraction(2), 1.0),
                        math.pi, rtol=1e-15)

    def test_four_dimensional_example(self):
        got = shen_ye_bound(4, Fraction(1), 1.0)
        assert_allclose(got, 2 * math.pi / math.sqrt(3), rtol=1e-15)
        assert got == pytest.approx(3.6276, abs=1e-4)

    def test_rescaled_lambda_example(self):
        got = shen_ye_bound(4, Fraction(1), 1.0 / 3.0)
        assert_allclose(got, 2 * math.pi, rtol=1e-14)

    def test_gamma_zero_drops_correction(self):
        for d in (4, 5, 6):
            got = shen_ye_bound(d, Fraction(0), 2.0)
            assert_allclose(got, math.pi / math.sqrt(2.0), rtol=1e-15)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_nondecreasing_in_gamma(self, d):
        limit = Fraction(4, d - 1)
        grid = [limit * Fraction(k, 40) for k in range(0, 40)]
        values = [shen_ye_bound(d, g, 1.0) for g in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-14)
        assert diffs[-1] > 0

    def test_validity_range(self):
        with pytest.raises(ValueError, match="gamma <= 2"):
            shen_ye_bound(3, Fraction(21, 10), 1.0)
        with pytest.raises(ValueError, match="4/"):
            shen_ye_bound(4, Fraction(4, 3), 1.0)
        with pytest.raises(ValueError, match="d >= 3"):
            shen_ye_bound(2, Fraction(1), 1.0)
        with pytest.raises(ValueError, match="gamma >= 0"):
            shen_ye_bound(4, Fraction(-1, 2), 1.0)
        with pytest.raises(ValueError, match="lambda > 0"):
            shen_ye_bound(4, Fraction(1), 0.0)


class TestAntonelliXuBound:
    def test_three_dimensional_exponent_vanishes(self):
        got = antonelli_xu_bound(3, Fraction(3, 2), 1.0, ratio=5.0)
        assert_allclose(got, math.pi, rtol=1e-15)

    def test_four_dimensional_example(self):
        got = antonelli_xu_bound(4, Fraction(1), 1.0, ratio=2.0)
        assert_allclose(got, math.pi * 2.0 ** (1.0 / 3.0), rtol=1e-15)
        assert got == pytest.approx(3.9581, abs=1e-4)

    def test_constant_eigenfunction_gives_myers_value(self):
        for d, lam in [(4, 1.0), (5, 0.25), (7, 3.0)]:
            got = antonelli_xu_bound(d, Fraction(1, 2), lam, ratio=1.0)
            assert_allclose(got, math.pi / math.sqrt(lam), rtol=1e-15)

    def test_gamma_boundary_inclusive(self):
        # gamma = (d-1)/(d-2) is allowed
        antonelli_xu_bound(4, Fraction(3, 2), 1.0, ratio=2.0)
        with pytest.raises(ValueError, match="gamma <="):
            antonelli_xu_bound(4, Fraction(8, 5), 1.0, ratio=2.0)

    def test_ratio_required_and_positive(self):
        with pytest.raises(ValueError, match="positive"):
            antonelli_xu_bound(4, Fraction(1), 1.0, ratio=-2.0)


class TestCmDiameterBound:
    def test_examples(self):
        assert_allclose(cm_diameter_bound(5, 2, 1.0), 2 * math.pi, rtol=1e-14)
        assert_allclose(cm_diameter_bound(7, 6, 1.0),
                        math.pi * math.sqrt(12.0 / 7.0), rtol=1e-15)
        assert cm_diameter_bound(7, 6, 1.0) == pytest.approx(4.11, abs=0.01)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_codimension_two_formula(self, n):
        for lam in (0.5, 1.0, 2.0):
            assert_allclose(cm_diameter_bound(n, n - 2, lam),
                            math.pi * math.sqrt(2.0 / lam), rtol=1e-14)

    def test_scaling_in_lambda(self):
        for n, m in [(5, 2), (6, 4), (7, 6), (4, 1)]:
            base = cm_diameter_bound(n, m, 1.0)
            for c in (0.25, 2.0, 9.0):
                assert_allclose(cm_diameter_bound(n, m, c),
                                base / math.sqrt(c), rtol=1e-14)

    def test_rejections(self):
        with pytest.raises(ValueError, match="not admissible"):
            cm_diameter_bound(6, 2, 1.0)
        with pytest.raises(ValueError, match="lambda"):
            cm_diameter_bound(5, 2, -1.0)


class TestC0Identity:
    def test_example_five_two(self):
        report = c0_identity_check(5, 2)
        assert report["d"] == 4
        assert report["gamma"] == Fraction(1)
        assert report["lhs"] == Fraction(4)
        assert report["rhs"] == Fraction(4)
        assert report["equal"]

    def test_example_seven_six(self):
        report = c0_identity_check(7, 6)
        assert report["d"] == 2
        assert report["gamma"] == Fraction(5, 3)
        assert report["lhs"] == Fraction(12, 7)
        assert report["rhs"] == Fraction(12, 7)
        assert report["equal"]

    def test_sweep_has_no_failures(self):
        rows = c0_identity_sweep()
        expected_pairs = {(n, m) for n in range(3, 8) for m in range(2, n)
                          if admissible(n, m).admissible}
        assert {(r["n"], r["m"]) for r in rows} == expected_pairs
        assert len(rows) == 10
        assert all(r["equal"] for r in rows)
        assert all(isinstance(r["lhs"], Fraction) for r in rows)

    def test_minimal_index_excluded(self):
        with pytest.raises(ValueError, match="m >= 2"):
            c0_identity_check(5, 1)


class TestRotationalDiameter:
    def test_unit_sphere(self):
        got = rotational_diameter(np.sin, (0.0, math.pi), 1)
        assert abs(got - math.pi) / math.pi < 0.02

    def test_cylinder_segment(self):
        rho, length = 0.75, 2.0
        got = rotational_diameter(lambda r: rho, (0.0, length), 1)
        want = math.sqrt(length ** 2 + (math.pi * rho) ** 2)
        assert abs(got - want) / want < 0.02

    def test_round_three_sphere_matches_bound(self):
        rho = math.sqrt(2.0)
        got = rotational_diameter(lambda r: rho * np.sin(np.asarray(r) / rho),
                                  (0.0, rho * math.pi), 2)
        want = math.pi * rho
        assert abs(got - want) / want < 0.02
        # the model metric achieves the codimension-two bound
        assert abs(got - cm_diameter_bound(5, 3, 1.0)) / want < 0.02

    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.0])
    def test_model_meets_every_codimension_two_bound(self, lam):
        # the model f = rho sin(r/rho), rho = sqrt(2/lambda), depends on lambda
        # alone, and C0(n, n-2) = 1/2 makes its diameter pi rho the bound for every n
        rho = math.sqrt(2.0 / lam)
        got = rotational_diameter(lambda r: rho * np.sin(np.asarray(r) / rho),
                                  (0.0, rho * math.pi), 2)
        for n in range(3, 13):
            bound = cm_diameter_bound(n, n - 2, lam)
            assert abs(got - bound) / bound < 0.02

    def test_at_least_interval_length(self):
        cases = [
            (np.sin, (0.0, math.pi)),
            (lambda r: 0.3 + 0.1 * np.sin(3.0 * np.asarray(r)), (0.0, 5.0)),
            (lambda r: np.exp(-np.asarray(r) ** 2), (-2.0, 2.0)),
        ]
        for f, interval in cases:
            got = rotational_diameter(f, interval, 1, n_r=48, n_theta=48)
            assert got >= (interval[1] - interval[0]) - 1e-9

    def test_deterministic(self):
        a = rotational_diameter(np.sin, (0.0, math.pi), 1, n_r=40, n_theta=40)
        b = rotational_diameter(np.sin, (0.0, math.pi), 1, n_r=40, n_theta=40)
        assert a == b

    def test_fiber_dimension_does_not_change_reduction(self):
        a = rotational_diameter(np.sin, (0.0, math.pi), 1, n_r=48, n_theta=48)
        b = rotational_diameter(np.sin, (0.0, math.pi), 3, n_r=48, n_theta=48)
        assert a == b

    def test_rejections(self):
        with pytest.raises(ValueError, match="positive"):
            rotational_diameter(lambda r: -np.ones_like(np.asarray(r)),
                                (0.0, 1.0), 1)
        with pytest.raises(ValueError, match="nondegenerate"):
            rotational_diameter(np.sin, (1.0, 1.0), 1)
        with pytest.raises(ValueError, match="fiber"):
            rotational_diameter(np.sin, (0.0, math.pi), 0)
        with pytest.raises(ValueError, match="grid"):
            rotational_diameter(np.sin, (0.0, math.pi), 1, n_r=1)


def _model(r):
    # the round model the diameter subcommand reports at lambda = 1
    rho = math.sqrt(2.0)
    return rho * np.sin(np.asarray(r) / rho)


# (f, interval, n_r, n_theta): the CLI's round model, smooth families with and
# without zeros at the ends, non-square grids and the 2 x 2 minimum
SWEEP_CASES = {
    "cli-model": (_model, (0.0, math.sqrt(2.0) * math.pi), 121, 121),
    "sin": (np.sin, (0.0, math.pi), 96, 96),
    "constant": (lambda r: 0.75, (0.0, 2.0), 48, 48),
    "gaussian": (lambda r: np.exp(-np.asarray(r) ** 2), (-2.0, 2.0), 48, 48),
    "oscillating": (lambda r: 0.3 + 0.1 * np.sin(3.0 * np.asarray(r)), (0.0, 5.0), 48, 48),
    "wide": (np.sin, (0.0, math.pi), 48, 17),
    "tall": (np.sin, (0.0, math.pi), 17, 48),
    "minimum": (np.sin, (0.0, math.pi), 2, 2),
}


def _chart(f, interval, n_r, n_theta):
    lo, hi = interval
    return _chords(f, np.linspace(lo, hi, n_r), (hi - lo) / (n_r - 1), n_theta)


class TestColumnSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_diameter_equals_dijkstra_bit_for_bit(self, name):
        f, interval, n_r, n_theta = SWEEP_CASES[name]
        got = rotational_diameter(f, interval, 2, n_r=n_r, n_theta=n_theta)
        assert got == dijkstra_diameter(f, interval, n_r=n_r, n_theta=n_theta)

    @pytest.mark.parametrize("name", ["sin", "gaussian", "wide", "tall", "minimum"])
    def test_every_distance_equals_dijkstra(self, name):
        f, interval, n_r, n_theta = SWEEP_CASES[name]
        dist = _distances(_chart(f, interval, n_r, n_theta), n_r, n_theta)
        # dist[j, i, s] is Dijkstra's row s at node i * n_theta + j
        want = dijkstra_distances(f, interval, n_r, n_theta)
        assert np.array_equal(dist.transpose(2, 1, 0).reshape(n_r, -1), want)

    @pytest.mark.parametrize("end", ["a", "b"])
    def test_check_rejects_a_label_above_a_neighbour_plus_the_chord(self, end):
        n_r, n_theta = 12, 9
        chords = _chart(np.sin, (0.0, math.pi), n_r, n_theta)
        dist = _distances(chords, n_r, n_theta)
        assert _certified(dist, chords)
        # the (2, 1) chord joins (i, j) = (4, 3) to (6, 4); source row 7
        w = next(w for di, dj, w in chords if (di, dj) == (2, 1))[4]
        a, b = (3, 4, 7), (4, 6, 7)
        raised, other = (a, b) if end == "a" else (b, a)
        assert dist[raised] <= dist[other] + w
        # one ulp above the neighbour's label plus the chord length
        dist[raised] = np.nextafter(dist[other] + w, np.inf)
        assert not _certified(dist, chords)

    def test_a_failed_check_is_settled_by_a_sweep_the_other_way(self):
        f, interval, n_r, n_theta = SWEEP_CASES["tall"]
        chords = _chart(f, interval, n_r, n_theta)
        dist = np.full((n_theta, n_r, n_r), np.inf)
        dist[0, np.arange(n_r), np.arange(n_r)] = 0.0
        reached = np.zeros(n_theta, dtype=bool)
        # descending from scratch, no column reaches back to the sources but the first
        _sweep(dist, chords, range(n_theta)[::-1], reached)
        assert np.isinf(dist[1:]).all() and not _certified(dist, chords)
        _sweep(dist, chords, range(n_theta), reached)
        assert _certified(dist, chords)
        assert np.array_equal(dist, _distances(chords, n_r, n_theta))


def _nan_between_nodes(r):
    # finite at the 5 grid nodes of [0, 1], NaN everywhere else
    r = np.asarray(r)
    return np.where(np.isin(r, np.linspace(0.0, 1.0, 5)), 1.0, np.nan)


class TestRotationalDiameterRejects:
    @pytest.mark.parametrize("f,interval,reason", [
        (lambda r: np.full(np.shape(r), np.nan), (0.0, 1.0), "not finite at the grid nodes"),
        (lambda r: np.full(np.shape(r), np.inf), (0.0, 1.0), "not finite at the grid nodes"),
        (_nan_between_nodes, (0.0, 1.0), "not finite along the"),
        (lambda r: np.full(np.shape(r), 1e200), (0.0, 1.0), "chord lengths are not finite"),
        (lambda r: np.ones(np.shape(r)), (0.0, 1e200), "chord lengths are not finite"),
        (np.sin, (0.0, math.inf), "interval ends and length must be finite"),
        (np.sin, (-math.inf, 1.0), "interval ends and length must be finite"),
        (np.sin, (math.nan, 1.0), "interval ends and length must be finite"),
        (lambda r: np.ones(np.shape(r)), (-1e308, 1e308), "interval ends and length"),
    ])
    def test_non_finite_input_raises_without_warning(self, f, interval, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=reason):
                rotational_diameter(f, interval, 1, n_r=5, n_theta=5)
