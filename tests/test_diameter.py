"""Tests for the diameter bound formulas and the graph estimator."""
import math
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
    rotational_diameter,
    shen_ye_bound,
)
from curvlab.inequalities import admissible, d_of


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
