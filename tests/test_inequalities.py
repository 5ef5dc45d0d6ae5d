"""Exact-rational sweeps and the exact matrix-inequality minima.

The float descents in `float_minimizers` are the cross-checks of the exact
minima; they read the numerator only through the float `chen_numerator`.
The full upper-triangle form in `inequality_references` is the cross-check
of the reduced diagonal block, its rational LDL^T the cross-check of the
integer elimination of that block, and the elimination the cross-check of
the sector values the exact minima are taken from.
"""
import re
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from curvlab.inequalities import (
    _sectors,
    admissible,
    admissibility_sweep_rows,
    brendle_min_exact,
    chen_min_exact,
    check_d_third_expression,
    check_gamma_equivalence,
    check_recursion,
    d_of,
    stability_coefficients,
)
from float_minimizers import brendle_min, chen_functional, chen_min_ratio, chen_numerator
from inequality_references import (
    _bareiss,
    _coordinates,
    _diagonal_form,
    _half_pivots,
    _ldl,
    _ldl_solve,
    _numerator_hessian,
    _traceless_basis,
    _traceless_block,
    _traceless_form,
    brendle_min_reference,
    chen_min_elimination,
    chen_min_reference,
    chen_weight_mask,
    traceless_pivots,
)

# admissible m-sets for n = 3..7
EXPECTED_ADMISSIBLE = {3: {1, 2}, 4: {1, 2, 3}, 5: {1, 2, 3, 4}, 6: {1, 4, 5}, 7: {1, 5, 6}}

ADMISSIBLE_PAIRS = [(n, m) for n, ms in EXPECTED_ADMISSIBLE.items() for m in sorted(ms)]

# hand-derived D values on admissible pairs
EXPECTED_D = {
    (3, 1): Fraction(1, 2), (3, 2): Fraction(3, 4),
    (4, 1): Fraction(1, 3), (4, 2): Fraction(1, 2), (4, 3): Fraction(2, 3),
    (5, 1): Fraction(1, 4), (5, 2): Fraction(1, 4), (5, 3): Fraction(1, 2), (5, 4): Fraction(5, 8),
    (6, 1): Fraction(1, 5), (6, 4): Fraction(1, 2), (6, 5): Fraction(3, 5),
    (7, 1): Fraction(1, 6), (7, 5): Fraction(1, 2), (7, 6): Fraction(7, 12),
}


class TestAdmissibility:
    def test_values_are_exact_fractions(self):
        rec = admissible(7, 5)
        assert rec.ineq1 == Fraction(2) and rec.ineq2 == Fraction(2)
        assert rec.admissible

    @pytest.mark.parametrize("n", range(3, 8))
    def test_admissible_sets(self, n):
        got = {m for m in range(1, n) if admissible(n, m).admissible}
        assert got == EXPECTED_ADMISSIBLE[n]

    def test_boundary_pair_not_admissible(self):
        rec = admissible(6, 2)
        assert rec.ineq2 == 0 and not rec.admissible

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            admissible(5, 5)
        with pytest.raises(ValueError):
            admissible(5, 0)

    def test_sweep_rows_cover_all_pairs(self):
        rows = admissibility_sweep_rows()
        assert len(rows) == sum(n - 1 for n in range(3, 8))


class TestDValue:
    @pytest.mark.parametrize("pair,expected", sorted(EXPECTED_D.items()))
    def test_table(self, pair, expected):
        assert d_of(*pair).value == expected

    def test_candidates_3_2(self):
        dv = d_of(3, 2)
        assert dv.candidates == (Fraction(1), Fraction(1), Fraction(3, 4))

    def test_m1_first_candidate_absent(self):
        dv = d_of(5, 1)
        assert dv.candidates[0] is None
        assert dv.value == Fraction(1, 4)

    def test_tie_at_4_2(self):
        dv = d_of(4, 2)
        assert dv.candidates[1] == dv.candidates[2] == Fraction(1, 2)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            d_of(6, 2)

    def test_third_expression_sweep(self):
        report = check_d_third_expression()
        assert report.passed
        assert all(r["equal"] for r in report.rows)

    def test_recursion_7_6(self):
        report = check_recursion(7, 6)
        assert report.passed
        by_l = {r["l"]: r for r in report.rows}
        assert by_l[0]["note"] == "vacuous"
        assert by_l[4]["pair"] == (3, 2) and by_l[4]["D"] == Fraction(3, 4)
        assert by_l[4]["bound"] == Fraction(3, 8)
        assert by_l[1]["pair"] == (6, 5) and by_l[1]["D"] == Fraction(3, 5)

    def test_recursion_all_admissible_pairs(self):
        for n in range(3, 8):
            for m in range(2, n):
                if admissible(n, m).admissible:
                    assert check_recursion(n, m).passed, (n, m)


class TestGammaEquivalence:
    def test_full_sweep(self):
        assert all(
            check_gamma_equivalence(n, m)
            for n in range(2, 13)
            for m in range(1, n)
        )

    @pytest.mark.parametrize("pair", [(7, 5), (7, 3), (6, 2)])
    def test_spot_cases(self, pair):
        assert check_gamma_equivalence(*pair)


class TestStabilityIdentity:
    @given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(3999, 1000)))
    @settings(deadline=None, max_examples=200)
    def test_exact_for_rational_k(self, k):
        lhs, rhs = stability_coefficients(k)
        assert lhs == rhs

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stability_coefficients(Fraction(4))


# ---------------------------------------------------------------------------
# matrix inequalities
# ---------------------------------------------------------------------------

class TestChenFunctional:
    def test_mask_3_2(self):
        mask = chen_weight_mask(3, 2)
        npt.assert_array_equal(mask, np.array([[False, True], [False, False]]))

    def test_mask_empty_for_m1(self):
        assert not chen_weight_mask(5, 1).any()

    def test_hand_value_3_2(self):
        a = np.array([[0.5, 0.1], [0.1, 0.5]])
        # x^2 + y^2 + xy + h^2 with x = y = 1/2, h = 0.1
        assert chen_functional(a, 3, 2) == pytest.approx(0.75 + 0.01, abs=1e-14)

    @given(st.floats(min_value=0.1, max_value=3.0), st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_degree_zero_homogeneity(self, c, flip):
        scale = -c if flip else c
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        a = 0.5 * (a + a.T) + np.eye(4)  # keep the trace away from zero
        r0 = chen_functional(a, 5, 3)
        r1 = chen_functional(scale * a, 5, 3)
        assert r1 == pytest.approx(r0, rel=1e-10, abs=1e-10)

    def test_specified_scalings(self):
        a = np.diag([0.3, 0.3, 0.4])
        for c in (-3.0, 0.5):
            assert chen_functional(c * a, 4, 2) == pytest.approx(
                chen_functional(a, 4, 2), rel=1e-12)

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(17)
        n, m = 7, 5  # labels 2..5 in the first block, 6..7 in the second
        p = n - 1
        a = rng.standard_normal((p, p))
        a = 0.5 * (a + a.T) + np.eye(p)
        base = chen_functional(a, n, m)
        for _ in range(12):
            first = rng.permutation(m - 1)            # positions 0..m-2
            second = m - 1 + rng.permutation(n - m)   # positions m-1..n-2
            perm = np.concatenate([first, second])
            ap = a[np.ix_(perm, perm)]
            assert chen_functional(ap, n, m) == pytest.approx(base, rel=1e-12)


class TestChenMinimum:
    def test_3_2_value_and_witness(self):
        w = chen_min_exact(3, 2)
        assert w.ratio == Fraction(3, 4)
        assert (w.matrix == np.diag([Fraction(1, 2)] * 2)).all()

    def test_4_2_value_and_witness(self):
        w = chen_min_exact(4, 2)
        assert w.ratio == Fraction(1, 2)
        assert (w.matrix == np.diag([Fraction(0), Fraction(1, 2), Fraction(1, 2)])).all()

    def test_m1_reduces_to_trace_normalized_identity(self):
        for n in (3, 5, 7):
            w = chen_min_exact(n, 1)
            assert w.ratio == Fraction(1, n - 1)
            assert (w.matrix == np.eye(n - 1, dtype=int) * Fraction(1, n - 1)).all()

    def test_descent_matches_exact_oracle(self):
        for n, m in ADMISSIBLE_PAIRS:
            exact = chen_min_exact(n, m)
            desc = chen_min_ratio(n, m, budget=16, seed=3)
            assert desc.ratio == pytest.approx(float(exact.ratio), abs=5e-8), (n, m)

    def test_minimum_dominates_d(self):
        # the exact minimum attains D: D is the sharp constant
        for n, m in ADMISSIBLE_PAIRS:
            assert chen_min_exact(n, m).ratio == d_of(n, m).value, (n, m)

    def test_witness_ratio_recomputes(self):
        w = chen_min_ratio(5, 3, budget=8, seed=1)
        assert chen_functional(w.matrix, 5, 3) == pytest.approx(w.ratio, abs=1e-10)
        assert np.trace(w.matrix) == pytest.approx(1.0, abs=1e-9)
        exact = chen_min_exact(5, 3)
        assert np.trace(exact.matrix) == 1
        assert chen_functional(exact.matrix.astype(float), 5, 3) == pytest.approx(
            float(exact.ratio), abs=1e-14)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            chen_min_exact(6, 2)

    def test_dimension_two_rejected(self):
        # (2, 1) is admissible, but the traceless block is empty
        assert admissible(2, 1).admissible
        for route in (chen_min_exact, brendle_min_exact):
            with pytest.raises(ValueError, match="got n = 2"):
                route(2, 1)


class TestBrendleMinimum:
    def test_3_2_slice_is_constant_half(self):
        w = brendle_min_exact(3, 2)
        assert w.ratio == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(2)
        mask = chen_weight_mask(3, 2)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            a = 0.5 * (a + a.T)
            a -= np.trace(a) / 2 * np.eye(2)
            a /= np.linalg.norm(a)
            assert chen_numerator(a, mask) == pytest.approx(0.5, abs=1e-12)

    def test_zero_matrix_gives_zero(self):
        assert chen_numerator(np.zeros((2, 2)), chen_weight_mask(3, 2)) == 0.0

    def test_descent_matches_eigen_oracle(self):
        for n in range(3, 8):
            for m in range(1, n):
                if admissible(n, m).ineq1 <= 0:
                    continue
                exact = brendle_min_exact(n, m)
                desc = brendle_min(n, m, budget=16, seed=7)
                assert desc.ratio == pytest.approx(exact.ratio, abs=1e-8), (n, m)

    def test_strictly_positive_when_first_polynomial_positive(self):
        for n in range(3, 8):
            for m in range(1, n):
                if admissible(n, m).ineq1 <= 0:
                    continue
                w = brendle_min_exact(n, m)
                assert min(value for _, value in w.sectors) > 0, (n, m)
                assert w.ratio > 1e-3, (n, m)

    def test_boundary_pairs_rejected(self):
        for pair in [(7, 3), (7, 4)]:
            with pytest.raises(ValueError):
                brendle_min_exact(*pair)

    def test_witness_is_traceless_unit_norm(self):
        for w in (brendle_min(6, 4, budget=8, seed=0), brendle_min_exact(6, 4)):
            assert abs(np.trace(w.matrix)) < 1e-9
            assert np.linalg.norm(w.matrix) == pytest.approx(1.0, abs=1e-9)
        w = brendle_min_exact(6, 4)
        assert chen_numerator(w.matrix, chen_weight_mask(6, 4)) == pytest.approx(
            w.ratio, abs=1e-12)


# every pair of the 3 <= n <= 12 atlas on which the minimal case is defined
POSITIVE_PAIRS = [(n, m) for n in range(3, 13) for m in range(1, n)
                  if admissible(n, m).ineq1 > 0]


class TestExactForms:
    @pytest.mark.parametrize("pair", ADMISSIBLE_PAIRS)
    def test_hessian_matches_float_numerator(self, pair):
        n, m = pair
        hess, mask = _numerator_hessian(n, m), chen_weight_mask(n, m)
        rng = np.random.default_rng(n * 10 + m)
        for _ in range(20):
            a = rng.standard_normal((n - 1, n - 1))
            a = a + a.T
            x = np.array([a[i, j] for i, j in _coordinates(n - 1)])
            assert 0.5 * x @ hess @ x == pytest.approx(chen_numerator(a, mask),
                                                       rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("pair", ADMISSIBLE_PAIRS)
    def test_ldl_certifies_and_solves(self, pair):
        q, b, _ = _traceless_form(*pair)
        low, piv = _ldl(q)
        assert min(piv) > 0
        assert ((low * np.array(piv, dtype=object)) @ low.T == q).all()
        c = _ldl_solve(low, piv, -b)
        assert (q @ c == -b).all()

    def test_smallest_pivot(self):
        pivots = {pair: min(traceless_pivots(*pair)) for pair in ADMISSIBLE_PAIRS}
        assert min(pivots.values()) == Fraction(2, 5)
        assert pivots[(7, 5)] == Fraction(2, 5)

    def test_ldl_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            _ldl(_fractions([[1, 2], [2, 1]]))
        with pytest.raises(ValueError, match="not positive semidefinite"):
            _ldl(_fractions([[1, 0, 0], [0, 2, 0], [0, 0, -1]]))

    def test_ldl_zero_pivot(self):
        # a zero pivot over a nonzero column: [0, 1; 1, 1] has determinant -1
        with pytest.raises(ValueError, match="not positive semidefinite"):
            _ldl(_fractions([[0, 1], [1, 1]]))
        # a zero pivot over a zero column is positive semidefinite and singular
        _, piv = _ldl(_fractions([[1, 1, 0], [1, 1, 0], [0, 0, 3]]))
        assert piv == (1, 0, 3)

    @pytest.mark.parametrize("pair", POSITIVE_PAIRS)
    def test_minimal_case_minimum_pinned(self, pair):
        n, m = pair
        t = brendle_min_exact(n, m).ratio
        q, gram = _traceless_form(n, m)[0], _traceless_form(n, 1)[0]
        # N(A) >= t |A|_F^2 on traceless A, with equality for some A != 0
        _, piv = _ldl(q - t * gram)
        assert min(piv) == 0


class TestReducedForm:
    """The diagonal block plus off-diagonal weights against the full upper-triangle form."""

    @pytest.mark.parametrize("pair", POSITIVE_PAIRS)
    def test_matches_full_coordinate_form(self, pair):
        n, m = pair
        brendle = brendle_min_exact(n, m)
        # the LDL^T of a block-diagonal form is the blocks' LDL^T, so the
        # pivots agree exactly, off-diagonal weights included
        assert traceless_pivots(n, m) == _ldl(_traceless_form(n, m)[0])[1]
        assert brendle.ratio == pytest.approx(brendle_min_reference(n, m), abs=1e-12)
        if admissible(n, m).admissible:
            chen = chen_min_exact(n, m)
            ratio, matrix = chen_min_reference(n, m)
            assert chen.sectors == brendle.sectors
            assert chen.ratio == ratio
            assert (chen.matrix == matrix).all()

    @pytest.mark.parametrize("pair", POSITIVE_PAIRS)
    def test_diagonal_block_reaches_the_minimum(self, pair):
        # E_ij + E_ji has ratio (2 - mask_ij)/2: no off-diagonal direction
        # goes below the smallest eigenvalue of the diagonal block
        n, m = pair
        mask = chen_weight_mask(n, m)
        p = n - 1
        off = min((2 - int(mask[i, j])) / 2 for i in range(p) for j in range(i + 1, p))
        w = brendle_min_exact(n, m)
        assert w.ratio <= off + 1e-12
        assert np.count_nonzero(w.matrix - np.diag(np.diag(w.matrix))) == 0
        # and the witness attains it on the traceless unit sphere
        assert abs(np.trace(w.matrix)) < 1e-12
        assert np.linalg.norm(w.matrix) == pytest.approx(1.0, abs=1e-12)
        assert chen_numerator(w.matrix, mask) == pytest.approx(w.ratio, abs=1e-12)


class TestSectorsAgainstElimination:
    """The sector route against the integer elimination of the diagonal block."""

    @pytest.mark.parametrize("pair", [(n, m) for n in range(3, 13) for m in range(1, n)])
    def test_sectors_are_eigenvectors_of_the_full_form(self, pair):
        # each representative lies in its sector, is an eigenvector of the
        # full traceless pencil (Q, G) with the sector's value, and the
        # sectors' dimensions add up to the traceless space's
        n, m = pair
        p, a = n - 1, m - 1
        q, gram = _traceless_form(n, m)[0], _traceless_form(n, 1)[0]
        dims = {"v": 1, "A": a - 1, "B": p - a - 1, "off-diagonal": p * (p - 1) // 2}
        sectors = _sectors(n, m)
        assert sum(dims[name] for name, _, _ in sectors) == len(q)
        for name, value, rep in sectors:
            c = np.array([rep[k, k] for k in range(p - 1)]
                         + [rep[i, j] for i, j in _coordinates(p) if i < j])
            x = np.array([rep[i, j] for i, j in _coordinates(p)])
            assert (_traceless_basis(p) @ c == x).all(), (pair, name)
            assert (q @ c == value * (gram @ c)).all(), (pair, name)
            d = rep.diagonal()
            assert {"v": len(set(d[:a])) == len(set(d[a:])) == 1,
                    "A": not d[a:].any(), "B": not d[:a].any(),
                    "off-diagonal": not d.any()}[name], (pair, name)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_the_elimination(self, n):
        # at (40, 1) the elimination's products reach 2.7e25, past int64,
        # and must stay exact
        for m in range(1, n):
            try:
                definite = min(traceless_pivots(n, m)) > 0
            except ValueError:
                definite = False
            assert (min(value for _, value, _ in _sectors(n, m)) > 0) == definite, (n, m)
            if definite:
                # Q - t G, G = I + J the Gram matrix of the block's basis, is
                # positive semidefinite and singular at t = the minimum
                t = brendle_min_exact(n, m).ratio
                shifted = [[t.denominator * q - 2 * t.numerator * (1 + (i == j))
                            for j, q in enumerate(row)]
                           for i, row in enumerate(_traceless_block(n, m)[0])]
                assert 0 in _bareiss(shifted)[0], (n, m)
            if admissible(n, m).admissible:
                ratio, diagonal = chen_min_elimination(n, m)
                chen = chen_min_exact(n, m)
                assert chen.ratio == ratio, (n, m)
                assert (chen.matrix == np.diag(np.array(diagonal, dtype=object))).all(), (n, m)


def _fractions(rows):
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


ENTRY = st.integers(-4, 4)


@st.composite
def symmetric_systems(draw):
    """(A, b): A symmetric of size d <= 7, either G G^T of any rank or with entries in [-4, 4].

    G G^T is positive semidefinite and singular below full rank, so it takes
    the skipped steps; the other kind is mostly indefinite.
    """
    d = draw(st.integers(1, 7))
    if draw(st.booleans()):
        rank = draw(st.integers(0, d))
        g = draw(st.lists(st.lists(ENTRY, min_size=rank, max_size=rank),
                          min_size=d, max_size=d))
        a = [[sum(x * y for x, y in zip(gi, gj)) for gj in g] for gi in g]
    else:
        a = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                a[i][j] = a[j][i] = draw(ENTRY)
    return a, draw(st.lists(ENTRY, min_size=d, max_size=d))


class TestIntegerElimination:
    """`_bareiss` against the rational LDL^T of `inequality_references`."""

    @settings(max_examples=500, deadline=None)
    @given(symmetric_systems())
    # a zero pivot over a nonzero column: determinant -1
    @example(([[0, 1], [1, 1]], [1, 0]))
    # a skipped step followed by a step that divides
    @example(([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]], [1, 2, 3, 4]))
    def test_matches_the_rational_ldl(self, system):
        a, rhs = system
        try:
            _, expected = _ldl(_fractions(a) / 2)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                _bareiss(a, rhs)
            return
        minors, x = _bareiss(a, rhs)
        assert _half_pivots(minors) == expected
        if all(minors):
            det = minors[-1]
            assert [sum(v * xj for v, xj in zip(row, x)) for row in a] == [det * v for v in rhs]
        else:
            assert x is None

    def test_block_matches_the_numpy_form(self):
        for n in range(3, 13):
            for m in range(1, n):
                two_m, basis, weights = _diagonal_form(n, m)
                block, sums, block_weights = _traceless_block(n, m)
                assert block == (basis.T @ two_m @ basis).tolist()
                assert sums == two_m.sum(axis=1).tolist()
                assert block_weights == weights
