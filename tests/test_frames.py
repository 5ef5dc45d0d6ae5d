"""Tests for the partial curvature sum minimizer."""
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curvlab import frames
from curvlab.constructions import CONSTRUCTION_PAIRS, build_counterexample
from curvlab.curvature import (
    RiemannData,
    product_sphere_flat_riemann,
    random_curvature_tensor,
    riemann_exact,
)
from curvlab.frames import (
    DESCENT_STARTS,
    MAX_ITER,
    ORACLE_SLICE,
    SAMPLE_CHUNK,
    _best_samples,
    _contraction,
    _curvature_operator,
    _descend,
    _evaluate,
    _four_form_bound,
    _four_forms,
    _operator_lower_bound,
    _oracle_values,
    _smallest,
    _symmetric_form,
    cm_batch,
    cm_min,
    cm_min_oracle,
    cm_of_frame,
    coordinate_frame,
    orthonormalize_frames,
    random_frames,
    stiefel_retract,
    tangent_project,
)
from curvature_references import constant_curvature_riemann, fubini_study_riemann
from frame_references import (
    cm_double_sum,
    cm_gradient,
    complete_frame,
    count_calls,
    oracle_values,
)


DENSE_SHAPES = [(4, 2), (5, 3), (6, 2), (7, 5), (8, 4)]


def kernel_cases():
    """(tensor, m) for every DENSE_SHAPES shape and the family at a few radii."""
    cases = [(random_curvature_tensor(n, np.random.default_rng(n * 10 + m + 7)), m)
             for n, m in DENSE_SHAPES]
    for n, m in CONSTRUCTION_PAIRS:
        for lam, eps in ((1.0, 1.0), (4.0, 0.5)):
            metric = build_counterexample(n, m, lam, eps)
            cases += [(riemann_exact(metric, r), m) for r in (-3.0, 0.0, 2.0)]
    return cases


KERNEL_CASES = kernel_cases()
KERNEL_IDS = [f"n{rd.dim}-m{m}-{i}" for i, (rd, m) in enumerate(KERNEL_CASES)]


def haar_frame(n, m, seed):
    return random_frames(n, m, 1, np.random.default_rng(seed))[0]


def ky_fan_route(monkeypatch):
    """Send every m down the generic route: the Ky Fan bound, no frame."""
    monkeypatch.setattr(frames, "_lower_bound",
                        lambda riemann, m: (_operator_lower_bound(riemann, m), None, 0))


def qr_reference(a):
    """Positive-diagonal QR factor of a stack by sign-fixed LAPACK QR."""
    qmat, r = np.linalg.qr(a)
    signs = np.sign(np.einsum("bii->bi", r))
    signs[signs == 0] = 1.0
    return qmat * signs[:, None, :]


def reference_descent(riemann, q0, max_iter=500, armijo=1e-4, step_tol=1e-10):
    """The per-frame descent loop: one start, LAPACK QR retraction, einsum gradient.

    The first step is 1/(1 + |g|); later ones are the BB1 step <s, s>/<s, y>
    from the last move s and gradient change y, capped at 1/|g| and equal to
    it when <s, y> <= 0.  Returns (frame, value, iterations, evaluations,
    converged).
    """
    def retract(y):
        return qr_reference(y[None])[0]

    q = retract(np.asarray(q0, dtype=float))
    val = cm_of_frame(riemann, q)
    evals = 1
    converged = False
    it = 0
    q_prev = g_prev = None
    for it in range(1, max_iter + 1):
        grad = tangent_project(q, cm_gradient(riemann, q))
        gnorm2 = float(np.sum(grad * grad))
        gnorm = np.sqrt(gnorm2)
        if gnorm < step_tol:
            converged = True
            break
        if q_prev is None:
            step = 1.0 / (1.0 + gnorm)
        else:
            s, y = q - q_prev, grad - g_prev
            sy = float(np.sum(s * y))
            step = 1.0 / gnorm
            if sy > 0:
                step = min(float(np.sum(s * s)) / sy, step)
        q_prev, g_prev = q, grad
        accepted = False
        for _ in range(60):
            cand = retract(q - step * grad)
            cand_val = cm_of_frame(riemann, cand)
            evals += 1
            if cand_val <= val - armijo * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        stalled = float(np.max(np.abs(cand - q))) < step_tol or cand_val == val
        q, val = cand, cand_val
        if stalled:
            converged = True
            break
    return q, val, it, evals, converged


def projection(q):
    return q @ q.T


def coordinate_frames(n, m):
    return np.stack([coordinate_frame(n, s) for s in itertools.combinations(range(n), m)])


def slow_path_starts(riemann, m, budget, seed):
    """The starts `cm_min` descends from when its certificate does not decide.

    The best coordinate frame (the first on ties), then the best samples of
    `_best_samples` in its order.
    """
    coords = coordinate_frames(riemann.dim, m)
    best = coords[np.argmin(cm_batch(riemann, coords))]
    return np.concatenate([best[None], _best_samples(riemann, m, budget, seed)])


class TestEvaluation:
    def test_coordinate_frame_builder(self):
        q = coordinate_frame(5, (1, 3))
        assert q.shape == (5, 2)
        assert q[1, 0] == q[3, 1] == 1.0
        assert np.sum(q) == 2.0
        with pytest.raises(ValueError):
            coordinate_frame(5, (3, 1))
        with pytest.raises(ValueError):
            coordinate_frame(5, (0, 5))

    def test_rejects_non_orthonormal(self):
        rd = constant_curvature_riemann(4, 1.0)
        with pytest.raises(ValueError):
            cm_of_frame(rd, np.ones((4, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_form_matches_double_sum(self, seed):
        rng = np.random.default_rng(seed)
        rd = random_curvature_tensor(6, rng)
        q = haar_frame(6, 3, seed + 50)
        full = complete_frame(q)
        assert cm_of_frame(rd, q) == pytest.approx(cm_double_sum(rd, full, 3),
                                                   abs=1e-9)

    def test_double_sum_completion_independent(self):
        rd = random_curvature_tensor(5, np.random.default_rng(3))
        q = haar_frame(5, 2, 11)
        full_a = complete_frame(q)
        perm = np.eye(5)[:, ::-1]
        full_b = complete_frame(q, extra=perm)
        assert not np.allclose(full_a, full_b)
        assert cm_double_sum(rd, full_a, 2) == pytest.approx(
            cm_double_sum(rd, full_b, 2), abs=1e-9)

    def test_batch_matches_single(self):
        rd = random_curvature_tensor(6, np.random.default_rng(9))
        qs = random_frames(6, 4, 32, np.random.default_rng(10))
        vals = cm_batch(rd, qs)
        singles = [cm_of_frame(rd, q) for q in qs]
        assert_allclose(vals, singles, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_span_invariance(self, seed):
        rd = random_curvature_tensor(7, np.random.default_rng(seed))
        q = haar_frame(7, 3, seed + 40)
        rot = np.linalg.qr(np.random.default_rng(seed + 80)
                           .standard_normal((3, 3)))[0]
        assert cm_of_frame(rd, q @ rot) == pytest.approx(cm_of_frame(rd, q),
                                                         abs=1e-9)

    def test_completion_preserves_input(self):
        q = haar_frame(6, 2, 5)
        full = complete_frame(q)
        assert_allclose(full[:, :2], q, atol=1e-10)
        assert_allclose(full.T @ full, np.eye(6), atol=1e-10)

    def test_completion_skips_seed_columns_in_the_span(self):
        full = complete_frame(coordinate_frame(5, (0, 2)))
        assert_allclose(full, np.eye(5)[:, [0, 2, 1, 3, 4]], atol=1e-15)


class TestSymmetricForm:
    """The kernel's form in upper-triangle coordinates against the slow routes."""

    @pytest.mark.parametrize("rd,m", KERNEL_CASES, ids=KERNEL_IDS)
    def test_values_and_contraction_match_references(self, rd, m):
        n = rd.dim
        qs = random_frames(n, m, 12, np.random.default_rng(n + 31 * m))
        vals, wx = _evaluate(qs, _symmetric_form(rd))
        bmat = _contraction(wx, n)
        assert bmat.shape == (12, n, n)
        for q, val, b in zip(qs, vals, bmat):
            assert val == pytest.approx(cm_double_sum(rd, complete_frame(q), m), rel=1e-12)
            ref = cm_gradient(rd, q)
            assert_allclose(2.0 * (rd.ricci - b) @ q, ref, rtol=1e-12,
                            atol=1e-12 * np.max(np.abs(ref)))

    def test_reads_the_stack_last_layout_without_a_copy(self):
        # random_frames returns a transposed view of Gram-Schmidt's (m, n, B)
        # array, and the kernel transposes it back
        qs = random_frames(7, 3, 64, np.random.default_rng(4))
        assert qs.transpose(2, 1, 0).flags.c_contiguous
        rd = random_curvature_tensor(7, np.random.default_rng(5))
        assert_allclose(cm_batch(rd, qs), cm_batch(rd, np.ascontiguousarray(qs)),
                        rtol=0, atol=1e-13)


class TestSelection:
    """Partial selection returns exactly the prefix of a stable argsort."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 100, 4096])
    def test_prefix_with_ties_and_non_finite_values(self, size):
        rng = np.random.default_rng(size)
        for trial in range(20):
            vals = rng.integers(0, 4, size).astype(float)  # many ties
            if trial % 2:
                vals[rng.integers(0, size, max(1, size // 3))] = np.nan
            if trial % 5 == 0:
                vals[rng.integers(0, size)] = -np.inf
            assert_array_equal(_smallest(vals, DESCENT_STARTS),
                               np.argsort(vals, kind="stable")[:DESCENT_STARTS])

    @pytest.mark.parametrize("budget", [1, 7, 5000, 2 * SAMPLE_CHUNK + 3])
    def test_best_samples_with_forced_ties(self, monkeypatch, budget):
        # rounding the values to integers makes most of them tie; the
        # selection must keep the best frames in drawing order
        rd = random_curvature_tensor(6, np.random.default_rng(17))
        exact = frames.cm_batch
        monkeypatch.setattr(frames, "cm_batch",
                            lambda riemann, qs: np.round(exact(riemann, qs)))
        best = _best_samples(rd, 3, budget, 40)
        drawn = np.concatenate([
            random_frames(6, 3, min(SAMPLE_CHUNK, budget - start),
                          np.random.Generator(np.random.PCG64(40 + chunk)))
            for chunk, start in enumerate(range(0, budget, SAMPLE_CHUNK))])
        vals = np.round(exact(rd, drawn))
        assert len(np.unique(vals)) < len(vals) // 2 or budget < 10
        assert_array_equal(best, drawn[np.argsort(vals, kind="stable")[:DESCENT_STARTS]])


class TestGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_euclidean_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        rd = random_curvature_tensor(6, rng)
        q = rng.standard_normal((6, 3))
        h = rng.standard_normal((6, 3))
        g = cm_gradient(rd, q)
        t = 1e-6

        def f(mat):
            return cm_batch(rd, mat[None])[0]

        fd = (f(q + t * h) - f(q - t * h)) / (2 * t)
        assert fd == pytest.approx(float(np.sum(g * h)), rel=1e-5, abs=1e-8)

    def test_tangent_projection_antisymmetric(self):
        rd = random_curvature_tensor(6, np.random.default_rng(2))
        q = haar_frame(6, 3, 21)
        gt = tangent_project(q, cm_gradient(rd, q))
        qtg = q.T @ gt
        assert np.max(np.abs(qtg + qtg.T)) < 1e-10

    def test_retraction_fixes_orthonormal_input(self):
        q = haar_frame(6, 3, 33)
        assert_allclose(stiefel_retract(q), q, atol=1e-12)

    def test_gradient_vanishes_on_space_form(self):
        rd = constant_curvature_riemann(5, 1.0)
        q = haar_frame(5, 3, 8)
        gt = tangent_project(q, cm_gradient(rd, q))
        assert np.max(np.abs(gt)) < 1e-10


class TestDescent:
    def test_monotone_and_converged(self):
        rd = random_curvature_tensor(6, np.random.default_rng(14))
        q0 = haar_frame(6, 3, 15)
        start = cm_of_frame(rd, q0)
        q, vals, _, _, converged = _descend(rd, q0[None], MAX_ITER)
        assert vals[0] <= start + 1e-12
        assert converged[0]
        gt = tangent_project(q[0], cm_gradient(rd, q[0]))
        assert np.linalg.norm(gt) < 1e-6

    def test_immediate_convergence_on_space_form(self):
        rd = constant_curvature_riemann(5, 2.0)
        _, vals, iters, _, _ = _descend(rd, haar_frame(5, 3, 3)[None], MAX_ITER)
        assert iters[0] == 1
        assert vals[0] == pytest.approx(2.0 * (3 * 5 - 6), rel=1e-12)

    def test_overflowing_gradient_stops_unconverged(self, monkeypatch):
        # (6, 3) at lambda 4, eps 1/2, r = 10: f = exp(-2 r^2) puts K near 2e174,
        # so the squared gradient norm overflows
        rd = riemann_exact(build_counterexample(6, 3, 4.0, 0.5), 10.0)
        q0 = haar_frame(6, 3, 4)
        ky_fan_route(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q, vals, iters, evals, converged = _descend(rd, q0[None], MAX_ITER)
            # the Ky Fan bound decides C_3 on this tensor but not C_1, so
            # with the Ricci route off C_1 takes the slow path: every start
            # stops after one evaluation and no overflowed descent is
            # reported as the winner
            full = cm_min(rd, 1, budget=5000, seed=1)
        assert not converged[0]
        assert (iters[0], evals[0]) == (1, 1)
        assert_allclose(q[0], q0, atol=1e-14)
        assert vals[0] == pytest.approx(cm_of_frame(rd, q0), rel=1e-14)
        assert full.method == "coordinate-enumeration"
        assert full.evaluations == 6 + 5000 + 9

    def test_max_iter_zero_skips_descent(self):
        rd = random_curvature_tensor(5, np.random.default_rng(6))
        q0 = haar_frame(5, 2, 7)
        q, _, iters, evals, converged = _descend(rd, q0[None], 0)
        assert (iters[0], evals[0], converged[0]) == (0, 1, False)
        assert_allclose(q[0], q0, atol=1e-14)


class TestLockstepDescent:
    """The lockstep core against an independent per-frame loop.

    `reference_descent` runs the same step rule (1/(1 + |g|), then capped
    Barzilai-Borwein steps) one start at a time with LAPACK QR and einsum
    contractions.  Frames are compared through their projections, and
    loosely: near a minimum the STEP_TOL stopping rule pins the span down
    only to about 1e-7, so rounding moves the stopping point along flat
    directions.
    """

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_every_start_matches_reference_loop(self, n, m):
        rd = random_curvature_tensor(n, np.random.default_rng(n * 10 + m))
        starts = random_frames(n, m, 9, np.random.default_rng(n * 10 + m + 1))
        q, vals, iters, _, converged = _descend(rd, starts, MAX_ITER)
        for i, q0 in enumerate(starts):
            ref_q, ref_val, ref_iters, _, ref_converged = reference_descent(rd, q0)
            assert vals[i] == pytest.approx(ref_val, rel=1e-9, abs=1e-9)
            assert converged[i] == ref_converged
            # rounding moves the stop by a few iterations; another step rule
            # moves it by far more (a step restarted at 1/(1 + |g|) every
            # iteration took 1.2 to 21 times as many here)
            assert abs(iters[i] - ref_iters) <= 0.25 * ref_iters + 2
            assert_allclose(projection(q[i]), projection(ref_q), atol=1e-5)

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_start_in_a_stack_matches_start_alone(self, n, m):
        rd = random_curvature_tensor(n, np.random.default_rng(n * 10 + m + 2))
        starts = random_frames(n, m, 9, np.random.default_rng(n * 10 + m + 3))
        q, vals, _, _, converged = _descend(rd, starts, MAX_ITER)
        for i, q0 in enumerate(starts):
            q1, val1, _, _, converged1 = _descend(rd, q0[None], MAX_ITER)
            assert val1[0] == pytest.approx(vals[i], rel=1e-12, abs=1e-12)
            assert converged1[0] == converged[i]
            assert_allclose(projection(q1[0]), projection(q[i]), atol=1e-5)

    def test_stops_at_a_degenerate_minimum(self):
        # (7, 4) at lambda 1, eps 1, r = 3: the minimum lambda is attained on a
        # continuum of spans, so near it accepted steps stop changing the value;
        # without a stop there the starts cycle until MAX_ITER
        rd = riemann_exact(build_counterexample(7, 4, 1.0, 1.0), 3.0)
        starts = random_frames(7, 4, 8, np.random.default_rng(5))
        _, vals, iters, _, converged = _descend(rd, starts, MAX_ITER)
        assert np.all(converged)
        assert np.max(iters) < 100
        assert_allclose(vals, 1.0, rtol=0, atol=1e-12)

    def test_iteration_limit_is_per_frame(self):
        rd = random_curvature_tensor(6, np.random.default_rng(8))
        starts = random_frames(6, 3, 4, np.random.default_rng(9))
        _, _, iters, _, converged = _descend(rd, starts, 3)
        assert np.all(iters == 3)
        assert not np.any(converged)

    def test_no_crawl_in_a_flat_valley(self):
        # (7, 4) at lambda 1, eps 1, r = 0, seed 3: with a step restarted at
        # 1/(1 + |g|) every iteration, two of the nine starts ran all 500
        # iterations and stopped about 3e-3 above the minimum
        rd = riemann_exact(build_counterexample(7, 4, 1.0, 1.0), 0.0)
        starts = slow_path_starts(rd, 4, 100_000, 3)
        _, vals, iters, _, converged = _descend(rd, starts, MAX_ITER)
        assert len(vals) == 9
        assert np.all(converged)
        assert np.max(iters) < 500
        assert_allclose(vals, 1.0, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n,m,lam,eps,r", [(6, 3, 4.0, 0.5, -3.0),
                                               (7, 3, 4.0, 1.0, 1.0)])
    def test_trial_moves_at_most_unit_length(self, monkeypatch, n, m, lam, eps, r):
        # a retraction input is Q - t G with Q^T G skew, so its squared norm
        # is m + |t G|^2.  The cap binds in both cases: on the first through
        # <s, y> <= 0, on the second through a Barzilai-Borwein step that
        # would move 2.87 uncapped
        rd = riemann_exact(build_counterexample(n, m, lam, eps), r)
        starts = slow_path_starts(rd, m, 5000, 1)
        moves = []

        def recording(y):
            moves.extend(np.sqrt(np.maximum(np.einsum("kia,kia->k", y, y) - m, 0)))
            return stiefel_retract(y)

        monkeypatch.setattr(frames, "stiefel_retract", recording)
        _descend(rd, starts, MAX_ITER)
        assert 1.0 - 1e-12 <= max(moves) <= 1.0 + 1e-12


class TestDescentWork:
    """Sampling and descent on construction tensors, as the slow path runs them.

    The certificate decides these tensors, so `cm_min` no longer samples or
    descends there; the tests run the two phases directly.
    """

    def test_descent_evaluations_on_construction_tensors(self):
        # the 15 tensors of the construction pairs at lambda 1, eps 1 and
        # r in {0, -3, 10}; a step rule that crawls spent 64,676 here
        spent = 0
        for n, m in CONSTRUCTION_PAIRS:
            metric = build_counterexample(n, m, 1.0, 1.0)
            for r in (0.0, -3.0, 10.0):
                rd = riemann_exact(metric, r)
                evals = _descend(rd, slow_path_starts(rd, m, 100_000, 5), MAX_ITER)[3]
                spent += int(evals.sum())
        assert 0 < spent <= 5000

    def test_sampling_chunks_are_freed(self):
        # kept samples are copies, so each 4096-frame chunk is released after
        # its turn; views into the chunks held about 25 MB
        rd = riemann_exact(build_counterexample(7, 4, 1.0, 1.0), 0.0)
        tracemalloc.start()
        try:
            _descend(rd, slow_path_starts(rd, 4, 100_000, 3), MAX_ITER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSampling:
    def test_kernel_matches_sign_fixed_qr(self):
        rng = np.random.default_rng(0)
        for n, m in DENSE_SHAPES + [(6, 3), (7, 2), (7, 3), (7, 4), (8, 8)]:
            a = rng.standard_normal((4096, n, m))
            assert_allclose(orthonormalize_frames(a), qr_reference(a), rtol=0,
                            atol=1e-12, err_msg=f"shape ({n}, {m})")

    def test_frames_orthonormal(self):
        qs = random_frames(7, 5, 100, np.random.default_rng(1))
        grams = np.einsum("bia,bic->bac", qs, qs)
        assert np.max(np.abs(grams - np.eye(5))) < 1e-10

    def test_orthonormality_defect_on_200k_frames(self):
        defect = 0.0
        for chunk in range(49):
            qs = random_frames(7, 5, 4096, np.random.default_rng(chunk))
            grams = np.einsum("bia,bic->bac", qs, qs)
            defect = max(defect, float(np.max(np.abs(grams - np.eye(5)))))
        assert defect <= 1e-13

    def test_same_stream_as_sign_fixed_qr(self):
        # the normal draws are unchanged, so sampled frames match the LAPACK route
        qs = random_frames(7, 3, 4096, np.random.default_rng(12))
        ref = qr_reference(np.random.default_rng(12).standard_normal((4096, 7, 3)))
        assert_allclose(qs, ref, rtol=0, atol=1e-12)

    def test_rank_deficient_rejected(self):
        a = np.random.default_rng(2).standard_normal((8, 5, 3))
        a[3, :, 2] = 2.0 * a[3, :, 0] - a[3, :, 1]
        for bad in (np.zeros((1, 3, 2)), a, np.full((2, 4, 2), np.nan)):
            with pytest.raises(ValueError):
                orthonormalize_frames(bad)
        with pytest.raises(ValueError):
            stiefel_retract(np.zeros((4, 2)))

    def test_retraction_of_a_stack_is_framewise(self):
        y = np.random.default_rng(3).standard_normal((6, 7, 4))
        stacked = stiefel_retract(y)
        assert stacked.shape == y.shape
        for i in range(len(y)):
            assert_allclose(stacked[i], stiefel_retract(y[i]), rtol=0, atol=1e-14)


class TestMinimizer:
    def test_flat_space_zero(self):
        rd = RiemannData.from_components(np.zeros((5,) * 4))
        res = cm_min(rd, 2, budget=500, seed=0)
        assert res.value == 0.0
        assert res.method == "certificate"
        assert_array_equal(res.argmin, coordinate_frame(5, (0, 1)))

    def test_round_sphere_values(self):
        # C_m is frame-independent on a space form: K (m n - m (m + 1) / 2)
        res = cm_min(constant_curvature_riemann(5, 1.0), 3, budget=2000, seed=1)
        assert res.value == pytest.approx(9.0, abs=1e-9)
        res = cm_min(constant_curvature_riemann(4, 1.0), 2, budget=2000, seed=1)
        assert res.value == pytest.approx(5.0, abs=1e-9)

    def test_sphere_times_torus(self):
        rd = product_sphere_flat_riemann(3, 1.0, 3)
        res = cm_min(rd, 4, budget=4000, seed=2)
        assert res.value == pytest.approx(2.0, abs=1e-8)
        assert res.method == "certificate"
        assert_array_equal(res.argmin, coordinate_frame(6, (0, 3, 4, 5)))

    @pytest.mark.parametrize("rho", [1.0, np.sqrt(2.0), 2.0])
    def test_sphere_radius_scaling(self, rho):
        rd = product_sphere_flat_riemann(3, rho, 3)
        res = cm_min(rd, 4, budget=4000, seed=3)
        assert res.value == pytest.approx(2.0 / rho ** 2, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_m_one_is_smallest_ricci_eigenvalue(self, seed):
        rd = random_curvature_tensor(6, np.random.default_rng(seed))
        res = cm_min(rd, 1, budget=3000, seed=seed)
        lam_min = float(np.linalg.eigvalsh(rd.ricci)[0])
        assert res.value == pytest.approx(lam_min, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_m_top_is_half_scalar(self, seed):
        rd = random_curvature_tensor(6, np.random.default_rng(seed + 10))
        res = cm_min(rd, 5, budget=1000, seed=seed)
        assert res.value == pytest.approx(0.5 * rd.scalar, abs=1e-9)
        # frame independence of the top case
        q = haar_frame(6, 5, seed + 60)
        assert cm_of_frame(rd, q) == pytest.approx(0.5 * rd.scalar, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_worse_than_oracle(self, seed):
        rd = random_curvature_tensor(6, np.random.default_rng(seed + 30))
        res = cm_min(rd, 3, budget=4000, seed=seed)
        oracle = cm_min_oracle(rd, 3, seed=seed + 1)
        assert res.value <= oracle + 1e-9

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_never_worse_than_best_sample(self, n, m):
        # samples only pick descent starts and descent only accepts decreases,
        # so the best sample cannot beat the reported value beyond rounding
        for seed in range(3):
            rng = np.random.default_rng(n * 10 + m + 4 + 100 * seed)
            rd = random_curvature_tensor(n, rng)
            res = cm_min(rd, m, budget=2000, seed=seed)
            best_sample = cm_batch(rd, _best_samples(rd, m, 2000, seed)[:1])[0]
            assert res.value <= best_sample + 1e-12 * max(1.0, abs(res.value))

    def test_argmin_attains_value(self):
        for seed in range(3):
            rd = random_curvature_tensor(7, np.random.default_rng(seed + 70))
            res = cm_min(rd, 3, budget=2000, seed=seed)
            assert cm_of_frame(rd, res.argmin) == pytest.approx(res.value,
                                                                abs=1e-9)
            assert res.method in {"certificate", "coordinate-enumeration",
                                  "projected-descent"}

    def test_deterministic_for_fixed_seed(self):
        rd = random_curvature_tensor(6, np.random.default_rng(44))
        a = cm_min(rd, 3, budget=6000, seed=7)
        b = cm_min(rd, 3, budget=6000, seed=7)
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert a.method == b.method
        assert np.array_equal(a.argmin, b.argmin)

    def test_evaluation_budget_accounted(self):
        rd = random_curvature_tensor(5, np.random.default_rng(5))
        res = cm_min(rd, 2, budget=1000, seed=0)
        assert res.evaluations >= 1000 + 10

    def test_rejects_bad_m(self):
        rd = constant_curvature_riemann(4, 1.0)
        with pytest.raises(ValueError):
            cm_min(rd, 0)
        with pytest.raises(ValueError):
            cm_min(rd, 5)
        with pytest.raises(ValueError):
            cm_min(rd, 2, budget=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_components(self, bad):
        # the constructor, unlike from_components, does not check the table
        rd = constant_curvature_riemann(4, 1.0)
        comps = rd.components.copy()
        comps[0, 1, 0, 1] = comps[1, 0, 1, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            cm_min(RiemannData(4, comps, rd.ricci, rd.scalar), 2, budget=100)


class TestCertificate:
    """The Ky Fan lower bound: sound everywhere, exact where the maths says so."""

    @pytest.mark.parametrize("n", sorted({n for n, _ in DENSE_SHAPES}))
    def test_bound_is_sound_on_dense_tensors(self, n):
        # 12 tensors per dimension, 60 in all, with m running over 1..n; the
        # Ky Fan bound is exact for m >= n - 1, the 4-form bound closes at
        # m = n - 2 and the smallest Ricci eigenvalue at m = 1, so the slow
        # path runs between
        for i in range(12):
            m = 1 + i % n
            rd = random_curvature_tensor(n, np.random.default_rng(1000 + 12 * n + i))
            res = cm_min(rd, m, budget=2000, seed=i)
            assert res.lower_bound <= res.value + 1e-9
            assert (res.method == "certificate") == (m == 1 or m >= n - 2)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_exact_at_m_n_minus_one(self, n):
        rd = random_curvature_tensor(n, np.random.default_rng(n + 500))
        res = cm_min(rd, n - 1, budget=1000, seed=0)
        assert res.lower_bound == pytest.approx(0.5 * rd.scalar, abs=1e-9)
        assert res.method == "certificate"
        assert res.evaluations == n
        assert_array_equal(res.argmin, coordinate_frame(n, tuple(range(n - 1))))

    @pytest.mark.parametrize("k,rho", [(1, 1.0), (2, np.sqrt(2.0)), (3, 2.0), (5, 0.5)])
    def test_exact_on_sphere_times_flat(self, k, rho):
        # S^3 x R^k at m = n - 2: the eigenvalues are K three times and 0,
        # and the 4-form route's bound is the Ky Fan bound
        rd = product_sphere_flat_riemann(3, rho, k)
        res = cm_min(rd, k + 1, budget=1000, seed=0)
        assert res.lower_bound == pytest.approx(2.0 / rho ** 2, rel=1e-14)
        assert res.lower_bound == _operator_lower_bound(rd, k + 1)
        assert res.value == pytest.approx(2.0 / rho ** 2, rel=1e-14)
        assert res.method == "certificate"
        # the coordinate subsets, then the polish, which starts at a minimum
        # and stops after one evaluation, then the polished frame's score
        assert res.evaluations == math.comb(k + 3, k + 1) + 2

    def test_exact_on_zero_tensor(self):
        res = cm_min(RiemannData.from_components(np.zeros((6,) * 4)), 3, budget=100)
        assert (res.lower_bound, res.value, res.method) == (0.0, 0.0, "certificate")

    @pytest.mark.parametrize("shift,certified", [(-1e-12, True), (1e-12, True),
                                                 (-2e-9, False), (2e-9, False)])
    def test_tie_rule_is_both_sided(self, monkeypatch, shift, certified):
        # S^3 x R^k, where bound and coordinate minimum agree; shifting the
        # evaluator opens a gap of `shift`.  A bound far above an attained
        # value is rounding, not a proof
        exact = frames.cm_batch
        monkeypatch.setattr(frames, "cm_batch", lambda riemann, qs: exact(riemann, qs) + shift)
        for k, m, bound, subset, route_evals in (
                (2, 3, 2.0, (0, 3, 4), 2),            # m = n - 2: the 4-form route
                (3, 5, 3.0, (0, 1, 2, 3, 4), 0)):     # m = n - 1: the Ky Fan route
            n = k + 3
            res = cm_min(product_sphere_flat_riemann(3, 1.0, k), m, budget=500, seed=0)
            assert res.lower_bound == bound
            assert (res.method == "certificate") == certified
            if certified:
                assert res.value == bound + shift
                assert res.evaluations == math.comb(n, m) + route_evals
                assert_array_equal(res.argmin, coordinate_frame(n, subset))
            else:
                assert res.evaluations > math.comb(n, m) + route_evals + 500


def two_vectors(w):
    """The orthonormal 2-vectors w_i ^ w_j, i < j, of an orthonormal (n, k) basis.

    Shape (C(k, 2), C(n, 2)), in the pair order a < b of the curvature operator.
    """
    a, b = np.triu_indices(w.shape[0], 1)
    i, j = np.triu_indices(w.shape[1], 1)
    return w[a][:, i].T * w[b][:, j].T - w[b][:, i].T * w[a][:, j].T


def ky_fan_sum(op, n, m):
    """Sum of the smallest C(n, 2) - C(n - m, 2) eigenvalues of a symmetric operator."""
    return float(np.sum(np.linalg.eigvalsh(op)[:math.comb(n, 2) - math.comb(n - m, 2)]))


class TestFourFormCertificate:
    """Thorpe's bound at m = n - 2: any 4-form eta keeps tr((R + eta)(1 - Pi_U)) = C_m."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_basis_has_zero_trace_on_every_subspace(self, n):
        basis = _four_forms(n)
        assert basis.shape == (math.comb(n, 4), math.comb(n, 2), math.comb(n, 2))
        assert_array_equal(basis, basis.transpose(0, 2, 1))
        rng = np.random.default_rng(n)
        for k in range(1, n + 1):
            pairs = two_vectors(haar_frame(n, k, rng.integers(1 << 30)))
            assert_allclose(pairs @ pairs.T, np.eye(len(pairs)), atol=1e-12)
            traces = np.einsum("ta,sab,tb->s", pairs, basis, pairs)
            assert_allclose(traces, 0.0, atol=1e-12)
        # not zero on 2-vectors: e_0 ^ e_1 + e_2 ^ e_3 is not decomposable
        kahler = two_vectors(np.eye(n)[:, [0, 1]])[0] + two_vectors(np.eye(n)[:, [2, 3]])[0]
        assert kahler @ basis[0] @ kahler == 2.0

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_bound_is_below_coordinates_and_oracle(self, n, m):
        # the ascent's 4-form, and a random one, give a sound bound at every m
        for seed in range(3):
            rd = random_curvature_tensor(n, np.random.default_rng(n * 10 + m + 200 * seed))
            op = _curvature_operator(rd)
            bound, eta, _ = _four_form_bound(rd)
            noise = np.tensordot(np.random.default_rng(seed).standard_normal(
                math.comb(n, 4)), _four_forms(n), 1)
            coord_min = cm_batch(rd, coordinate_frames(n, m)).min()
            oracle = cm_min_oracle(rd, m, seed=seed)
            for form in (eta, noise):
                low = ky_fan_sum(op + form, n, m)
                assert low <= coord_min + 1e-9 and low <= oracle + 1e-9
            assert ky_fan_sum(op + eta, n, n - 2) == pytest.approx(bound, abs=1e-9)
            # the ascent starts at eta = 0, the Ky Fan bound, and only improves it
            assert bound >= _operator_lower_bound(rd, n - 2) - 1e-9

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_closes_without_sampling(self, monkeypatch, n):
        calls = count_calls(monkeypatch, frames, ("random_frames", "cm_batch"))
        for seed in range(3):
            rd = random_curvature_tensor(n, np.random.default_rng(700 + 10 * n + seed))
            calls["cm_batch"].clear()
            res = cm_min(rd, n - 2, seed=seed)
            assert res.method == "certificate"
            # the coordinate subsets, then the polished witness
            assert calls == {"random_frames": [], "cm_batch": [math.comb(n, 2), 1]}
            assert abs(res.value - res.lower_bound) <= frames.TIE_TOL
            assert res.lower_bound > _operator_lower_bound(rd, n - 2) + frames.TIE_TOL
            assert res.evaluations > math.comb(n, 2)
            assert cm_of_frame(rd, res.argmin) == pytest.approx(res.value, abs=1e-9)
            # no coordinate subset ties, so the argmin is the polished frame
            assert cm_batch(rd, coordinate_frames(n, n - 2)).min() > res.value + frames.TIE_TOL

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_certified_value_matches_the_sampled_route(self, monkeypatch, n):
        rd = random_curvature_tensor(n, np.random.default_rng(900 + n))
        certified = cm_min(rd, n - 2, seed=n)
        ky_fan_route(monkeypatch)
        sampled = cm_min(rd, n - 2, budget=100_000, seed=n)
        assert certified.method == "certificate"
        assert sampled.method in {"coordinate-enumeration", "projected-descent"}
        assert abs(certified.value - sampled.value) <= frames.TIE_TOL
        assert sampled.lower_bound == _operator_lower_bound(rd, n - 2)
        assert certified.lower_bound >= sampled.lower_bound

    def test_falls_back_bit_identically_where_it_does_not_close(self, monkeypatch):
        # on CP^4 at m = 6 the ascent stops at a bound below the coordinate
        # minimum 36, so the sampled route runs as if the 4-form route were
        # absent; only the bound and the route's evaluations stay behind
        rd = fubini_study_riemann(8)
        bound, frame, polish_evals = frames._lower_bound(rd, 6)
        assert min(36.0, cm_batch(rd, frame[None])[0]) > bound + frames.TIE_TOL
        res = cm_min(rd, 6, budget=2000, seed=1)
        ky_fan_route(monkeypatch)
        sampled = cm_min(rd, 6, budget=2000, seed=1)
        assert_same_search(res, sampled)
        assert res.lower_bound == bound > sampled.lower_bound
        assert res.evaluations == sampled.evaluations + polish_evals + 1
        assert res.method == "coordinate-enumeration"
        assert res.value == pytest.approx(36.0, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 6])
    def test_closes_on_complex_projective_space(self, n):
        # CP^2 and CP^3: C_(n-2) = scal/2 - K(V-perp) has its minimum
        # n (n + 2)/2 - 4 where V-perp is a complex line, such as (e_0, e_1)
        res = cm_min(fubini_study_riemann(n), n - 2, budget=10, seed=0)
        assert res.method == "certificate"
        assert res.value == pytest.approx({4: 8.0, 6: 20.0}[n], abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_four_forms_in_dimension_three(self, monkeypatch, seed):
        # n - m = 2 at (3, 1), but there is no 4-form: the Ricci route takes
        # it, and with that route off the slow path runs as before
        def unreachable(*args):
            raise AssertionError("4-form route entered at n = 3")

        rd = random_curvature_tensor(3, np.random.default_rng(seed + 40))
        for name in ("_four_forms", "_four_form_bound"):
            monkeypatch.setattr(frames, name, unreachable)
        ricci = cm_min(rd, 1, budget=2000, seed=seed)
        assert ricci.method == "certificate"
        assert ricci.lower_bound == np.linalg.eigvalsh(rd.ricci)[0]
        ky_fan_route(monkeypatch)
        res = cm_min(rd, 1, budget=2000, seed=seed)
        starts = slow_path_starts(rd, 1, 2000, seed)
        qs, vals, _, evals, _ = _descend(rd, starts, MAX_ITER)
        coord_vals = cm_batch(rd, coordinate_frames(3, 1))
        best = int(np.argmin(vals))
        assert res.method == "projected-descent"
        assert res.value == min(coord_vals.min(), vals[best])
        assert res.evaluations == 3 + 2000 + int(evals.sum())
        assert res.lower_bound == _operator_lower_bound(rd, 1)
        assert_array_equal(res.argmin, qs[best])
        # C_1 is the Ricci form, and in dimension 3 every 2-vector is
        # decomposable, so the Ky Fan bound is exact
        assert res.value == pytest.approx(np.linalg.eigvalsh(rd.ricci)[0], abs=1e-9)
        assert res.lower_bound == pytest.approx(res.value, abs=1e-9)


RICCI_CASES = ([random_curvature_tensor(n, np.random.default_rng(1300 + n)) for n in range(3, 9)]
               + [product_sphere_flat_riemann(3, 1.0, 2),
                  product_sphere_flat_riemann(3, np.sqrt(2.0), 4)]
               + [fubini_study_riemann(n) for n in (4, 6, 8)])
RICCI_IDS = ([f"dense-n{n}" for n in range(3, 9)] + ["S3xR2", "S3xR4"]
             + [f"CP-n{n}" for n in (4, 6, 8)])


class TestRicciCertificate:
    """m = 1: C_1(e) = Ric(e, e), whose minimum is the smallest Ricci eigenvalue."""

    @pytest.mark.parametrize("rd", RICCI_CASES, ids=RICCI_IDS)
    def test_closes_without_sampling(self, monkeypatch, rd):
        n = rd.dim
        calls = count_calls(monkeypatch, frames, ("random_frames", "cm_batch"))
        res = cm_min(rd, 1, seed=3)
        assert res.method == "certificate"
        # the coordinate frames, then the eigenvector
        assert calls == {"random_frames": [], "cm_batch": [n, 1]}
        assert res.evaluations == n + 1
        assert res.lower_bound == np.linalg.eigvalsh(rd.ricci)[0]
        assert abs(res.value - res.lower_bound) <= frames.TIE_TOL

    @pytest.mark.parametrize("rd", RICCI_CASES, ids=RICCI_IDS)
    def test_value_is_attained_and_no_sample_beats_it(self, rd):
        res = cm_min(rd, 1, seed=3)
        assert res.value <= cm_min_oracle(rd, 1, seed=3) + 1e-9
        assert cm_double_sum(rd, complete_frame(res.argmin), 1) == pytest.approx(
            res.value, abs=1e-9)
        # descent is monotone, so this bounds the best samples too
        _, desc_vals, *_ = _descend(rd, slow_path_starts(rd, 1, 2000, 3), MAX_ITER)
        assert desc_vals.min() >= res.lower_bound - 1e-9

    @pytest.mark.parametrize("shift,certified", [(-1e-12, True), (1e-12, True),
                                                 (-2e-9, False), (2e-9, False)])
    def test_tie_rule_is_both_sided(self, monkeypatch, shift, certified):
        # shifting the evaluator moves the eigenvector's value `shift` off the
        # eigenvalue; past TIE_TOL the sampled route runs as if this one were absent
        rd = random_curvature_tensor(5, np.random.default_rng(1305))
        exact = frames.cm_batch
        monkeypatch.setattr(frames, "cm_batch", lambda riemann, qs: exact(riemann, qs) + shift)
        res = cm_min(rd, 1, budget=500, seed=0)
        assert (res.method == "certificate") == certified
        if certified:
            assert res.value == pytest.approx(np.linalg.eigvalsh(rd.ricci)[0] + shift,
                                              abs=1e-12)
            assert res.evaluations == 6
            # no coordinate subset ties, so the argmin is the eigenvector
            assert_array_equal(res.argmin, np.linalg.eigh(rd.ricci)[1][:, :1])
            return
        qs, vals, _, evals, _ = _descend(rd, slow_path_starts(rd, 1, 500, 0), MAX_ITER)
        best = int(np.argmin(vals))
        assert res.method == "projected-descent"
        assert res.value == min(exact(rd, coordinate_frames(5, 1)).min() + shift, vals[best])
        assert res.evaluations == 5 + 1 + 500 + int(evals.sum())
        assert res.lower_bound == np.linalg.eigvalsh(rd.ricci)[0]
        assert_array_equal(res.argmin, qs[best])
        ky_fan_route(monkeypatch)
        sampled = cm_min(rd, 1, budget=500, seed=0)
        assert_same_search(res, sampled)
        assert sampled.evaluations == res.evaluations - 1


class TestRouteTable:
    """`_lower_bound`: one route per m, each sound and at least the Ky Fan bound."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_routes_on_dense_tensors(self, monkeypatch, n):
        calls = count_calls(monkeypatch, frames, ("_four_form_bound",))
        for m in range(1, n + 1):
            rd = random_curvature_tensor(n, np.random.default_rng(1500 + 10 * n + m))
            calls["_four_form_bound"].clear()
            bound, frame, evals = frames._lower_bound(rd, m)
            four_form = n - m == 2 and n >= 4
            assert len(calls["_four_form_bound"]) == int(four_form)
            if m == 1:
                assert bound == np.linalg.eigvalsh(rd.ricci)[0]
                assert_array_equal(frame, np.linalg.eigh(rd.ricci)[1][:, :1])
                assert evals == 0
            elif four_form:
                assert frame.shape == (n, m) and evals >= 1
            else:
                assert (bound, frame, evals) == (_operator_lower_bound(rd, m), None, 0)
            coord_min = cm_batch(rd, coordinate_frames(n, m)).min()
            assert bound >= _operator_lower_bound(rd, m) - 1e-9
            assert bound <= coord_min + 1e-9
            assert bound <= cm_min_oracle(rd, m, seed=m) + 1e-9
            if frame is not None:
                assert bound <= cm_of_frame(rd, frame) + 1e-9
            # cm_min reports the route's bound whatever the outcome
            assert cm_min(rd, m, budget=200, seed=m).lower_bound == bound


class TestHomothety:
    """C_m is linear in the tensor: scaling R by 2^k scales the bracket exactly."""

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("k", [-8, 8])
    def test_bracket_scales_with_the_tensor(self, n, k):
        rd = random_curvature_tensor(n, np.random.default_rng(1600 + n))
        scaled = RiemannData.from_components(2.0 ** k * rd.components)
        for m in sorted({1, n - 2, n - 1}):
            base = cm_min(rd, m, budget=500, seed=m)
            res = cm_min(scaled, m, budget=500, seed=m)
            assert res.method == base.method, f"m = {m}"
            assert res.value == pytest.approx(2.0 ** k * base.value, rel=1e-12)
            assert res.lower_bound == pytest.approx(2.0 ** k * base.lower_bound, rel=1e-12)


FAMILY_GRID = [(lam, eps) for lam in (1.0, 4.0) for eps in (0.25, 0.5, 1.0, 2.0)]


class TestCertificateOnTheFamily:
    """The certificate against the sampled route on the warped-torus family.

    The curvature operator is diagonal there with the five class values as
    eigenvalues, and the construction's coordinate frame attains lambda, so
    the bound decides exactly where no coordinate frame goes below lambda.
    """

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_certified_iff_coordinate_minimum_reaches_lambda(self, n, m):
        decided = 0
        for lam, eps in FAMILY_GRID:
            metric = build_counterexample(n, m, lam, eps)
            for r in np.linspace(-10.0, 10.0, 121):
                rd = riemann_exact(metric, float(r))
                res = cm_min(rd, m, budget=1, seed=0)
                certified = res.method == "certificate"
                coord_min = np.min(cm_batch(rd, coordinate_frames(n, m)))
                assert certified == (coord_min >= lam * (1 - 1e-6)), \
                    f"lambda={lam} eps={eps} r={r}"
                decided += certified
        assert decided > 0

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_sampling_and_descent_stay_above_certified_values(self, n, m):
        checked = 0
        for lam, eps in FAMILY_GRID:
            metric = build_counterexample(n, m, lam, eps)
            for i, r in enumerate(np.linspace(-10.0, 10.0, 5)):
                rd = riemann_exact(metric, float(r))
                res = cm_min(rd, m, budget=1, seed=0)
                if res.method != "certificate":
                    continue
                # descent is monotone, so this bounds the best samples too
                _, desc_vals, *_ = _descend(rd, slow_path_starts(rd, m, 1000, i), MAX_ITER)
                assert desc_vals.min() >= res.value - 1e-9
                checked += 1
        assert checked > 0


def assert_same_search(a, b):
    """The same minimum found the same way, whatever bound and count came with it."""
    assert (a.value, a.method) == (b.value, b.method)
    assert_array_equal(a.argmin, b.argmin)


class TestOracle:
    def test_constant_on_round_sphere(self):
        val = cm_min_oracle(constant_curvature_riemann(5, 1.0), 3)
        assert val == pytest.approx(9.0, abs=1e-9)

    def test_sphere_times_torus_sampling_gap(self):
        # random frames never exactly hit the coordinate minimum 2; descent does
        rd = product_sphere_flat_riemann(3, 1.0, 3)
        val = cm_min_oracle(rd, 4, seed=5)
        assert 2.0 <= val <= 3.0
        refined = cm_min(rd, 4, budget=20_000, seed=5)
        assert refined.value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("rd,m", KERNEL_CASES, ids=KERNEL_IDS)
    def test_pairwise_contraction_matches_one_pass_einsum(self, rd, m):
        # more than two slices, the last one partial
        qs = random_frames(rd.dim, m, 2 * ORACLE_SLICE + 37, np.random.default_rng(m))
        ref = oracle_values(rd, qs)
        assert_allclose(_oracle_values(rd, qs), ref, rtol=1e-12,
                        atol=1e-12 * np.max(np.abs(ref)))

    def test_rejects_m_outside_one_to_n(self):
        # with the message of cm_min, not a 0.0 from empty frames at m = 0 or
        # a rank-deficiency error at m = n + 1
        rd = constant_curvature_riemann(4, 1.0)
        for m in (0, 5):
            for minimizer in (cm_min, cm_min_oracle):
                with pytest.raises(ValueError, match=rf"^require 1 <= m <= 4, got m = {m}$"):
                    minimizer(rd, m)

    def test_draws_frames_cm_min_does_not(self, monkeypatch):
        # default_rng(seed) is PCG64(seed), cm_min's chunk 0; the oracle must
        # not re-score those frames
        drawn = []
        sampler = frames.random_frames

        def recording(*args):
            drawn.append(sampler(*args))
            return drawn[-1]

        monkeypatch.setattr(frames, "random_frames", recording)
        cm_min_oracle(random_curvature_tensor(6, np.random.default_rng(0)), 3, seed=42)
        chunk0 = sampler(6, 3, SAMPLE_CHUNK, np.random.Generator(np.random.PCG64(42)))
        assert len(drawn) == math.ceil(frames.ORACLE_SAMPLES / SAMPLE_CHUNK)
        assert not np.any(np.all(np.isclose(drawn[0], chunk0), axis=(1, 2)))
