"""Tests for the partial curvature sum minimizer."""
import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curvlab import frames
from curvlab.constructions import CONSTRUCTION_PAIRS, build_counterexample
from curvlab.curvature import (
    RiemannData,
    cm_min_exact,
    product_sphere_flat_riemann,
    random_curvature_tensor,
    riemann_exact,
)
from curvlab.frames import (
    MAX_ITER,
    ORACLE_SLICE,
    SAMPLE_CHUNK,
    _contraction,
    _coordinate_values,
    _descend,
    _evaluate,
    _lower_bound,
    _operators,
    _oracle_values,
    _plucker_tables,
    _symmetric_form,
    _unit_scale,
    cm_min,
    cm_min_oracle,
    cm_of_frame,
    coordinate_frame,
    orthonormalize_frames,
    random_frames,
    tangent_project,
)
import frame_references
from curvature_references import (
    complex_projective_minimum,
    constant_curvature_riemann,
    fubini_study_riemann,
)
from frame_references import (
    DESCENT_STARTS,
    best_samples,
    cm_batch,
    cm_double_sum,
    cm_gradient,
    complete_frame,
    coordinate_frames,
    coordinate_route,
    count_calls,
    ky_fan_bound,
    oracle_values,
    sampled_search,
    slow_path_starts,
    smallest,
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
COMPLEMENT_CASES = [(rd, m) for rd, m in KERNEL_CASES if m > rd.dim - m]
COMPLEMENT_IDS = [i for i, (rd, m) in zip(KERNEL_IDS, KERNEL_CASES) if m > rd.dim - m]


def haar_frame(n, m, seed):
    return random_frames(n, m, 1, np.random.default_rng(seed))[0]


def ky_fan_route(monkeypatch):
    """Replace the route by the Ky Fan bound and the first coordinate frame."""
    coordinate_route(monkeypatch, ky_fan_bound)


def never_closing(patch):
    """Give `_ascent` a closure test that never passes: the ascent runs to its other stops."""
    ascent = frames._ascent
    patch.setattr(frames, "_ascent", lambda base, relations, count, closes: ascent(
        base, relations, count, lambda *_: False))


def record_closure_tests(patch):
    """Record `_ascent`'s closure tests and where each ascent ends.

    Returns the outcome of every test, and for every ascent whether the top
    vector it returns is the one its last test had.
    """
    ascent = frames._ascent
    outcomes, ends_tested = [], []

    def recorded(base, relations, count, closes):
        tested = [None]  # the last top vector tested

        def test(value, top):
            tested[0] = top
            outcomes.append(closes(value, top))
            return outcomes[-1]

        result = ascent(base, relations, count, test)
        ends_tested.append(result[1] is tested[0])
        return result

    patch.setattr(frames, "_ascent", recorded)
    return outcomes, ends_tested


def record_descents(patch):
    """Record `_descend`'s calls; returns a copy of each call's start frame."""
    descend = frames._descend
    starts = []

    def recorded(riemann, form, q0, max_iter):
        starts.append(np.array(q0))
        return descend(riemann, form, q0, max_iter)

    patch.setattr(frames, "_descend", recorded)
    return starts


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


def fallback_starts(riemann, m, route_frame):
    """The starts `cm_min` descends from when its route does not close.

    The best coordinate frame, by the values `cm_min` reads off the tensor
    (the first on ties), then the route's frame.
    """
    subsets, vals = _coordinate_values(riemann, m)
    return np.stack([coordinate_frame(riemann.dim, tuple(subsets[np.argmin(vals)])),
                     route_frame])


def shift_route(patch, shift):
    """Lower the route's bound by `shift`, keeping its frame, score and evaluations.

    Returns the unpatched route.
    """
    route = frames._lower_bound

    def shifted(riemann, m, form):
        bound, *rest = route(riemann, m, form)
        return bound - shift, *rest

    patch.setattr(frames, "_lower_bound", shifted)
    return route


def descend_each(riemann, starts, max_iter=MAX_ITER):
    """`_descend` from each start in turn, its results stacked field by field.

    Returns frames (k, n, m), values, iterations, evaluations and converged
    flags, one entry per start.
    """
    form = _symmetric_form(riemann)
    runs = [_descend(riemann, form, q0, max_iter) for q0 in starts]
    return tuple(np.array(field) for field in zip(*runs))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_rejects_non_finite_frames(self, bad):
        # the defect of such a frame is NaN or inf, which a `defect > tol`
        # test let through to a NaN value; an overflowing entry gives inf
        rd = constant_curvature_riemann(4, 1.0)
        q = coordinate_frame(4, (0, 1))
        q[2, 1] = bad
        with pytest.raises(ValueError, match=r"^frame is not orthonormal"):
            cm_of_frame(rd, q)

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
        form = _symmetric_form(rd)
        for q in random_frames(n, m, 12, np.random.default_rng(n + 31 * m)):
            val, wx = _evaluate(q, form)
            b = _contraction(wx, n)
            assert b.shape == (n, n)
            assert val == pytest.approx(cm_double_sum(rd, complete_frame(q), m), rel=1e-12)
            ref = cm_gradient(rd, q)
            assert_allclose(2.0 * (rd.ricci - b) @ q, ref, rtol=1e-12,
                            atol=1e-12 * np.max(np.abs(ref)))

    def test_reads_the_stack_last_layout_without_a_copy(self):
        # random_frames returns a transposed view of Gram-Schmidt's (m, n, B)
        # array, and the oracle transposes it back
        qs = random_frames(7, 3, 64, np.random.default_rng(4))
        assert qs.transpose(2, 1, 0).flags.c_contiguous
        rd = random_curvature_tensor(7, np.random.default_rng(5))
        assert_allclose(_oracle_values(rd, qs, 3),
                        _oracle_values(rd, np.ascontiguousarray(qs), 3), rtol=0, atol=1e-13)


COORDINATE_CASES = ([rd for rd, _ in KERNEL_CASES]
                    + [product_sphere_flat_riemann(3, rho, k)
                       for k, rho in ((1, 1.0), (2, np.sqrt(2.0)), (3, 2.0), (5, 0.5))]
                    + [RiemannData.from_components(np.zeros((5,) * 4))])
COORDINATE_IDS = ([f"n{rd.dim}-{i}" for i, (rd, _) in enumerate(KERNEL_CASES)]
                  + [f"S3xR{k}" for k in (1, 2, 3, 5)] + ["zero"])


class TestCoordinateValues:
    """C_m(e_I) read off Ric_pp and K_pq against the frame routes, at every m."""

    @pytest.mark.parametrize("rd", COORDINATE_CASES, ids=COORDINATE_IDS)
    def test_match_stacked_evaluator_and_double_sum(self, rd):
        n = rd.dim
        for m in range(1, n + 1):
            subsets, vals = _coordinate_values(rd, m)
            assert_array_equal(subsets, list(itertools.combinations(range(n), m)))
            coords = coordinate_frames(n, m)
            for name, ref in (("cm_batch", cm_batch(rd, coords)),
                              ("double sum", [cm_double_sum(rd, complete_frame(q), m)
                                              for q in coords])):
                assert_allclose(vals, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)),
                                err_msg=f"{name}, m = {m}")


class TestSelection:
    """The reference sampler's partial selection is exactly the prefix of a stable argsort."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 100, 4096])
    def test_prefix_with_ties_and_non_finite_values(self, size):
        rng = np.random.default_rng(size)
        for trial in range(20):
            vals = rng.integers(0, 4, size).astype(float)  # many ties
            if trial % 2:
                vals[rng.integers(0, size, max(1, size // 3))] = np.nan
            if trial % 5 == 0:
                vals[rng.integers(0, size)] = -np.inf
            assert_array_equal(smallest(vals, DESCENT_STARTS),
                               np.argsort(vals, kind="stable")[:DESCENT_STARTS])

    @pytest.mark.parametrize("budget", [1, 7, 5000, 2 * SAMPLE_CHUNK + 3])
    def test_best_samples_with_forced_ties(self, monkeypatch, budget):
        # rounding the values to integers makes most of them tie; the
        # selection must keep the best frames in drawing order
        rd = random_curvature_tensor(6, np.random.default_rng(17))
        exact = cm_batch
        monkeypatch.setattr(frame_references, "cm_batch",
                            lambda riemann, qs: np.round(exact(riemann, qs)))
        best = best_samples(rd, 3, budget, 40)
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
            return _evaluate(mat, _symmetric_form(rd))[0]

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
        assert_allclose(orthonormalize_frames(q[None])[0], q, atol=1e-12)

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
        q, val, _, _, converged = _descend(rd, _symmetric_form(rd), q0, MAX_ITER)
        assert val <= start + 1e-12
        assert converged
        gt = tangent_project(q, cm_gradient(rd, q))
        assert np.linalg.norm(gt) < 1e-6

    def test_immediate_convergence_on_space_form(self):
        rd = constant_curvature_riemann(5, 2.0)
        _, val, iters, _, _ = _descend(rd, _symmetric_form(rd), haar_frame(5, 3, 3), MAX_ITER)
        assert iters == 1
        assert val == pytest.approx(2.0 * (3 * 5 - 6), rel=1e-12)

    def test_overflowing_gradient_stops_unconverged(self, monkeypatch):
        # (6, 3) at lambda 4, eps 1/2, r = 10: f = exp(-2 r^2) puts K near 2e174,
        # so the squared gradient norm overflows
        metric = build_counterexample(6, 3, 4.0, 0.5)
        rd = riemann_exact(metric, 10.0)
        q0 = haar_frame(6, 3, 4)
        coordinate_route(monkeypatch, lambda riemann, m: -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q, val, iters, evals, converged = _descend(rd, _symmetric_form(rd), q0, MAX_ITER)
            # cm_min descends on the tensor scaled to unit size, where nothing
            # overflows: with no bound to close on, C_1 descends and finds
            # the exact minimum
            full = cm_min(rd, 1)
        assert not converged
        assert (iters, evals) == (1, 1)
        assert_allclose(q, q0, atol=1e-14)
        assert val == pytest.approx(cm_of_frame(rd, q0), rel=1e-14)
        assert full.method == "coordinate-enumeration"
        unit, scale = _unit_scale(rd)
        assert abs(full.value - cm_min_exact(metric, 10.0)[0]) <= 1e-9 * scale
        # coordinate subsets, the patched route's score of its frame, the
        # descent from the best coordinate frame and from that frame
        starts = fallback_starts(unit, 1, coordinate_frame(6, (0,)))
        unit_evals = descend_each(unit, starts)[3]
        assert full.evaluations == 6 + 1 + int(unit_evals.sum())

    def test_max_iter_zero_skips_descent(self):
        rd = random_curvature_tensor(5, np.random.default_rng(6))
        q0 = haar_frame(5, 2, 7)
        q, _, iters, evals, converged = _descend(rd, _symmetric_form(rd), q0, 0)
        assert (iters, evals, converged) == (0, 1, False)
        assert_allclose(q, q0, atol=1e-14)


class TestDescentRule:
    """The descent against an independent loop.

    `reference_descent` runs the same step rule (1/(1 + |g|), then capped
    Barzilai-Borwein steps) with LAPACK QR and einsum contractions.  Frames
    are compared through their projections, and loosely: near a minimum
    the STEP_TOL stopping rule pins the span down only to about 1e-7, so
    rounding moves the stopping point along flat directions.
    """

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_every_start_matches_reference_loop(self, n, m):
        rd = random_curvature_tensor(n, np.random.default_rng(n * 10 + m))
        starts = random_frames(n, m, 9, np.random.default_rng(n * 10 + m + 1))
        for q0 in starts:
            q, val, iters, _, converged = _descend(rd, _symmetric_form(rd), q0, MAX_ITER)
            ref_q, ref_val, ref_iters, _, ref_converged = reference_descent(rd, q0)
            assert val == pytest.approx(ref_val, rel=1e-9, abs=1e-9)
            assert converged == ref_converged
            # rounding moves the stop by a few iterations; another step rule
            # moves it by far more (a step restarted at 1/(1 + |g|) every
            # iteration took 1.2 to 21 times as many here)
            assert abs(iters - ref_iters) <= 0.25 * ref_iters + 2
            assert_allclose(projection(q), projection(ref_q), atol=1e-5)

    def test_stops_at_a_degenerate_minimum(self):
        # (7, 4) at lambda 1, eps 1, r = 3: the minimum lambda is attained on a
        # continuum of spans, so near it accepted steps stop changing the value;
        # without a stop there the starts cycle until MAX_ITER
        rd = riemann_exact(build_counterexample(7, 4, 1.0, 1.0), 3.0)
        starts = random_frames(7, 4, 8, np.random.default_rng(5))
        _, vals, iters, _, converged = descend_each(rd, starts)
        assert np.all(converged)
        assert np.max(iters) < 100
        assert_allclose(vals, 1.0, rtol=0, atol=1e-12)

    def test_iteration_limit_is_per_frame(self):
        rd = random_curvature_tensor(6, np.random.default_rng(8))
        starts = random_frames(6, 3, 4, np.random.default_rng(9))
        _, _, iters, _, converged = descend_each(rd, starts, 3)
        assert np.all(iters == 3)
        assert not np.any(converged)

    def test_no_crawl_in_a_flat_valley(self):
        # (7, 4) at lambda 1, eps 1, r = 0, seed 3: with a step restarted at
        # 1/(1 + |g|) every iteration, two of the nine starts ran all 500
        # iterations and stopped about 3e-3 above the minimum
        rd = riemann_exact(build_counterexample(7, 4, 1.0, 1.0), 0.0)
        starts = slow_path_starts(rd, 4, 100_000, 3)
        _, vals, iters, _, converged = descend_each(rd, starts)
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
            return orthonormalize_frames(y)

        monkeypatch.setattr(frames, "orthonormalize_frames", recording)
        descend_each(rd, starts)
        assert 1.0 - 1e-12 <= max(moves) <= 1.0 + 1e-12


class TestDescentWork:
    """Sampling and descent on construction tensors, as the sampled search runs them.

    The certificate decides these tensors, and `cm_min` samples nothing;
    the tests run the reference sampler and the descent directly.
    """

    def test_descent_evaluations_on_construction_tensors(self):
        # the 15 tensors of the construction pairs at lambda 1, eps 1 and
        # r in {0, -3, 10}; a step rule that crawls spent 64,676 here
        spent = 0
        for n, m in CONSTRUCTION_PAIRS:
            metric = build_counterexample(n, m, 1.0, 1.0)
            for r in (0.0, -3.0, 10.0):
                rd = riemann_exact(metric, r)
                evals = descend_each(rd, slow_path_starts(rd, m, 100_000, 5))[3]
                spent += int(evals.sum())
        assert 0 < spent <= 5000

    def test_sampling_chunks_are_freed(self):
        # kept samples are copies, so each 4096-frame chunk is released after
        # its turn; views into the chunks held about 25 MB
        rd = riemann_exact(build_counterexample(7, 4, 1.0, 1.0), 0.0)
        tracemalloc.start()
        try:
            descend_each(rd, slow_path_starts(rd, 4, 100_000, 3))
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
            with pytest.raises(ValueError, match="rank deficient"):
                orthonormalize_frames(bad)

    def test_retraction_of_a_stack_is_framewise(self):
        y = np.random.default_rng(3).standard_normal((6, 7, 4))
        stacked = orthonormalize_frames(y)
        assert stacked.shape == y.shape
        for i in range(len(y)):
            assert_allclose(stacked[i], orthonormalize_frames(y[i:i + 1])[0], rtol=0, atol=1e-14)


class TestMinimizer:
    def test_flat_space_zero(self):
        rd = RiemannData.from_components(np.zeros((5,) * 4))
        res = cm_min(rd, 2)
        assert res.value == 0.0
        assert res.method == "certificate"
        assert_array_equal(res.argmin, coordinate_frame(5, (0, 1)))

    def test_round_sphere_values(self):
        # C_m is frame-independent on a space form: K (m n - m (m + 1) / 2)
        res = cm_min(constant_curvature_riemann(5, 1.0), 3)
        assert res.value == pytest.approx(9.0, abs=1e-9)
        res = cm_min(constant_curvature_riemann(4, 1.0), 2)
        assert res.value == pytest.approx(5.0, abs=1e-9)

    def test_sphere_times_torus(self):
        rd = product_sphere_flat_riemann(3, 1.0, 3)
        res = cm_min(rd, 4)
        assert res.value == pytest.approx(2.0, abs=1e-8)
        assert res.method == "certificate"
        assert_array_equal(res.argmin, coordinate_frame(6, (0, 3, 4, 5)))

    @pytest.mark.parametrize("rho", [1.0, np.sqrt(2.0), 2.0])
    def test_sphere_radius_scaling(self, rho):
        rd = product_sphere_flat_riemann(3, rho, 3)
        res = cm_min(rd, 4)
        assert res.value == pytest.approx(2.0 / rho ** 2, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_m_one_is_smallest_ricci_eigenvalue(self, seed):
        rd = random_curvature_tensor(6, np.random.default_rng(seed))
        res = cm_min(rd, 1)
        lam_min = float(np.linalg.eigvalsh(rd.ricci)[0])
        assert res.value == pytest.approx(lam_min, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_m_top_is_half_scalar(self, seed):
        rd = random_curvature_tensor(6, np.random.default_rng(seed + 10))
        res = cm_min(rd, 5)
        assert res.value == pytest.approx(0.5 * rd.scalar, abs=1e-9)
        # frame independence of the top case
        q = haar_frame(6, 5, seed + 60)
        assert cm_of_frame(rd, q) == pytest.approx(0.5 * rd.scalar, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_worse_than_oracle(self, seed):
        rd = random_curvature_tensor(6, np.random.default_rng(seed + 30))
        res = cm_min(rd, 3)
        oracle = cm_min_oracle(rd, 3, seed=seed + 1)
        assert res.value <= oracle + 1e-9

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_never_worse_than_best_sample(self, n, m):
        # samples only pick descent starts and descent only accepts decreases,
        # so the best sample cannot beat the reported value beyond rounding
        for seed in range(3):
            rng = np.random.default_rng(n * 10 + m + 4 + 100 * seed)
            rd = random_curvature_tensor(n, rng)
            res = cm_min(rd, m)
            best_sample = cm_batch(rd, best_samples(rd, m, 2000, seed)[:1])[0]
            assert res.value <= best_sample + 1e-12 * max(1.0, abs(res.value))

    def test_argmin_attains_value(self):
        for seed in range(3):
            rd = random_curvature_tensor(7, np.random.default_rng(seed + 70))
            res = cm_min(rd, 3)
            assert cm_of_frame(rd, res.argmin) == pytest.approx(res.value,
                                                                abs=1e-9)
            assert res.method in {"certificate", "coordinate-enumeration",
                                  "projected-descent"}

    def test_repeatable_and_blind_to_budget_and_seed(self):
        # nothing is sampled: a second call, and one with the budget and
        # seed that the benchmark passes, give the same record bit for bit
        rd = random_curvature_tensor(6, np.random.default_rng(44))
        a = cm_min(rd, 3)
        for b in (cm_min(rd, 3), cm_min(rd, 3, budget=100_000, seed=7)):
            assert (a.value, a.evaluations, a.method, a.lower_bound) == (
                b.value, b.evaluations, b.method, b.lower_bound)
            assert_array_equal(a.argmin, b.argmin)

    def test_evaluation_budget_accounted(self):
        # CP^4 at m = 3, where the route's bound 20 stays below the minimum 24:
        # the subsets, the route's scores (one per closure test, and one
        # for its frame, whose top vector no test had) and the descent from
        # two starts; nothing is sampled, so no budget counts
        rd = fubini_study_riemann(8)
        res = cm_min(rd, 3)
        assert res.method != "certificate"
        unit, _ = _unit_scale(rd)
        form = _symmetric_form(unit)
        with pytest.MonkeyPatch.context() as patch:
            outcomes, ends_tested = record_closure_tests(patch)
            _, frame, _, route_evals = _lower_bound(unit, 3, form)
        assert route_evals == len(outcomes) + 1 and ends_tested == [False]
        evals = descend_each(unit, fallback_starts(unit, 3, frame))[3]
        assert res.evaluations == math.comb(8, 3) + route_evals + int(evals.sum())

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
        # the constructor, unlike from_components, does not check the table;
        # both minimizers make one input check (the oracle returned inf for
        # a NaN component and -inf for an inf one)
        rd = constant_curvature_riemann(4, 1.0)
        comps = rd.components.copy()
        comps[0, 1, 0, 1] = comps[1, 0, 1, 0] = bad
        for minimizer in (cm_min, cm_min_oracle):
            with pytest.raises(ValueError, match=r"^curvature components are not finite$"):
                minimizer(RiemannData(4, comps, rd.ricci, rd.scalar), 2)


FORM_CASES = [(random_curvature_tensor(6, np.random.default_rng(44)), 3, True),
              (fubini_study_riemann(6), 3, False),
              (random_curvature_tensor(5, np.random.default_rng(1305)), 1, True),
              (random_curvature_tensor(5, np.random.default_rng(1305)), 4, True)]


class TestOneFormPerCall:
    """`cm_min` builds its symmetric form once and scores each frame it counts once."""

    @pytest.mark.parametrize("rd,m,certified", FORM_CASES,
                             ids=["dense-n6-m3", "CP3-m3", "dense-n5-m1", "dense-n5-m4"])
    def test_form_builds_and_scores(self, monkeypatch, rd, m, certified):
        # a certified input, an open one that descends, and the k = 1 routes
        # at m = 1 and m = n - 1; the coordinate values need no score
        calls = count_calls(monkeypatch, frames, ("_symmetric_form", "_evaluate"))
        res = cm_min(rd, m)
        assert (res.method == "certificate") == certified
        assert len(calls["_symmetric_form"]) == 1
        assert len(calls["_evaluate"]) == res.evaluations - math.comb(rd.dim, m)


class TestCertificate:
    """The route's bound: sound everywhere, exact where the maths says so."""

    @pytest.mark.parametrize("n", sorted({n for n, _ in DENSE_SHAPES}))
    def test_bound_is_sound_on_dense_tensors(self, n):
        # 12 tensors per dimension, 60 in all, with m running over 1..n; the
        # one route closes at every m
        for i in range(12):
            m = 1 + i % n
            rd = random_curvature_tensor(n, np.random.default_rng(1000 + 12 * n + i))
            res = cm_min(rd, m)
            assert res.lower_bound <= res.value + 1e-9
            assert res.method == "certificate", f"m = {m}"

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_exact_at_m_n_minus_one(self, n):
        rd = random_curvature_tensor(n, np.random.default_rng(n + 500))
        res = cm_min(rd, n - 1)
        assert res.lower_bound == pytest.approx(0.5 * rd.scalar, abs=1e-9)
        assert res.method == "certificate"
        # the coordinate subsets, then the route's one closure test, which
        # closes where C_(n-1) is constant and scores the returned frame
        assert res.evaluations == n + 1
        assert_array_equal(res.argmin, coordinate_frame(n, tuple(range(n - 1))))

    @pytest.mark.parametrize("k,rho", [(1, 1.0), (2, np.sqrt(2.0)), (3, 2.0), (5, 0.5)])
    def test_exact_on_sphere_times_flat(self, k, rho):
        # S^3 x R^k at m = k + 1: the bound is the Ky Fan bound, 2 / rho^2
        rd = product_sphere_flat_riemann(3, rho, k)
        res = cm_min(rd, k + 1)
        assert res.lower_bound == pytest.approx(2.0 / rho ** 2, rel=1e-14)
        assert res.lower_bound == pytest.approx(ky_fan_bound(rd, k + 1), rel=1e-14)
        assert res.value == pytest.approx(2.0 / rho ** 2, rel=1e-14)
        assert res.method == "certificate"
        # the coordinate subsets, then the route's one closure test, which
        # closes at Q = 0 and scores the returned frame
        assert res.evaluations == math.comb(k + 3, k + 1) + 1

    def test_exact_on_zero_tensor(self):
        res = cm_min(RiemannData.from_components(np.zeros((6,) * 4)), 3)
        assert (res.lower_bound, res.value, res.method) == (0.0, 0.0, "certificate")

    @pytest.mark.parametrize("shift,certified", [(-1e-12, True), (1e-12, True),
                                                 (-2e-9, False), (2e-9, False)])
    def test_tie_rule_is_both_sided(self, monkeypatch, shift, certified):
        # S^3 x R^k, where bound and coordinate minimum agree and the tensor
        # has unit scale; lowering the route's bound opens a gap of `shift`.
        # A bound far above an attained value is rounding, not a proof
        route = shift_route(monkeypatch, shift)
        for k, m, bound, subset in ((2, 3, 2.0, (0, 3, 4)),          # k-vectors of U, k = 2
                                    (3, 5, 3.0, (0, 1, 2, 3, 4))):   # m = n - 1, k = 1
            n = k + 3
            rd = product_sphere_flat_riemann(3, 1.0, k)
            res = cm_min(rd, m)
            assert route(rd, m, _symmetric_form(rd))[0] == bound
            assert res.lower_bound == bound - shift
            assert (res.method == "certificate") == certified
            if certified:
                assert res.value == bound
                # the subsets and the route's one closure test
                assert res.evaluations == math.comb(n, m) + 1
                assert_array_equal(res.argmin, coordinate_frame(n, subset))
            else:
                # the same, then the descent from the best coordinate frame
                # and the route's frame
                frame = route(rd, m, _symmetric_form(rd))[1]
                evals = descend_each(rd, fallback_starts(rd, m, frame))[3]
                assert res.evaluations == math.comb(n, m) + 1 + int(evals.sum())


def minors(q, k):
    """The k x k minors of an (n, k) frame: its unit k-vector.

    In the basis order of `_plucker_tables`, subsets by increasing bit mask.
    """
    subsets = sorted(itertools.combinations(range(q.shape[0]), k),
                     key=lambda s: sum(1 << i for i in s))
    return np.linalg.det(q[np.array(subsets, dtype=np.intp).reshape(len(subsets), k)])


def relation_rows(n, k):
    """The kept relations as integer rows over the monomials xi_A xi_B, A <= B."""
    tables = _plucker_tables(n, k)
    relation, weight, row, col = tables.relations
    monomial = np.zeros((tables.size, tables.size), dtype=np.intp)
    upper = np.triu_indices(tables.size)
    monomial[upper] = np.arange(len(upper[0]))
    rows = np.zeros((tables.count, len(upper[0])))
    np.add.at(rows, (relation, monomial[np.minimum(row, col), np.maximum(row, col)]), weight)
    return rows, upper


def grassmannian_quadrics(n, k):
    """Dimension of the quadrics on the k-vectors that vanish on decomposable ones.

    All quadrics, C(C(n, k) + 1, 2), less the degree-2 part of the
    Grassmannian's coordinate ring, which counts the semistandard tableaux
    of the k x 2 rectangle with entries up to n (hook-content formula).
    """
    tableaux = Fraction(1)
    for i in range(k):
        for j in range(2):
            tableaux *= Fraction(n + j - i, (1 - j) + (k - 1 - i) + 1)
    return math.comb(math.comb(n, k) + 1, 2) - int(tableaux)


class TestPluckerRoute:
    """C_m as a quadratic form on k-vectors, and the relations that vanish on decomposable ones."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_k_vector_form_is_cm(self, n):
        rd = random_curvature_tensor(n, np.random.default_rng(1700 + n))
        rng = np.random.default_rng(n)
        for m in range(1, n + 1):
            k = min(m, n - m)
            ricci, pairs = _operators(rd, k)
            for q in random_frames(n, m, 4, rng):
                ref = cm_of_frame(rd, q)
                if k == m:
                    xi = minors(q, k)
                    value = xi @ (ricci - pairs) @ xi
                else:
                    xi = minors(complete_frame(q, rng.standard_normal((n, n)))[:, m:], k)
                    value = 0.5 * rd.scalar - xi @ pairs @ xi
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), f"m = {m}"

    @pytest.mark.parametrize("n", range(3, 9))
    def test_relations_vanish_on_decomposable_vectors(self, n):
        rng = np.random.default_rng(1800 + n)
        for k in range(n // 2 + 1):
            rows, (a, b) = relation_rows(n, k)
            assert_array_equal(rows, np.round(rows))
            xi = np.stack([minors(q, k) for q in random_frames(n, k, 100, rng)]) if k else \
                np.ones((100, 1))
            assert np.max(np.abs(rows @ (xi[:, a] * xi[:, b]).T), initial=0.0) <= 1e-12
            # each relation is one symmetric matrix: the ascent's eigh reads
            # only its lower triangle
            tables = _plucker_tables(n, k)
            relation, weight, row, col = tables.relations
            shift = np.zeros((tables.size, tables.size))
            np.add.at(shift, (row, col), weight * rng.standard_normal(tables.count)[relation])
            assert_array_equal(shift, shift.T)

    def test_tables_build_without_numpy_2(self, monkeypatch):
        # the package supports numpy 1.24, which has no np.bitwise_count
        masks = np.arange(1 << 10)
        assert_array_equal(frames._popcount(masks), [bin(x).count("1") for x in range(1 << 10)])
        cached = _plucker_tables(8, 4)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        built = _plucker_tables.__wrapped__(8, 4)
        for got, want in zip(built, cached):
            if isinstance(got, tuple):
                for a, b in zip(got, want):
                    assert_array_equal(a, b)
            else:
                assert got == want

    @pytest.mark.parametrize("n", range(3, 9))
    def test_kept_relations_are_independent(self, n):
        for k in range(n // 2 + 1):
            count = _plucker_tables(n, k).count
            rows, _ = relation_rows(n, k)
            assert np.linalg.matrix_rank(rows) == count
            # leading-monomial selection keeps the whole span but at (8, 4)
            span = grassmannian_quadrics(n, k)
            assert (count, span) == ((719, 721) if (n, k) == (8, 4) else (span, span))

    @pytest.mark.parametrize("n,m,seed", [(7, 5, 71), (7, 5, 91), (8, 4, 22), (8, 4, 52)])
    def test_closes_where_rescaling_at_every_pair_stalls(self, n, m, seed):
        # with gamma taken from the newest (s, y) pair instead of the first,
        # the ascent stalls on these tensors at a nearly double top eigenvalue
        res = cm_min(random_curvature_tensor(n, np.random.default_rng(seed)), m)
        assert res.method == "certificate"

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_stop_costs_no_more_and_keeps_the_proof(self, monkeypatch, n, m):
        # against the ascent whose closure test never passes, on this
        # module's draws of the shape and the benchmark's at seed 5: no
        # more eigh calls, a bound at most TIE_TOL lower, and still proven
        shape = DENSE_SHAPES.index((n, m))
        cases = [random_curvature_tensor(n, np.random.default_rng(seed))
                 for seed in (n * 10 + m + 7, *(n * 10 + m + 4 + 100 * i for i in range(3)))]
        cases += [dense_cm_tensor(5, draw)[0] for draw in range(shape, 30, len(DENSE_SHAPES))]
        for i, rd in enumerate(cases):
            runs = []
            for never in (False, True):
                with monkeypatch.context() as patch:
                    if never:
                        never_closing(patch)
                    eighs = count_calls(patch, np.linalg, ("eigh",))["eigh"]
                    runs.append((cm_min(rd, m), len(eighs)))
            (res, eighs), (full, full_eighs) = runs
            tol = _unit_scale(rd)[1] * frames.TIE_TOL
            assert res.method == full.method == "certificate", f"case {i}"
            assert eighs <= full_eighs, f"case {i}"
            assert full.lower_bound - tol <= res.lower_bound <= full.lower_bound, f"case {i}"
            assert res.value - res.lower_bound <= tol, f"case {i}"


def relation_matrices(n, k):
    """The kept relations as symmetric matrices on the k-vectors, shape (count, size, size)."""
    tables = _plucker_tables(n, k)
    relation, weight, row, col = tables.relations
    mats = np.zeros((tables.count, tables.size, tables.size))
    np.add.at(mats, (relation, row, col), weight)
    return mats


def relation_bound(rd, m, shift):
    """The bound on C_m that the quadric Q = `shift` gives, as `_lower_bound` forms it."""
    k = min(m, rd.dim - m)
    ricci, pairs = _operators(rd, k)
    if k == m:
        return -np.linalg.eigvalsh(pairs - ricci + shift)[-1]
    return 0.5 * rd.scalar - np.linalg.eigvalsh(pairs + shift)[-1]


def closing_draws(n):
    """(m, seed) of every draw the closing tests take in dimension n.

    m = n - 2 on seeds 700 + 10 n + i, and every DENSE_SHAPES draw of this
    module: the kernel cases' and the best-sample test's.
    """
    draws = [(n - 2, 700 + 10 * n + i) for i in range(3)]
    for m in (m for dn, m in DENSE_SHAPES if dn == n):
        draws += [(m, n * 10 + m + 7), *((m, n * 10 + m + 4 + 100 * i) for i in range(3))]
    return draws


class TestFourFormCertificate:
    """Thorpe's certificate, named for k = 2, where the Plücker relations are the 4-forms.

    Any quadric Q vanishing on decomposable k-vectors keeps <(T + Q) xi, xi>
    = C_m on the k-vector xi of a subspace, so lambda_min(T + Q) bounds C_m.
    """

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_basis_has_zero_trace_on_every_subspace(self, n):
        basis = relation_matrices(n, 2)
        assert basis.shape == (math.comb(n, 4), math.comb(n, 2), math.comb(n, 2))
        assert_array_equal(basis, basis.transpose(0, 2, 1))
        rng = np.random.default_rng(n)
        for k in range(1, n + 1):
            q = haar_frame(n, k, rng.integers(1 << 30))
            pairs = np.array([minors(q[:, [a, b]], 2)
                              for a, b in itertools.combinations(range(k), 2)])
            pairs = pairs.reshape(-1, basis.shape[1])
            assert_allclose(pairs @ pairs.T, np.eye(len(pairs)), atol=1e-12)
            traces = np.einsum("ta,sab,tb->s", pairs, basis, pairs)
            assert_allclose(traces, 0.0, atol=1e-12)
        # not zero on 2-vectors: e_0 ^ e_1 + e_2 ^ e_3 is not decomposable,
        # and exactly one kept relation, that of {0, 1, 2, 3}, reads it
        eye = np.eye(n)
        kahler = minors(eye[:, [0, 1]], 2) + minors(eye[:, [2, 3]], 2)
        values = np.einsum("a,sab,b->s", kahler, basis, kahler)
        assert np.count_nonzero(values) == 1 and np.abs(values).max() == 1.0

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_bound_is_below_coordinates_and_oracle(self, n, m):
        # the route's quadric, and random ones, give a sound bound
        basis = relation_matrices(n, min(m, n - m))
        for seed in range(3):
            rd = random_curvature_tensor(n, np.random.default_rng(n * 10 + m + 200 * seed))
            unit, scale = _unit_scale(rd)
            bound = scale * _lower_bound(unit, m, _symmetric_form(unit))[0]
            coord_min = cm_batch(rd, coordinate_frames(n, m)).min()
            oracle = cm_min_oracle(rd, m, seed=seed)
            for i in range(3):
                noise = np.tensordot(np.random.default_rng(10 * seed + i).standard_normal(
                    len(basis)), basis, 1)
                low = relation_bound(rd, m, noise)
                assert low <= coord_min + 1e-9 and low <= oracle + 1e-9
            assert bound <= coord_min + 1e-9 and bound <= oracle + 1e-9
            # the ascent starts at Q = 0 and only improves it, and is at
            # least the Ky Fan bound
            assert bound >= relation_bound(rd, m, 0.0) - 1e-9
            assert bound >= ky_fan_bound(rd, m) - 1e-9

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_closes_without_sampling(self, monkeypatch, n):
        calls = count_calls(monkeypatch, frames, ("random_frames",))
        descents = record_descents(monkeypatch)
        for m, seed in closing_draws(n):
            rd = random_curvature_tensor(n, np.random.default_rng(seed))
            res = cm_min(rd, m)
            where = f"m = {m}, seed = {seed}"
            assert res.method == "certificate", where
            assert descents == [], where
            assert calls == {"random_frames": []}, where
            assert abs(res.value - res.lower_bound) <= _unit_scale(rd)[1] * frames.TIE_TOL
            assert res.lower_bound > ky_fan_bound(rd, m) + frames.TIE_TOL, where
            assert res.evaluations > math.comb(n, m)
            assert cm_of_frame(rd, res.argmin) == pytest.approx(res.value, abs=1e-9)
            # no coordinate subset ties, so the argmin is the route's frame
            assert cm_batch(rd, coordinate_frames(n, m)).min() > res.value + frames.TIE_TOL

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_certified_value_matches_the_sampled_route(self, n):
        rd = random_curvature_tensor(n, np.random.default_rng(900 + n))
        unit, scale = _unit_scale(rd)
        for m in sorted({n - 2, *(m for dn, m in DENSE_SHAPES if dn == n)}):
            certified = cm_min(rd, m)
            sampled = sampled_search(rd, m, 100_000, seed=n)
            assert certified.method == "certificate", f"m = {m}"
            assert abs(certified.value - sampled) <= scale * frames.TIE_TOL
            assert certified.lower_bound >= scale * ky_fan_bound(unit, m)

    def test_falls_back_bit_identically_where_it_does_not_close(self, monkeypatch):
        # on CP^4 at m = 3 the ascent stops at the bound 20, below the
        # coordinate minimum 24, so cm_min descends; from the route's frame
        # it finds what it finds from the first coordinate frame in its
        # place, and only the bound and the evaluations differ
        rd = fubini_study_riemann(8)
        unit, scale = _unit_scale(rd)
        bound, frame, score, route_evals = _lower_bound(unit, 3, _symmetric_form(unit))
        assert scale * bound == pytest.approx(20.0, abs=1e-9)
        assert score == pytest.approx(cm_batch(unit, frame[None])[0], rel=1e-12)
        assert min(24.0, scale * score) > scale * bound + 1.0
        res = cm_min(rd, 3)
        ky_fan_route(monkeypatch)
        sampled = cm_min(rd, 3)
        assert_same_search(res, sampled)
        assert res.lower_bound == scale * bound > sampled.lower_bound
        # the subsets, the route's scores and the descent
        evals = descend_each(unit, fallback_starts(unit, 3, frame))[3]
        assert res.evaluations == math.comb(8, 3) + route_evals + int(evals.sum())
        assert res.method == "coordinate-enumeration"
        assert res.value == pytest.approx(24.0, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 6])
    def test_closes_on_complex_projective_space(self, n):
        # CP^2 and CP^3: C_(n-2) = scal/2 - K(V-perp) has its minimum
        # n (n + 2)/2 - 4 where V-perp is a complex line, such as (e_0, e_1)
        res = cm_min(fubini_study_riemann(n), n - 2)
        assert res.method == "certificate"
        assert res.value == pytest.approx({4: 8.0, 6: 20.0}[n], abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_four_forms_in_dimension_three(self, monkeypatch, seed):
        # every 2-vector of R^3 is decomposable: no 4-form, and no relation
        # at any k, so at (3, 1) the route takes the smallest Ricci
        # eigenvalue; with the route off, the descent runs on the tensor
        # scaled to unit size as the reference replays it
        rd = random_curvature_tensor(3, np.random.default_rng(seed + 40))
        assert [_plucker_tables(3, k).count for k in range(4)] == [0, 0, 0, 0]
        ricci = cm_min(rd, 1)
        assert ricci.method == "certificate"
        assert ricci.lower_bound == pytest.approx(np.linalg.eigvalsh(rd.ricci)[0], rel=1e-13)
        ky_fan_route(monkeypatch)
        res = cm_min(rd, 1)
        unit, scale = _unit_scale(rd)
        starts = fallback_starts(unit, 1, coordinate_frame(3, (0,)))
        qs, vals, _, evals, _ = descend_each(unit, starts)
        coord_vals = _coordinate_values(unit, 1)[1]
        best = int(np.argmin(vals))
        assert res.method == "projected-descent"
        assert res.value == scale * min(coord_vals.min(), vals[best])
        # the subsets, the replaced route's frame and the descent
        assert res.evaluations == 3 + 1 + int(evals.sum())
        assert res.lower_bound == scale * ky_fan_bound(unit, 1)
        assert_array_equal(res.argmin, qs[best])
        # C_1 is the Ricci form, and in dimension 3 every 2-vector is
        # decomposable, so the Ky Fan bound is exact
        assert res.value == pytest.approx(np.linalg.eigvalsh(rd.ricci)[0], abs=1e-9)
        assert res.lower_bound == pytest.approx(res.value, abs=1e-9)



CP_CASES = [(d, m) for d in (2, 3, 4) for m in range(1, 2 * d)]


class TestComplexProjective:
    """cm_min on CP^d against the closed-form minimum 2m(d + 1) - C(m, 2) - 3 floor(m/2)."""

    @pytest.mark.parametrize("d,m", CP_CASES, ids=[f"CP{d}-m{m}" for d, m in CP_CASES])
    def test_value_is_the_closed_form_and_the_bound_never_passes_it(self, d, m):
        rd = fubini_study_riemann(2 * d)
        minimum = complex_projective_minimum(d, m)
        res = cm_min(rd, m)
        tol = _unit_scale(rd)[1] * frames.TIE_TOL
        assert abs(res.value - minimum) <= tol
        assert res.lower_bound <= minimum + tol
        assert (res.method == "certificate") == (res.lower_bound >= minimum - tol)


RICCI_CASES = ([random_curvature_tensor(n, np.random.default_rng(1300 + n)) for n in range(3, 9)]
               + [product_sphere_flat_riemann(3, 1.0, 2),
                  product_sphere_flat_riemann(3, np.sqrt(2.0), 4)]
               + [fubini_study_riemann(n) for n in (4, 6, 8)])
RICCI_IDS = ([f"dense-n{n}" for n in range(3, 9)] + ["S3xR2", "S3xR4"]
             + [f"CP-n{n}" for n in (4, 6, 8)])


def eigenvector_alignment(frame, ricci):
    """|<q, e>| for the single column q of a 1-frame and the smallest Ricci eigenvector e."""
    return abs(float(frame[:, 0] @ np.linalg.eigh(ricci)[1][:, 0]))


class TestRicciCertificate:
    """m = 1: C_1(e) = Ric(e, e), whose minimum is the smallest Ricci eigenvalue."""

    @pytest.mark.parametrize("rd", RICCI_CASES, ids=RICCI_IDS)
    def test_closes_without_sampling(self, monkeypatch, rd):
        n = rd.dim
        calls = count_calls(monkeypatch, frames, ("random_frames",))
        descents = record_descents(monkeypatch)
        res = cm_min(rd, 1)
        assert res.method == "certificate"
        assert calls == {"random_frames": []}
        assert descents == []
        # the subsets and the route's one closure test, which closes
        assert res.evaluations == n + 1
        lam_min = np.linalg.eigvalsh(rd.ricci)[0]
        assert res.lower_bound == pytest.approx(lam_min, rel=1e-13, abs=1e-13)
        assert abs(res.value - res.lower_bound) <= _unit_scale(rd)[1] * frames.TIE_TOL

    @pytest.mark.parametrize("rd", RICCI_CASES, ids=RICCI_IDS)
    def test_value_is_attained_and_no_sample_beats_it(self, rd):
        res = cm_min(rd, 1)
        assert res.value <= cm_min_oracle(rd, 1, seed=3) + 1e-9
        assert cm_double_sum(rd, complete_frame(res.argmin), 1) == pytest.approx(
            res.value, abs=1e-9)
        # descent is monotone, so this bounds the best samples too
        _, desc_vals, *_ = descend_each(rd, slow_path_starts(rd, 1, 2000, 3))
        assert desc_vals.min() >= res.lower_bound - 1e-9

    @pytest.mark.parametrize("shift,certified", [(-1e-12, True), (1e-12, True),
                                                 (-2e-9, False), (2e-9, False)])
    def test_tie_rule_is_both_sided(self, monkeypatch, shift, certified):
        # lowering the route's bound moves it `shift` off the eigenvector's
        # value, on the tensor scaled to unit size; past TIE_TOL cm_min
        # descends from the best coordinate frame and the eigenvector
        rd = random_curvature_tensor(5, np.random.default_rng(1305))
        unit, scale = _unit_scale(rd)
        route = shift_route(monkeypatch, shift)
        res = cm_min(rd, 1)
        lam_min = np.linalg.eigvalsh(rd.ricci)[0]
        bound, frame, _, _ = route(unit, 1, _symmetric_form(unit))
        assert (res.method == "certificate") == certified
        assert scale * bound == pytest.approx(lam_min, rel=1e-13)
        assert res.lower_bound == scale * (bound - shift)
        if certified:
            assert res.value == pytest.approx(lam_min, rel=1e-13)
            assert res.evaluations == 6
            # no coordinate subset ties, so the argmin is the eigenvector
            assert eigenvector_alignment(res.argmin, rd.ricci) == pytest.approx(1.0, abs=1e-12)
            return
        qs, vals, _, evals, _ = descend_each(unit, fallback_starts(unit, 1, frame))
        best = int(np.argmin(vals))
        assert res.method == "projected-descent"
        assert res.value == scale * min(_coordinate_values(unit, 1)[1].min(), vals[best])
        # the subsets, the route's one closure test and the descent
        assert res.evaluations == 5 + 1 + int(evals.sum())
        assert_array_equal(res.argmin, qs[best])
        assert res.value == pytest.approx(lam_min, rel=1e-13)


class TestRouteTable:
    """`_lower_bound`: one route at every m, between the Ky Fan bound and the minimum."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_routes_on_dense_tensors(self, monkeypatch, n):
        for m in range(1, n + 1):
            rd = random_curvature_tensor(n, np.random.default_rng(1500 + 10 * n + m))
            unit, scale = _unit_scale(rd)
            k = min(m, n - m)
            form = _symmetric_form(unit)
            eighs = count_calls(monkeypatch, np.linalg, ("eigh",))["eigh"]
            bound, frame, score, evals = _lower_bound(unit, m, form)
            monkeypatch.undo()
            assert score == _evaluate(frame, form)[0]
            # cm_min runs the route on the tensor scaled to unit size
            assert cm_min(rd, m).lower_bound == scale * bound
            bound *= scale
            assert frame.shape == (n, m) and evals >= 1
            assert_allclose(frame.T @ frame, np.eye(m), atol=1e-12)
            assert bound >= ky_fan_bound(rd, m) - 1e-9
            assert bound <= cm_batch(rd, coordinate_frames(n, m)).min() + 1e-9
            assert bound <= cm_min_oracle(rd, m, seed=m) + 1e-9
            assert bound <= cm_of_frame(rd, frame) + 1e-9
            if k <= 1:
                # no relations: one eigendecomposition and no ascent step
                assert _plucker_tables(n, k).count == 0 and len(eighs) == 1
                expected = np.linalg.eigvalsh(rd.ricci)[0] if m == 1 else 0.5 * rd.scalar
                assert bound == pytest.approx(expected, rel=1e-13, abs=1e-13)


@functools.lru_cache(maxsize=None)
def homothety_base(n):
    """cm_min at every m of the unscaled tensor that TestHomothety scales."""
    rd = random_curvature_tensor(n, np.random.default_rng(1600 + n))
    return tuple(cm_min(rd, m) for m in range(1, n + 1))


class TestHomothety:
    """C_m is linear in the tensor, and cm_min works at unit scale: 2^k R scales the result exactly."""

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("k", [-500, -8, 8, 500, 511])
    def test_bracket_scales_with_the_tensor(self, n, k):
        rd = random_curvature_tensor(n, np.random.default_rng(1600 + n))
        scaled = RiemannData.from_components(2.0 ** k * rd.components)
        for m, base in enumerate(homothety_base(n), start=1):
            res = cm_min(scaled, m)
            assert res.method == base.method, f"m = {m}"
            assert res.value == 2.0 ** k * base.value
            assert res.lower_bound == 2.0 ** k * base.lower_bound
            assert_array_equal(res.argmin, base.argmin)
            assert res.evaluations == base.evaluations

    def test_certifies_at_the_largest_scales(self):
        # with an absolute tolerance the route did not close at 2^500, and at
        # 2^511 the descent stopped 3% above the minimum when |g|^2 overflowed
        rd = random_curvature_tensor(4, np.random.default_rng(3))
        lam_min = np.linalg.eigvalsh(rd.ricci)[0]
        for k in (500, 511):
            res = cm_min(RiemannData.from_components(2.0 ** k * rd.components), 1)
            assert res.method == "certificate"
            assert res.value == pytest.approx(2.0 ** k * lam_min, rel=1e-12)


FAMILY_GRID = [(lam, eps) for lam in (1.0, 4.0) for eps in (0.25, 0.5, 1.0, 2.0)]


class TestCertificateOnTheFamily:
    """The certificate against the exact minimum on the warped-torus family.

    The curvature operator is diagonal there, so D_k(Ric) - R^[2] and R^[2]
    are diagonal on coordinate k-vectors, and the route is exact at Q = 0.
    """

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_certified_iff_coordinate_minimum_reaches_lambda(self, n, m):
        # the route closes at every radius, so the certified value reaches
        # lambda exactly where the coordinate minimum does
        reached = 0
        for lam, eps in FAMILY_GRID:
            metric = build_counterexample(n, m, lam, eps)
            for r in np.linspace(-10.0, 10.0, 121):
                rd = riemann_exact(metric, float(r))
                res = cm_min(rd, m)
                where = f"lambda={lam} eps={eps} r={r}"
                assert res.method == "certificate", where
                # TIE_TOL on the tensor scaled to unit size
                tol = 1e-9 * _unit_scale(rd)[1]
                assert abs(res.value - cm_min_exact(metric, float(r))[0]) <= tol, where
                coord_min = np.min(cm_batch(rd, coordinate_frames(n, m)))
                assert (res.value >= lam * (1 - 1e-6)) == (coord_min >= lam * (1 - 1e-6)), where
                reached += coord_min >= lam * (1 - 1e-6)
        assert reached > 0

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_sampling_and_descent_stay_above_certified_values(self, n, m):
        checked = 0
        for lam, eps in FAMILY_GRID:
            metric = build_counterexample(n, m, lam, eps)
            for i, r in enumerate(np.linspace(-10.0, 10.0, 5)):
                rd = riemann_exact(metric, float(r))
                res = cm_min(rd, m)
                if res.method != "certificate":
                    continue
                # descent is monotone, so this bounds the best samples too
                _, desc_vals, *_ = descend_each(rd, slow_path_starts(rd, m, 1000, i))
                assert desc_vals.min() >= res.value - 1e-9
                checked += 1
        assert checked > 0


def dense_cm_tensor(seed, draw):
    """Tensor number `draw` of the benchmark's `dense-cm` workload at `seed`, and its m.

    The workload draws from default_rng(seed) one tensor per DENSE_SHAPES
    shape in turn, six rounds, each followed by one integer draw.
    """
    rng = np.random.default_rng(seed)
    for i in range(draw + 1):
        n, m = DENSE_SHAPES[i % len(DENSE_SHAPES)]
        rd = random_curvature_tensor(n, rng)
        rng.integers(0, 2**31)
    return rd, m


def open_cases():
    """(tensor, m, minimum or None) of inputs where the route does not close.

    CP^4 at m = 2..6 and CP^3 at m = 3, where coordinate frames attain the
    closed-form minimum; a dense (8, 4) tensor where the ascent stalls at a
    nearly double top eigenvalue; and the (7, 5) tensors of `dense-cm` at
    seeds 19 and 39 that stay open.
    """
    cp4 = fubini_study_riemann(8)
    return ([(cp4, m, complex_projective_minimum(4, m)) for m in range(2, 7)]
            + [(fubini_study_riemann(6), 3, complex_projective_minimum(3, 3)),
               (random_curvature_tensor(8, np.random.default_rng(20)), 4, None),
               (*dense_cm_tensor(19, 13), None), (*dense_cm_tensor(39, 18), None)])


OPEN_IDS = ([f"CP4-m{m}" for m in range(2, 7)]
            + ["CP3-m3", "dense-n8-m4", "dense-cm-19", "dense-cm-39"])


class TestOpenInputs:
    """Where the route does not close, descent from its frame against the sampled search."""

    @pytest.fixture(scope="class", params=open_cases(), ids=OPEN_IDS)
    def recorded(self, request):
        """One `cm_min` run per open input, with its sampling, descents and closure tests recorded.

        `in_route` holds the descents made inside each `_lower_bound` call,
        and `route_frames` the frame each call returns.
        """
        rd, m, minimum = request.param
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, frames, ("random_frames",))
            descents = record_descents(patch)
            outcomes, ends_tested = record_closure_tests(patch)
            route = frames._lower_bound
            in_route, route_frames = [], []

            def recorded_route(riemann, m, form):
                before = len(descents)
                result = route(riemann, m, form)
                in_route.append(len(descents) - before)
                route_frames.append(np.array(result[1]))
                return result

            patch.setattr(frames, "_lower_bound", recorded_route)
            res = cm_min(rd, m)
        return SimpleNamespace(rd=rd, m=m, minimum=minimum, res=res,
                               random_frames=calls["random_frames"], descents=descents,
                               in_route=in_route, route_frames=route_frames,
                               outcomes=outcomes, ends_tested=ends_tested)

    def test_no_sample_finds_less(self, recorded):
        rd, m, res = recorded.rd, recorded.m, recorded.res
        assert recorded.random_frames == []
        assert res.method in {"coordinate-enumeration", "projected-descent"}
        assert res.lower_bound < res.value - frames.TIE_TOL
        tol = 1e-9 * max(1.0, abs(res.value))
        assert res.value <= sampled_search(rd, m, 100_000, seed=0) + tol
        assert res.value <= cm_min_oracle(rd, m) + 1e-9
        assert cm_of_frame(rd, res.argmin) == pytest.approx(res.value, abs=tol)
        if recorded.minimum is not None:
            assert res.method == "coordinate-enumeration"
            assert res.value == pytest.approx(recorded.minimum, abs=1e-12)

    def test_descends_from_each_start_in_turn(self, recorded):
        # the route returns its frame as it is, so the only descents are
        # cm_min's: from the best coordinate frame, then from the route's frame
        assert recorded.res.method != "certificate"
        assert recorded.in_route == [0]
        unit = _unit_scale(recorded.rd)[0]
        starts = fallback_starts(unit, recorded.m, recorded.route_frames[0])
        assert len(recorded.descents) == 2
        assert_array_equal(recorded.descents, starts)

    def test_closure_tests_change_only_the_count(self, monkeypatch, recorded):
        # the stop never fires where the route stays open: the search and
        # the bound of the never-closing ascent.  That ascent scores only
        # the frame it returns, so the count is one more per test, less one
        # where the last test already scored that frame
        res, outcomes = recorded.res, recorded.outcomes
        never_closing(monkeypatch)
        full = cm_min(recorded.rd, recorded.m)
        assert outcomes and not any(outcomes)
        assert_same_search(res, full)
        assert res.lower_bound == full.lower_bound
        (tested,) = recorded.ends_tested
        assert res.evaluations == full.evaluations + len(outcomes) - tested

    @pytest.mark.parametrize("n,m", DENSE_SHAPES)
    def test_forced_fallback_keeps_the_certified_value(self, monkeypatch, n, m):
        # a bound 1 below the route's keeps cm_min from closing on tensors
        # where it does; the descent from the route's frame keeps its value
        route = frames._lower_bound

        def lowered(riemann, m, form):
            bound, *rest = route(riemann, m, form)
            return bound - 1.0, *rest

        for i in range(2):
            rd = random_curvature_tensor(n, np.random.default_rng(n * 10 + m + 4 + 100 * i))
            certified = cm_min(rd, m)
            with monkeypatch.context() as patch:
                patch.setattr(frames, "_lower_bound", lowered)
                calls = count_calls(patch, frames, ("random_frames",))
                forced = cm_min(rd, m)
            assert certified.method == "certificate"
            assert forced.method in {"coordinate-enumeration", "projected-descent"}
            assert calls["random_frames"] == []
            assert forced.lower_bound < certified.lower_bound
            assert forced.evaluations > certified.evaluations
            scale = _unit_scale(rd)[1]
            assert abs(forced.value - certified.value) <= scale * frames.TIE_TOL
            tol = 1e-9 * max(1.0, abs(forced.value))
            assert forced.value <= sampled_search(rd, m, 2000, seed=i) + tol


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
        refined = cm_min(rd, 4)
        assert refined.value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("rd,m", KERNEL_CASES, ids=KERNEL_IDS)
    def test_pairwise_contraction_matches_one_pass_einsum(self, rd, m):
        # more than two slices, the last one partial
        qs = random_frames(rd.dim, m, 2 * ORACLE_SLICE + 37, np.random.default_rng(m))
        ref = oracle_values(rd, qs)
        assert_allclose(_oracle_values(rd, qs, m), ref, rtol=1e-12,
                        atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("rd,m", COMPLEMENT_CASES, ids=COMPLEMENT_IDS)
    def test_complement_contraction_matches_one_pass_einsum(self, rd, m):
        # (n - m)-frames of U score V = U^perp; more than two slices, the last
        # one partial; the reference scores the completed basis's last m columns
        n = rd.dim
        us = random_frames(n, n - m, 2 * ORACLE_SLICE + 37, np.random.default_rng(m))
        ref = oracle_values(rd, np.stack([complete_frame(u)[:, n - m:] for u in us]))
        assert_allclose(_oracle_values(rd, us, m), ref, rtol=1e-12,
                        atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n,m,k", [(7, 5, 2), (6, 3, 3), (8, 3, 3), (5, 5, 0)])
    def test_draws_the_smaller_of_the_plane_and_its_complement(self, monkeypatch, n, m, k):
        shapes = []
        sampler = frames.random_frames

        def recording(*args):
            drawn = sampler(*args)
            shapes.append(drawn.shape)
            return drawn

        monkeypatch.setattr(frames, "random_frames", recording)
        cm_min_oracle(random_curvature_tensor(n, np.random.default_rng(n + m)), m, seed=3)
        assert shapes == [(SAMPLE_CHUNK, n, k)] * 4 + [(3616, n, k)]
        assert 4 * SAMPLE_CHUNK + 3616 == frames.ORACLE_SAMPLES

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_full_dimension_is_half_the_scalar_curvature(self, n):
        # at m = n the oracle draws 0-column frames of U = 0, so P_V = I
        rd = random_curvature_tensor(n, np.random.default_rng(n))
        assert cm_min_oracle(rd, n, seed=1) == pytest.approx(0.5 * rd.scalar, rel=1e-12)

    def test_rejects_m_outside_one_to_n(self):
        # with the message of cm_min, not a 0.0 from empty frames at m = 0 or
        # a rank-deficiency error at m = n + 1
        rd = constant_curvature_riemann(4, 1.0)
        for m in (0, 5):
            for minimizer in (cm_min, cm_min_oracle):
                with pytest.raises(ValueError, match=rf"^require 1 <= m <= 4, got m = {m}$"):
                    minimizer(rd, m)

    def test_draws_frames_cm_min_does_not(self, monkeypatch):
        # default_rng(seed) is PCG64(seed), chunk 0 of the reference sampled
        # search; the oracle must not re-score those frames
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
