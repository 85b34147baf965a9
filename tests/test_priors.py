"""Prior constructors, the refinement log-loss and gradient, and the
simplex-projected solver."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflens import (
    ConfusionModel,
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    Prior,
    ProbabilityMap,
    SampleSet,
    SolverOptions,
    binary_prior,
    global_prior,
    histogram_prior,
    load_prior_bank,
    project_to_simplex,
    refinement_loss,
    refinement_loss_gradient,
    sample_set,
    save_label_map,
    save_manifest,
    save_prior_bank,
    save_probability_map,
    solve_unconstrained_prior,
    uniform_prior,
)
from conflens import kernels, priors
from conflens.errors import DataError
from conflens.priors import PriorBank
from tests.conftest import dense_loss_grad, mixed_confusion
from tests.oracles import GRADIENT_MIN_STEP, solve_prior_sequential

EPS = 1e-10


def loss_oracle(matrix, weights, gt, probs, eps=EPS):
    """Brute-force sum of -log(max(P(gt|d), eps)) with explicit loops over
    classifier outputs, independent of the vectorized implementation."""
    n = matrix.shape[0]
    marginal = [sum(matrix[c][l] * weights[l] for l in range(n)) for c in range(n)]
    total = 0.0
    for i in range(len(gt)):
        g = gt[i]
        refined = 0.0
        for c in range(n):
            refined += matrix[c][g] * weights[g] * probs[i][c] / marginal[c]
        total += -np.log(max(refined, eps))
    return total


def dense_solve(matrix, gt, probs, opts=SolverOptions()):
    """The projected-gradient solver that the Newton solver replaced, with
    every evaluation on dense_loss_grad: halve/double backtracking from a
    step of 1/N down to GRADIENT_MIN_STEP, from the sample histogram or,
    where uniform scores strictly better, from uniform. Returns the
    weights."""
    def value(w):
        return dense_loss_grad(matrix, w, gt, probs, priors.EPSILON)[0]

    def descend(w):
        loss, grad, _ = dense_loss_grad(matrix, w, gt, probs, priors.EPSILON)
        step = 1.0 / max(gt.shape[0], 1)
        for _ in range(opts.max_iters):
            accepted = False
            while step >= GRADIENT_MIN_STEP:
                cand = simplex_reference(w - step * grad)
                cand_loss = value(cand)
                if cand_loss < loss:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            drop = loss - cand_loss
            w = cand
            loss, grad, _ = dense_loss_grad(matrix, w, gt, probs, priors.EPSILON)
            if drop < priors._LOSS_TOLERANCE:
                break
            step *= 2.0
        return w

    n = matrix.shape[0]
    hist = np.bincount(gt, minlength=n) / gt.shape[0]
    uniform = np.full(n, 1.0 / n)
    w = descend(uniform if value(uniform) < value(hist) else hist)
    return w / w.sum()


def solve_from_uniform(monkeypatch, confusion, samples, opts, reports=None):
    """solve_unconstrained_prior with priors._descend given uniform rows in
    place of the histogram: the bits of a descent started at uniform."""
    descend = priors._descend

    def from_uniform(matrix, gt, evidence, floor, start, *rest):
        uniform = np.full(start.shape, 1.0 / start.shape[1])
        return descend(matrix, gt, evidence, floor, uniform, *rest)

    with monkeypatch.context() as patched:
        patched.setattr(priors, "_descend", from_uniform)
        return solve_unconstrained_prior(confusion, samples, opts, reports)


def simplex_reference(v):
    """Sort-based simplex projection as a plain loop: the shift is the last
    (1 - sum of the k largest) / k that keeps the k-th largest positive."""
    total = shift = 0.0
    for k, x in enumerate(sorted(v, reverse=True), start=1):
        total += x
        if x + (1.0 - total) / k > 0:
            shift = (1.0 - total) / k
    return np.maximum(np.asarray(v, dtype=np.float64) + shift, 0.0)


def two_class_instance():
    matrix = np.array([[0.6, 0.4], [0.4, 0.6]])
    confusion = ConfusionModel(matrix=matrix, floor=1e-4)
    samples = SampleSet(gt=np.array([0]), probs=np.array([[0.5, 0.5]]))
    return confusion, samples


class TestClosedFormPriors:
    def test_uniform(self):
        np.testing.assert_array_equal(
            uniform_prior(LabelSet(size=4)).weights, [0.25] * 4
        )
        np.testing.assert_array_equal(
            uniform_prior(LabelSet(size=2)).weights, [0.5, 0.5]
        )
        assert uniform_prior(LabelSet(size=8)).weights.sum() == 1.0

    def test_binary(self):
        labels = LabelSet(size=5)
        gt = LabelMap(np.array([[0, 3], [3, 0]], dtype=np.int32))
        np.testing.assert_array_equal(
            binary_prior(gt, labels).weights, [0.5, 0, 0, 0.5, 0]
        )
        one = LabelMap(np.full((2, 2), 2, dtype=np.int32))
        np.testing.assert_array_equal(binary_prior(one, labels).weights,
                                      [0, 0, 1, 0, 0])
        every = LabelMap(np.arange(5, dtype=np.int32).reshape(1, 5))
        np.testing.assert_allclose(binary_prior(every, labels).weights, 0.2)

    def test_histogram(self):
        labels = LabelSet(size=2)
        gt = LabelMap(np.array([[0, 0], [1, 1]], dtype=np.int32))
        np.testing.assert_allclose(histogram_prior(gt, labels).weights, [0.5, 0.5])
        labels3 = LabelSet(size=3)
        arr = np.full((2, 5), 2, dtype=np.int32)
        arr[0, 0] = 0
        np.testing.assert_allclose(
            histogram_prior(LabelMap(arr), labels3).weights, [0.1, 0.0, 0.9]
        )

    def test_single_class_image_binary_equals_histogram(self):
        labels = LabelSet(size=3)
        gt = LabelMap(np.full((3, 3), 1, dtype=np.int32))
        np.testing.assert_array_equal(
            binary_prior(gt, labels).weights, histogram_prior(gt, labels).weights
        )

    def test_binary_histogram_same_support(self):
        rng = np.random.default_rng(21)
        labels = LabelSet(size=6, void_id=99)
        for _ in range(20):
            arr = rng.integers(0, 6, size=(7, 7)).astype(np.int32)
            arr[rng.random((7, 7)) < 0.2] = 99
            if (arr == 99).all():
                continue
            gt = LabelMap(arr)
            b = binary_prior(gt, labels)
            h = histogram_prior(gt, labels)
            np.testing.assert_array_equal(b.support, h.support)

    def test_all_void_rejected(self):
        labels = LabelSet(size=2, void_id=255)
        gt = LabelMap(np.full((2, 2), 255, dtype=np.int32))
        with pytest.raises(DataError):
            binary_prior(gt, labels)
        with pytest.raises(DataError):
            histogram_prior(gt, labels)

    def test_global_prior(self, tmp_path):
        labels = LabelSet(size=2, void_id=255)

        def record(name, values):
            arr = np.asarray(values, dtype=np.int32)
            gt_path = tmp_path / f"{name}_gt.segt"
            save_label_map(LabelMap(arr), gt_path)
            raw = np.full(arr.shape + (2,), 0.5, dtype=np.float32)
            probs_path = tmp_path / f"{name}_probs.segt"
            from conflens import ProbabilityMap

            save_probability_map(ProbabilityMap(raw), probs_path)
            return ManifestRecord(name, probs_path, gt_path, "estimation")

        manifest = Manifest(
            label_set=labels,
            records=(record("a", [[0, 0], [0, 1]]),),
        )
        np.testing.assert_allclose(global_prior(manifest).weights, [0.75, 0.25])

        manifest2 = Manifest(
            label_set=labels,
            records=(
                record("b", [[0, 0], [0, 0]]),
                record("c", [[0, 0], [0, 0]]),
            ),
        )
        np.testing.assert_allclose(global_prior(manifest2).weights, [1.0, 0.0])

        manifest3 = Manifest(
            label_set=labels,
            records=(record("d", [[255, 255], [1, 1]]),),
        )
        np.testing.assert_allclose(global_prior(manifest3).weights, [0.0, 1.0])

        all_void = Manifest(
            label_set=labels,
            records=(record("e", [[255, 255], [255, 255]]),),
        )
        with pytest.raises(DataError):
            global_prior(all_void)
        with pytest.raises(DataError):
            global_prior(manifest3, "evaluation")

    def test_constructors_give_valid_priors(self):
        rng = np.random.default_rng(33)
        labels = LabelSet(size=5)
        for _ in range(20):
            gt = LabelMap(rng.integers(0, 5, size=(6, 6)).astype(np.int32))
            for prior in (uniform_prior(labels), binary_prior(gt, labels),
                          histogram_prior(gt, labels)):
                assert (prior.weights >= 0).all()
                assert abs(prior.weights.sum() - 1.0) <= 1e-9


class TestRefinementLoss:
    def test_perfect_evidence_near_zero(self):
        n = 3
        counts = np.diag([1000] * n).astype(np.int64)
        from conflens import CountMatrix, normalize_confusion

        confusion = normalize_confusion(CountMatrix(counts))
        samples = SampleSet(
            gt=np.array([1]), probs=np.array([[0.0, 1.0, 0.0]])
        )
        loss = refinement_loss(uniform_prior(LabelSet(size=n)), confusion, samples)
        assert 0.0 <= loss < 1e-3

    def test_symmetric_two_class_hand_value(self):
        confusion, samples = two_class_instance()
        prior = Prior(np.array([0.5, 0.5]))
        got = refinement_loss(prior, confusion, samples)
        oracle = loss_oracle(confusion.matrix, prior.weights, samples.gt, samples.probs)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            matrix = rng.random((n, n)) + 0.05
            matrix /= matrix.sum(axis=0, keepdims=True)
            confusion = ConfusionModel(matrix=matrix, floor=1e-4)
            count = int(rng.integers(1, 30))
            probs = rng.random((count, n))
            probs /= probs.sum(axis=1, keepdims=True)
            samples = SampleSet(gt=rng.integers(0, n, size=count), probs=probs)
            weights = rng.dirichlet(np.ones(n))
            got = refinement_loss(weights, confusion, samples)
            want = loss_oracle(matrix, weights, samples.gt, samples.probs)
            assert got == pytest.approx(want, rel=1e-10)

    def test_clamped_sample_contributes_log_eps(self):
        confusion, _ = two_class_instance()
        samples = SampleSet(gt=np.array([1]), probs=np.array([[0.5, 0.5]]))
        prior = np.array([1.0, 0.0])  # gt class has zero prior -> clamp
        loss = refinement_loss(prior, confusion, samples)
        assert loss == pytest.approx(-np.log(1e-10), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(45)
        n = 4
        matrix = rng.random((n, n)) + 0.1
        matrix /= matrix.sum(axis=0, keepdims=True)
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        probs = rng.random((12, n))
        probs /= probs.sum(axis=1, keepdims=True)
        gt = rng.integers(0, n, size=12)
        weights = rng.dirichlet(np.ones(n))
        base = refinement_loss(weights, confusion, SampleSet(gt=gt, probs=probs))
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted_confusion = ConfusionModel(
            matrix=matrix[np.ix_(perm, perm)], floor=1e-4
        )
        permuted = refinement_loss(
            weights[perm],
            permuted_confusion,
            SampleSet(gt=inv[gt], probs=probs[:, perm]),
        )
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_empty_samples_rejected(self):
        confusion, _ = two_class_instance()
        empty = SampleSet(gt=np.zeros(0, dtype=np.int64), probs=np.zeros((0, 2)))
        with pytest.raises(DataError):
            refinement_loss(uniform_prior(LabelSet(size=2)), confusion, empty)


class TestGradient:
    def test_symmetric_instance_has_equal_components(self):
        matrix = np.array([[0.6, 0.4], [0.4, 0.6]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        samples = SampleSet(
            gt=np.array([0, 1]), probs=np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        grad = refinement_loss_gradient(np.array([0.5, 0.5]), confusion, samples)
        assert grad[0] == pytest.approx(grad[1], abs=1e-12)

    def test_single_sample_matches_finite_differences(self):
        confusion, samples = two_class_instance()
        weights = np.array([0.5, 0.5])
        grad = refinement_loss_gradient(weights, confusion, samples)
        h = 1e-6
        for l in range(2):
            up = weights.copy()
            down = weights.copy()
            up[l] += h
            down[l] -= h
            fd = (
                refinement_loss(up, confusion, samples)
                - refinement_loss(down, confusion, samples)
            ) / (2 * h)
            assert grad[l] == pytest.approx(fd, abs=1e-6)

    def test_random_instances_match_finite_differences(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            matrix = rng.random((n, n)) + 0.05
            matrix /= matrix.sum(axis=0, keepdims=True)
            confusion = ConfusionModel(matrix=matrix, floor=1e-4)
            count = int(rng.integers(2, 40))
            probs = rng.random((count, n))
            probs /= probs.sum(axis=1, keepdims=True)
            samples = SampleSet(gt=rng.integers(0, n, size=count), probs=probs)
            weights = rng.dirichlet(np.ones(n) * 5.0) * 0.9 + 0.1 / n
            weights /= weights.sum()
            grad = refinement_loss_gradient(weights, confusion, samples)
            h = 1e-6
            for l in range(n):
                up, down = weights.copy(), weights.copy()
                up[l] += h
                down[l] -= h
                fd = (
                    refinement_loss(up, confusion, samples)
                    - refinement_loss(down, confusion, samples)
                ) / (2 * h)
                rel = abs(grad[l] - fd) / max(abs(fd), 1e-8)
                assert rel <= 1e-5

    def test_is_the_loss_grad_gradient_without_its_hessian(self, monkeypatch):
        """The bits of loss_grad's gradient, with some samples clamped and
        some weights 0, from a call that never reaches loss_grad."""
        rng = np.random.default_rng(47)
        cases = []
        for _ in range(20):
            n, count = int(rng.integers(2, 9)), int(rng.integers(1, 300))
            confusion = ConfusionModel(matrix=mixed_confusion(n), floor=1e-4)
            samples = SampleSet(gt=rng.integers(0, n, size=count),
                                probs=rng.dirichlet(np.full(n, 0.2), size=count))
            weights = rng.dirichlet(np.full(n, 0.5))
            weights[rng.random(n) < 0.3] = 0.0
            weights = weights / weights.sum() if weights.sum() else np.full(n, 1.0 / n)
            evidence = kernels.sample_evidence(confusion.matrix, samples.gt, samples.probs)
            want = kernels.loss_grad(confusion.matrix, weights, samples.gt, evidence,
                                     priors.EPSILON)[0]
            cases.append((weights, confusion, samples, want))

        def no_hessian(*args):
            raise AssertionError("refinement_loss_gradient formed a Hessian")

        monkeypatch.setattr(kernels, "loss_grad", no_hessian)
        for weights, confusion, samples, want in cases:
            got = refinement_loss_gradient(weights, confusion, samples)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-15)

    def test_projection_properties(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(2, 9))) * 3
            p = project_to_simplex(v)
            assert (p >= 0).all()
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            # projection is the closest simplex point: no feasible random
            # candidate lands closer
            for _ in range(20):
                q = rng.dirichlet(np.ones(v.size))
                assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-12


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestSimplexProjectionProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(finite, min_size=2, max_size=20))
    def test_lands_on_simplex_and_is_idempotent(self, values):
        p = project_to_simplex(np.array(values))
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)
        np.testing.assert_allclose(p, simplex_reference(values), atol=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0]),
                    min_size=2, max_size=12))
    def test_ties_match_reference(self, values):
        np.testing.assert_allclose(project_to_simplex(np.array(values)),
                                   simplex_reference(values), atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(finite, st.integers(2, 20))
    def test_all_equal_input_projects_to_center(self, value, n):
        p = project_to_simplex(np.full(n, value))
        np.testing.assert_allclose(p, np.full(n, 1.0 / n), atol=1e-12)
        np.testing.assert_allclose(p, simplex_reference([value] * n), atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(finite, min_size=2, max_size=20), st.data())
    def test_dominant_entry_projects_to_vertex(self, values, data):
        k = data.draw(st.integers(0, len(values) - 1))
        v = np.array(values)
        v[k] = v.max() + 1.5 + data.draw(st.floats(0.0, 10.0))
        p = project_to_simplex(v)
        assert (np.delete(p, k) == 0).all()
        assert p[k] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(p, simplex_reference(list(v)))


class TestSolver:
    def grid_search_oracle(self, confusion, samples, steps=200):
        """Exhaustive scan of the 1-simplex; only valid for 2 classes."""
        best_w, best_loss = None, np.inf
        for t in np.linspace(0.0, 1.0, steps + 1):
            w = np.array([t, 1.0 - t])
            loss = refinement_loss(w, confusion, samples)
            if loss < best_loss:
                best_w, best_loss = w, loss
        return best_w, best_loss

    def test_single_class_samples_push_to_vertex(self):
        matrix = np.array([[0.7, 0.2], [0.3, 0.8]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        rng = np.random.default_rng(48)
        probs = rng.dirichlet(np.ones(2), size=40)
        samples = SampleSet(gt=np.zeros(40, dtype=np.int64), probs=probs)
        grid_w, grid_loss = self.grid_search_oracle(confusion, samples)
        assert grid_w[0] == pytest.approx(1.0)  # vertex is the minimizer
        solved = solve_unconstrained_prior(confusion, samples)
        assert solved.weights[0] > 0.99
        solved_loss = refinement_loss(solved, confusion, samples)
        assert solved_loss <= grid_loss + 1e-9
        hist = np.array([1.0, 0.0])
        assert solved_loss <= refinement_loss(hist, confusion, samples) + 1e-9

        def refined_gt_prob(weights):
            marginal = confusion.matrix @ weights
            return weights[0] * (probs / marginal) @ confusion.matrix[:, 0]

        per_sample_solved = refined_gt_prob(solved.weights)
        per_sample_hist = refined_gt_prob(hist)
        assert (per_sample_solved >= per_sample_hist - 1e-12).all()

    def test_symmetric_instance_recovers_center(self):
        matrix = np.array([[0.6, 0.4], [0.4, 0.6]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        samples = SampleSet(
            gt=np.array([0, 1]), probs=np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        grid_w, _ = self.grid_search_oracle(confusion, samples, steps=1000)
        np.testing.assert_allclose(grid_w, [0.5, 0.5], atol=2e-3)
        solved = solve_unconstrained_prior(confusion, samples)
        np.testing.assert_allclose(solved.weights, [0.5, 0.5], atol=1e-3)

    def test_dominates_histogram_and_uniform_on_random_instances(self):
        rng = np.random.default_rng(49)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            matrix = rng.random((n, n)) + 0.05
            matrix /= matrix.sum(axis=0, keepdims=True)
            confusion = ConfusionModel(matrix=matrix, floor=1e-4)
            count = int(rng.integers(10, 80))
            probs = rng.random((count, n))
            probs /= probs.sum(axis=1, keepdims=True)
            gt = rng.integers(0, n, size=count)
            samples = SampleSet(gt=gt, probs=probs)
            solved = solve_unconstrained_prior(confusion, samples)
            loss = refinement_loss(solved, confusion, samples)
            hist = np.bincount(gt, minlength=n) / count
            assert loss <= refinement_loss(hist, confusion, samples) + 1e-9
            uniform = np.full(n, 1.0 / n)
            assert loss <= refinement_loss(uniform, confusion, samples) + 1e-9

    def test_few_iterations_beat_histogram_and_uniform(self):
        """The one start rule, the better of the histogram and uniform
        priors, and a monotone descent: after 1 or 3 iterations the solved
        prior already beats both, on sharp instances where a descent
        started from uniform alone often ends above the histogram."""
        rng = np.random.default_rng(50)
        for max_iters in [1] * 100 + [3] * 100:
            n, count = int(rng.integers(2, 9)), int(rng.integers(5, 80))
            matrix = rng.dirichlet(np.full(n, 0.2), size=n).T + 1e-4
            matrix /= matrix.sum(axis=0, keepdims=True)
            confusion = ConfusionModel(matrix=matrix, floor=1e-4)
            gt = rng.choice(n, size=count, p=rng.dirichlet(np.full(n, 0.3)))
            samples = SampleSet(gt=gt, probs=rng.dirichlet(np.full(n, 0.2), size=count))
            opts = SolverOptions(max_iters=max_iters)
            solved = solve_unconstrained_prior(confusion, samples, opts)
            loss = refinement_loss(solved, confusion, samples)
            for start in (np.bincount(gt, minlength=n) / count, np.full(n, 1.0 / n)):
                assert loss <= refinement_loss(start, confusion, samples)

    def assert_no_worse_than_dense_solver(self, matrix, gt, probs, opts):
        """The Newton solver ends no worse than the projected-gradient
        solver it replaced, within 30 Newton iterations, as the solver
        reports them. Returns the solved weights and the solver's report."""
        want = dense_solve(matrix, gt, probs, opts)
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        samples = SampleSet(gt=gt, probs=probs)
        reports = []
        got = solve_unconstrained_prior(confusion, samples, opts, reports).weights
        assert refinement_loss(got, confusion, samples) <= refinement_loss(
            want, confusion, samples) + 1e-9
        (report,) = reports
        assert 1 <= report.iterations <= 30
        return got, report

    def test_no_worse_than_dense_solver(self):
        """Seeded instances with 2-20 labels, 5-5000 samples and labels
        absent from the samples (zero weights at the histogram init),
        against the dense O(N*L^2) projected-gradient solver. Each endpoint
        is also a KKT point: a projected-gradient step does not move it."""
        rng = np.random.default_rng(52)
        sizes = [5, 5000] + [int(x) for x in np.exp(rng.uniform(np.log(5), np.log(5000), 22))]
        for k, count in enumerate(sizes):
            n = int(rng.integers(2, 21))
            sharpness = (0.1, 0.5, 2.0)[k % 3]
            matrix = rng.dirichlet(np.full(n, sharpness), size=n).T + 1e-4
            matrix /= matrix.sum(axis=0, keepdims=True)
            present = np.flatnonzero(rng.random(n) < 0.6)
            if present.size == 0 or k % 4 == 0:
                present = np.arange(n)[: max(1, n // 3)]
            gt = rng.choice(present, size=count)
            probs = rng.dirichlet(np.full(n, sharpness), size=count)
            opts = SolverOptions(max_iters=(500, 100)[k % 2])
            got, _ = self.assert_no_worse_than_dense_solver(matrix, gt, probs, opts)
            grad = refinement_loss_gradient(
                got, ConfusionModel(matrix=matrix, floor=1e-4), SampleSet(gt=gt, probs=probs))
            residual = got - project_to_simplex(got - grad / count)
            assert np.abs(residual).max() <= 1e-6

    def test_uniform_start(self, monkeypatch):
        """A histogram that the uniform prior beats: the image starts from
        uniform, so a one-iteration solve gives the prior of a descent
        started at uniform bit for bit, no worse than the dense solver's."""
        rng = np.random.default_rng(30)
        n, count = int(rng.integers(2, 6)), int(rng.integers(5, 40))
        matrix = rng.dirichlet(np.full(n, 0.1), size=n).T + 1e-4
        matrix /= matrix.sum(axis=0, keepdims=True)
        gt = rng.choice(np.arange(n), size=count, p=rng.dirichlet(np.full(n, 0.3)))
        probs = rng.dirichlet(np.full(n, 0.05), size=count)
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        samples = SampleSet(gt=gt, probs=probs)
        hist = np.bincount(gt, minlength=n) / count
        assert refinement_loss(np.full(n, 1.0 / n), confusion, samples) < refinement_loss(
            hist, confusion, samples)
        got, report = self.assert_no_worse_than_dense_solver(
            matrix, gt, probs, SolverOptions(max_iters=1))
        uniform = solve_from_uniform(monkeypatch, confusion, samples, SolverOptions(max_iters=1))
        np.testing.assert_array_equal(got, uniform.weights)
        assert report.iterations == 1

    def test_no_newton_direction_stops_at_start(self, monkeypatch):
        """An image that has no Newton direction stops in its first
        iteration with its start's bits: the better of its sample histogram
        and uniform. No other step moves it."""
        def no_directions(w, grad, hess):
            return np.zeros_like(w), np.zeros(w.shape[0], dtype=bool)

        monkeypatch.setattr(priors, "_newton_directions", no_directions)
        rng = np.random.default_rng(55)  # the second image starts from uniform
        n = 4
        matrix = rng.dirichlet(np.full(n, 0.1), size=n).T + 1e-4
        matrix /= matrix.sum(axis=0, keepdims=True)
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        sets = [SampleSet(gt=rng.choice(n, size=count, p=rng.dirichlet(np.full(n, 0.3))),
                          probs=rng.dirichlet(np.full(n, sharpness), size=count))
                for count, sharpness in ((12, 0.05), (40, 0.5), (90, 2.0))]
        reports = []
        solved = solve_unconstrained_prior(confusion, sets, SolverOptions(), reports)
        uniform, starts = np.full(n, 1.0 / n), []
        for prior, report, samples in zip(solved, reports, sets):
            hist = np.bincount(samples.gt, minlength=n) / len(samples)
            uniform_wins = refinement_loss(uniform, confusion, samples) < refinement_loss(
                hist, confusion, samples)
            starts.append(uniform_wins)
            np.testing.assert_array_equal(prior.weights, uniform if uniform_wins else hist)
            assert report.iterations == 1
        assert any(starts) and not all(starts)

    def test_report_counts_hessians(self, monkeypatch):
        """A single image's reported Newton iterations are its Hessian
        evaluations, one loss_grad call per iteration; the reported loss is
        the returned prior's."""
        hessians = []
        loss_grad = kernels.loss_grad

        def counting(*args):
            hessians.append(1)
            return loss_grad(*args)

        monkeypatch.setattr(kernels, "loss_grad", counting)
        rng = np.random.default_rng(31)
        for opts in (SolverOptions(), SolverOptions(max_iters=1), SolverOptions(max_iters=3)):
            matrix = rng.dirichlet(np.full(5, 0.3), size=5).T + 1e-4
            matrix /= matrix.sum(axis=0, keepdims=True)
            confusion = ConfusionModel(matrix=matrix, floor=1e-4)
            samples = SampleSet(gt=rng.integers(0, 5, size=60),
                                probs=rng.dirichlet(np.full(5, 0.2), size=60))
            reports = []
            del hessians[:]
            solved = solve_unconstrained_prior(confusion, samples, opts, reports)
            assert reports[0].iterations == len(hessians)
            assert reports[0].loss == pytest.approx(
                refinement_loss(solved, confusion, samples), rel=1e-12)

    def test_solver_returns_simplex_prior(self):
        confusion, samples = two_class_instance()
        prior = solve_unconstrained_prior(confusion, samples)
        assert (prior.weights >= 0).all()
        assert prior.weights.sum() == pytest.approx(1.0, abs=1e-9)


class TestBatchedSolver:
    """Images solved together in lockstep, against the sequential oracle
    that solves one image at a time."""

    @staticmethod
    def sample_sets(rng, n):
        """Sample sets of mixed sizes: maps with void pixels, some capped
        by subsampling, a one-pixel map and a one-sample set."""
        labels = LabelSet(size=n, void_id=255)
        sets = []
        for k, (h, w, cap) in enumerate(((12, 10, None), (9, 9, 30), (1, 1, None),
                                         (20, 16, 64), (6, 5, None), (20, 20, 200))):
            present = rng.choice(n, size=min(n, 1 + k % 4), replace=False)
            gt = rng.choice(present, size=(h, w)).astype(np.int32)
            void = rng.random((h, w)) < 0.2
            void.flat[0] = False
            gt[void] = 255
            probs = rng.dirichlet(np.full(n, 0.3), size=(h, w)).astype(np.float32)
            probs /= probs.sum(axis=2, keepdims=True)
            sets.append(sample_set(LabelMap(gt), ProbabilityMap(probs), labels,
                                   max_samples=cap, rng=np.random.default_rng(k)))
        sets.append(SampleSet(gt=np.array([n - 1]), probs=rng.dirichlet(np.ones(n), size=1)))
        return sets

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20])
    @pytest.mark.parametrize("opts", [SolverOptions(), SolverOptions(max_iters=4),
                                      SolverOptions(max_iters=100)],
                             ids=["default", "max_iters=4", "max_iters=100"])
    def test_each_loss_no_worse_than_oracle(self, n, opts):
        rng = np.random.default_rng(100 + n)
        matrix = rng.dirichlet(np.full(n, 0.5), size=n).T + 1e-4
        matrix /= matrix.sum(axis=0, keepdims=True)
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        sets = self.sample_sets(rng, n)
        counts = [len(item) for item in sets]
        assert sorted(counts)[:2] == [1, 1] and {30, 64, 200} <= set(counts)
        reports = []
        solved = solve_unconstrained_prior(confusion, sets, opts, reports)
        assert len(solved) == len(reports) == len(sets)
        for prior, report, samples in zip(solved, reports, sets):
            want, _, iterations = solve_prior_sequential(matrix, samples.gt, samples.probs, opts)
            got, oracle = (refinement_loss(w, confusion, samples) for w in (prior, want))
            # a one-sample loss can be just below 0: float32 maps sum to 1 within 1e-7
            assert got <= oracle + 1e-9 * abs(oracle)
            assert 1 <= report.iterations <= opts.max_iters

    def test_uniform_start_in_group(self, monkeypatch):
        """test_uniform_start's instance, twice, in a group of other images:
        both copies start from uniform, so they get the bits of that group's
        descent started at uniform, and every image still matches the oracle. Among images
        of its own sample count, where none is padded, it gets the bits of
        the image solved alone."""
        rng = np.random.default_rng(30)
        n, count = int(rng.integers(2, 6)), int(rng.integers(5, 40))
        matrix = rng.dirichlet(np.full(n, 0.1), size=n).T + 1e-4
        matrix /= matrix.sum(axis=0, keepdims=True)
        gt = rng.choice(np.arange(n), size=count, p=rng.dirichlet(np.full(n, 0.3)))
        sets = [SampleSet(gt=gt, probs=rng.dirichlet(np.full(n, 0.05), size=count))]
        for size in (1, 3, 17, 40, 90):
            sets.append(SampleSet(gt=rng.integers(0, n, size=size),
                                  probs=rng.dirichlet(np.full(n, 0.5), size=size)))
        sets.append(sets[0])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        opts = SolverOptions(max_iters=1)
        reports, uniform_reports = [], []
        solved = solve_unconstrained_prior(confusion, sets, opts, reports)
        uniform = solve_from_uniform(monkeypatch, confusion, sets, opts, uniform_reports)
        for i in (0, -1):
            np.testing.assert_array_equal(solved[i].weights, uniform[i].weights)
            assert reports[i] == uniform_reports[i]
        for prior, report, samples in zip(solved, reports, sets):
            want, _, iterations = solve_prior_sequential(matrix, samples.gt, samples.probs, opts)
            got, oracle = (refinement_loss(w, confusion, samples) for w in (prior, want))
            assert got <= oracle + 1e-9 * abs(oracle)
            assert report.iterations == iterations == 1
        same = [sets[0]] + [SampleSet(gt=rng.integers(0, n, size=count),
                                      probs=rng.dirichlet(np.full(n, 0.5), size=count))
                            for _ in range(4)] + [sets[0]]
        reports, alone_reports = [], []
        solved = solve_unconstrained_prior(confusion, same, opts, reports)
        alone = solve_unconstrained_prior(confusion, sets[0], opts, alone_reports)
        for i in (0, -1):
            np.testing.assert_array_equal(solved[i].weights, alone.weights)
            assert reports[i] == alone_reports[0]

    @pytest.mark.parametrize("seed", range(30))
    def test_solve_does_not_depend_on_row_position(self, seed):
        """The group's images solved in another order give each image the
        same bits: a per-image array that stopped following its image's row
        would hand it another image's state. Where the images have equal
        sample counts, so none is padded, each one solved alone, and each
        half of the group, gives the whole group's bits too."""
        rng = np.random.default_rng(seed)
        n, count = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        matrix = rng.dirichlet(np.full(n, 0.5), size=n).T + 1e-4
        matrix /= matrix.sum(axis=0, keepdims=True)
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        sets = []
        for size in rng.integers(1, 300, size=count):
            sets.append(SampleSet(gt=rng.integers(0, n, size=size),
                                  probs=rng.dirichlet(np.full(n, 0.3), size=size)))
        opts = SolverOptions(max_iters=int(rng.integers(1, 60)))
        perm = rng.permutation(count)
        reports, permuted_reports = [], []
        solved = solve_unconstrained_prior(confusion, sets, opts, reports)
        permuted = solve_unconstrained_prior(confusion, [sets[i] for i in perm], opts,
                                             permuted_reports)
        for j, i in enumerate(perm):
            np.testing.assert_array_equal(permuted[j].weights, solved[i].weights)
            assert permuted_reports[j] == reports[i]
        size = int(rng.integers(1, 300))
        sets = [SampleSet(gt=rng.integers(0, n, size=size),
                          probs=rng.dirichlet(np.full(n, 0.3), size=size)) for _ in range(count)]
        reports = []
        solved = solve_unconstrained_prior(confusion, sets, opts, reports)
        half = count // 2
        for part in [slice(0, half), slice(half, count)] + [slice(i, i + 1) for i in range(count)]:
            part_reports = []
            got = solve_unconstrained_prior(confusion, sets[part], opts, part_reports)
            for prior, want in zip(got, solved[part]):
                np.testing.assert_array_equal(prior.weights, want.weights)
            assert part_reports == reports[part]

    def test_group_of_one_is_the_single_solve(self):
        confusion = ConfusionModel(matrix=mixed_confusion(4), floor=1e-4)
        rng = np.random.default_rng(7)
        samples = SampleSet(gt=rng.integers(0, 4, size=50),
                            probs=rng.dirichlet(np.ones(4), size=50))
        (batched,) = solve_unconstrained_prior(confusion, [samples])
        single = solve_unconstrained_prior(confusion, samples)
        np.testing.assert_array_equal(batched.weights, single.weights)

    def test_rejects_no_sample_sets(self):
        confusion = ConfusionModel(matrix=mixed_confusion(3), floor=1e-4)
        with pytest.raises(DataError, match="no sample sets"):
            solve_unconstrained_prior(confusion, [])

    def test_each_start_scored_once(self, monkeypatch):
        """Before its first line search, a group solve scores each start it
        can take once: the histogram and uniform."""
        scored, at_search = [], []
        loss_value = kernels.loss_value

        def counting(*args):
            scored.append(1)
            return loss_value(*args)

        def finds_nothing(*args):
            at_search.append(len(scored))

        monkeypatch.setattr(kernels, "loss_value", counting)
        monkeypatch.setattr(priors, "_first_decrease", finds_nothing)
        rng = np.random.default_rng(7)
        confusion = ConfusionModel(matrix=mixed_confusion(5), floor=1e-4)
        reports = []
        solve_unconstrained_prior(confusion, self.sample_sets(rng, 5), SolverOptions(), reports)
        assert at_search[0] == len(scored) == 2
        assert all(report.iterations == 1 for report in reports)

    def test_rejects_empty_and_mismatched_sets(self):
        confusion = ConfusionModel(matrix=mixed_confusion(3), floor=1e-4)
        good = SampleSet(gt=np.array([0, 1]), probs=np.full((2, 3), 1 / 3))
        with pytest.raises(DataError, match="empty"):
            solve_unconstrained_prior(
                confusion, [good, SampleSet(gt=np.zeros(0, np.int64), probs=np.zeros((0, 3)))])
        with pytest.raises(DataError, match="labels"):
            solve_unconstrained_prior(
                confusion, [good, SampleSet(gt=np.array([0]), probs=np.full((1, 4), 0.25))])

    def test_a_bad_set_raises_after_the_groups_before_it(self, monkeypatch):
        """Sets are checked as they are read: with one image per group, the
        two good sets before an empty one are solved and reported first."""
        monkeypatch.setattr(priors, "SOLVE_BUDGET", 1)
        confusion = ConfusionModel(matrix=mixed_confusion(3), floor=1e-4)
        good = SampleSet(gt=np.array([0, 1]), probs=np.full((2, 3), 1 / 3))
        empty = SampleSet(gt=np.zeros(0, np.int64), probs=np.zeros((0, 3)))
        reports = []
        with pytest.raises(DataError, match="empty"):
            solve_unconstrained_prior(confusion, [good, good, empty, good], SolverOptions(),
                                      reports)
        assert len(reports) == 2


    def test_stage_bank_is_the_library_solve_of_its_groups(self, tmp_path, monkeypatch):
        """The prior stage streams each image's sample_set to one library
        solve, whose groups grow where an image has more samples than the
        group's first. Its bank holds the bytes of one library call on the
        same sample_sets."""
        n, void, cap, budget, seed = 4, 255, 100, 6000, 3
        labels = LabelSet(size=n, void_id=void)
        monkeypatch.setattr(priors, "SOLVE_BUDGET", budget)
        rng = np.random.default_rng(11)
        records, maps = [], []
        # non-void pixels of each 12x10 map, at most `cap` of them sampled
        for k, kept in enumerate((120, 40, 40, 40, 30, 120, 120, 60, 7, 120)):
            gt = rng.integers(0, n, size=(12, 10)).astype(np.int32)
            gt.flat[kept:] = void
            probs = rng.dirichlet(np.full(n, 0.5), size=(12, 10)).astype(np.float32)
            probs /= probs.sum(axis=2, keepdims=True)
            maps.append((LabelMap(gt), ProbabilityMap(probs)))
            record = ManifestRecord(image_id=f"img{k}", probs_path=tmp_path / f"p{k}.segt",
                                    gt_path=tmp_path / f"g{k}.segt", split="evaluation")
            save_label_map(maps[-1][0], record.gt_path)
            save_probability_map(maps[-1][1], record.probs_path)
            records.append(record)
        confusion = ConfusionModel(matrix=mixed_confusion(n), floor=1e-4)
        opts = SolverOptions(max_iters=20, subsample=cap, seed=seed)
        bank = priors.build_prior_bank(Manifest(labels, tuple(records)), "unconstrained",
                                       tmp_path / "u.segt", confusion, opts)
        sets = [sample_set(gt, probs, labels, cap,
                           np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,))))
                for idx, (gt, probs) in enumerate(maps)]
        want = [p.weights for p in solve_unconstrained_prior(confusion, sets, opts)]
        assert len(want) == len(records)
        np.testing.assert_array_equal(bank.weights, np.stack(want))


class TestNewtonDirections:
    """priors._newton_directions drops a row whose reduced Hessian is not
    finite or has no nonzero eigenvalue: the row gets no direction, and
    every other row, in its free-set size group or another, gets the bits
    it gets alone."""

    @staticmethod
    def instance(sizes, n=6):
        """(w, grad, hess), one row per entry of sizes: row i's support, so
        its free set, is its first sizes[i] labels, since the other labels'
        gradients lie above the support's mean. Each Hessian is positive
        definite."""
        rng = np.random.default_rng(5)
        w = np.zeros((len(sizes), n))
        for row, k in zip(w, sizes):
            row[:k] = rng.dirichlet(np.ones(k))
        grad = np.where(w > 0, rng.normal(size=w.shape), 10.0)
        a = rng.normal(size=(len(sizes), n, n))
        return w, grad, a @ np.swapaxes(a, 1, 2) + np.eye(n)

    @pytest.mark.parametrize("guard", ["inf", "zero"])
    @pytest.mark.parametrize("dropped", [[1], [1, 3]], ids=["one-row", "whole-size-group"])
    def test_dropped_rows_get_no_direction(self, monkeypatch, guard, dropped):
        eigh = np.linalg.eigh

        def finite_eigh(a):
            assert np.isfinite(a).all()  # what LAPACK returns for NaN is not defined
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", finite_eigh)
        sizes = [4, 3, 5, 3, 4]
        w, grad, hess = self.instance(sizes)
        if guard == "inf":
            hess[dropped, 0, 1] = np.inf
        else:
            hess[dropped] = 0.0
        direction, found = priors._newton_directions(w, grad, hess)
        kept = [i for i in range(len(sizes)) if i not in dropped]
        assert not found[dropped].any() and found[kept].all()
        assert not direction[dropped].any()
        for i in kept:
            alone, ok = priors._newton_directions(w[i:i + 1], grad[i:i + 1], hess[i:i + 1])
            assert ok[0]
            np.testing.assert_array_equal(direction[i], alone[0])


class TestPartition:
    """priors._partition, the one routine that reorders the rows of a
    lockstep solve's per-image arrays."""

    @pytest.mark.parametrize("seed", range(20))
    def test_kept_rows_first_and_every_array_in_one_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 12))
        keep = rng.random(n) < rng.random()
        arrays = [rng.random(n), rng.integers(-9, 9, size=n), rng.random(n) < 0.5,
                  # five 48 000-byte rows fit the budget: blocks of two pairs
                  rng.random((n, 6000)),
                  # rows above the budget swap pair by pair through a copy
                  rng.random((n, 2, priors._SWAP_BUDGET // 16 + 1))]
        assert 5 * arrays[3][:1].nbytes <= priors._SWAP_BUDGET < 6 * arrays[3][:1].nbytes
        assert arrays[4][:1].nbytes > priors._SWAP_BUDGET
        before = [arr.copy() for arr in arrays]
        order = np.arange(n)
        priors._partition(keep, order, *arrays)
        k = int(np.count_nonzero(keep))
        assert sorted(order.tolist()) == list(range(n))
        assert keep[order[:k]].all() and not keep[order[k:]].any()
        for arr, old in zip(arrays, before):
            np.testing.assert_array_equal(arr, old[order])


class TestPriorBankPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        weights = rng.dirichlet(np.ones(4), size=3)
        bank = PriorBank(
            kind="histogram", ids=("a", "b", "c"), weights=weights, solver=None
        )
        path = tmp_path / "bank.segt"
        save_prior_bank(bank, path)
        back = load_prior_bank(path)
        assert back.kind == "histogram"
        assert back.ids == ("a", "b", "c")
        np.testing.assert_allclose(back.weights, weights, atol=1e-7)
        np.testing.assert_allclose(back.weights.sum(axis=1), 1.0, atol=1e-12)
        prior = back.get("b")
        np.testing.assert_allclose(prior.weights, back.weights[1])

    def test_missing_id(self, tmp_path):
        bank = PriorBank(kind="uniform", ids=("a",), weights=np.array([[0.5, 0.5]]))
        with pytest.raises(DataError):
            bank.get("zz")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            PriorBank(kind="uniform", ids=("a", "b", "a"), weights=np.full((3, 2), 0.5))

    def test_duplicate_ids_in_sidecar_rejected(self, tmp_path):
        path = tmp_path / "bank.segt"
        save_prior_bank(
            PriorBank(kind="uniform", ids=("a", "b"), weights=np.full((2, 2), 0.5)), path)
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["ids"] = ["a", "a"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataError, match="duplicate"):
            load_prior_bank(path)
