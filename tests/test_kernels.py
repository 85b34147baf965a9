"""Every kernel against a plain-Python loop oracle (tests/oracles.py) on
small random inputs; the loss kernels and the refinement transform also
against the formulas the current kernels replaced, and the loss Hessian
against a plain-Python loop and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflens import kernels
from tests import oracles
from tests.conftest import dense_loss_grad


@st.composite
def voronoi_cases(draw):
    """(height, width, seed_r, seed_c, seed_class) for nearest_seed: map
    sizes below one tile, on and off multiples of the tile edge; seeds drawn
    at random, on integer pixels (exact ties), on tile edges (ties across
    them), outside the map, or one seed."""
    tile = kernels.SEED_TILE
    k = draw(st.integers(1, 60))
    height = draw(st.integers(1, 3 * tile + 5))
    width = draw(st.integers(1, 3 * tile + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "integer", "tile_edge", "outside"]))
    if layout == "random":
        seed_r, seed_c = rng.random(k) * height, rng.random(k) * width
    elif layout == "integer":
        seed_r = rng.integers(0, height, size=k).astype(np.float64)
        seed_c = rng.integers(0, width, size=k).astype(np.float64)
    elif layout == "tile_edge":
        offsets = np.array([-1.0, -0.5, 0.0, 0.5])
        seed_r = tile * rng.integers(0, height // tile + 2, size=k) + rng.choice(offsets, k)
        seed_c = tile * rng.integers(0, width // tile + 2, size=k) + rng.choice(offsets, k)
    else:
        seed_r = rng.uniform(-height, 2 * height, size=k)
        seed_c = rng.uniform(-width, 2 * width, size=k)
    n_dup = draw(st.integers(0, k // 2))
    seed_r[k - n_dup:], seed_c[k - n_dup:] = seed_r[:n_dup], seed_c[:n_dup]
    seed_class = rng.integers(0, 6, size=k).astype(np.int32)
    seed_class[k - n_dup:] = (seed_class[:n_dup] + 1) % 6
    return height, width, seed_r, seed_c, seed_class


class TestNearestSeedPruning:
    """The tile-pruned nearest_seed against the unpruned distance matrix."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(voronoi_cases())
    def test_matches_unpruned_formula(self, case):
        got = kernels.nearest_seed(*case)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, oracles.nearest_seed_formula(*case))

    def test_tile_rows_split_when_many_seeds_survive(self):
        """300 coincident seeds survive in every tile, more than one
        SEED_BLOCK of a whole tile holds, so the tiles are split by rows;
        the lowest of the tied indices must still win."""
        rng = np.random.default_rng(98)
        k = 300
        assert k * kernels.SEED_TILE**2 > kernels.SEED_BLOCK
        seed_r = np.full(k, 40.0)
        seed_c = np.full(k, 33.0)
        seed_r[-20:] = rng.random(20) * 70
        seed_c[-20:] = rng.random(20) * 75
        seed_class = np.arange(k, dtype=np.int32)
        got = kernels.nearest_seed(70, 75, seed_r, seed_c, seed_class)
        np.testing.assert_array_equal(
            got, oracles.nearest_seed_formula(70, 75, seed_r, seed_c, seed_class))
        assert (got == 0).any()


class TestLoopOracles:
    def test_border_excluded(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            labels = rng.integers(0, 3, size=(11, 9)).astype(np.int32)
            for radius in (0, 1, 2, 3):
                a = kernels.border_excluded(labels, radius)
                b = oracles.border_excluded_loop(labels, radius)
                np.testing.assert_array_equal(a, b)

    def test_pair_counts(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            gt = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
            gt[rng.random((10, 10)) < 0.15] = 9
            pred = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
            included = rng.random((10, 10)) < 0.8
            a = kernels.pair_counts(gt, pred, included, 4, 9)
            b = oracles.pair_counts_loop(gt, pred, included, 4, 9)
            np.testing.assert_array_equal(a, b)

    def test_apply_refinement(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            matrix = rng.random((n, n))
            matrix /= matrix.sum(axis=0, keepdims=True)
            probs = rng.random((7, 6, n)).astype(np.float32)
            a = kernels.apply_refinement(matrix, probs)
            b = oracles.apply_refinement_loop(matrix, probs)
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7)

    def test_apply_refinement_identity_exact(self):
        rng = np.random.default_rng(93)
        probs = rng.random((5, 5, 4)).astype(np.float32)
        eye = np.eye(4)
        np.testing.assert_array_equal(kernels.apply_refinement(eye, probs), probs)
        np.testing.assert_array_equal(oracles.apply_refinement_loop(eye, probs), probs)

    def test_loss_and_grad(self):
        rng = np.random.default_rng(94)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            matrix = rng.random((n, n)) + 0.05
            matrix /= matrix.sum(axis=0, keepdims=True)
            count = int(rng.integers(1, 50))
            probs = rng.random((count, n))
            probs /= probs.sum(axis=1, keepdims=True)
            gt = rng.integers(0, n, size=count)
            weights = rng.dirichlet(np.ones(n))
            evidence = kernels.sample_evidence(matrix, gt, probs)
            la = kernels.loss_value(matrix, weights, gt, evidence, 1e-10)
            lb = oracles.loss_value_loop(matrix, weights, gt, evidence, 1e-10)
            assert la == pytest.approx(lb, rel=1e-12)
            la2, ga = kernels.loss_grad(matrix, weights, gt, evidence, 1e-10)
            lb2, gb = oracles.loss_grad_loop(matrix, weights, gt, evidence, 1e-10)
            assert la2 == pytest.approx(lb2, rel=1e-12)
            np.testing.assert_allclose(ga, gb, rtol=1e-10, atol=1e-12)
            scores = np.empty(count)
            assert oracles.loss_value_loop(
                matrix, weights, gt, evidence, 1e-10, scores) == pytest.approx(la, rel=1e-12)
            lb3, gb3 = oracles.loss_grad_loop(matrix, weights, gt, evidence, 1e-10, scores)
            assert lb3 == pytest.approx(la2, rel=1e-12)
            np.testing.assert_allclose(gb3, ga, rtol=1e-10, atol=1e-12)
            scores = np.empty(count)
            assert kernels.loss_value(
                matrix, weights, gt, evidence, 1e-10, scores) == pytest.approx(lb, rel=1e-12)
            la3, ga3 = kernels.loss_grad(matrix, weights, gt, evidence, 1e-10, scores)
            assert la3 == pytest.approx(lb2, rel=1e-12)
            np.testing.assert_allclose(ga3, gb, rtol=1e-10, atol=1e-12)

    def test_nearest_seed(self):
        rng = np.random.default_rng(95)
        for _ in range(10):
            k = int(rng.integers(1, 30))
            seed_r = rng.random(k) * 16
            seed_c = rng.random(k) * 12
            seed_class = rng.integers(0, 5, size=k).astype(np.int32)
            a = kernels.nearest_seed(16, 12, seed_r, seed_c, seed_class)
            b = oracles.nearest_seed_loop(16, 12, seed_r, seed_c, seed_class)
            np.testing.assert_array_equal(a, b)

    def test_nearest_seed_exact_ties(self):
        """Integer seeds, some of them duplicates, put pixels at exactly
        equal distances from seeds of different classes; the lowest seed
        index must win in both."""
        rng = np.random.default_rng(96)
        tied = 0
        for _ in range(10):
            k = int(rng.integers(2, 30))
            seed_r = rng.integers(0, 16, size=k).astype(np.float64)
            seed_c = rng.integers(0, 12, size=k).astype(np.float64)
            seed_r[-1], seed_c[-1] = seed_r[0], seed_c[0]
            seed_class = rng.integers(0, 5, size=k).astype(np.int32)
            seed_class[-1] = (seed_class[0] + 1) % 5
            a = kernels.nearest_seed(16, 12, seed_r, seed_c, seed_class)
            b = oracles.nearest_seed_loop(16, 12, seed_r, seed_c, seed_class)
            np.testing.assert_array_equal(a, b)
            rows, cols = np.mgrid[0:16, 0:12]
            d2 = (rows[..., None] - seed_r) ** 2 + (cols[..., None] - seed_c) ** 2
            nearest = d2 == d2.min(axis=2, keepdims=True)
            lo = np.where(nearest, seed_class, 99).min(axis=2)
            hi = np.where(nearest, seed_class, -1).max(axis=2)
            tied += int((lo != hi).sum())
        assert tied > 0


    def test_nearest_seed_spans_row_blocks(self):
        """A map of many row blocks, with integer and duplicate seeds among
        random ones, against the unblocked distance formula."""
        rng = np.random.default_rng(97)
        height, width, k = 300, 200, 40
        seed_r = rng.random(k) * height
        seed_c = rng.random(k) * width
        seed_r[:10] = rng.integers(0, height, size=10)
        seed_c[:10] = rng.integers(0, width, size=10)
        seed_r[10:15], seed_c[10:15] = seed_r[:5], seed_c[:5]
        seed_class = rng.integers(0, 7, size=k).astype(np.int32)
        got = kernels.nearest_seed(height, width, seed_r, seed_c, seed_class)
        rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
        d2 = (rows[..., None] - seed_r) ** 2 + (cols[..., None] - seed_c) ** 2
        np.testing.assert_array_equal(got, seed_class[d2.argmin(axis=2)])


class TestNumpyPath:
    def test_border_excluded_radius_zero_is_border_set(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[2:, :] = 1
        out = kernels.border_excluded(labels, 0)
        expected = np.zeros((4, 4), dtype=bool)
        expected[1:3, :] = True
        np.testing.assert_array_equal(out, expected)

    def test_backend_reported(self):
        assert kernels.BACKEND == "numpy"


def loss_instances(seed, count=30, max_labels=7):
    """Random small instances; every third prior has zero entries, so
    samples of those labels hit the clamp (refined <= eps)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, max_labels + 1))
        matrix = rng.random((n, n)) + 0.05
        matrix /= matrix.sum(axis=0, keepdims=True)
        size = int(rng.integers(1, 60))
        probs = rng.dirichlet(np.ones(n), size=size)
        gt = rng.integers(0, n, size=size)
        weights = rng.dirichlet(np.ones(n))
        if k % 3 == 0:
            weights[gt[0]] = 0.0
            weights /= weights.sum()
        yield matrix, weights, gt, probs


class TestLossOracles:
    LOOPS = (oracles.loss_value_loop, oracles.loss_grad_loop)
    NUMPY = (kernels.loss_value, kernels.loss_grad)

    def test_sample_evidence_is_label_major(self):
        rng = np.random.default_rng(96)
        matrix = rng.random((4, 4))
        gt = rng.integers(0, 4, size=9)
        probs = rng.random((9, 4))
        evidence = kernels.sample_evidence(matrix, gt, probs)
        assert evidence.shape == (9, 4)
        assert evidence.T.flags.c_contiguous
        np.testing.assert_array_equal(evidence, probs * matrix[:, gt].T)

    @pytest.mark.parametrize("impl", [LOOPS, NUMPY], ids=["loop", "numpy"])
    def test_matches_dense_formula(self, impl):
        value_fn, grad_fn = impl
        clamped = 0
        for matrix, weights, gt, probs in loss_instances(97):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            want_loss, want_grad, n_clamped = dense_loss_grad(matrix, weights, gt, probs, 1e-10)
            clamped += n_clamped
            assert value_fn(matrix, weights, gt, evidence, 1e-10) == pytest.approx(
                want_loss, rel=1e-12)
            loss, grad = grad_fn(matrix, weights, gt, evidence, 1e-10)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-10)
        assert clamped > 0

    def test_loops_match_numpy_kernels(self):
        for matrix, weights, gt, probs in loss_instances(98):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            args = (matrix, weights, gt, evidence, 1e-10)
            assert oracles.loss_value_loop(*args) == pytest.approx(
                kernels.loss_value(*args), rel=1e-12)
            la, ga = oracles.loss_grad_loop(*args)
            lb, gb = kernels.loss_grad(*args)
            assert la == pytest.approx(lb, rel=1e-12)
            np.testing.assert_allclose(ga, gb, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("impl", [LOOPS, NUMPY], ids=["loop", "numpy"])
    def test_scores_from_loss_value_feed_loss_grad(self, impl):
        value_fn, grad_fn = impl
        for matrix, weights, gt, probs in loss_instances(99):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            args = (matrix, weights, gt, evidence, 1e-10)
            scores = np.full(gt.shape[0], np.nan)
            loss = value_fn(*args, scores)
            assert loss == value_fn(*args)
            assert np.isfinite(scores).all()
            reused_loss, reused_grad = grad_fn(*args, scores)
            fresh_loss, fresh_grad = grad_fn(*args)
            assert reused_loss == loss == fresh_loss
            np.testing.assert_array_equal(reused_grad, fresh_grad)

    def test_row_major_evidence_gives_same_result(self):
        for matrix, weights, gt, probs in loss_instances(100, count=10):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            dense = np.ascontiguousarray(evidence)
            a = kernels.loss_grad(matrix, weights, gt, evidence, 1e-10)
            b = kernels.loss_grad(matrix, weights, gt, dense, 1e-10)
            assert a[0] == pytest.approx(b[0], rel=1e-12)
            np.testing.assert_allclose(a[1], b[1], rtol=1e-10, atol=1e-10)


def hessian_loop(matrix, weights, gt, evidence, eps):
    """Second derivative of the loss as a plain double loop over samples
    and label pairs, term by term from the chain rule."""
    n = weights.shape[0]
    m = [sum(matrix[c, l] * weights[l] for l in range(n)) for c in range(n)]
    hess = np.zeros((n, n))
    v = [0.0] * n
    for i in range(gt.shape[0]):
        g = gt[i]
        s = sum(evidence[i, c] / m[c] for c in range(n))
        if weights[g] * s <= eps:
            continue
        hess[g, g] += 1.0 / weights[g] ** 2
        q = [sum(evidence[i, c] * matrix[c, l] / m[c] ** 2 for c in range(n)) / s
             for l in range(n)]
        for k in range(n):
            for l in range(n):
                hess[k, l] += q[k] * q[l]
        for c in range(n):
            v[c] += evidence[i, c] / (s * m[c] ** 2)
    for k in range(n):
        for l in range(n):
            hess[k, l] -= 2.0 * sum(matrix[c, k] * matrix[c, l] * v[c] / m[c] for c in range(n))
    return hess


class TestLossHessian:
    def test_matches_loop(self):
        clamped = 0
        for matrix, weights, gt, probs in loss_instances(101, max_labels=20):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            clamped += dense_loss_grad(matrix, weights, gt, probs, 1e-10)[2]
            got = kernels.loss_hessian(matrix, weights, gt, evidence, 1e-10)
            want = hessian_loop(matrix, weights, gt, evidence, 1e-10)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        assert clamped > 0

    def test_matches_finite_differences_of_gradient(self):
        """Central differences of loss_grad along each label with a positive
        weight; a zero weight cannot step down, and its column follows from
        the symmetry of H."""
        for matrix, weights, gt, probs in loss_instances(102, max_labels=20):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            hess = kernels.loss_hessian(matrix, weights, gt, evidence, 1e-10)
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.abs(hess).max())
            for j in np.flatnonzero(weights):
                h = 1e-6 * weights[j]
                step = np.zeros_like(weights)
                step[j] = h
                _, up = kernels.loss_grad(matrix, weights + step, gt, evidence, 1e-10)
                _, down = kernels.loss_grad(matrix, weights - step, gt, evidence, 1e-10)
                np.testing.assert_allclose((up - down) / (2 * h), hess[:, j], rtol=1e-5,
                                           atol=1e-7 * np.abs(hess).max())

    def test_scores_give_same_result(self):
        for matrix, weights, gt, probs in loss_instances(103, max_labels=20):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            args = (matrix, weights, gt, evidence, 1e-10)
            scores = np.empty(gt.shape[0])
            kernels.loss_value(*args, scores)
            np.testing.assert_array_equal(kernels.loss_hessian(*args, scores),
                                          kernels.loss_hessian(*args))


def whole_map_refinement(matrix, probs):
    """The unblocked transform apply_refinement replaced: one float64
    copy of the whole map, one product, one cast back."""
    h, w, n = probs.shape
    out = probs.reshape(-1, n).astype(np.float64) @ matrix.T
    return out.reshape(h, w, n).astype(np.float32)


class TestRefinementOracles:
    """H*W is below, equal to, and one block plus a ragged tail of
    kernels.PIXEL_BLOCK (4096) pixels."""

    SHAPES = [(1, 1, 2), (64, 64, 8), (70, 70, 5)]

    @staticmethod
    def instance(shape, seed):
        rng = np.random.default_rng(seed)
        n = shape[2]
        matrix = rng.random((n, n))
        matrix /= matrix.sum(axis=0, keepdims=True)
        probs = rng.dirichlet(np.ones(n), size=shape[:2]).astype(np.float32)
        return matrix, probs

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_loop(self, shape):
        matrix, probs = self.instance(shape, 110)
        got = kernels.apply_refinement(matrix, probs)
        assert got.dtype == np.float32 and got.shape == shape
        np.testing.assert_allclose(
            got, oracles.apply_refinement_loop(matrix, probs), rtol=1e-6, atol=1e-6
        )

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_byte_identical_to_whole_map_formula(self, shape):
        for seed in range(111, 114):
            matrix, probs = self.instance(shape, seed)
            got = kernels.apply_refinement(matrix, probs)
            want = whole_map_refinement(matrix, probs)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
