"""Every kernel against a plain-Python loop oracle (tests/oracles.py) on
small random inputs; the loss kernels and the refinement transform also
against the formulas the current kernels replaced, and the loss Hessian
against a plain-Python loop and finite differences."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflens import kernels
from tests import oracles
from tests.conftest import dense_loss_grad, labelbank


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

    def test_apply_refinement_zero_column(self):
        """Matrices with zero columns, as a sparse prior gives them: rows
        outside the support are zero too, and pixels whose mass lies only on
        the zero columns fall back to uniform over the support."""
        rng = np.random.default_rng(95)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            support = np.zeros(n, dtype=bool)
            support[rng.permutation(n)[:rng.integers(1, n)]] = True
            matrix = (rng.random((n, n)) + 0.05) * support[:, None] * support[None, :]
            matrix /= np.where(support, matrix.sum(axis=0), 1.0)
            probs = rng.random((7, 6, n)).astype(np.float32)
            probs[0, :3] = ~support
            a = kernels.apply_refinement(matrix, probs)
            b = oracles.apply_refinement_loop(matrix, probs)
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7)
            uniform = np.float32(1 / support.sum()) * support
            np.testing.assert_array_equal(a[0, :3], np.broadcast_to(uniform, (3, n)))
            np.testing.assert_allclose(a.sum(axis=2), 1.0, atol=1e-6)

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
            ga = kernels.loss_grad(matrix, weights, gt, evidence, 1e-10)[0]
            gb = oracles.loss_grad_loop(matrix, weights, gt, evidence, 1e-10)
            np.testing.assert_allclose(ga, gb, rtol=1e-10, atol=1e-12)

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

    def test_huge_radius_is_capped_at_the_map(self):
        """A radius past the map's extent gives the mask of one that reaches
        across it, in about the same time: the shifts beyond are empty."""
        labels = np.zeros((24, 20), dtype=np.int32)
        labels[5:9, 3:7] = 1
        start = time.perf_counter()
        got = kernels.border_excluded(labels, 10**7)
        elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(got, kernels.border_excluded(labels, max(labels.shape)))
        np.testing.assert_array_equal(got, oracles.border_excluded_loop(labels, 10**7))
        assert elapsed < 0.5, elapsed

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
    NUMPY = (kernels.loss_value, lambda *args: kernels.loss_grad(*args)[0])

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
            grad = grad_fn(matrix, weights, gt, evidence, 1e-10)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-10)
        assert clamped > 0

    def test_loops_match_numpy_kernels(self):
        for matrix, weights, gt, probs in loss_instances(98):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            args = (matrix, weights, gt, evidence, 1e-10)
            assert oracles.loss_value_loop(*args) == pytest.approx(
                kernels.loss_value(*args), rel=1e-12)
            np.testing.assert_allclose(oracles.loss_grad_loop(*args), kernels.loss_grad(*args)[0],
                                       rtol=1e-10, atol=1e-10)

    def test_row_major_evidence_gives_same_result(self):
        for matrix, weights, gt, probs in loss_instances(100, count=10):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            dense = np.ascontiguousarray(evidence)
            assert kernels.loss_value(matrix, weights, gt, evidence, 1e-10) == pytest.approx(
                kernels.loss_value(matrix, weights, gt, dense, 1e-10), rel=1e-12)
            for got, want in zip(kernels.loss_grad(matrix, weights, gt, evidence, 1e-10),
                                 kernels.loss_grad(matrix, weights, gt, dense, 1e-10)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


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
            got = kernels.loss_grad(matrix, weights, gt, evidence, 1e-10)[1]
            want = hessian_loop(matrix, weights, gt, evidence, 1e-10)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        assert clamped > 0

    def test_matches_finite_differences_of_gradient(self):
        """Central differences of loss_grad along each label with a positive
        weight; a zero weight cannot step down, and its column follows from
        the symmetry of H."""
        for matrix, weights, gt, probs in loss_instances(102, max_labels=20):
            evidence = kernels.sample_evidence(matrix, gt, probs)
            hess = kernels.loss_grad(matrix, weights, gt, evidence, 1e-10)[1]
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.abs(hess).max())
            for j in np.flatnonzero(weights):
                h = 1e-6 * weights[j]
                step = np.zeros_like(weights)
                step[j] = h
                up = kernels.loss_grad(matrix, weights + step, gt, evidence, 1e-10)[0]
                down = kernels.loss_grad(matrix, weights - step, gt, evidence, 1e-10)[0]
                np.testing.assert_allclose((up - down) / (2 * h), hess[:, j], rtol=1e-5,
                                           atol=1e-7 * np.abs(hess).max())


class TestRowInvariance:
    """Each image of a stack gets the loss, gradient and Hessian bits of the
    same image passed alone, as a stack of one, so the lockstep solver
    gives an image the same result in any group of images padded to its
    width. Images have unequal sample counts, padded with zero evidence,
    and every third prior has a zero weight, so clamped samples occur."""

    @staticmethod
    def stack(seed):
        rng = np.random.default_rng(seed)
        b, n = int(rng.integers(2, 41)), int(rng.integers(2, 21))
        counts = rng.integers(1, 300, size=b)
        matrix = rng.random((n, n)) + 0.05
        matrix /= matrix.sum(axis=0, keepdims=True)
        weights = rng.dirichlet(np.ones(n), size=b)
        weights[::3, 0] = 0.0
        weights /= weights.sum(axis=1, keepdims=True)
        width = int(counts.max())
        gt = np.zeros((b, width), dtype=np.int64)
        evidence = np.zeros((b, n, width))  # label-major, like the solver's
        for i, count in enumerate(counts):
            gt[i, :count] = rng.integers(0, n, size=count)
            probs = rng.dirichlet(np.ones(n), size=count)
            evidence[i, :, :count] = kernels.sample_evidence(matrix, gt[i, :count], probs).T
        floor = np.where(np.arange(width) < counts[:, None], 1e-10, 1.0)
        return matrix, weights, gt, np.swapaxes(evidence, 1, 2), floor

    @pytest.mark.parametrize("seed", range(12))
    def test_each_row_is_the_row_alone(self, seed):
        matrix, weights, gt, evidence, floor = self.stack(200 + seed)
        loss = kernels.loss_value(matrix, weights, gt, evidence, floor)
        grad, hess = kernels.loss_grad(matrix, weights, gt, evidence, floor)
        for i in range(len(weights)):
            one = slice(i, i + 1)
            args = (matrix, weights[one], gt[one], evidence[one], floor[one])
            np.testing.assert_array_equal(kernels.loss_value(*args), loss[one])
            grad_alone, hess_alone = kernels.loss_grad(*args)
            np.testing.assert_array_equal(grad_alone, grad[one])
            np.testing.assert_array_equal(hess_alone, hess[one])

    @pytest.mark.parametrize("seed", range(4))
    def test_each_try_is_the_try_alone(self, seed):
        """The line search's (B, K, L) tries, K priors per image."""
        matrix, weights, gt, evidence, floor = self.stack(300 + seed)
        tries = np.stack([weights, weights[::-1], np.roll(weights, 1, axis=1)], axis=1)
        loss = kernels.loss_value(matrix, tries, gt[:, None], evidence[:, None], floor[:, None])
        for i, j in np.ndindex(loss.shape):
            one = slice(i, i + 1)
            alone = kernels.loss_value(matrix, tries[i, j][None], gt[one], evidence[one],
                                       floor[one])
            np.testing.assert_array_equal(alone, loss[i, j:j + 1])


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


class TestStackedKernels:
    """Kernels on a B x H x W stack of equal-shape maps against a loop over
    its maps: the loop oracles for border exclusion, and the one-map kernels,
    bit for bit, for the per-pixel passes. H*W lies below and above
    PIXEL_BLOCK, and B is not a multiple of the maps per block."""

    # (B, H, W, L); 4096 // (9 * 11) = 41 maps per block, and 70 * 70 > 4096
    SHAPES = [(95, 9, 11, 5), (3, 70, 70, 4), (1, 1, 1, 2)]

    @staticmethod
    def instance(shape, seed):
        rng = np.random.default_rng(seed)
        b, h, w, n = shape
        matrices = rng.random((b, n, n))
        matrices /= matrices.sum(axis=1, keepdims=True)
        probs = rng.dirichlet(np.ones(n), size=(b, h, w)).astype(np.float32)
        return matrices, probs

    def test_maps_per_block(self):
        b, h, w, _ = self.SHAPES[0]
        per_block = kernels.PIXEL_BLOCK // (h * w)
        assert per_block > 1 and b % per_block
        assert self.SHAPES[1][1] * self.SHAPES[1][2] > kernels.PIXEL_BLOCK

    def test_border_excluded_matches_loop(self):
        rng = np.random.default_rng(130)
        labels = rng.integers(0, 3, size=(7, 9, 6)).astype(np.int32)
        labels[2] = 1  # a constant map next to busy ones
        for radius in (0, 1, 2, 3):
            got = kernels.border_excluded(labels, radius)
            assert got.shape == labels.shape
            for image, want in zip(got, labels):
                np.testing.assert_array_equal(image, oracles.border_excluded_loop(want, radius))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_apply_refinement_matches_per_map_loop(self, shape):
        matrices, probs = self.instance(shape, 131)
        got = kernels.apply_refinement(matrices, probs)
        assert got.dtype == np.float32 and got.shape == probs.shape
        for image, matrix, values in zip(got, matrices, probs):
            want = kernels.apply_refinement(matrix, values)
            np.testing.assert_array_equal(image.view(np.uint32), want.view(np.uint32))
        if shape[1] * shape[2] < 100:
            np.testing.assert_allclose(
                got[-1], oracles.apply_refinement_loop(matrices[-1], probs[-1]), rtol=1e-6,
                atol=1e-7)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_labelbank_mask_matches_per_map_loop(self, shape):
        matrices, probs = self.instance(shape, 132)
        b, _, _, n = shape
        rng = np.random.default_rng(133)
        present = [sorted(set(rng.integers(0, n, size=rng.integers(1, n + 1)).tolist()))
                   for _ in range(b)]
        # pixels with no mass on their map's present set take the fallback
        for i, classes in enumerate(present):
            probs[i, 0, 0] = 0.0
            probs[i, 0, 0, [c for c in range(n) if c not in classes][:1] or [0]] = 1.0
        got = labelbank(probs, present)
        for image, classes, values in zip(got, present, probs):
            want = labelbank(values, classes)
            np.testing.assert_array_equal(image.view(np.uint32), want.view(np.uint32))

    def test_one_map_signatures(self):
        """The calls perfbench and benchmarks/bench_kernels.py make: an L x L
        matrix on an H x W x L map and an H x W label map, returning arrays of
        the map's own shape that own their data."""
        rng = np.random.default_rng(134)
        matrix, probs = self.instance((1, 70, 70, 6), 135)
        matrix, probs = matrix[0], probs[0]
        refined = kernels.apply_refinement(matrix, probs)
        assert refined.shape == probs.shape and refined.flags.owndata
        np.testing.assert_array_equal(refined.view(np.uint32),
                                      whole_map_refinement(matrix, probs).view(np.uint32))
        labels = rng.integers(0, 3, size=(12, 10)).astype(np.int32)
        border = kernels.border_excluded(labels, 2)
        assert border.shape == labels.shape and border.dtype == bool
        np.testing.assert_array_equal(border, oracles.border_excluded_loop(labels, 2))
