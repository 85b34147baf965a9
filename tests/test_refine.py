"""Refinement matrix construction, per-pixel application, argmax, and the
LabelBank masking baseline, which is refinement by the identity confusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflens import (
    ConfusionModel,
    CountMatrix,
    LabelSet,
    Prior,
    ProbabilityMap,
    argmax_labels,
    build_refinement_matrix,
    identity_confusion,
    normalize_confusion,
    output_marginal,
    refine_map,
    uniform_prior,
    validate_probability_map,
)
from conflens import kernels
from conflens.errors import DataError
from conflens.data import SUM_TOL
from conflens.refine import RefinementMatrix
from tests.conftest import labelbank


def refinement_oracle(matrix, weights, pixel):
    """Direct double-loop evaluation of the refined distribution, written
    against the Bayes-inversion definition rather than the matrix path."""
    n = matrix.shape[0]
    marginal = [sum(matrix[c][k] * weights[k] for k in range(n)) for c in range(n)]
    out = np.zeros(n)
    for l in range(n):
        for c in range(n):
            if marginal[c] > 0:
                out[l] += matrix[c][l] * weights[l] * pixel[c] / marginal[c]
    return out


def whole_map_labelbank(values, present):
    """The unblocked mask that labelbank's blocked transform replaced: every
    expression over one float64 copy of the whole map."""
    keep = np.zeros(values.shape[2], dtype=bool)
    keep[list(present)] = True
    vals = values.astype(np.float64) * keep
    sums = vals.sum(axis=2, keepdims=True)
    degenerate = sums <= 0.0
    fallback = keep.astype(np.float64) / len(present)
    out = np.where(degenerate, fallback, vals / np.where(degenerate, 1.0, sums))
    return out.astype(np.float32)


def random_confusion(rng, n):
    raw = rng.random((n, n)) + 0.05
    return ConfusionModel(matrix=raw / raw.sum(axis=0, keepdims=True), floor=1e-4)


def random_map(rng, h, w, n):
    raw = rng.random((h, w, n))
    raw /= raw.sum(axis=2, keepdims=True)
    return ProbabilityMap(raw.astype(np.float32))


class TestOutputMarginal:
    def test_identity_returns_prior(self):
        labels = LabelSet(size=3)
        prior = Prior(np.array([0.2, 0.3, 0.5]))
        marg = output_marginal(identity_confusion(labels), prior)
        np.testing.assert_allclose(marg, prior.weights, atol=1e-15)

    def test_two_class_weighted_sum(self):
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        marg = output_marginal(confusion, np.array([0.5, 0.5]))
        expected = [0.5 * 0.9 + 0.5 * 0.2, 0.5 * 0.1 + 0.5 * 0.8]
        np.testing.assert_allclose(marg, expected, atol=1e-15)
        np.testing.assert_allclose(marg, [0.55, 0.45], atol=1e-12)

    def test_doubly_stochastic_preserves_uniform(self):
        matrix = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        marg = output_marginal(confusion, uniform_prior(LabelSet(size=3)))
        np.testing.assert_allclose(marg, 1.0 / 3.0, atol=1e-12)

    def test_strictly_positive_and_sums_to_one(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            confusion = random_confusion(rng, n)
            prior = rng.dirichlet(np.ones(n) * 0.5)
            marg = output_marginal(confusion, prior)
            assert (marg > 0).all()
            assert marg.sum() == pytest.approx(1.0, abs=1e-9)


class TestBuildRefinementMatrix:
    def test_identity_confusion_gives_identity(self):
        labels = LabelSet(size=4)
        prior = Prior(np.array([0.1, 0.2, 0.3, 0.4]))
        R = build_refinement_matrix(identity_confusion(labels), prior)
        np.testing.assert_allclose(R.matrix, np.eye(4), atol=1e-15)

    def test_two_class_hand_example(self):
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        prior = np.array([0.5, 0.5])
        R = build_refinement_matrix(confusion, prior)
        oracle = np.array(
            [refinement_oracle(matrix, prior, np.eye(2)[c]) for c in range(2)]
        ).T  # columns = one-hot classifier outputs
        np.testing.assert_allclose(R.matrix, oracle, atol=1e-12)
        expected = np.array([[0.45 / 0.55, 0.05 / 0.45], [0.10 / 0.55, 0.40 / 0.45]])
        np.testing.assert_allclose(R.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(
            R.matrix, [[0.81818, 0.11111], [0.18182, 0.88889]], atol=1e-5
        )

    def test_vertex_prior_rows(self):
        rng = np.random.default_rng(61)
        confusion = random_confusion(rng, 2)
        R = build_refinement_matrix(confusion, np.array([1.0, 0.0]))
        np.testing.assert_allclose(R.matrix[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(R.matrix[1], 0.0, atol=0)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            confusion = random_confusion(rng, n)
            prior = rng.dirichlet(np.ones(n) * 0.7)
            R = build_refinement_matrix(confusion, prior)
            np.testing.assert_allclose(R.matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_zero_prior_rows_are_zero(self):
        rng = np.random.default_rng(63)
        confusion = random_confusion(rng, 4)
        prior = np.array([0.5, 0.0, 0.5, 0.0])
        R = build_refinement_matrix(confusion, prior)
        np.testing.assert_array_equal(R.matrix[1], 0.0)
        np.testing.assert_array_equal(R.matrix[3], 0.0)
        assert (R.matrix[0] > 0).all()

    def test_zero_marginal_columns_are_zeroed(self):
        # identity confusion + binary prior: absent classes never appear as
        # classifier output under the model, so their columns carry no mass
        labels = LabelSet(size=3)
        prior = np.array([0.5, 0.0, 0.5])
        R = build_refinement_matrix(identity_confusion(labels), prior)
        np.testing.assert_array_equal(R.matrix[:, 1], 0.0)
        assert R.marginal[1] == 0.0


class TestRefinementMatrixProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 20),
        st.floats(np.log(1e-8), np.log(1e-2)),
        st.floats(0.05, 0.6),
    )
    def test_floored_models_stay_column_stochastic(self, seed, n, log_floor, density):
        """Sparse counts, floored and normalized, with a prior that has zero
        entries: R is non-negative and every live column sums to 1."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 10**6, size=(n, n)) * (rng.random((n, n)) < density)
        confusion = normalize_confusion(CountMatrix(counts), floor=float(np.exp(log_floor)))
        weights = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
        weights[rng.integers(n)] += 0.5
        R = build_refinement_matrix(confusion, Prior(weights / weights.sum()))
        assert (R.matrix >= 0).all()
        # a floored model is strictly positive, so every column is live
        assert (R.marginal > 0).all()
        np.testing.assert_allclose(R.matrix.sum(axis=0), 1.0, rtol=0, atol=SUM_TOL)


class TestRefineMap:
    def test_identity_matrix_is_identity(self):
        rng = np.random.default_rng(64)
        labels = LabelSet(size=5)
        probs = random_map(rng, 6, 7, 5)
        R = build_refinement_matrix(
            identity_confusion(labels), uniform_prior(labels)
        )
        out = refine_map(R, probs)
        np.testing.assert_array_equal(out.values, probs.values)

    def test_two_class_pixel_matches_oracle(self):
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        confusion = ConfusionModel(matrix=matrix, floor=1e-4)
        prior = np.array([0.5, 0.5])
        R = build_refinement_matrix(confusion, prior)
        pixel = np.array([0.6, 0.4])
        probs = ProbabilityMap(pixel.reshape(1, 1, 2).astype(np.float32))
        out = refine_map(R, probs)
        oracle = refinement_oracle(matrix, prior, probs.values[0, 0].astype(np.float64))
        np.testing.assert_allclose(out.values[0, 0], oracle, atol=1e-6)
        np.testing.assert_allclose(out.values[0, 0], [0.53535, 0.46465], atol=1e-5)

    def test_zero_row_zeroes_channel(self):
        rng = np.random.default_rng(65)
        confusion = random_confusion(rng, 3)
        R = build_refinement_matrix(confusion, np.array([0.6, 0.0, 0.4]))
        probs = random_map(rng, 4, 4, 3)
        out = refine_map(R, probs)
        np.testing.assert_array_equal(out.values[..., 1], 0.0)

    def test_simplex_preservation(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            confusion = random_confusion(rng, n)
            prior = rng.dirichlet(np.ones(n) * 0.8) + 1e-3
            prior /= prior.sum()
            R = build_refinement_matrix(confusion, prior)
            out = refine_map(R, random_map(rng, 8, 8, n))
            assert validate_probability_map(out, 1e-6) == []

    def test_small_instance_double_loop_oracle(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 4):
            confusion = random_confusion(rng, n)
            prior = rng.dirichlet(np.ones(n))
            R = build_refinement_matrix(confusion, prior)
            pixels = rng.random((50, n))
            pixels /= pixels.sum(axis=1, keepdims=True)
            for pixel in pixels:
                direct = refinement_oracle(confusion.matrix, prior, pixel)
                via_matrix = R.matrix @ pixel
                np.testing.assert_allclose(via_matrix, direct, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(68)
        n = 5
        confusion = random_confusion(rng, n)
        prior = rng.dirichlet(np.ones(n))
        probs = random_map(rng, 6, 6, n)
        base = refine_map(build_refinement_matrix(confusion, prior), probs)
        perm = rng.permutation(n)
        permuted_confusion = ConfusionModel(
            matrix=confusion.matrix[np.ix_(perm, perm)], floor=1e-4
        )
        permuted_probs = ProbabilityMap(probs.values[:, :, perm])
        permuted_out = refine_map(
            build_refinement_matrix(permuted_confusion, prior[perm]), permuted_probs
        )
        np.testing.assert_allclose(
            permuted_out.values, base.values[:, :, perm], atol=1e-6
        )

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(69)
        R = build_refinement_matrix(random_confusion(rng, 3),
                                    np.array([0.3, 0.3, 0.4]))
        with pytest.raises(DataError):
            refine_map(R, random_map(rng, 2, 2, 4))


class TestArgmaxLabels:
    def test_unique_max(self):
        probs = ProbabilityMap(np.array([[[0.1, 0.7, 0.2]]], dtype=np.float32))
        assert argmax_labels(probs).labels[0, 0] == 1

    def test_tie_breaks_low(self):
        probs = ProbabilityMap(np.array([[[0.5, 0.5]]], dtype=np.float32))
        assert argmax_labels(probs).labels[0, 0] == 0

    def test_one_hot_recovery(self):
        rng = np.random.default_rng(70)
        idx = rng.integers(0, 4, size=(5, 5))
        values = np.eye(4, dtype=np.float32)[idx]
        out = argmax_labels(ProbabilityMap(values))
        np.testing.assert_array_equal(out.labels, idx)


class TestLabelBank:
    """labelbank: refine_map by the identity confusion and a binary prior."""

    def test_full_set_is_identity(self):
        """No column of R is zero, so the map comes back unchanged."""
        rng = np.random.default_rng(71)
        probs = random_map(rng, 4, 4, 3)
        out = labelbank(probs.values, {0, 1, 2})
        np.testing.assert_array_equal(out.view(np.uint32), probs.values.view(np.uint32))

    def test_mask_and_renormalize(self):
        values = np.array([[[0.2, 0.5, 0.3]]], dtype=np.float32)
        out = labelbank(values, {0, 2})
        np.testing.assert_allclose(out[0, 0], [0.4, 0.0, 0.6], atol=1e-7)

    def test_degenerate_pixel_goes_uniform_over_present(self):
        values = np.array([[[1.0, 0.0, 0.0]]], dtype=np.float32)
        out = labelbank(values, {1})
        np.testing.assert_array_equal(out[0, 0], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("shape", [(1, 1, 2), (64, 64, 8), (70, 70, 5)], ids=str)
    def test_byte_identical_to_whole_map_formula(self, shape):
        """H*W below, equal to, and one block plus a ragged tail of
        PIXEL_BLOCK; pixels whose mass lies wholly on class 1, outside the
        present set, sit on both sides of the first block boundary."""
        rng = np.random.default_rng(74)
        n = shape[2]
        present = (0, n - 1) if n > 2 else (0,)
        values = random_map(rng, *shape).values.copy()
        flat = values.reshape(-1, n)
        edge = kernels.PIXEL_BLOCK
        placed = sorted({p for p in (0, edge - 2, edge - 1, edge, edge + 1, flat.shape[0] - 1)
                         if p < flat.shape[0]})
        flat[placed] = 0.0
        flat[placed, 1] = 1.0
        got = labelbank(values, present)
        want = whole_map_labelbank(values, present)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        degenerate = values[..., list(present)].sum(axis=2) == 0
        np.testing.assert_array_equal(np.flatnonzero(degenerate), placed)
        np.testing.assert_array_equal(got[degenerate][:, list(present)], 1.0 / len(present))

    def test_empty_present_rejected(self):
        """An all-zero prior leaves R no live column."""
        values = np.array([[[0.5, 0.5]]], dtype=np.float32)
        with pytest.raises(DataError, match="no live column"):
            labelbank(values, set())

    def test_equivalence_with_identity_confusion_binary_prior(self):
        """Refinement with identity confusion and a binary prior is the
        whole-map mask and rescale, bit for bit, degenerate pixels
        included."""
        rng = np.random.default_rng(72)
        labels = LabelSet(size=5)
        for _ in range(10):
            probs = random_map(rng, 8, 8, 5)
            present = sorted(
                rng.choice(5, size=int(rng.integers(2, 5)), replace=False)
            )
            values = probs.values.copy()
            values[0, :2] = 0.0
            values[0, :2, [c for c in range(5) if c not in present][0]] = 1.0
            weights = np.zeros(5)
            weights[present] = 1.0 / len(present)
            R = build_refinement_matrix(identity_confusion(labels), weights)
            refined = refine_map(R, ProbabilityMap(values)).values
            want = whole_map_labelbank(values, present)
            np.testing.assert_array_equal(refined.view(np.uint32), want.view(np.uint32))
            np.testing.assert_array_equal(argmax_labels(ProbabilityMap(refined)).labels[0, :2],
                                          present[0])

    def test_zero_column_maps_rescale_inside_a_shared_block(self):
        """Seven 24 x 24 maps fill one pixel block, and their matrices
        alternate between the identity confusion's with a sparse prior (a
        zero column) and a dense confusion's with a full prior (none). The
        dense maps keep the plain product's bits; the sparse ones equal
        whole_map_labelbank, degenerate pixels included."""
        rng = np.random.default_rng(75)
        n, count = 5, 7
        assert kernels.PIXEL_BLOCK // (24 * 24) == count
        labels = LabelSet(size=n)
        values = np.stack([random_map(rng, 24, 24, n).values for _ in range(count)])
        matrices, marginals, present = [], [], {}
        for i in range(count):
            if i % 2:
                R = build_refinement_matrix(random_confusion(rng, n), rng.dirichlet(np.ones(n)))
            else:
                present[i] = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
                outside = [c for c in range(n) if c not in present[i]][0]
                values[i, i, :3] = 0.0
                values[i, i, :3, outside] = 1.0
                weights = np.zeros(n)
                weights[present[i]] = 1.0 / len(present[i])
                R = build_refinement_matrix(identity_confusion(labels), weights)
            matrices.append(R.matrix)
            marginals.append(R.marginal)
        stacked = RefinementMatrix(matrix=np.stack(matrices), marginal=np.stack(marginals))
        got = refine_map(stacked, ProbabilityMap(values)).values
        for i, matrix in enumerate(matrices):
            if i in present:
                want = whole_map_labelbank(values[i], present[i])
                assert (matrix.sum(axis=0) == 0).any()
            else:
                want = (values[i].reshape(-1, n).astype(np.float64) @ matrix.T)
                want = want.reshape(values[i].shape).astype(np.float32)
                assert (matrix.sum(axis=0) > 0).all()
            np.testing.assert_array_equal(got[i].view(np.uint32), want.view(np.uint32))
        for i, classes in present.items():
            np.testing.assert_array_equal(got[i, i, :3][:, classes], 1.0 / len(classes))
            assert (argmax_labels(ProbabilityMap(got[i])).labels[i, :3] == classes[0]).all()

    def test_out_of_context_annihilation(self):
        rng = np.random.default_rng(73)
        n = 6
        raw = rng.random((n, n)) + 0.05
        confusion = ConfusionModel(matrix=raw / raw.sum(axis=0, keepdims=True),
                                   floor=1e-4)
        weights = np.array([0.4, 0.0, 0.3, 0.0, 0.3, 0.0])
        R = build_refinement_matrix(confusion, weights)
        probs = random_map(rng, 5, 5, n)
        out = refine_map(R, probs)
        for absent in (1, 3, 5):
            np.testing.assert_array_equal(out.values[..., absent], 0.0)
