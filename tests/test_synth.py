"""Synthetic data generation: determinism, generative-process oracles, and
the refinement-improvement property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflens import kernels
from conflens import (
    LabelSet,
    MetricAccumulator,
    SynthSpec,
    argmax_labels,
    bayes_optimal_accuracy,
    build_refinement_matrix,
    eval_confusion_matrix,
    generate_dataset,
    histogram_prior,
    load_label_map,
    load_probability_map,
    refine_map,
    true_confusion,
    validate_probability_map,
)
from conflens.errors import DataError
from conflens.synth import _draw_hard_labels
from tests import oracles
from tests.conftest import mixed_confusion


def hash_tree(root):
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def base_spec(**overrides):
    kwargs = dict(
        n_classes=4,
        height=20,
        width=20,
        n_estimation=4,
        n_evaluation=4,
        region_scale=7.0,
        true_confusion=mixed_confusion(4),
        sharpness=3.0,
        seed=17,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


class TestSpecValidation:
    def test_rejects_nonstochastic_matrix(self):
        with pytest.raises(DataError):
            base_spec(true_confusion=np.full((4, 4), 0.3))

    def test_rejects_bad_subset_bounds(self):
        with pytest.raises(DataError):
            base_spec(min_classes_per_image=3, max_classes_per_image=2)

    def test_json_round_trip(self, tmp_path):
        spec = base_spec(min_classes_per_image=2, max_classes_per_image=3,
                         eval_confusion_drift=0.3)
        path = tmp_path / "spec.json"
        spec.save(path)
        back = SynthSpec.load(path)
        assert back.to_dict() == spec.to_dict()


class TestGeneration:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = base_spec()
        generate_dataset(spec, tmp_path / "a")
        generate_dataset(spec, tmp_path / "b")
        assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")

    def test_tiled_voronoi_fill_matches_unpruned_formula(self, tmp_path, monkeypatch):
        """A spec whose maps take many nearest_seed tiles, some of them
        partial, gives the same bytes as with the unpruned distance matrix."""
        spec = base_spec(height=160, width=130, region_scale=8.0,
                         n_estimation=2, n_evaluation=2)
        assert spec.width % kernels.SEED_TILE != 0
        generate_dataset(spec, tmp_path / "tiled")
        monkeypatch.setattr(kernels, "nearest_seed", oracles.nearest_seed_formula)
        generate_dataset(spec, tmp_path / "formula")
        assert hash_tree(tmp_path / "tiled") == hash_tree(tmp_path / "formula")

    def test_different_seeds_differ(self, tmp_path):
        generate_dataset(base_spec(seed=1), tmp_path / "a")
        generate_dataset(base_spec(seed=2), tmp_path / "b")
        assert hash_tree(tmp_path / "a") != hash_tree(tmp_path / "b")

    def test_outputs_validate(self, tmp_path):
        spec = base_spec(min_classes_per_image=2, max_classes_per_image=4)
        manifest = generate_dataset(spec, tmp_path / "d")
        assert len(manifest.records) == spec.n_images
        for rec in manifest.records:
            probs = load_probability_map(rec.probs_path, manifest.label_set)
            assert validate_probability_map(probs, 1e-6) == []
            gt = load_label_map(rec.gt_path, manifest.label_set)
            assert gt.labels.shape == (spec.height, spec.width)

    def test_argmax_equals_drawn_hard_label_distribution(self, tmp_path):
        """With identity confusion and any sharpness, the classifier argmax
        must equal ground truth everywhere."""
        spec = base_spec(true_confusion=np.eye(4), sharpness=0.5,
                         n_estimation=3, n_evaluation=0)
        manifest = generate_dataset(spec, tmp_path / "ident")
        for rec in manifest.records:
            probs = load_probability_map(rec.probs_path, manifest.label_set)
            gt = load_label_map(rec.gt_path, manifest.label_set)
            pred = argmax_labels(probs)
            np.testing.assert_array_equal(pred.labels, gt.labels)

    def test_identity_with_high_sharpness_near_perfect(self, tmp_path):
        spec = base_spec(true_confusion=np.eye(4), sharpness=100.0)
        manifest = generate_dataset(spec, tmp_path / "sharp")
        labels = manifest.label_set
        for rec in manifest.records:
            probs = load_probability_map(rec.probs_path, labels)
            gt = load_label_map(rec.gt_path, labels)
            acc = MetricAccumulator(labels)
            acc.add(argmax_labels(probs), gt)
            assert acc.report().pixel_accuracy >= 0.999

    def test_uniform_columns_give_chance_accuracy(self, tmp_path):
        n = 4
        spec = base_spec(
            true_confusion=np.full((n, n), 1.0 / n),
            height=40, width=40, n_estimation=10, n_evaluation=0, seed=23,
        )
        manifest = generate_dataset(spec, tmp_path / "uniform")
        labels = manifest.label_set
        correct = total = 0
        for rec in manifest.records:
            probs = load_probability_map(rec.probs_path, labels)
            gt = load_label_map(rec.gt_path, labels)
            pred = argmax_labels(probs)
            correct += int((pred.labels == gt.labels).sum())
            total += gt.labels.size
        p = 1.0 / n
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(correct / total - p) < 3 * sigma + 1e-9

    def test_subset_classes_all_present(self, tmp_path):
        spec = base_spec(min_classes_per_image=2, max_classes_per_image=3,
                         n_estimation=10, n_evaluation=0)
        manifest = generate_dataset(spec, tmp_path / "sub")
        for rec in manifest.records:
            gt = load_label_map(rec.gt_path, manifest.label_set)
            present = np.unique(gt.labels)
            assert 2 <= present.size <= 3

    def test_empirical_confusion_converges_to_truth(self, tmp_path):
        spec = base_spec(height=64, width=64, n_estimation=40, n_evaluation=0,
                         region_scale=20.0, seed=29)
        manifest = generate_dataset(spec, tmp_path / "conv")
        labels = manifest.label_set
        counts = np.zeros((4, 4), dtype=np.int64)
        for rec in manifest.records:
            probs = load_probability_map(rec.probs_path, labels)
            gt = load_label_map(rec.gt_path, labels)
            pred = argmax_labels(probs).labels.ravel()
            g = gt.labels.ravel()
            np.add.at(counts, (pred, g), 1)
        empirical = counts / counts.sum(axis=0, keepdims=True)
        T = np.asarray(spec.true_confusion)
        per_class = counts.sum(axis=0)
        # 4-sigma binomial envelope per cell
        bound = 4 * np.sqrt(T * (1 - T) / per_class[None, :]) + 1e-12
        assert (np.abs(empirical - T) <= bound).all()


class TestHardLabelDraw:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 20), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_bit_exact_against_gather_then_cumsum(self, n, n_px, seed):
        """Summing each column before the gather is the same sequential sum
        as gathering first: every draw matches, including uniforms placed
        exactly on a cumulative boundary."""
        rng = np.random.default_rng(seed)
        raw = rng.random((n, n)) ** 3  # uneven columns, some near-zero cells
        matrix = raw / raw.sum(axis=0, keepdims=True)
        gt_flat = rng.integers(0, n, size=n_px)
        cum = np.cumsum(matrix[:, gt_flat], axis=0)
        u = rng.random(n_px)
        on_edge = rng.random(n_px) < 0.5
        u[on_edge] = cum[rng.integers(0, n, size=n_px), np.arange(n_px)][on_edge]
        want = np.minimum((u[None, :] >= cum).sum(axis=0), n - 1).astype(np.int32)
        np.testing.assert_array_equal(_draw_hard_labels(matrix, gt_flat, u), want)


class TestDrift:
    def test_zero_drift_returns_truth(self):
        spec = base_spec()
        np.testing.assert_array_equal(
            eval_confusion_matrix(spec), np.asarray(spec.true_confusion)
        )

    def test_drifted_matrix_is_stochastic(self):
        spec = base_spec(eval_confusion_drift=0.4)
        drifted = eval_confusion_matrix(spec)
        assert (drifted >= 0).all()
        np.testing.assert_allclose(drifted.sum(axis=0), 1.0, atol=1e-12)
        assert np.abs(drifted - spec.true_confusion).max() > 0.01

    def test_even_column_without_confusions_is_kept(self):
        """An even column has no off-diagonal mass to spread its diagonal
        over, so drift leaves it as it is."""
        matrix = mixed_confusion(4)
        matrix[:, 2] = np.eye(4)[2]
        spec = base_spec(true_confusion=matrix, eval_confusion_drift=0.4)
        drifted = eval_confusion_matrix(spec)
        np.testing.assert_array_equal(drifted[:, 2], matrix[:, 2])
        assert np.abs(drifted[:, 0] - matrix[:, 0]).max() > 0.01

    def test_estimation_split_unaffected_by_drift(self, tmp_path):
        plain = base_spec(n_evaluation=0)
        drifted = base_spec(n_evaluation=0, eval_confusion_drift=0.4)
        generate_dataset(plain, tmp_path / "a")
        generate_dataset(drifted, tmp_path / "b")
        for name in ("img_0000_probs.segt", "img_0003_gt.segt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestRefinementImprovement:
    def test_true_confusion_plus_histogram_beats_base(self, tmp_path):
        spec = base_spec(
            height=32, width=32, n_estimation=0, n_evaluation=30,
            min_classes_per_image=2, max_classes_per_image=3, seed=37,
        )
        manifest = generate_dataset(spec, tmp_path / "imp")
        labels = manifest.label_set
        model = true_confusion(spec)
        base_correct = refined_correct = total = 0
        for rec in manifest.split_records("evaluation"):
            probs = load_probability_map(rec.probs_path, labels)
            gt = load_label_map(rec.gt_path, labels)
            prior = histogram_prior(gt, labels)
            R = build_refinement_matrix(model, prior)
            refined = refine_map(R, probs)
            base_correct += int((argmax_labels(probs).labels == gt.labels).sum())
            refined_correct += int((argmax_labels(refined).labels == gt.labels).sum())
            total += gt.labels.size
        base_acc = base_correct / total
        refined_acc = refined_correct / total
        assert refined_acc > base_acc
        bayes = bayes_optimal_accuracy(spec, manifest)
        assert refined_acc >= bayes - 0.02
        assert bayes >= refined_acc - 1e-9
