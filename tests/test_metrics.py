"""Pixel accuracy, mean IoU, and PGM heatmap rendering."""

import numpy as np
import pytest

from conflens import (
    LabelMap,
    LabelSet,
    MetricAccumulator,
    PixelMask,
    accumulate_counts,
    render_matrix_heatmap,
)
from conflens.errors import DataError


def lm(values):
    return LabelMap(np.asarray(values, dtype=np.int32))


def score(pred, gt, labels):
    acc = MetricAccumulator(labels)
    acc.add(pred, gt)
    return acc.report()


class TestPixelAccuracy:
    def test_perfect(self):
        gt = lm([[0, 1], [1, 0]])
        assert score(gt, gt, LabelSet(size=2)).pixel_accuracy == 1.0

    def test_total_disagreement(self):
        gt = lm([[0, 0], [0, 0]])
        pred = lm([[1, 1], [1, 1]])
        assert score(pred, gt, LabelSet(size=2)).pixel_accuracy == 0.0

    def test_void_pixels_not_scored(self):
        labels = LabelSet(size=2, void_id=9)
        gt = lm([[0, 0], [0, 9]])
        pred = lm([[0, 0], [0, 1]])  # only mistake sits on a void pixel
        assert score(pred, gt, labels).pixel_accuracy == 1.0

    def test_all_void_rejected(self):
        labels = LabelSet(size=2, void_id=9)
        gt = lm([[9, 9]])
        with pytest.raises(DataError):
            score(lm([[0, 0]]), gt, labels)

    def test_matches_confusion_trace_mass(self):
        rng = np.random.default_rng(80)
        labels = LabelSet(size=4)
        for _ in range(10):
            gt = lm(rng.integers(0, 4, size=(9, 9)))
            pred = lm(rng.integers(0, 4, size=(9, 9)))
            counts = accumulate_counts(
                gt, pred, PixelMask(np.ones((9, 9), dtype=bool)), labels
            )
            trace_mass = np.trace(counts.counts) / counts.total
            assert score(pred, gt, labels).pixel_accuracy == pytest.approx(trace_mass)


class TestMeanIoU:
    def test_perfect(self):
        gt = lm([[0, 1], [2, 0]])
        report = score(gt, gt, LabelSet(size=3))
        miou, per_class = report.mean_iou, list(report.per_class_iou)
        assert miou == 1.0
        assert per_class == [1.0, 1.0, 1.0]

    def test_hand_counted_example(self):
        gt = lm([[0, 0, 1, 1]])
        pred = lm([[0, 1, 1, 1]])
        report = score(pred, gt, LabelSet(size=2))
        miou, per_class = report.mean_iou, list(report.per_class_iou)
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(2.0 / 3.0)
        assert miou == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_zero_union_class_excluded(self):
        gt = lm([[0, 0], [1, 1]])
        pred = lm([[0, 0], [1, 1]])
        report = score(pred, gt, LabelSet(size=3))
        miou, per_class = report.mean_iou, list(report.per_class_iou)
        assert per_class[2] is None
        assert miou == 1.0

    def test_mean_matches_live_classes(self):
        rng = np.random.default_rng(81)
        labels = LabelSet(size=5)
        for _ in range(10):
            gt = lm(rng.integers(0, 4, size=(8, 8)))
            pred = lm(rng.integers(0, 4, size=(8, 8)))
            report = score(pred, gt, labels)
            miou, per_class = report.mean_iou, list(report.per_class_iou)
            live = [v for v in per_class if v is not None]
            assert miou == pytest.approx(float(np.mean(live)), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(82)
        labels = LabelSet(size=4)
        gt = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
        pred = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
        base_acc = score(lm(pred), lm(gt), labels).pixel_accuracy
        base_miou = score(lm(pred), lm(gt), labels).mean_iou
        perm = rng.permutation(4)
        acc = score(lm(perm[pred]), lm(perm[gt]), labels).pixel_accuracy
        miou = score(lm(perm[pred]), lm(perm[gt]), labels).mean_iou
        assert acc == pytest.approx(base_acc)
        assert miou == pytest.approx(base_miou)


def three_bincount_tallies(pred, gt, labels, include=None):
    """The per-class tallies as separate bincounts over hits and misses:
    the formula the single confusion bincount replaced."""
    keep = gt.labels != labels.void_sentinel
    if include is not None:
        keep &= include
    g, p = gt.labels[keep], pred.labels[keep]
    hit = p == g
    n = labels.size
    return (g.size, int(hit.sum()), np.bincount(g[hit], minlength=n),
            np.bincount(p[~hit], minlength=n), np.bincount(g[~hit], minlength=n))


class TestAccumulatorTallies:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_three_bincount_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        void = int(rng.choice([n, 255]))
        labels = LabelSet(size=n, void_id=void)
        shape = tuple(int(d) for d in rng.integers(1, 40, size=2))
        gt_raw = rng.integers(0, n, size=shape)
        gt_raw[rng.random(shape) < 0.2] = void
        gt = lm(gt_raw)
        # predictions agree more often than chance, as a classifier's do
        pred = lm(np.where(rng.random(shape) < 0.5, gt_raw % n, rng.integers(0, n, size=shape)))
        for include in (None, rng.random(shape) < 0.7):
            acc = MetricAccumulator(labels)
            acc.add(pred, gt, include=include)
            scored, correct, tp, fp, fn = three_bincount_tallies(pred, gt, labels, include)
            assert (acc.scored, acc.correct) == (scored, correct)
            np.testing.assert_array_equal(acc.tp, tp)
            np.testing.assert_array_equal(acc.fp, fp)
            np.testing.assert_array_equal(acc.fn, fn)

    def test_rejects_prediction_outside_label_set_at_scored_pixel(self):
        labels = LabelSet(size=2, void_id=255)
        acc = MetricAccumulator(labels)
        with pytest.raises(DataError):
            acc.add(lm([[255, 1]]), lm([[0, 1]]))
        # the same label at a pixel that is not scored counts for nothing
        acc.add(lm([[255, 1]]), lm([[0, 1]]), include=np.array([[False, True]]))
        assert (acc.scored, acc.correct) == (1, 1)


class TestHeatmap:
    def read_pgm(self, path):
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n")
        header, rest = raw.split(b"\n255\n", 1)
        dims = header.split(b"\n")[1].split()
        width, height = int(dims[0]), int(dims[1])
        return np.frombuffer(rest, dtype=np.uint8).reshape(height, width)

    def test_identity_matrix_diagonal(self, tmp_path):
        path = tmp_path / "ident.pgm"
        render_matrix_heatmap(np.eye(3), path, gamma=1.0, block=1)
        img = self.read_pgm(path)
        np.testing.assert_array_equal(img, np.eye(3, dtype=np.uint8) * 255)

    def test_half_intensity_rounds_up(self, tmp_path):
        path = tmp_path / "half.pgm"
        render_matrix_heatmap(np.full((2, 2), 0.5), path, gamma=1.0, block=1)
        img = self.read_pgm(path)
        np.testing.assert_array_equal(img, 128)

    def test_gamma_half(self, tmp_path):
        path = tmp_path / "g.pgm"
        render_matrix_heatmap(np.array([[0.25]]), path, gamma=0.5, block=1)
        img = self.read_pgm(path)
        assert img[0, 0] == 128

    def test_block_expansion(self, tmp_path):
        path = tmp_path / "b.pgm"
        render_matrix_heatmap(np.eye(2), path, gamma=1.0, block=3)
        img = self.read_pgm(path)
        assert img.shape == (6, 6)
        np.testing.assert_array_equal(img[:3, :3], 255)
        np.testing.assert_array_equal(img[:3, 3:], 0)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_block_expansion_matches_kron(self, tmp_path, block):
        """Each cell is a block x block square of its intensity, as the
        Kronecker product with a ones block gives it."""
        matrix = np.random.default_rng(85).random((4, 3))
        path = tmp_path / "k.pgm"
        render_matrix_heatmap(matrix, path, gamma=0.5, block=block)
        intensity = np.floor(255.0 * np.power(matrix, 0.5) + 0.5).astype(np.uint8)
        np.testing.assert_array_equal(self.read_pgm(path),
                                      np.kron(intensity, np.ones((block, block), np.uint8)))

    def test_byte_determinism(self, tmp_path):
        rng = np.random.default_rng(84)
        matrix = rng.random((5, 5))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        render_matrix_heatmap(matrix, p1, gamma=0.5, block=4)
        render_matrix_heatmap(matrix, p2, gamma=0.5, block=4)
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(DataError):
            render_matrix_heatmap(np.array([[1.5]]), tmp_path / "x.pgm")
