"""Evaluation metrics (pixel accuracy, mean IoU) and grayscale heatmap
rendering of probability matrices."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabelMap, LabelSet
from .errors import DataError


@dataclass(frozen=True)
class EvalReport:
    pixel_accuracy: float
    mean_iou: float
    per_class_iou: tuple
    n_pixels_scored: int

    def to_dict(self) -> dict:
        return {
            "pixel_accuracy": self.pixel_accuracy,
            "mean_iou": self.mean_iou,
            "per_class_iou": list(self.per_class_iou),
            "n_pixels_scored": self.n_pixels_scored,
        }


class MetricAccumulator:
    """Mergeable per-class tallies; per-image adds may run in any order."""

    def __init__(self, labels: LabelSet):
        self.labels = labels
        self.correct = 0
        self.scored = 0
        self.tp = np.zeros(labels.size, dtype=np.int64)
        self.fp = np.zeros(labels.size, dtype=np.int64)
        self.fn = np.zeros(labels.size, dtype=np.int64)

    def add(self, pred: LabelMap, gt: LabelMap, include: np.ndarray | None = None) -> None:
        if pred.labels.shape != gt.labels.shape:
            raise DataError(
                f"pred {pred.labels.shape} and gt {gt.labels.shape} disagree"
            )
        keep = gt.labels != self.labels.void_sentinel
        if include is not None:
            keep &= include
        g = gt.labels[keep]
        p = pred.labels[keep]
        n = self.labels.size
        # a void id passes label-map loading, but may not be scored
        if g.size and not (min(g.min(), p.min()) >= 0 and max(g.max(), p.max()) < n):
            raise DataError(f"label outside [0, {n}) at a scored pixel")
        # confusion[g, p]: pixels of true class g predicted as p
        confusion = np.bincount(g.astype(np.intp) * n + p, minlength=n * n).reshape(n, n)
        hits = confusion.diagonal()
        self.scored += g.size
        self.correct += int(hits.sum())
        self.tp += hits
        self.fp += confusion.sum(axis=0) - hits
        self.fn += confusion.sum(axis=1) - hits

    def merge(self, other: "MetricAccumulator") -> None:
        self.correct += other.correct
        self.scored += other.scored
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn

    def report(self) -> EvalReport:
        if self.scored == 0:
            raise DataError("no non-void pixels to score")
        union = self.tp + self.fp + self.fn
        per_class = tuple(
            float(self.tp[c]) / union[c] if union[c] > 0 else None
            for c in range(self.labels.size)
        )
        live = [v for v in per_class if v is not None]
        if not live:
            raise DataError("every class has zero union")
        return EvalReport(
            pixel_accuracy=self.correct / self.scored,
            mean_iou=float(np.mean(live)),
            per_class_iou=per_class,
            n_pixels_scored=self.scored,
        )


def pixel_accuracy(pred: LabelMap, gt: LabelMap, labels: LabelSet) -> float:
    """Fraction of non-void pixels predicted correctly."""
    acc = MetricAccumulator(labels)
    acc.add(pred, gt)
    if acc.scored == 0:
        raise DataError("no non-void pixels to score")
    return acc.correct / acc.scored


def mean_iou(pred: LabelMap, gt: LabelMap, labels: LabelSet) -> tuple[float, list]:
    """Mean intersection-over-union and the per-class values (None marks a
    class with zero union, excluded from the mean)."""
    acc = MetricAccumulator(labels)
    acc.add(pred, gt)
    report = acc.report()
    return report.mean_iou, list(report.per_class_iou)


def save_report(report: EvalReport, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# PGM heatmaps
# ---------------------------------------------------------------------------

def write_pgm(gray: np.ndarray, path: str | Path) -> None:
    """Binary PGM (P5), maxval 255."""
    arr = np.asarray(gray, dtype=np.uint8)
    if arr.ndim != 2:
        raise DataError(f"PGM image must be 2-d, got {arr.shape}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def render_matrix_heatmap(
    matrix: np.ndarray,
    path: str | Path,
    gamma: float = 0.5,
    block: int = 1,
) -> None:
    """Render matrix entries in [0, 1] as grayscale cells of block x block
    pixels, intensity round-half-up of 255 * value ** gamma."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"heatmap input must be 2-d, got {arr.shape}")
    if not gamma > 0:
        raise DataError(f"gamma must be positive, got {gamma}")
    if block < 1:
        raise DataError(f"block must be >= 1, got {block}")
    if not (float(arr.min()) >= 0.0 and float(arr.max()) <= 1.0):
        raise DataError("heatmap entries must lie in [0, 1], not NaN")
    intensity = np.floor(255.0 * np.power(arr, gamma) + 0.5).astype(np.uint8)
    if block > 1:
        intensity = np.kron(intensity, np.ones((block, block), dtype=np.uint8))
    write_pgm(intensity, path)
