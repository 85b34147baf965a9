"""Evaluation metrics (pixel accuracy, mean IoU), the eval stage, and
grayscale heatmap rendering of probability matrices."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .confusion import border_mask
from .data import (
    LABELS,
    LabelMap,
    LabelSet,
    Manifest,
    _load_chunks,
    _read_matrix,
    publish,
    write_json,
)
from .errors import DataError

# Most pixels that render_matrix_heatmap writes into one image: a 16 384 x
# 16 384 square, 256 MiB at one byte a pixel. It is checked before the image
# is built, so a huge --block is a DataError, not an allocation.
MAX_RENDER_PIXELS = 1 << 28


@dataclass(frozen=True)
class EvalReport:
    pixel_accuracy: float
    mean_iou: float
    per_class_iou: tuple
    n_pixels_scored: int


class MetricAccumulator:
    """Per-class tallies; adds of single maps or stacks of maps may run in
    any order."""

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

    def report(self) -> EvalReport:
        if self.scored == 0:
            raise DataError("no non-void pixels to score")
        union = self.tp + self.fp + self.fn
        per_class = tuple(
            float(self.tp[c]) / union[c] if union[c] > 0 else None
            for c in range(self.labels.size)
        )
        return EvalReport(
            pixel_accuracy=self.correct / self.scored,
            mean_iou=float(np.mean([v for v in per_class if v is not None])),
            per_class_iou=per_class,
            n_pixels_scored=self.scored,
        )


def evaluate_split(manifest: Manifest, pred_dir: str | Path, out: str | Path,
                   border_radius: int | None = None) -> EvalReport:
    """The eval stage: score each evaluation image's `<id>_pred.segt` in
    pred_dir, outside the border mask of border_radius if one is given,
    publish the report JSON at out, and return it. Maps are loaded, checked
    and scored a chunk of equal-shape maps at a time."""
    labels = manifest.label_set
    records = manifest.split_records("evaluation")
    pred_dir = str(pred_dir)
    total = MetricAccumulator(labels)
    for _, (gt, pred) in _load_chunks(
            records, lambda rec: (rec.gt_path, os.path.join(pred_dir, f"{rec.image_id}_pred.segt")),
            (LABELS, LABELS), labels):
        include = None if border_radius is None else border_mask(gt, border_radius).included
        total.add(pred, gt, include=include)
        del gt, pred, include  # free the chunk before the next one loads
    report = total.report()
    out = Path(out)
    with publish(out.parent) as stage:
        write_json(asdict(report), stage(out.name))
    return report


# ---------------------------------------------------------------------------
# PGM heatmaps
# ---------------------------------------------------------------------------

def write_pgm(gray: np.ndarray, path: str | Path) -> None:
    """Binary PGM (P5), maxval 255, of a 2-d image; a value outside [0, 255],
    NaN included, is a DataError raised before anything is published."""
    arr = np.asarray(gray)
    if arr.ndim != 2:
        raise DataError(f"PGM image must be 2-d, got {arr.shape}")
    if (outside := arr[~((arr >= 0) & (arr <= 255))]).size:
        raise DataError(f"PGM value {outside[0]} lies outside [0, 255]")
    arr = arr.astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    path = Path(path)
    with publish(path.parent) as stage, open(stage(path.name), "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def render_matrix_heatmap(matrix: np.ndarray, path: str | Path, gamma: float = 0.5,
                          block: int = 1) -> None:
    """Render matrix entries in [0, 1] as grayscale cells of block x block
    pixels, intensity round-half-up of 255 * value ** gamma."""
    write_pgm(_heatmap(matrix, gamma, block), path)


def _heatmap(matrix: np.ndarray, gamma: float, block: int) -> np.ndarray:
    """The image render_matrix_heatmap writes, its arguments checked."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"heatmap input must be 2-d, got {arr.shape}")
    if not 0 < gamma < math.inf:
        raise DataError(f"gamma must be finite and positive, got {gamma}")
    if block < 1:
        raise DataError(f"block must be >= 1, got {block}")
    rows, cols = arr.shape[0] * block, arr.shape[1] * block
    if rows * cols > MAX_RENDER_PIXELS:
        raise DataError(f"block {block} renders a {rows}x{cols} image, over the "
                        f"{MAX_RENDER_PIXELS}-pixel cap")
    if (outside := arr[~((arr >= 0.0) & (arr <= 1.0))]).size:
        raise DataError(f"heatmap entry {float(outside[0])} lies outside [0, 1]")
    intensity = np.floor(255.0 * np.power(arr, gamma) + 0.5).astype(np.uint8)
    if block > 1:
        intensity = intensity.repeat(block, axis=0).repeat(block, axis=1)
    return intensity


def render_matrix_file(matrix_path: str | Path, path: str | Path, gamma: float = 0.5,
                       block: int = 1) -> tuple[int, int]:
    """The render stage: render_matrix_heatmap of a matrix file (a 2-d
    float32 SEGT file, every entry finite); an error about its entries or
    their image starts with the file's name. Returns the matrix shape."""
    arr = _read_matrix(matrix_path)
    try:
        image = _heatmap(arr, gamma, block)
    except DataError as exc:
        raise DataError(f"{matrix_path}: {exc}") from None
    write_pgm(image, path)
    return arr.shape
