"""Estimation of the classifier/truth confusion matrix P(C=c | l) from
annotated data: border exclusion, count accumulation, floored normalization."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .data import (
    LABELS,
    PROBS,
    LabelMap,
    LabelSet,
    Manifest,
    SUM_TOL,
    _bad_labels,
    _frozen_array,
    _is_json_number,
    _load_chunks,
    load_with_sidecar,
    store_with_sidecar,
)
from .errors import DataError
from .refine import argmax_labels

DEFAULT_FLOOR = 1e-4
DEFAULT_RADIUS = 2


@dataclass(frozen=True)
class PixelMask:
    """Boolean participation mask; True = pixel feeds the statistics. H x W,
    or B x H x W for a stack of maps."""

    included: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.included, bool)
        if arr.ndim not in (2, 3):
            raise DataError(f"mask must be HxW or BxHxW, got {arr.shape}")
        object.__setattr__(self, "included", arr)

    @property
    def n_included(self) -> int:
        return int(self.included.sum())


@dataclass(frozen=True)
class CountMatrix:
    """Raw pair counts; counts[c, l] = sites with ground truth l that the
    classifier labeled c."""

    counts: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.counts, np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataError(f"count matrix must be square, got {arr.shape}")
        if (arr < 0).any():
            raise DataError("negative counts")
        object.__setattr__(self, "counts", arr)

    @property
    def n_labels(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ConfusionModel:
    """Column-stochastic confusion probabilities; matrix[c, l] = P(C=c | l).

    source_counts is None for models loaded from disk (counts are not
    persisted). Estimated models are strictly positive via flooring; the
    identity baseline carries exact zeros.
    """

    matrix: np.ndarray
    source_counts: CountMatrix | None = None
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        arr = _frozen_array(self.matrix, np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise DataError(f"confusion matrix must be square with >= 2 labels, got {arr.shape}")
        if not (arr >= 0).all():
            raise DataError("confusion entries must be >= 0, not NaN")
        colsums = arr.sum(axis=0)
        if np.abs(colsums - 1.0).max() > SUM_TOL:
            worst = int(np.abs(colsums - 1.0).argmax())
            raise DataError(
                f"column {worst} sums to {colsums[worst]:.12f}, not 1"
            )
        object.__setattr__(self, "matrix", arr)

    @property
    def n_labels(self) -> int:
        return self.matrix.shape[0]


def border_mask(gt: LabelMap, radius: int) -> PixelMask:
    """Exclude every pixel within Chebyshev distance `radius` of a border
    pixel (one with an 8-connected neighbor of a different label; void
    counts as its own label). radius=0 excludes exactly the border pixels.
    A stack of maps gives a stack of masks, each from its own map."""
    if radius < 0:
        raise DataError(f"radius must be >= 0, got {radius}")
    excluded = kernels.border_excluded(gt.labels, int(radius))
    return PixelMask(~excluded)


def accumulate_counts(
    gt: LabelMap, pred: LabelMap, mask: PixelMask, labels: LabelSet
) -> CountMatrix:
    """Count (prediction, truth) pairs over included, non-void sites."""
    if gt.labels.shape != pred.labels.shape or gt.labels.shape != mask.included.shape:
        raise DataError(
            f"shape mismatch: gt {gt.labels.shape}, pred {pred.labels.shape}, "
            f"mask {mask.included.shape}"
        )
    if labels.void_id is not None and (pred.labels == labels.void_id).any():
        raise DataError("predictions contain void labels")
    # pair_counts bins each pair at p * L + g, so an out-of-range label would
    # be counted in another cell instead of failing
    if _bad_labels(gt.labels, labels).any():
        raise DataError("ground-truth labels outside the label set")
    if _bad_labels(pred.labels, labels).any():  # void ids were refused above
        raise DataError("predicted labels outside the label set")
    counts = kernels.pair_counts(
        gt.labels, pred.labels, mask.included, labels.size, labels.void_sentinel
    )
    return CountMatrix(counts)


def merge_counts(a: CountMatrix, b: CountMatrix) -> CountMatrix:
    if a.n_labels != b.n_labels:
        raise DataError(f"cannot merge {a.n_labels}x and {b.n_labels}x counts")
    return CountMatrix(a.counts + b.counts)


def normalize_confusion(counts: CountMatrix, floor: float = DEFAULT_FLOOR) -> ConfusionModel:
    """The model of counts: floored_columns of the counts as float64."""
    matrix = floored_columns(counts.counts.astype(np.float64), floor)
    return ConfusionModel(matrix=matrix, source_counts=counts, floor=floor)


def floored_columns(matrix: np.ndarray, floor: float) -> np.ndarray:
    """A float64 matrix whose zero cells take the value `floor` as a
    fractional pseudo-count, with each column then L1-normalized; floor
    must be finite and positive."""
    if not 0 < floor < np.inf:
        raise DataError(f"floor must be finite and positive, got {floor}")
    floored = np.where(matrix == 0.0, floor, matrix)
    return floored / floored.sum(axis=0, keepdims=True)


def identity_confusion(labels: LabelSet) -> ConfusionModel:
    """Exact identity matrix (no flooring); the LabelBank baseline."""
    return ConfusionModel(matrix=np.eye(labels.size), source_counts=None, floor=0.0)


def estimate_confusion(manifest: Manifest, out: str | Path, radius: int = DEFAULT_RADIUS,
                       floor: float = DEFAULT_FLOOR) -> ConfusionModel:
    """The confusion stage: count argmax predictions against ground truth
    outside the border mask over the estimation split, normalize with
    `floor`, publish the model at out, and return it with its counts. Maps
    are loaded, checked and counted a chunk of equal-shape maps at a time."""
    records = manifest.split_records("estimation")
    labels = manifest.label_set
    counts = CountMatrix(np.zeros((labels.size, labels.size), dtype=np.int64))
    for _, (gt, probs) in _load_chunks(records, lambda rec: (rec.gt_path, rec.probs_path),
                                       (LABELS, PROBS), labels):
        part = accumulate_counts(gt, argmax_labels(probs), border_mask(gt, radius), labels)
        counts = merge_counts(counts, part)
        del gt, probs  # free the chunk before the next one loads
    model = normalize_confusion(counts, floor=floor)
    save_confusion(model, out, radius=radius, n_images=len(records), n_pixels=counts.total)
    return model


# ---------------------------------------------------------------------------
# persistence: SEGT f32 matrix + JSON sidecar
# ---------------------------------------------------------------------------

def save_confusion(
    model: ConfusionModel,
    path: str | Path,
    radius: int = DEFAULT_RADIUS,
    n_images: int = 0,
    n_pixels: int = 0,
) -> None:
    meta = {
        "floor": model.floor,
        "radius": int(radius),
        "n_images": int(n_images),
        "n_pixels": int(n_pixels),
    }
    store_with_sidecar(path, model.matrix.astype(np.float32), meta)


def load_confusion(path: str | Path) -> tuple[ConfusionModel, dict]:
    """Load matrix + sidecar. Columns are renormalized in float64 because
    the f32 file rounds them off the 1e-9 invariant."""
    arr, meta = load_with_sidecar(path)
    if arr.shape[0] != arr.shape[1]:
        raise DataError(f"{path}: expected square 2-d float32 tensor")
    matrix = arr.astype(np.float64)
    sums = matrix.sum(axis=0)
    if (sums <= 0).any():
        raise DataError(f"{path}: empty confusion column")
    matrix /= sums
    floor = meta.get("floor", DEFAULT_FLOOR)
    if not _is_json_number(floor):
        raise DataError(f"{path}: sidecar floor must be a number, got {floor!r}")
    if not abs(floor) <= sys.float_info.max:
        raise DataError(f"{path}: sidecar floor must be finite, got {floor!r}")
    model = ConfusionModel(matrix=matrix, source_counts=None, floor=float(floor))
    return model, meta
