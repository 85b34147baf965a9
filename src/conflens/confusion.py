"""Estimation of the classifier/truth confusion matrix P(C=c | l) from
annotated data: border exclusion, count accumulation, floored normalization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels, segt
from .data import LabelMap, LabelSet, _frozen_array
from .errors import DataError

DEFAULT_FLOOR = 1e-4
DEFAULT_RADIUS = 2
COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PixelMask:
    """Boolean participation mask; True = pixel feeds the statistics."""

    included: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.included, bool)
        if arr.ndim != 2:
            raise DataError(f"mask must be HxW, got {arr.shape}")
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
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataError(f"confusion matrix must be square, got {arr.shape}")
        if not (arr >= 0).all():
            raise DataError("confusion entries must be >= 0, not NaN")
        colsums = arr.sum(axis=0)
        if np.abs(colsums - 1.0).max() > COLUMN_SUM_TOL:
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
    counts as its own label). radius=0 excludes exactly the border pixels."""
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
    gt_ok = (gt.labels >= 0) & (gt.labels < labels.size)
    if labels.void_id is not None:
        gt_ok |= gt.labels == labels.void_id
    if not gt_ok.all():
        raise DataError("ground-truth labels outside the label set")
    if ((pred.labels < 0) | (pred.labels >= labels.size)).any():
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
    """Columns to probabilities: zero cells take the value `floor` as a
    fractional pseudo-count, then each column is L1-normalized."""
    if floor <= 0:
        raise DataError(f"floor must be positive, got {floor}")
    raw = counts.counts.astype(np.float64)
    floored = np.where(raw == 0.0, floor, raw)
    matrix = floored / floored.sum(axis=0, keepdims=True)
    return ConfusionModel(matrix=matrix, source_counts=counts, floor=floor)


def identity_confusion(labels: LabelSet) -> ConfusionModel:
    """Exact identity matrix (no flooring); the LabelBank baseline."""
    return ConfusionModel(matrix=np.eye(labels.size), source_counts=None, floor=0.0)


# ---------------------------------------------------------------------------
# persistence: SEGT f32 matrix + JSON sidecar
# ---------------------------------------------------------------------------

def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def save_confusion(
    model: ConfusionModel,
    path: str | Path,
    radius: int = DEFAULT_RADIUS,
    n_images: int = 0,
    n_pixels: int = 0,
) -> None:
    segt.store_tensor(path, model.matrix.astype(np.float32))
    meta = {
        "floor": model.floor,
        "radius": int(radius),
        "n_images": int(n_images),
        "n_pixels": int(n_pixels),
    }
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_confusion(path: str | Path) -> tuple[ConfusionModel, dict]:
    """Load matrix + sidecar. Columns are renormalized in float64 because
    the f32 file rounds them off the 1e-9 invariant."""
    arr = segt.load_tensor(path)
    if arr.ndim != 2 or arr.dtype != np.float32 or arr.shape[0] != arr.shape[1]:
        raise DataError(f"{path}: expected square 2-d float32 tensor")
    matrix = arr.astype(np.float64)
    sums = matrix.sum(axis=0)
    if (sums <= 0).any():
        raise DataError(f"{path}: empty confusion column")
    matrix /= sums
    side = sidecar_path(path)
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    except json.JSONDecodeError as exc:
        raise DataError(f"{side}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{side}: sidecar must be a JSON object")
    floor = meta.get("floor", DEFAULT_FLOOR)
    if isinstance(floor, bool) or not isinstance(floor, (int, float)):
        raise DataError(f"{side}: floor must be a number, got {floor!r}")
    model = ConfusionModel(matrix=matrix, source_counts=None, floor=float(floor))
    return model, meta
