"""The refinement matrix R with R[c1, c2] = P(c1 | C=c2), its per-pixel
application, argmax prediction, the LabelBank masking baseline, and their
stage."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import kernels, segt
from .data import (
    LabelMap,
    Manifest,
    ProbabilityMap,
    _frozen_array,
    _map_ordered,
    _write_groups,
    load_probability_map,
    publish,
    save_label_map,
    save_probability_map,
)
from .errors import DataError

if TYPE_CHECKING:  # confusion imports this module for argmax_labels
    from .confusion import ConfusionModel
    from .priors import PriorBank

COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class RefinementMatrix:
    """matrix[c1, c2] = P(c1 | C=c2); marginal[c] = P(C=c). Columns with
    zero marginal are identically zero."""

    matrix: np.ndarray
    marginal: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.matrix, np.float64)
        marg = _frozen_array(self.marginal, np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DataError(f"refinement matrix must be square, got {mat.shape}")
        if marg.shape != (mat.shape[0],):
            raise DataError("marginal length does not match matrix")
        if not (mat >= 0).all():
            raise DataError("refinement entries must be >= 0, not NaN")
        if not np.isfinite(marg).all():
            raise DataError("marginal must be finite")
        live = marg > 0
        colsums = mat.sum(axis=0)
        if not (np.abs(colsums[live] - 1.0) <= COLUMN_SUM_TOL).all():
            raise DataError("live refinement columns must sum to 1")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "marginal", marg)

    @property
    def n_labels(self) -> int:
        return self.matrix.shape[0]


def output_marginal(confusion: ConfusionModel, prior) -> np.ndarray:
    """P(C=c) = sum_l P(C=c | l) P(l)."""
    weights = np.asarray(getattr(prior, "weights", prior), dtype=np.float64)
    if weights.shape != (confusion.n_labels,):
        raise DataError(
            f"prior shape {weights.shape} does not match {confusion.n_labels} labels"
        )
    return confusion.matrix @ weights


def build_refinement_matrix(confusion: ConfusionModel, prior) -> RefinementMatrix:
    """Bayes inversion per class pair: R[l, c] = P(C=c|l) P(l) / P(C=c).

    Columns whose marginal is zero (possible only with unfloored confusion
    and zero-prior classes, e.g. the identity-confusion baseline) are set to
    zero: the classifier never outputs c, so P(l | C=c) carries no mass.
    """
    weights = np.asarray(getattr(prior, "weights", prior), dtype=np.float64)
    marginal = output_marginal(confusion, weights)
    numer = confusion.matrix.T * weights[:, None]  # [l, c] = P(C=c|l) P(l)
    live = marginal > 0
    matrix = np.zeros_like(numer)
    matrix[:, live] = numer[:, live] / marginal[live]
    return RefinementMatrix(matrix=matrix, marginal=marginal)


def refine_map(R: RefinementMatrix, probs: ProbabilityMap) -> ProbabilityMap:
    """Per-pixel linear transform of the classifier outputs by R."""
    if probs.channels != R.n_labels:
        raise DataError(
            f"{probs.channels} channels do not match {R.n_labels} labels"
        )
    return ProbabilityMap(kernels.apply_refinement(R.matrix, probs.values))


def argmax_labels(probs: ProbabilityMap) -> LabelMap:
    """Per-pixel argmax; the lowest index wins ties."""
    return LabelMap(np.argmax(probs.values, axis=2).astype(np.int32))


def labelbank_mask(probs: ProbabilityMap, present) -> ProbabilityMap:
    """Zero the channels outside `present` and rescale the survivors to sum
    to 1; pixels with no surviving mass become uniform over `present`."""
    present = sorted(int(c) for c in present)
    if not present:
        raise DataError("present set is empty")
    if present[0] < 0 or present[-1] >= probs.channels:
        raise DataError(f"present classes {present} outside [0, {probs.channels})")
    keep = np.zeros(probs.channels, dtype=bool)
    keep[present] = True
    fallback = keep.astype(np.float64) / len(present)
    flat = probs.values.reshape(-1, probs.channels)
    out = np.empty(probs.values.shape, dtype=np.float32)
    flat_out = out.reshape(flat.shape)
    for start in range(0, flat.shape[0], kernels.PIXEL_BLOCK):
        stop = start + kernels.PIXEL_BLOCK
        vals = flat[start:stop].astype(np.float64)
        vals *= keep
        sums = vals.sum(axis=1, keepdims=True)
        degenerate = sums <= 0.0
        vals /= np.where(degenerate, 1.0, sums)
        vals[degenerate[:, 0]] = fallback
        flat_out[start:stop] = vals
    return ProbabilityMap(out)


def refine_split(manifest: Manifest, bank: PriorBank, out: str | Path,
                 confusion: ConfusionModel | None = None, threads: int = 1) -> int:
    """The refine stage, or labelbank's when confusion is None: publish
    `<id>_refined.segt` (refine_map, or labelbank_mask over the prior's
    support) and its argmax `<id>_pred.segt` per evaluation image in the
    directory out; returns the image count. The widths, a prior per id and
    each map's header are checked before out is touched; each map is then
    read once, inside its write group, so memory does not grow with the
    split, and a failed run publishes nothing."""
    labels = manifest.label_set
    if confusion is not None and confusion.n_labels != labels.size:
        raise DataError(f"confusion has {confusion.n_labels} labels, manifest {labels.size}")
    if bank.weights.shape[1] != labels.size:
        raise DataError(
            f"prior bank has {bank.weights.shape[1]} labels, manifest {labels.size}"
        )
    records = manifest.split_records("evaluation")
    checked = []
    for rec in records:
        dtype, dims = segt.read_header(rec.probs_path)
        if dtype != np.float32 or len(dims) != 3:
            raise DataError(f"{rec.probs_path}: expected 3-d float32 tensor")
        checked.append((rec, dims, bank.get(rec.image_id)))

    def transform(probs, prior):
        if confusion is None:
            return labelbank_mask(probs, prior.support)
        return refine_map(build_refinement_matrix(confusion, prior), probs)

    def per_image(item):
        # no name holds the input map, so it is freed before argmax allocates
        rec, _, prior = item
        result = transform(load_probability_map(rec.probs_path, labels), prior)
        return result, argmax_labels(result)

    with publish(out) as stage:
        def write_group(group):
            for (rec, _, _), (result, pred) in zip(group, _map_ordered(per_image, group, threads)):
                save_probability_map(result, stage(f"{rec.image_id}_refined.segt"))
                save_label_map(pred, stage(f"{rec.image_id}_pred.segt"))

        for group in _write_groups(checked, lambda item: item[1]):
            write_group(group)
    return len(checked)
