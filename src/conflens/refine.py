"""The refinement matrix R with R[c1, c2] = P(c1 | C=c2), its per-pixel
application, argmax prediction, and the stage that runs them. The LabelBank
baseline is this stage with the identity confusion: its R is the 0/1
diagonal of the prior's support, so the transform masks and rescales."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import kernels, segt
from .data import (
    PROBS,
    LabelMap,
    Manifest,
    ProbabilityMap,
    SUM_TOL,
    _check_layout,
    _frozen_array,
    _load_chunks,
    publish,
    save_label_map,
    save_probability_map,
)
from .errors import DataError

if TYPE_CHECKING:  # confusion imports this module for argmax_labels
    from .confusion import ConfusionModel
    from .priors import PriorBank


@dataclass(frozen=True)
class RefinementMatrix:
    """matrix[c1, c2] = P(c1 | C=c2); marginal[c] = P(C=c). Columns with
    zero marginal are identically zero, and refine_map rescales a map whose
    matrix has one (kernels.apply_refinement). Every matrix has a live
    column. A stack of B matrices, one per map of a B x H x W x L stack, is
    B x L x L with B x L marginals."""

    matrix: np.ndarray
    marginal: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.matrix, np.float64)
        marg = _frozen_array(self.marginal, np.float64)
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
            raise DataError(f"refinement matrix must be square, got {mat.shape}")
        if marg.shape != mat.shape[:-1]:
            raise DataError("marginal length does not match matrix")
        if not (mat >= 0).all():
            raise DataError("refinement entries must be >= 0, not NaN")
        if not np.isfinite(marg).all():
            raise DataError("marginal must be finite")
        live = marg > 0
        colsums = mat.sum(axis=-2)
        if not (np.abs(colsums[live] - 1.0) <= SUM_TOL).all():
            raise DataError("live refinement columns must sum to 1")
        if not live.any(axis=-1).all():
            raise DataError("refinement matrix has no live column")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "marginal", marg)

    @property
    def n_labels(self) -> int:
        return self.matrix.shape[-1]


def output_marginal(confusion: ConfusionModel, prior) -> np.ndarray:
    """P(C=c) = sum_l P(C=c | l) P(l); B x L priors give B x L marginals."""
    weights = np.asarray(getattr(prior, "weights", prior), dtype=np.float64)
    if weights.ndim not in (1, 2) or weights.shape[-1] != confusion.n_labels:
        raise DataError(
            f"prior shape {weights.shape} does not match {confusion.n_labels} labels"
        )
    # one matrix-vector product per prior, also for a stack of them
    return np.matmul(confusion.matrix, weights[..., None])[..., 0]


def build_refinement_matrix(confusion: ConfusionModel, prior) -> RefinementMatrix:
    """Bayes inversion per class pair: R[l, c] = P(C=c|l) P(l) / P(C=c).
    A B x L array of priors gives a stack of B matrices.

    Columns whose marginal is zero (possible only with unfloored confusion
    and zero-prior classes, e.g. the identity-confusion baseline) are set to
    zero: the classifier never outputs c, so P(l | C=c) carries no mass,
    and refine_map rescales what the map keeps.
    """
    weights = np.asarray(getattr(prior, "weights", prior), dtype=np.float64)
    marginal = output_marginal(confusion, weights)
    numer = confusion.matrix.T * weights[..., :, None]  # [l, c] = P(C=c|l) P(l)
    live = np.broadcast_to(marginal[..., None, :] > 0, numer.shape)
    matrix = np.divide(numer, marginal[..., None, :], out=np.zeros_like(numer), where=live)
    return RefinementMatrix(matrix=matrix, marginal=marginal)


def refine_map(R: RefinementMatrix, probs: ProbabilityMap) -> ProbabilityMap:
    """Per-pixel linear transform of the classifier outputs by R; a stack
    of matrices transforms a stack of maps, one matrix per map. A map
    whose R has a zero column is rescaled to sum to 1, a pixel with no mass
    left going uniform over the prior's support (kernels.apply_refinement)."""
    if probs.channels != R.n_labels:
        raise DataError(
            f"{probs.channels} channels do not match {R.n_labels} labels"
        )
    if R.matrix.shape[:-2] != probs.values.shape[:-3]:
        raise DataError(
            f"{R.matrix.shape[:-2]} matrices for {probs.values.shape[:-3]} maps"
        )
    return ProbabilityMap(kernels.apply_refinement(R.matrix, probs.values))


def argmax_labels(probs: ProbabilityMap) -> LabelMap:
    """Per-pixel argmax; the lowest index wins ties. np.argmax copies a
    read-only array whole, so it runs on PIXEL_BLOCK pixels at a time."""
    flat = probs.values.reshape(-1, probs.channels)
    out = np.empty(flat.shape[0], dtype=np.int32)
    for start in range(0, len(flat), kernels.PIXEL_BLOCK):
        stop = start + kernels.PIXEL_BLOCK
        out[start:stop] = np.argmax(flat[start:stop], axis=1)
    return LabelMap(out.reshape(probs.values.shape[:-1]))


def refine_split(manifest: Manifest, bank: PriorBank, out: str | Path,
                 confusion: ConfusionModel) -> int:
    """The refine stage, also labelbank's with the identity confusion:
    publish `<id>_refined.segt` (refine_map by the image's refinement
    matrix) and its argmax `<id>_pred.segt` per evaluation image in the
    directory out; returns the image count. The widths, a prior per id and
    each map's layout (read from its header: dtype, rank and channel count)
    are checked before out is touched. The maps are then read once, in
    chunks of equal-shape maps whose values are checked, transformed,
    reduced to their argmax and staged together, so memory does not grow
    with the split, and a failed run publishes nothing."""
    labels = manifest.label_set
    if confusion.n_labels != labels.size:
        raise DataError(f"confusion has {confusion.n_labels} labels, manifest {labels.size}")
    if bank.weights.shape[1] != labels.size:
        raise DataError(
            f"prior bank has {bank.weights.shape[1]} labels, manifest {labels.size}"
        )
    records = manifest.split_records("evaluation")
    items = list(zip(records, bank.rows([rec.image_id for rec in records])))
    for rec in records:
        _check_layout(rec.probs_path, PROBS, *segt.read_header(rec.probs_path), labels)

    with publish(out) as stage:
        for chunk, (probs,) in _load_chunks(items, lambda item: (item[0].probs_path,),
                                            (PROBS,), labels):
            R = build_refinement_matrix(confusion, np.stack([row for _, row in chunk]))
            result = refine_map(R, probs)
            del probs  # free the inputs before argmax
            pred = argmax_labels(result)
            for i, (rec, _) in enumerate(chunk):
                save_probability_map(ProbabilityMap(result.values[i]),
                                     stage(f"{rec.image_id}_refined.segt"))
                save_label_map(LabelMap(pred.labels[i]), stage(f"{rec.image_id}_pred.segt"))
            del result, pred  # free the chunk before the next one loads
    return len(items)
