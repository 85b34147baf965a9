"""Label priors P(l): uniform, global, binary, histogram, and the solved
(unconstrained) prior, which minimizes the refinement negative log-loss over
the probability simplex by projected Newton descent."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels, segt
from .confusion import ConfusionModel, PixelMask
from .data import LabelMap, LabelSet, Manifest, ProbabilityMap, _frozen_array, load_label_map
from .errors import DataError

SUM_TOL = 1e-9
EPSILON = 1e-10
_NEWTON_MIN_STEP = 1e-6
_ZERO_WEIGHT = 1e-12
PRIOR_KINDS = ("uniform", "global", "binary", "histogram", "unconstrained")


@dataclass(frozen=True)
class Prior:
    """A distribution over the label set (zero entries allowed)."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights, np.float64)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise DataError(f"prior must be a vector of >= 2 weights, got {arr.shape}")
        if not (arr >= 0).all():
            raise DataError("prior weights must be >= 0, not NaN")
        total = float(arr.sum())
        if not abs(total - 1.0) <= SUM_TOL:
            raise DataError(f"prior sums to {total!r}, not 1")
        object.__setattr__(self, "weights", arr)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 500
    step_tolerance: float = 1e-9
    loss_tolerance: float = 1e-10
    epsilon: float = EPSILON
    init: str = "histogram"

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError("max_iters must be >= 1")
        if not all(0 < tol < np.inf for tol in (self.step_tolerance, self.loss_tolerance,
                                                 self.epsilon)):
            raise DataError("solver tolerances must be finite and positive")
        if self.init not in ("uniform", "histogram"):
            raise DataError(f"unknown solver init {self.init!r}")


@dataclass(frozen=True)
class SampleSet:
    """Annotated, classified sites feeding the loss: gt labels (N,) and the
    matching classifier distributions (N, |L|)."""

    gt: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        gt = _frozen_array(self.gt, np.int64)
        probs = _frozen_array(self.probs, np.float64)
        if gt.ndim != 1 or probs.ndim != 2 or gt.shape[0] != probs.shape[0]:
            raise DataError(
                f"sample shapes disagree: gt {gt.shape}, probs {probs.shape}"
            )
        if gt.shape[0] and (gt.min() < 0 or gt.max() >= probs.shape[1]):
            raise DataError("sample gt labels outside the label range")
        object.__setattr__(self, "gt", gt)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.gt.shape[0]


@dataclass(frozen=True)
class PriorBank:
    """One prior per evaluation image, in manifest evaluation-split order.
    Shared-prior kinds (uniform, global) repeat the same row."""

    kind: str
    ids: tuple[str, ...]
    weights: np.ndarray
    solver: dict | None = field(default=None)
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise DataError(f"unknown prior kind {self.kind!r}")
        object.__setattr__(self, "ids", tuple(self.ids))
        arr = _frozen_array(self.weights, np.float64)
        if arr.ndim != 2 or arr.shape[0] != len(self.ids):
            raise DataError(
                f"bank weights {arr.shape} do not match {len(self.ids)} ids"
            )
        object.__setattr__(self, "weights", arr)
        for row in arr:
            Prior(row)
        rows = {image_id: idx for idx, image_id in enumerate(self.ids)}
        if len(rows) != len(self.ids):
            raise DataError("duplicate image ids in prior bank")
        object.__setattr__(self, "_rows", rows)

    def get(self, image_id: str) -> Prior:
        try:
            idx = self._rows[image_id]
        except KeyError:
            raise DataError(f"no prior for image {image_id!r}") from None
        return Prior(self.weights[idx])


# ---------------------------------------------------------------------------
# closed-form priors
# ---------------------------------------------------------------------------

def uniform_prior(labels: LabelSet) -> Prior:
    return Prior(np.full(labels.size, 1.0 / labels.size))


def _label_counts(gt: LabelMap, labels: LabelSet) -> np.ndarray:
    arr = gt.labels
    valid = arr != labels.void_sentinel
    return np.bincount(arr[valid], minlength=labels.size).astype(np.float64)


def global_prior(manifest: Manifest, split: str = "estimation") -> Prior:
    """L1-normalized label histogram pooled over every image of `split`."""
    records = manifest.split_records(split)
    if not records:
        raise DataError(f"no records in split {split!r}")
    counts = np.zeros(manifest.label_set.size)
    for rec in records:
        counts += _label_counts(load_label_map(rec.gt_path, manifest.label_set), manifest.label_set)
    total = counts.sum()
    if total == 0:
        raise DataError("no non-void pixels in split")
    return Prior(counts / total)


def binary_prior(gt: LabelMap, labels: LabelSet) -> Prior:
    """1/k on each of the k classes present in gt, zero elsewhere."""
    counts = _label_counts(gt, labels)
    present = counts > 0
    k = int(present.sum())
    if k == 0:
        raise DataError("all-void image has no binary prior")
    return Prior(present.astype(np.float64) / k)


def histogram_prior(gt: LabelMap, labels: LabelSet) -> Prior:
    """Per-image L1-normalized label histogram."""
    counts = _label_counts(gt, labels)
    total = counts.sum()
    if total == 0:
        raise DataError("all-void image has no histogram prior")
    return Prior(counts / total)


# ---------------------------------------------------------------------------
# solved prior: Eq-style negative log-loss over the simplex
# ---------------------------------------------------------------------------

def _as_weights(prior, n_labels: int) -> np.ndarray:
    w = np.asarray(getattr(prior, "weights", prior), dtype=np.float64)
    if w.shape != (n_labels,):
        raise DataError(f"prior shape {w.shape} does not match {n_labels} labels")
    return w


def sample_set(
    gt: LabelMap,
    probs: ProbabilityMap,
    labels: LabelSet,
    mask: PixelMask | None = None,
    max_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> SampleSet:
    """Collect (gt, classifier output) pairs from included, non-void pixels,
    optionally subsampled without replacement to max_samples."""
    if gt.labels.shape != probs.values.shape[:2]:
        raise DataError(
            f"gt {gt.labels.shape} and probs {probs.values.shape[:2]} disagree"
        )
    keep = gt.labels != labels.void_sentinel
    if mask is not None:
        if mask.included.shape != gt.labels.shape:
            raise DataError("mask shape mismatch")
        keep &= mask.included
    idx = np.flatnonzero(keep.ravel())
    if max_samples is not None and idx.size > max_samples:
        if rng is None:
            rng = np.random.default_rng(0)
        idx = np.sort(rng.choice(idx, size=max_samples, replace=False))
    flat_gt = gt.labels.ravel()[idx].astype(np.int64)
    flat_probs = probs.values.reshape(-1, probs.channels)[idx].astype(np.float64)
    return SampleSet(gt=flat_gt, probs=flat_probs)


def refinement_loss(prior, confusion: ConfusionModel, samples: SampleSet,
                    epsilon: float = EPSILON) -> float:
    """Sum over samples of -log(max(refined gt probability, epsilon))."""
    if len(samples) == 0:
        raise DataError("empty sample set")
    w = _as_weights(prior, confusion.n_labels)
    evidence = kernels.sample_evidence(confusion.matrix, samples.gt, samples.probs)
    return kernels.loss_value(confusion.matrix, w, samples.gt, evidence, epsilon)


def refinement_loss_gradient(prior, confusion: ConfusionModel, samples: SampleSet,
                             epsilon: float = EPSILON) -> np.ndarray:
    """d(loss)/d(prior), accounting for P(C=c) = sum_l P(C=c|l) P(l)."""
    if len(samples) == 0:
        raise DataError("empty sample set")
    w = _as_weights(prior, confusion.n_labels)
    evidence = kernels.sample_evidence(confusion.matrix, samples.gt, samples.probs)
    _, grad = kernels.loss_grad(confusion.matrix, w, samples.gt, evidence, epsilon)
    return grad


@functools.lru_cache(maxsize=64)
def _ranks(n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    ranks.setflags(write=False)
    return ranks


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based). The
    solver calls it once per line-search step, on a vector of |L| entries,
    so it keeps to array methods: numpy's function wrappers cost more than
    the arithmetic at that size."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cumulative = u.cumsum()
    candidates = u + (1.0 - cumulative) / _ranks(v.size)
    rho = (candidates > 0).nonzero()[0][-1]
    shift = (1.0 - cumulative[rho]) / (rho + 1)
    return np.maximum(v + shift, 0.0)


@functools.lru_cache(maxsize=64)
def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal (k, k - 1) basis of {x in R^k : sum x = 0}, the Helmert
    contrasts: column j - 1 is (1, ..., 1, -j, 0, ..., 0) / sqrt(j (j + 1))
    with j ones."""
    rows = np.arange(k)[:, None]
    cols = np.arange(1, k)[None, :]
    basis = np.where(rows < cols, 1.0, np.where(rows == cols, -cols, 0.0))
    basis /= np.sqrt(cols * (cols + 1.0))
    basis.setflags(write=False)
    return basis


def _newton_direction(w, grad, hess):
    """Projected-Newton direction (Bertsekas 1982) on the simplex, or None.

    The free labels are the support of w plus the zero weights whose
    gradient is below the support's mean, where moving mass in lowers the
    loss; the rest stay fixed. Weights up to _ZERO_WEIGHT count as zero:
    the simplex projection leaves rounding-level mass on labels a step did
    not move, and freeing those would let their gradient, far above the
    mean, swamp the direction. The Hessian is restricted to the sum-zero
    subspace of the free labels. The loss is not convex, so each eigenvalue
    is replaced by its magnitude, floored at 1e-8 of the largest, which
    keeps the direction a descent direction.
    """
    support = w > _ZERO_WEIGHT
    idx = (support | (grad < grad[support].mean())).nonzero()[0]
    if idx.size < 2:
        return None
    basis = _sum_zero_basis(idx.size)
    reduced = basis.T @ hess[np.ix_(idx, idx)] @ basis
    if not np.isfinite(reduced).all():
        return None
    lam, vecs = np.linalg.eigh(reduced)
    mag = np.abs(lam)
    top = mag.max()
    if not top > 0:
        return None
    coef = (vecs.T @ (basis.T @ grad[idx])) / np.maximum(mag, 1e-8 * top)
    direction = np.zeros_like(w)
    direction[idx] = -(basis @ (vecs @ coef))
    return direction


def _first_decrease(matrix, gt, evidence, opts, w, loss, direction, t, t_min, scores):
    """Backtrack project_to_simplex(w + t * direction), halving t from the
    given value while t >= t_min, to the first strict loss decrease.
    Returns (candidate or None, its loss, the last t tried); `scores` keeps
    the candidate's s for loss_grad."""
    while t >= t_min:
        cand = project_to_simplex(w + t * direction)
        cand_loss = kernels.loss_value(matrix, cand, gt, evidence, opts.epsilon, scores)
        if cand_loss < loss:
            return cand, cand_loss, t
        t *= 0.5
    return None, loss, t


def _descend(matrix, gt, evidence, start, opts: SolverOptions):
    """Monotone projected Newton descent.

    Each iteration backtracks along the Newton direction from t = 1 down to
    1e-6. If that gives no decrease, or there is no Newton direction, it
    takes a projected-gradient step instead, backtracking from a step
    length that halves on each rejection and doubles after each accepted
    gradient step. It stops when no step decreases the loss, when the
    decrease falls below loss_tolerance, or after max_iters iterations.
    """
    w = start
    loss, grad = kernels.loss_grad(matrix, w, gt, evidence, opts.epsilon)
    step = 1.0 / max(gt.shape[0], 1)
    scores = np.empty(gt.shape[0])
    known = None
    for _ in range(opts.max_iters):
        hess = kernels.loss_hessian(matrix, w, gt, evidence, opts.epsilon, known)
        direction = _newton_direction(w, grad, hess)
        cand = None
        if direction is not None:
            cand, cand_loss, _ = _first_decrease(
                matrix, gt, evidence, opts, w, loss, direction, 1.0, _NEWTON_MIN_STEP, scores)
        if cand is None:
            cand, cand_loss, step = _first_decrease(
                matrix, gt, evidence, opts, w, loss, -grad, step, opts.step_tolerance, scores)
            if cand is None:
                break
            step *= 2.0
        drop = loss - cand_loss
        w = cand
        loss, grad = kernels.loss_grad(matrix, w, gt, evidence, opts.epsilon, scores)
        known = scores
        if drop < opts.loss_tolerance:
            break
    return w, loss


def solve_unconstrained_prior(
    confusion: ConfusionModel,
    samples: SampleSet,
    opts: SolverOptions = SolverOptions(),
) -> Prior:
    """Minimize the refinement log-loss over the simplex.

    Descends from the configured init (sample histogram by default); if the
    uniform prior scores better than that result, descends again from
    uniform and returns the better endpoint. The result therefore never
    loses to its init, the histogram prior, or the uniform prior.
    """
    if len(samples) == 0:
        raise DataError("empty sample set")
    n = confusion.n_labels
    matrix = confusion.matrix
    hist = np.bincount(samples.gt, minlength=n).astype(np.float64)
    hist /= hist.sum()
    start = np.full(n, 1.0 / n) if opts.init == "uniform" else hist
    evidence = kernels.sample_evidence(matrix, samples.gt, samples.probs)
    start_loss = kernels.loss_value(matrix, start, samples.gt, evidence, opts.epsilon)
    if not np.isfinite(start_loss):
        raise DataError("non-finite loss at solver init")
    w, loss = _descend(matrix, samples.gt, evidence, start, opts)
    uniform = np.full(n, 1.0 / n)
    uniform_loss = kernels.loss_value(matrix, uniform, samples.gt, evidence, opts.epsilon)
    if uniform_loss < loss:
        w2, loss2 = _descend(matrix, samples.gt, evidence, uniform, opts)
        if loss2 < loss:
            w, loss = w2, loss2
    total = w.sum()
    if abs(total - 1.0) > 1e-12:
        w = w / total
    return Prior(w)


# ---------------------------------------------------------------------------
# persistence: SEGT f32 N x |L| + JSON sidecar
# ---------------------------------------------------------------------------

def bank_sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def save_prior_bank(bank: PriorBank, path: str | Path) -> None:
    segt.store_tensor(path, bank.weights.astype(np.float32))
    meta = {"kind": bank.kind, "ids": list(bank.ids), "solver": bank.solver}
    with open(bank_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_prior_bank(path: str | Path) -> PriorBank:
    """Rows renormalized in float64: the f32 file rounds them off the 1e-9
    simplex invariant."""
    arr = segt.load_tensor(path)
    if arr.ndim != 2 or arr.dtype != np.float32:
        raise DataError(f"{path}: expected 2-d float32 tensor")
    side = bank_sidecar_path(path)
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: missing prior-bank sidecar") from exc
    except ValueError as exc:  # also an integer past Python's digit limit
        raise DataError(f"{side}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{side}: sidecar must be a JSON object")
    ids = meta.get("ids", [])
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise DataError(f"{side}: ids must be a list of strings")
    solver = meta.get("solver")
    if solver is not None and not isinstance(solver, dict):
        raise DataError(f"{side}: solver must be an object or null")
    weights = arr.astype(np.float64)
    sums = weights.sum(axis=1, keepdims=True)
    if (sums <= 0).any():
        raise DataError(f"{path}: zero-mass prior row")
    weights /= sums
    return PriorBank(
        kind=str(meta.get("kind", "")),
        ids=ids,
        weights=weights,
        solver=solver,
    )
