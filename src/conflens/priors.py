"""Label priors P(l): uniform, global, binary, histogram, and the solved
(unconstrained) prior, which minimizes the refinement negative log-loss over
the probability simplex by projected Newton descent."""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels, segt
from .confusion import ConfusionModel, PixelMask
from .data import (
    LabelMap,
    LabelSet,
    Manifest,
    ProbabilityMap,
    _frozen_array,
    _is_json_int,
    load_label_map,
)
from .errors import DataError

SUM_TOL = 1e-9
EPSILON = 1e-10
_NEWTON_MIN_STEP = 1e-6
_ZERO_WEIGHT = 1e-12
PRIOR_KINDS = ("uniform", "global", "binary", "histogram", "unconstrained")
# Bytes of float64 sample classifier outputs, the size of their evidence,
# that the prior stage loads before it solves them as one lockstep group.
# A solve holds the samples and the stacked evidence, about twice this.
# Larger groups take fewer lockstep iterations: on the benchmark's
# many_small workload (2-core VM), 2 MiB groups made the stage about 7%
# faster than 1 MiB groups, and 4 MiB about 5% faster again, but 4 MiB
# raised the benchmark's peak memory by about 4 MB where 2 MiB stayed
# within 1 MB.
SOLVE_BUDGET = 2 << 20
# Line-search tries per call when one image is still searching; see
# _first_decrease.
_TRIES = 8


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
        if not _is_json_int(self.max_iters) or self.max_iters < 1:
            raise DataError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not all(0 < tol < np.inf for tol in (self.step_tolerance, self.loss_tolerance,
                                                 self.epsilon)):
            raise DataError("solver tolerances must be finite and positive")
        if self.init not in ("uniform", "histogram"):
            raise DataError(f"unknown solver init {self.init!r}")


@dataclass(frozen=True)
class SolveReport:
    """What the solver did for one image: the Newton iterations of each
    descent it ran, the second being the restart from uniform, and the
    image's final loss."""

    iterations: tuple[int, ...]
    loss: float

    @property
    def restarted(self) -> bool:
        return len(self.iterations) == 2


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
    """Euclidean projection onto {x >= 0, sum x = 1} of a vector, or of each
    row of a (B, L) stack. With u sorted descending, the shift is
    min over k of (1 - (u_1 + ... + u_k)) / k, which is attained at the
    largest k whose u_k stays positive after the shift (Condat, "Fast
    projection onto the simplex and the l1 ball", 2016)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=-1)[..., ::-1]
    shift = ((1.0 - u.cumsum(axis=-1)) / _ranks(v.shape[-1])).min(axis=-1, keepdims=True)
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


def _newton_directions(w, grad, hess):
    """Projected-Newton directions (Bertsekas 1982) on the simplex for each
    row of w (B, L); returns them, zero where a row has none, and the mask
    of rows that have one.

    A row's free labels are the support of w plus the zero weights whose
    gradient is below the support's mean, where moving mass in lowers the
    loss; the rest stay fixed. Weights up to _ZERO_WEIGHT count as zero:
    the simplex projection leaves rounding-level mass on labels a step did
    not move, and freeing those would let their gradient, far above the
    mean, swamp the direction. The Hessian is restricted to the sum-zero
    subspace of the free labels. The loss is not convex, so each eigenvalue
    is replaced by its magnitude, floored at 1e-8 of the largest, which
    keeps the direction a descent direction. Rows with the same number of
    free labels share one batched eigh, so no padding enters the
    eigenvalues.
    """
    support = w > _ZERO_WEIGHT
    mean = np.where(support, grad, 0.0).sum(axis=1) / support.sum(axis=1)
    free = support | (grad < mean[:, None])
    sizes = free.sum(axis=1)
    direction = np.zeros_like(w)
    found = np.zeros(w.shape[0], dtype=bool)
    for k in sorted(set(sizes.tolist()) - {0, 1}):
        rows = (sizes == k).nonzero()[0]
        idx = free[rows].nonzero()[1].reshape(rows.size, k)
        basis = _sum_zero_basis(k)
        reduced = basis.T @ hess[rows[:, None, None], idx[:, :, None], idx[:, None, :]] @ basis
        if not np.isfinite(reduced).all():
            finite = np.isfinite(reduced).all(axis=(1, 2))
            rows, idx, reduced = rows[finite], idx[finite], reduced[finite]
        lam, vecs = np.linalg.eigh(reduced)
        mag = np.abs(lam)
        top = mag.max(axis=1, keepdims=True)
        if not (top > 0).all():
            ok = top[:, 0] > 0
            rows, idx, mag, top, vecs = rows[ok], idx[ok], mag[ok], top[ok], vecs[ok]
        reduced_grad = grad[rows[:, None], idx] @ basis
        coef = (reduced_grad[:, None, :] @ vecs)[:, 0, :] / np.maximum(mag, 1e-8 * top)
        direction[rows[:, None], idx] = -((vecs @ coef[:, :, None])[:, :, 0] @ basis.T)
        found[rows] = True
    return direction, found


def _take(evidence, rows):
    """evidence[rows] for (B, N, L) evidence, kept label-major."""
    return np.swapaxes(np.swapaxes(evidence, 1, 2)[rows], 1, 2)


def _partition(keep, *arrays):
    """Reorder the rows of each array in place, by swaps, so that the rows
    where keep is True come first; returns the new order as indices of the
    old rows. The other rows keep their data, behind them."""
    order = np.arange(keep.size)
    keep = keep.copy()
    front, back = 0, keep.size - 1
    while True:
        while front < back and keep[front]:
            front += 1
        while front < back and not keep[back]:
            back -= 1
        if front >= back:
            return order
        pair, swapped = [front, back], [back, front]
        for arr in (keep, order, *arrays):
            arr[pair] = arr[swapped]


def _first_decrease(matrix, gt, evidence, floor, w, loss, direction, t, t_min, pending,
                    cand, scores):
    """Backtrack project_to_simplex(w + t * direction) for each row in
    `pending`, halving the row's t from its value in `t` while t >= t_min,
    to the first strict decrease of the row's loss. A row that finds one
    gets the candidate in cand, its loss in loss and its s in scores (which
    loss_grad reuses); t keeps each row's last t tried. Returns the mask of
    rows that found one.

    While more than half the rows search, every row is tried where it lies
    and only the searching ones count; after that, the searching rows'
    arrays are copied once each time one of them leaves the search. With P
    rows tried, each call tries max(1, _TRIES // P) successive halvings of
    every row at once, and a row takes the first that decreases: a lone
    row's loss costs little more than the call, so its next tries come
    almost free."""
    found = np.zeros(w.shape[0], dtype=bool)
    pending = pending[t[pending] >= t_min]
    while pending.size:
        if 2 * pending.size > w.shape[0]:
            tried_rows = np.arange(w.shape[0])
            sub_gt, sub_evidence, sub_floor = gt, evidence, floor
            sub_w, sub_dir, sub_loss = w, direction, loss
            searching = np.zeros(w.shape[0], dtype=bool)
            searching[pending] = True
        else:
            tried_rows = pending
            sub_gt, sub_evidence, sub_floor = gt[pending], _take(evidence, pending), floor[pending]
            sub_w, sub_dir, sub_loss = w[pending], direction[pending], loss[pending]
            searching = np.ones(pending.size, dtype=bool)
        tries = max(1, _TRIES // tried_rows.size)
        direct = tries == 1 and pending.size == w.shape[0]  # s lands in scores
        out = scores[:, None] if direct else np.empty((tried_rows.size, tries, gt.shape[1]))
        halvings = 0.5 ** np.arange(tries)
        sub_t = t[tried_rows]
        while True:
            tried = sub_t[:, None] * halvings
            trial = project_to_simplex(sub_w[:, None] + tried[..., None] * sub_dir[:, None])
            trial_loss = kernels.loss_value(matrix, trial, sub_gt[:, None],
                                            sub_evidence[:, None], sub_floor[:, None], out)
            better = (trial_loss < sub_loss[:, None]) & (tried >= t_min) & searching[:, None]
            if better.any():
                break
            sub_t = tried[:, -1] * 0.5
            if not (sub_t[searching] >= t_min).all():
                break
        hit = better.any(axis=1)
        if hit.any():
            first = better.argmax(axis=1)
            pick = (hit.nonzero()[0], first[hit])
            won = tried_rows[hit]
            cand[won], loss[won], found[won] = trial[pick], trial_loss[pick], True
            if not direct:
                scores[won] = out[pick]
            sub_t = np.where(hit, tried[np.arange(tried_rows.size), first], tried[:, -1] * 0.5)
        t[tried_rows[searching]] = sub_t[searching]
        lost = tried_rows[searching & ~hit]
        pending = lost[t[lost] >= t_min]
    return found


def _descend(matrix, gt, evidence, floor, start, step, opts: SolverOptions):
    """Monotone projected Newton descent of a group of images in lockstep,
    from start (B, L), with `step` each image's first gradient step length.

    Each iteration backtracks along the Newton direction from t = 1 down to
    1e-6. If that gives no decrease, or there is no Newton direction, it
    takes a projected-gradient step instead, backtracking from a step
    length that halves on each rejection and doubles after each accepted
    gradient step. An image stops when no step decreases its loss, when the
    decrease falls below loss_tolerance, or after max_iters iterations.

    A stopped image leaves the group: _partition moves the rows of gt,
    evidence and floor of the running images to the front, in place, and
    the rest of the descent works on that prefix, so nothing is copied.
    Returns the end weights (B, L), their losses (B,) and each image's
    Newton iterations (B,), in the input row order, and the row order it
    leaves behind: row i of the arrays then holds input row order[i].
    """
    end_w, end_loss = start.copy(), np.empty(start.shape[0])
    iterations = np.zeros(start.shape[0], dtype=np.int64)
    order = np.arange(start.shape[0])
    w, step = start, step.copy()
    loss, grad = kernels.loss_grad(matrix, w, gt, evidence, floor)
    scores = np.empty(gt.shape)
    known = None

    def leave(stop, *extra):
        """Drop the stopped rows; returns the extra row arrays of the
        running ones."""
        nonlocal w, loss, grad, step, gt, evidence, floor, scores
        rows = order[:stop.size]
        end_w[rows[stop]], end_loss[rows[stop]] = w[stop], loss[stop]
        moved = _partition(~stop, gt, evidence, floor, scores)
        order[:stop.size] = rows[moved]
        k = stop.size - int(stop.sum())
        w, loss, grad, step = w[moved[:k]], loss[moved[:k]], grad[moved[:k]], step[moved[:k]]
        gt, evidence, floor, scores = gt[:k], evidence[:k], floor[:k], scores[:k]
        return [arr[moved[:k]] for arr in extra]

    for _ in range(opts.max_iters):
        iterations[order[:w.shape[0]]] += 1
        hess = kernels.loss_hessian(matrix, w, gt, evidence, floor, known)
        direction, newton = _newton_directions(w, grad, hess)
        cand, cand_loss = w.copy(), loss.copy()
        t = np.ones(w.shape[0])
        accepted = _first_decrease(matrix, gt, evidence, floor, w, cand_loss, direction, t,
                                   _NEWTON_MIN_STEP, newton.nonzero()[0], cand, scores)
        fallback = (~accepted).nonzero()[0]
        by_gradient = _first_decrease(matrix, gt, evidence, floor, w, cand_loss, -grad, step,
                                      opts.step_tolerance, fallback, cand, scores)
        step[by_gradient] *= 2.0
        accepted |= by_gradient
        drop = loss - cand_loss
        if not accepted.all():
            cand, drop = leave(~accepted, cand, drop)
            if not w.shape[0]:
                break
        w = cand
        loss, grad = kernels.loss_grad(matrix, w, gt, evidence, floor, scores)
        small = drop < opts.loss_tolerance
        if small.any():
            leave(small)
            if not w.shape[0]:
                break
        known = scores
    else:
        leave(np.ones(w.shape[0], dtype=bool))
    return end_w, end_loss, iterations, order


def _stack(matrix, sample_sets, epsilon):
    """The group's evidence as a (B, N, L) view of label-major (B, L, N)
    zeros, filled per image up to its sample count; gt (B, N), zero where
    padded; and the clamp floors (B, N): epsilon, and 1 at the padding."""
    counts = np.array([len(samples) for samples in sample_sets])
    size = counts.max()
    evidence = np.zeros((len(sample_sets), matrix.shape[0], size))
    gt = np.zeros((len(sample_sets), size), dtype=np.int64)
    for b, samples in enumerate(sample_sets):
        np.multiply(matrix[:, samples.gt], samples.probs.T, out=evidence[b, :, :counts[b]])
        gt[b, :counts[b]] = samples.gt
    floor = np.where(np.arange(size) < counts[:, None], epsilon, 1.0)
    return np.swapaxes(evidence, 1, 2), gt, floor


def solve_unconstrained_prior(
    confusion: ConfusionModel,
    samples: SampleSet | Sequence[SampleSet],
    opts: SolverOptions = SolverOptions(),
    reports: list[SolveReport] | None = None,
) -> Prior | list[Prior]:
    """Minimize the refinement log-loss over the simplex.

    `samples` is one SampleSet, giving one Prior, or a sequence of them,
    solved together in lockstep and giving a list of Priors in order.
    Descends from the configured init (sample histogram by default); where
    the uniform prior scores better than that result, descends again from
    uniform and keeps the better endpoint. A result therefore never loses to
    its init, the histogram prior, or the uniform prior. `reports`, when a
    list, receives one SolveReport per image.
    """
    single = isinstance(samples, SampleSet)
    sample_sets = [samples] if single else list(samples)
    n = confusion.n_labels
    matrix = confusion.matrix
    for item in sample_sets:
        if len(item) == 0:
            raise DataError("empty sample set")
        if item.probs.shape[1] != n:
            raise DataError(f"samples have {item.probs.shape[1]} labels, confusion {n}")
    evidence, gt, floor = _stack(matrix, sample_sets, opts.epsilon)
    counts = np.array([len(item) for item in sample_sets], dtype=np.float64)
    uniform = np.full((len(sample_sets), n), 1.0 / n)
    if opts.init == "uniform":
        start = uniform
    else:
        start = np.stack([np.bincount(item.gt, minlength=n) for item in sample_sets])
        start = start / counts[:, None]
    start_loss = kernels.loss_value(matrix, start, gt, evidence, floor)
    if not np.isfinite(start_loss).all():
        raise DataError("non-finite loss at solver init")
    uniform_loss = kernels.loss_value(matrix, uniform, gt, evidence, floor)
    w, loss, first, order = _descend(matrix, gt, evidence, floor, start, 1.0 / counts, opts)
    again = (uniform_loss < loss).nonzero()[0]
    second = np.zeros_like(first)
    if again.size:
        # the restart's images to the front of the rows the descent left
        moved = _partition(np.isin(order, again), gt, evidence, floor)
        again, k = order[moved[:again.size]], again.size
        w2, loss2, second[again], _ = _descend(matrix, gt[:k], evidence[:k], floor[:k],
                                               uniform[:k], 1.0 / counts[again], opts)
        better = loss2 < loss[again]
        w[again[better]], loss[again[better]] = w2[better], loss2[better]
    total = w.sum(axis=1, keepdims=True)
    w = np.where(np.abs(total - 1.0) > 1e-12, w / total, w)
    if reports is not None:
        restarted = np.zeros(len(sample_sets), dtype=bool)
        restarted[again] = True
        reports.extend(
            SolveReport((int(a), int(b)) if r else (int(a),), float(value))
            for a, b, r, value in zip(first, second, restarted, loss)
        )
    priors = [Prior(row) for row in w]
    return priors[0] if single else priors


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
