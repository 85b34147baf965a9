"""Label priors P(l): uniform, global, binary, histogram, and the solved
(unconstrained) prior, which minimizes the refinement negative log-loss over
the probability simplex by projected Newton descent."""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .confusion import ConfusionModel
from .data import (
    LabelMap,
    LabelSet,
    Manifest,
    ProbabilityMap,
    SUM_TOL,
    _frozen_array,
    _is_json_int,
    LABELS,
    PROBS,
    _load_chunks,
    load_with_sidecar,
    store_with_sidecar,
)
from .errors import DataError

EPSILON = 1e-10
_NEWTON_MIN_STEP = 1e-6
# An image's descent stops once an iteration lowers its loss by less than this.
_LOSS_TOLERANCE = 1e-10
_ZERO_WEIGHT = 1e-12
PRIOR_KINDS = ("uniform", "global", "binary", "histogram", "unconstrained")
DEFAULT_SUBSAMPLE = 100_000
# Bytes of float64 evidence, its images padded to the widest, at which
# solve_unconstrained_prior solves a lockstep group; the group's arrays are
# sized for that many. The prior stage drops each image's maps and samples
# once they are cut in, so a solve holds about this much.
# Larger groups take fewer lockstep iterations: on the benchmark's
# many_small workload (2-core VM), 2 MiB groups made the stage about 7%
# faster than 1 MiB groups, and 4 MiB about 5% faster again, but 4 MiB
# raised the benchmark's peak memory by about 4 MB where 2 MiB stayed
# within 1 MB. Where the images have equal sample counts, the budget changes
# no prior; where counts differ, padding an image to a wider group can
# change its last bits.
SOLVE_BUDGET = 2 << 20
# Line-search tries per round when one image is still searching; see
# _first_decrease.
_TRIES = 8


@dataclass(frozen=True)
class Prior:
    """A distribution over the label set (zero entries allowed)."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights, np.float64)
        if arr.ndim != 1:
            raise DataError(f"prior must be a vector of >= 2 weights, got {arr.shape}")
        _check_priors(arr)
        object.__setattr__(self, "weights", arr)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)


def _check_priors(weights: np.ndarray) -> None:
    """DataError unless each row of weights (..., L) is a prior: L >= 2
    weights, none negative or NaN, summing to 1 within SUM_TOL."""
    if weights.shape[-1] < 2:
        raise DataError(f"prior must be a vector of >= 2 weights, got {weights.shape[-1:]}")
    if not (weights >= 0).all():
        raise DataError("prior weights must be >= 0, not NaN")
    totals = weights.sum(axis=-1)
    bad = ~(np.abs(totals - 1.0) <= SUM_TOL)
    if bad.any():
        raise DataError(f"prior sums to {float(totals[bad].flat[0])!r}, not 1")


@dataclass(frozen=True)
class SolverOptions:
    """The unconstrained prior's options, the keys of `--solver-opts`: the
    Newton iterations per image, the sites cut from each image and the seed
    of that cut."""

    max_iters: int = 500
    subsample: int = DEFAULT_SUBSAMPLE
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("subsample", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_json_int(value) or value < low:
                raise DataError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class SolveReport:
    """What the solver did for one image: the Newton iterations of its
    descent and the image's final loss."""

    iterations: int
    loss: float


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
        _check_priors(arr)
        rows = {image_id: idx for idx, image_id in enumerate(self.ids)}
        if len(rows) != len(self.ids):
            raise DataError("duplicate image ids in prior bank")
        object.__setattr__(self, "_rows", rows)

    def get(self, image_id: str) -> Prior:
        return Prior(self.rows([image_id])[0])

    def rows(self, image_ids) -> np.ndarray:
        """The weights of the given ids, one row each, in their order."""
        try:
            return self.weights[[self._rows[image_id] for image_id in image_ids]]
        except KeyError as exc:
            raise DataError(f"no prior for image {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# closed-form priors
# ---------------------------------------------------------------------------

def uniform_prior(labels: LabelSet) -> Prior:
    return Prior(np.full(labels.size, 1.0 / labels.size))


def _label_counts(gt: LabelMap, labels: LabelSet) -> np.ndarray:
    """Non-void pixels per label, float64: (L,) for one map, (B, L) for a
    stack of B maps. Counted over kernels._pixel_blocks, by one bincount per
    block with each map's labels offset by L times its place in the block,
    so no temporary is larger than a block."""
    flat = gt.labels.reshape(-1, gt.labels.shape[-2] * gt.labels.shape[-1])
    counts = np.zeros((len(flat), labels.size), dtype=np.int64)
    for images, pixels in kernels._pixel_blocks(*flat.shape):
        block = flat[images, pixels]
        offsets = labels.size * np.arange(len(block), dtype=block.dtype)[:, None]
        valid = (block + offsets)[block != labels.void_sentinel]
        counts[images] += np.bincount(valid, minlength=counts[images].size).reshape(-1, labels.size)
    return counts.reshape(gt.labels.shape[:-2] + (labels.size,)).astype(np.float64)


def _chunk_counts(manifest: Manifest, split: str):
    """_label_counts of every gt map of `split`, a (B, L) array per chunk."""
    labels = manifest.label_set
    for _, (gt,) in _load_chunks(manifest.split_records(split), lambda rec: (rec.gt_path,),
                                 (LABELS,), labels):
        yield _label_counts(gt, labels)


def global_prior(manifest: Manifest, split: str = "estimation") -> Prior:
    """L1-normalized label histogram pooled over every image of `split`."""
    counts = sum(chunk.sum(axis=0) for chunk in _chunk_counts(manifest, split))
    total = counts.sum()
    if total == 0:
        raise DataError("no non-void pixels in split")
    return Prior(counts / total)


def _binary_weights(counts: np.ndarray) -> np.ndarray:
    """1/k on each of the k labels counted in a row of counts, else 0."""
    present = counts > 0
    k = present.sum(axis=-1, keepdims=True)
    if (k == 0).any():
        raise DataError("all-void image has no binary prior")
    return present.astype(np.float64) / k


def _histogram_weights(counts: np.ndarray) -> np.ndarray:
    """Each row of counts L1-normalized."""
    totals = counts.sum(axis=-1, keepdims=True)
    if (totals == 0).any():
        raise DataError("all-void image has no histogram prior")
    return counts / totals


def binary_prior(gt: LabelMap, labels: LabelSet) -> Prior:
    """1/k on each of the k classes present in gt, zero elsewhere."""
    return Prior(_binary_weights(_label_counts(gt, labels)))


def histogram_prior(gt: LabelMap, labels: LabelSet) -> Prior:
    """Per-image L1-normalized label histogram."""
    return Prior(_histogram_weights(_label_counts(gt, labels)))


# ---------------------------------------------------------------------------
# solved prior: Eq-style negative log-loss over the simplex
# ---------------------------------------------------------------------------

def sample_set(gt: LabelMap, probs: ProbabilityMap, labels: LabelSet,
               max_samples: int | None = None,
               rng: np.random.Generator | np.random.SeedSequence | None = None) -> SampleSet:
    """Collect (gt, classifier output) pairs from non-void pixels in pixel
    order, optionally subsampled without replacement to max_samples (the
    prior stage's subsample rule: None or an integer >= 1) by rng, a
    Generator or its seed (0 when None)."""
    if max_samples is not None:
        SolverOptions(subsample=max_samples)
    if gt.labels.shape != probs.values.shape[:2]:
        raise DataError(f"gt {gt.labels.shape} and probs {probs.values.shape[:2]} disagree")
    flat_gt = gt.labels.ravel()
    idx = np.flatnonzero(flat_gt != labels.void_sentinel)
    if max_samples is not None and idx.size > max_samples:
        rng = np.random.default_rng(0 if rng is None else rng)
        idx = np.sort(rng.choice(idx, size=max_samples, replace=False))
    return SampleSet(gt=flat_gt[idx], probs=probs.values.reshape(-1, probs.channels)[idx])


def _loss_inputs(prior, confusion: ConfusionModel, samples: SampleSet):
    """The loss kernels' matrix, weights, gt and evidence for prior on samples."""
    if len(samples) == 0:
        raise DataError("empty sample set")
    w = np.asarray(getattr(prior, "weights", prior), dtype=np.float64)
    if w.shape != (confusion.n_labels,):
        raise DataError(f"prior shape {w.shape} does not match {confusion.n_labels} labels")
    evidence = kernels.sample_evidence(confusion.matrix, samples.gt, samples.probs)
    return confusion.matrix, w, samples.gt, evidence


def refinement_loss(prior, confusion: ConfusionModel, samples: SampleSet) -> float:
    """Sum over samples of -log(max(refined gt probability, EPSILON))."""
    return kernels.loss_value(*_loss_inputs(prior, confusion, samples), EPSILON)


def refinement_loss_gradient(prior, confusion: ConfusionModel, samples: SampleSet) -> np.ndarray:
    """d(loss)/d(prior), accounting for P(C=c) = sum_l P(C=c|l) P(l): the
    gradient of kernels.loss_grad, without its Hessian."""
    matrix, *image = _loss_inputs(prior, confusion, samples)
    # a stack of one, as loss_grad passes it, so the bits are loss_grad's
    return kernels._gradient(matrix, *(arr[None] for arr in image), EPSILON)[0][0]


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
    the simplex projection keeps rounding-level mass on labels a step did
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
        block = hess[rows[:, None, None], idx[:, :, None], idx[:, None, :]]
        if not np.isfinite(block).all():
            finite = np.isfinite(block).all(axis=(1, 2))
            rows, idx, block = rows[finite], idx[finite], block[finite]
        lam, vecs = np.linalg.eigh(basis.T @ block @ basis)
        mag = np.abs(lam)
        top = mag.max(axis=1, keepdims=True)
        if not (top > 0).all():
            ok = top[:, 0] > 0
            rows, idx, mag, top, vecs = rows[ok], idx[ok], mag[ok], top[ok], vecs[ok]
        reduced_grad = kernels._rowwise(grad[rows[:, None], idx], basis)
        coef = kernels._rowwise(reduced_grad, vecs) / np.maximum(mag, 1e-8 * top)
        direction[rows[:, None], idx] = -kernels._rowwise((vecs @ coef[:, :, None])[:, :, 0],
                                                          basis.T)
        found[rows] = True
    return direction, found


# Bytes of rows that _partition copies at a time, the block of loss_grad's
# Hessian.
_SWAP_BUDGET = 8 * kernels.HESSIAN_BLOCK


def _partition(keep, *arrays):
    """Reorder the rows of each array in place, by swaps, so that the rows
    where keep is True come first. The other rows keep their data, behind
    them.

    The rows before the count of keep where it is False, ascending, swap
    with the rows behind them where it is True, descending. Blocks of pairs
    swap at once as long as their copies stay within _SWAP_BUDGET bytes;
    where two rows are larger than that, a pair swaps through a copy of one
    row."""
    k = int(np.count_nonzero(keep))
    front, back = (~keep[:k]).nonzero()[0], k + keep[k:].nonzero()[0][::-1]
    if not front.size:  # the kept rows already come first
        return
    rows, swapped = np.empty((2, 2 * front.size), dtype=np.intp)
    rows[0::2] = swapped[1::2] = front
    rows[1::2] = swapped[0::2] = back
    for arr in arrays:
        step = _SWAP_BUDGET // arr[0].nbytes // 2 * 2
        if not step:
            for i, j in zip(front.tolist(), back.tolist()):
                arr[i], arr[j] = arr[j], arr[i].copy()
            continue
        for start in range(0, rows.size, step):
            arr[rows[start:start + step]] = arr[swapped[start:start + step]]


def _first_decrease(matrix, group, w, loss, direction, searching, carried):
    """Backtrack project_to_simplex(w + t * direction) for each row where
    `searching` is True, halving t from 1 while t >= _NEWTON_MIN_STEP, to
    the first strict decrease of the row's loss. A row that finds one takes
    the step in place: its weights in w and their loss in loss. A row that
    finds none keeps its w and loss.

    Each round first moves the searching rows to the front, in place, by
    _partition, of every array given: the group's (gt, evidence, floor),
    w, loss, the direction and `carried`, the caller's other arrays with one
    row per image (no two sharing memory, since a second swap of the same
    rows would undo the first). So row i of every array still describes one
    image, and the searching rows are tried as a prefix. They all start at
    t = 1 and each round tries the same halvings on all of them, so they
    share one t. With P rows searching, a round tries max(1, _TRIES // P)
    successive halvings of every row at once (a lone row's next tries come
    almost free), and a row takes the first that decreases. The loss kernels
    compute each row on its own, so neither P nor the number of tries
    changes a row's result."""
    n = w.shape[0]
    gt, evidence, floor = group
    t = 1.0
    while t >= _NEWTON_MIN_STEP and (p := int(np.count_nonzero(searching))):
        _partition(searching, *group, w, loss, direction, *carried)
        tries = max(1, _TRIES // p)
        tried = t * 0.5 ** np.arange(tries)
        trial = project_to_simplex(w[:p, None] + tried[:, None] * direction[:p, None])
        trial_loss = kernels.loss_value(matrix, trial, gt[:p, None], evidence[:p, None],
                                        floor[:p, None])
        better = (trial_loss < loss[:p, None]) & (tried >= _NEWTON_MIN_STEP)
        hit = better.any(axis=1)
        if hit.any():
            won = hit.nonzero()[0]
            pick = (won, better[won].argmax(axis=1))
            w[won], loss[won] = trial[pick], trial_loss[pick]
        t = tried[-1] * 0.5
        searching = np.zeros(n, dtype=bool)
        searching[:p] = ~hit


def _descend(matrix, gt, evidence, floor, start, opts: SolverOptions):
    """Monotone projected Newton descent of a group of images in lockstep,
    from start (B, L) or, for an image where the uniform prior's loss is
    strictly lower, from uniform. A non-finite loss at start is a
    DataError.

    Each iteration takes the gradient and Hessian at the image's weights
    from one loss_grad call, then backtracks along the Newton direction from
    t = 1 down to 1e-6 and writes an accepted step in place. An image stops
    when its loss falls by less than _LOSS_TOLERANCE, which covers the cases
    where the search finds no decrease or the image has no Newton direction
    (a drop of 0), or after max_iters iterations.

    Row i of each array the descent works on describes one image: gt,
    evidence and floor, and the image's weights, loss and input row. The
    running images are the first k rows of every array. Where images stop,
    or the line search sets its searching images apart, _partition reorders
    the arrays in place by the same swaps, so nothing is copied. A stopped
    image stays behind the prefix with its final weights and loss, and its
    iteration count is written at its input row.
    Returns the end weights (B, L), their losses (B,) and each image's
    Newton iterations (B,), in the input row order.
    """
    n = start.shape[0]
    w = start.copy()
    loss = kernels.loss_value(matrix, w, gt, evidence, floor)
    if not np.isfinite(loss).all():
        raise DataError("non-finite loss at the solver's start")
    uniform = np.full(w.shape, 1.0 / w.shape[1])
    uniform_loss = kernels.loss_value(matrix, uniform, gt, evidence, floor)
    wins = uniform_loss < loss
    w[wins], loss[wins] = uniform[wins], uniform_loss[wins]
    every = (gt, evidence, floor, w, loss, np.arange(n))
    iterations = np.full(n, opts.max_iters)
    k = n
    for it in range(opts.max_iters):
        rows = [arr[:k] for arr in every]
        gt, evidence, floor, w, loss, order = rows
        grad, hess = kernels.loss_grad(matrix, w, gt, evidence, floor)
        direction, newton = _newton_directions(w, grad, hess)
        before = loss.copy()
        _first_decrease(matrix, rows[:3], w, loss, direction, newton, (before, order))
        going = before - loss >= _LOSS_TOLERANCE
        if not going.all():  # the stopped images keep w and loss, behind the prefix
            _partition(going, *rows)
            k = int(np.count_nonzero(going))
            iterations[order[k:]] = it + 1
            if not k:
                break
    w, loss, order = every[3], every[4], every[5]
    inverse = np.argsort(order)
    return w[inverse], loss[inverse], iterations


class _SolveGroup:
    """The arrays a lockstep solve reads, cut in one image at a time: the
    float64 evidence M[:, g] * p of each sample, label-major (B, L, N), and
    gt (B, N), zero where padded to N, the most samples of an image. At the
    first image, and at a wider one, they are allocated anew by a copy, with
    rows for as many images of the new width as SOLVE_BUDGET has room for,
    but at most `limit`, the images left to cut in."""

    def __init__(self, matrix: np.ndarray, limit: int, rows: int = 0, width: int = 0):
        self.matrix, self.limit, self.counts = matrix, limit, []
        self.evidence = np.zeros((rows, len(matrix), width))
        self.gt = np.zeros((rows, width), dtype=np.int64)

    def add(self, gt: np.ndarray, probs: np.ndarray) -> None:
        """Cut in one image's samples, gt (n,) and probs (n, L)."""
        b, n, (had, width) = len(self.counts), len(gt), self.gt.shape
        if b == had or n > width:
            rows = max(b + 1, -(-SOLVE_BUDGET // (8 * len(self.matrix) * max(n, width))))
            grown = _SolveGroup(self.matrix, self.limit, min(rows, self.limit), max(n, width))
            grown.evidence[:b, :, :width], grown.gt[:b, :width] = self.evidence[:b], self.gt[:b]
            self.evidence, self.gt = grown.evidence, grown.gt
        np.multiply(self.matrix[:, gt], probs.T, out=self.evidence[b, :, :n])
        self.gt[b, :n] = gt
        self.counts.append(n)

    def full(self, n: int) -> bool:
        """Whether the images, padded to a next one of n samples, reach SOLVE_BUDGET."""
        return len(self.counts) * max(n, self.gt.shape[1]) * 8 * len(self.matrix) >= SOLVE_BUDGET

    def close(self, solved: list[Prior], opts: SolverOptions,
              reports: list[SolveReport] | None) -> _SolveGroup:
        """Solve the images in lockstep, onto `solved` in order; return the next group."""
        matrix, counts = self.matrix, np.array(self.counts)
        evidence, gt = np.swapaxes(self.evidence[:counts.size], 1, 2), self.gt[:counts.size]
        floor = np.where(np.arange(gt.shape[1]) < counts[:, None], EPSILON, 1.0)
        hist = np.stack([np.bincount(row[:c], minlength=len(matrix)) for row, c in zip(gt, counts)])
        w, loss, iterations = _descend(matrix, gt, evidence, floor, hist / counts[:, None], opts)
        w[w <= _ZERO_WEIGHT] = 0.0  # the descent's one zero rule, so a prior's support is exact
        total = w.sum(axis=1, keepdims=True)
        w = np.where(np.abs(total - 1.0) > 1e-12, w / total, w)
        if reports is not None:
            reports.extend(SolveReport(int(i), float(value)) for i, value in zip(iterations, loss))
        solved.extend(Prior(row) for row in w)
        return _SolveGroup(matrix, self.limit - counts.size)


def solve_unconstrained_prior(
    confusion: ConfusionModel,
    samples: SampleSet | Sequence[SampleSet],
    opts: SolverOptions = SolverOptions(),
    reports: list[SolveReport] | None = None,
) -> Prior | list[Prior]:
    """Minimize the refinement log-loss over the simplex.

    `samples` is one SampleSet, giving one Prior, or a sequence of them,
    read one at a time (so its items may be made as they are read), giving a
    list of Priors in order. They are solved in lockstep groups: a group of
    b images N wide is solved once b * N * 8 * L reaches SOLVE_BUDGET, or
    before an image of n > N samples joins if b * n * 8 * L would; with
    equal sample counts a group holds ceil(SOLVE_BUDGET / image bytes)
    images. The loss clamps each sample's refined gt probability at EPSILON.
    Each image descends once, from the better of its sample histogram and
    the uniform prior (the histogram where they tie), and the descent is
    monotone, so a result never loses to the histogram prior or the uniform
    prior. Only opts.max_iters applies here: the samples are passed in, so
    opts.subsample and opts.seed have nothing to cut. `reports`, when a
    list, receives one SolveReport per image. Items are checked as they are
    read: a bad one raises DataError once the groups before it are solved
    and in `reports`.
    """
    n, matrix = confusion.n_labels, confusion.matrix
    single = isinstance(samples, SampleSet)
    items = [samples] if single else samples
    solved, group = [], _SolveGroup(matrix, len(items))
    for item in items:  # no enumerate: its cached result tuple would hold the last item
        if len(item) == 0:
            raise DataError("empty sample set")
        if item.probs.shape[1] != n:
            raise DataError(f"samples have {item.probs.shape[1]} labels, confusion {n}")
        if group.full(len(item)):  # only for a wider item: a group full at its width closed below
            group = group.close(solved, opts, reports)
        group.add(item.gt, item.probs)
        del item  # its samples are in the group's arrays, and a solve need not hold them twice
        if group.full(0):
            group = group.close(solved, opts, reports)
    if group.counts:
        group.close(solved, opts, reports)
    if not solved:
        raise DataError("no sample sets to solve")
    return solved[0] if single else solved


class _ImageSamples:
    """The sample_set of each of `records`, made as it is read from the
    image's maps, loaded as a chunk of one and dropped before it returns."""

    def __init__(self, records, labels: LabelSet, opts: SolverOptions):
        self.records, self.labels, self.opts = records, labels, opts

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, idx: int) -> SampleSet:  # plain iteration keeps no item it read
        rec = self.records[idx]  # an IndexError past the end ends the iteration
        ((_, (gt, probs)),) = _load_chunks([rec], lambda r: (r.gt_path, r.probs_path),
                                           (LABELS, PROBS), self.labels)
        # fit on every annotated, classified site of the image; the
        # evaluation scores all pixels, so masked fitting skews the solved
        # weights off the image's true composition
        samples = sample_set(LabelMap(gt.labels[0]), ProbabilityMap(probs.values[0]), self.labels,
                             self.opts.subsample,
                             np.random.SeedSequence(self.opts.seed, spawn_key=(idx,)))
        if not len(samples):
            raise DataError(f"{rec.image_id}: no usable solver samples")
        return samples


def build_prior_bank(manifest: Manifest, kind: str, out: str | Path,
                     confusion: ConfusionModel | None = None,
                     opts: SolverOptions = SolverOptions()) -> PriorBank:
    """The prior stage: publish a bank of one `kind` prior per evaluation
    image at out, and return it. The unconstrained kind needs `confusion`;
    it loads one image's maps at a time, takes its sample_set of up to
    opts.subsample sites drawn with opts.seed and the image's index, drops
    the maps, and hands the sample sets, made as they are read, to one
    solve_unconstrained_prior call, which forms the lockstep groups; it
    records opts in the sidecar."""
    if kind not in PRIOR_KINDS:
        raise DataError(f"unknown prior kind {kind!r}")
    labels = manifest.label_set
    eval_records = manifest.split_records("evaluation")
    ids = tuple(r.image_id for r in eval_records)
    solver_meta = None

    if kind in ("uniform", "global"):
        shared = uniform_prior(labels) if kind == "uniform" else global_prior(manifest)
        weights = np.tile(shared.weights, (len(ids), 1))
    elif kind in ("binary", "histogram"):
        build = _binary_weights if kind == "binary" else _histogram_weights
        weights = np.concatenate([build(counts) for counts in
                                  _chunk_counts(manifest, "evaluation")])
    else:  # unconstrained
        if confusion is None:
            raise DataError("the unconstrained prior needs a confusion model")
        if confusion.n_labels != labels.size:
            raise DataError(f"confusion has {confusion.n_labels} labels, manifest {labels.size}")
        samples = _ImageSamples(eval_records, labels, opts)
        weights = np.stack([p.weights for p in solve_unconstrained_prior(confusion, samples, opts)])
        solver_meta = asdict(opts)

    bank = PriorBank(kind=kind, ids=ids, weights=weights, solver=solver_meta)
    save_prior_bank(bank, out)
    return bank


# ---------------------------------------------------------------------------
# persistence: SEGT f32 N x |L| + JSON sidecar
# ---------------------------------------------------------------------------

def save_prior_bank(bank: PriorBank, path: str | Path) -> None:
    meta = {"kind": bank.kind, "ids": list(bank.ids), "solver": bank.solver}
    store_with_sidecar(path, bank.weights.astype(np.float32), meta)


def load_prior_bank(path: str | Path) -> PriorBank:
    """Rows renormalized in float64: the f32 file rounds them off the 1e-9
    simplex invariant."""
    arr, meta = load_with_sidecar(path)
    ids = meta.get("ids", [])
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise DataError(f"{path}: sidecar ids must be a list of strings")
    solver = meta.get("solver")
    if solver is not None and not isinstance(solver, dict):
        raise DataError(f"{path}: sidecar solver must be an object or null")
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
