"""Synthetic datasets with a known confusion process.

Ground truth is a seeded Voronoi partition into single-class regions; the
simulated classifier draws a hard label per pixel from the chosen column of
the true confusion matrix and emits a soft distribution peaked there. All
randomness flows from one root seed through per-image spawned streams, so
regeneration is byte-identical and no image's draws depend on another's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import data, kernels
from .confusion import ConfusionModel, DEFAULT_FLOOR, floored_columns
from .data import (
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    ProbabilityMap,
    _is_json_int,
    _is_json_number,
    load_label_map,
    load_probability_map,
    publish,
    read_json,
    save_label_map,
    save_probability_map,
    write_json,
)
from .errors import DataError

SPEC_FILENAME = "synthspec.json"
MANIFEST_FILENAME = "manifest.json"
# Bytes of one image's float32 probabilities and its three per-pixel 8-byte
# draws (hard-label uniforms, corruption coin, replacement labels), all held
# while it is built; a spec whose maps pass this is refused before anything
# is allocated. A 512x512 map of 20 classes takes 27 MB.
MAX_IMAGE_BYTES = 1 << 31

@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters.

    region_scale is the expected region diameter in pixels. sharpness > 0
    controls how peaked soft outputs are (the argmax always equals the drawn
    hard label). border_noise corrupts hard labels within Chebyshev distance
    1 of ground-truth region borders. min/max_classes_per_image bound the
    per-image class subset. eval_confusion_drift, when positive, draws
    evaluation-split hard labels from a per-class sharpened/flattened blend
    of the true matrix, modeling a classifier whose mistakes shift on data
    unseen by confusion estimation; the estimation split always uses the
    true matrix exactly.
    """

    n_classes: int
    height: int
    width: int
    n_estimation: int
    n_evaluation: int
    region_scale: float
    true_confusion: np.ndarray
    sharpness: float
    seed: int
    border_noise: float = 0.0
    min_classes_per_image: int | None = None
    max_classes_per_image: int | None = None
    eval_confusion_drift: float = 0.0

    def __post_init__(self):
        # the JSON path's type rules, so a library caller gets a DataError
        # rather than a TypeError deep inside generation; float fields are
        # stored as float, so an integer value saves as it would load
        for key in _INT_FIELDS + _BOUND_FIELDS:
            value = getattr(self, key)
            if not (_is_json_int(value) or (value is None and key in _BOUND_FIELDS)):
                raise DataError(f"{key} {value!r} is not an integer")
        for key in _FLOAT_FIELDS + _OPTIONAL_FLOAT_FIELDS:
            value = getattr(self, key)
            if not _is_json_number(value):
                raise DataError(f"{key} {value!r} is not a number")
            try:
                object.__setattr__(self, key, float(value))
            except OverflowError as exc:
                raise DataError(f"{key} is too large for a float") from exc
        T = np.asarray(self.true_confusion)
        if T.dtype.kind not in "iuf":
            raise DataError(f"true_confusion entries are {T.dtype}, not numbers")
        T = np.asarray(T, dtype=np.float64)
        if T.shape != (self.n_classes, self.n_classes):
            raise DataError(
                f"true_confusion {T.shape} does not match {self.n_classes} classes"
            )
        if not np.isfinite(T).all():
            raise DataError("true_confusion must be finite")
        if (T < 0).any() or np.abs(T.sum(axis=0) - 1.0).max() > data.SUM_TOL:
            raise DataError("true_confusion columns must be stochastic")
        T = T.copy()
        T.flags.writeable = False
        object.__setattr__(self, "true_confusion", T)
        if self.n_classes < 2:
            raise DataError("need >= 2 classes")
        if min(self.height, self.width) < 1:
            raise DataError("image size must be positive")
        image_bytes = self.height * self.width * (4 * self.n_classes + 3 * 8)
        if image_bytes > MAX_IMAGE_BYTES:
            raise DataError(f"a {self.height}x{self.width} map of {self.n_classes} classes "
                            f"takes {image_bytes} bytes to build, over the "
                            f"{MAX_IMAGE_BYTES}-byte cap")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.n_estimation < 0 or self.n_evaluation < 0:
            raise DataError("split sizes must be >= 0")
        # a scale below 1 asks for more Voronoi seeds than pixels, and the
        # seed count divides by its square
        if not (self.region_scale >= 1 and math.isfinite(self.region_scale * self.region_scale)):
            raise DataError(f"region_scale {self.region_scale} is not >= 1 with a finite square")
        if not self.sharpness > 0:
            raise DataError("sharpness must be positive")
        if not 0.0 <= self.border_noise <= 1.0:
            raise DataError("border_noise must lie in [0, 1]")
        if not 0.0 <= self.eval_confusion_drift < 1.0:
            raise DataError("eval_confusion_drift must lie in [0, 1)")
        lo = self.n_classes if self.min_classes_per_image is None else self.min_classes_per_image
        hi = self.n_classes if self.max_classes_per_image is None else self.max_classes_per_image
        if not 1 <= lo <= hi <= self.n_classes:
            raise DataError(f"bad class subset bounds [{lo}, {hi}]")
        object.__setattr__(self, "min_classes_per_image", lo)
        object.__setattr__(self, "max_classes_per_image", hi)

    @property
    def label_set(self) -> LabelSet:
        return LabelSet(size=self.n_classes)

    @property
    def n_images(self) -> int:
        return self.n_estimation + self.n_evaluation

    def to_dict(self) -> dict:
        return {**asdict(self), "true_confusion": self.true_confusion.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthSpec":
        """Build a spec from its JSON object. The constructor checks the
        scalar fields' types, so nothing is truncated or coerced; the matrix
        entries must be JSON numbers."""
        try:
            matrix = obj["true_confusion"]
            if not (isinstance(matrix, list) and all(
                isinstance(row, list) and all(_is_json_number(v) for v in row)
                for row in matrix
            )):
                raise ValueError(f"true_confusion {matrix!r} is not a list of number rows")
            return cls(true_confusion=np.asarray(matrix, dtype=np.float64),
                       **{key: obj[key] for key in _INT_FIELDS + _FLOAT_FIELDS},
                       **{key: obj.get(key) for key in _BOUND_FIELDS},
                       **{key: obj.get(key, 0.0) for key in _OPTIONAL_FLOAT_FIELDS})
        # OverflowError: a matrix entry too large for a float
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
            raise DataError(f"malformed synth spec ({exc})") from exc

    @classmethod
    def load(cls, path: str | Path) -> "SynthSpec":
        return cls.from_dict(read_json(path))

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with publish(path.parent) as stage:
            write_json(self.to_dict(), stage(path.name))


_INT_FIELDS = ("n_classes", "height", "width", "n_estimation", "n_evaluation", "seed")
_BOUND_FIELDS = ("min_classes_per_image", "max_classes_per_image")
_FLOAT_FIELDS = ("region_scale", "sharpness")
_OPTIONAL_FLOAT_FIELDS = ("border_noise", "eval_confusion_drift")


def true_confusion(spec: SynthSpec, floor: float = DEFAULT_FLOOR) -> ConfusionModel:
    """The generator's matrix floored as normalize_confusion floors counts,
    for direct comparison against estimated models."""
    return ConfusionModel(matrix=floored_columns(spec.true_confusion, floor),
                          source_counts=None, floor=floor)


def eval_confusion_matrix(spec: SynthSpec) -> np.ndarray:
    """Effective hard-label matrix for evaluation-split images.

    With drift d, odd class columns blend toward their own one-hot
    (classifier improved there) and even columns spread their diagonal mass
    over the existing off-diagonal profile (classifier degraded). d = 0
    returns the true matrix.
    """
    T = np.asarray(spec.true_confusion, dtype=np.float64).copy()
    d = spec.eval_confusion_drift
    if d == 0.0:
        return T
    out = T.copy()
    for l in range(spec.n_classes):
        col = T[:, l]
        if l % 2 == 1:
            target = np.zeros_like(col)
            target[l] = 1.0
        else:
            target = col.copy()
            target[l] = 0.0
            total = target.sum()
            if total <= 0:
                continue
            target /= total
        out[:, l] = (1.0 - d) * col + d * target
    return out


def _draw_hard_labels(matrix: np.ndarray, gt_flat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from matrix columns selected by gt_flat, one pixel
    block at a time so the L x block cumulative table stays small."""
    cum = np.cumsum(matrix, axis=0)
    hard = np.empty(gt_flat.shape, dtype=np.int32)
    for start in range(0, gt_flat.size, kernels.PIXEL_BLOCK):
        block = slice(start, start + kernels.PIXEL_BLOCK)
        h = (u[None, block] >= cum[:, gt_flat[block]]).sum(axis=0)
        hard[block] = np.minimum(h, matrix.shape[0] - 1)
    return hard


def _generate_image(spec: SynthSpec, rng: np.random.Generator, hard_matrix: np.ndarray):
    """One image. Draw order is fixed (subset size, subset, seed positions,
    seed classes, hard-label uniforms, corruption coin, corruption
    replacement, soft residuals) and does not depend on knob values, so
    datasets differing only in border_noise are identical off the corrupted
    pixels. The soft residuals are drawn and written into the float32 map
    one pixel block at a time: block-wise Dirichlet draws consume the
    stream exactly as one whole-image draw does."""
    height, width, n = spec.height, spec.width, spec.n_classes
    n_px = height * width
    k = int(rng.integers(spec.min_classes_per_image, spec.max_classes_per_image + 1))
    subset = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int32)
    n_seeds = max(k, int(round(n_px / spec.region_scale**2)))
    seed_r = rng.random(n_seeds) * height
    seed_c = rng.random(n_seeds) * width
    seed_class = np.empty(n_seeds, dtype=np.int32)
    seed_class[:k] = subset
    seed_class[k:] = subset[rng.integers(0, k, size=n_seeds - k)]
    gt = kernels.nearest_seed(height, width, seed_r, seed_c, seed_class)
    gt_flat = gt.ravel()

    u = rng.random(n_px)
    hard = _draw_hard_labels(hard_matrix, gt_flat, u)
    coin = rng.random(n_px)
    wrong = rng.integers(0, n - 1, size=n_px).astype(np.int32)
    wrong = wrong + (wrong >= gt_flat)
    if spec.border_noise > 0.0:
        zone = kernels.border_excluded(gt, 1).ravel()
        corrupt = zone & (coin < spec.border_noise)
        hard = np.where(corrupt, wrong, hard)

    beta = 0.5 / (1.0 + spec.sharpness)
    values = np.empty((height, width, n), dtype=np.float32)
    flat = values.reshape(-1, n)
    for start in range(0, n_px, kernels.PIXEL_BLOCK):
        stop = min(start + kernels.PIXEL_BLOCK, n_px)
        soft = rng.dirichlet(np.ones(n), size=stop - start)
        soft *= beta
        soft[np.arange(stop - start), hard[start:stop]] += 1.0 - beta
        flat[start:stop] = soft
    # values owns its buffer, so the map takes it without a copy
    return LabelMap(gt), ProbabilityMap(values)


def generate_dataset(spec: SynthSpec, out_dir: str | Path) -> Manifest:
    """Write per-image SEGT tensors, synthspec.json and manifest.json under
    out_dir; returns the manifest. Each image derives from its own spawned
    stream, so output is deterministic given spec.seed. Images are built and
    written in groups of data.CHUNK_BUDGET bytes of maps (float32
    probabilities, int32 labels), a map at least that large alone, and
    published with manifest.json last. Writing each map as soon as it is
    computed would hold less, but file creates interleaved with compute cost
    more system time than the same creates back to back."""
    out = Path(out_dir)
    eval_matrix = eval_confusion_matrix(spec)
    true_matrix = np.asarray(spec.true_confusion, dtype=np.float64)
    records = []

    # each group is built and written inside a call: a loop variable bound
    # to built maps would keep them alive while the next group is built
    with publish(out) as stage:
        def write_group(indices):
            # image idx's stream: spawn (idx,) of the seed, as in the prior stage
            built = [_generate_image(
                spec, np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(idx,))),
                true_matrix if idx < spec.n_estimation else eval_matrix) for idx in indices]
            for idx, (gt, probs) in zip(indices, built):
                split = "estimation" if idx < spec.n_estimation else "evaluation"
                image_id = f"img_{idx:04d}"
                probs_name, gt_name = f"{image_id}_probs.segt", f"{image_id}_gt.segt"
                save_probability_map(probs, stage(probs_name))
                save_label_map(gt, stage(gt_name))
                records.append(ManifestRecord(
                    image_id=image_id,
                    probs_path=out / probs_name,
                    gt_path=out / gt_name,
                    split=split,
                ))

        per_group = math.ceil(data.CHUNK_BUDGET
                              / (spec.height * spec.width * (4 * spec.n_classes + 4)))
        for start in range(0, spec.n_images, per_group):
            write_group(range(spec.n_images)[start:start + per_group])
        manifest = Manifest(label_set=spec.label_set, records=tuple(records))
        write_json(spec.to_dict(), stage(SPEC_FILENAME))
        # relative to where the manifest is published, not where it is staged
        write_json(manifest.to_dict(out.resolve()), stage(MANIFEST_FILENAME))
    return manifest


def bayes_optimal_accuracy(spec: SynthSpec, manifest: Manifest) -> float:
    """Accuracy of the exact posterior rule on the generated evaluation
    pixels: argmax_l P_eval(C=h | l) * realized-image-histogram(l), measured
    on the same pixels the pipeline scores. The soft residual carries no
    label information, so the hard label is sufficient."""
    matrix = eval_confusion_matrix(spec)
    correct = total = 0
    for rec in manifest.split_records("evaluation"):
        gt = load_label_map(rec.gt_path, manifest.label_set).labels.ravel()
        probs = load_probability_map(rec.probs_path, manifest.label_set)
        hard = probs.values.reshape(-1, spec.n_classes).argmax(axis=1)
        histogram = np.bincount(gt, minlength=spec.n_classes).astype(np.float64)
        histogram /= histogram.sum()
        pred = (matrix[hard, :] * histogram[None, :]).argmax(axis=1)
        correct += int((pred == gt).sum())
        total += gt.size
    return correct / total


def reference_spec(seed: int = 20240817) -> SynthSpec:
    """The fixed desk-scale dataset used by the acceptance suite: 8 classes,
    64x64 images, 200 images per split, heterogeneous chain-structured
    confusion, per-image subsets of 3-5 classes, drifted evaluation
    confusion."""
    n = 8
    diag = np.linspace(0.80, 0.35, n)
    T = np.zeros((n, n))
    for l in range(n):
        rem = 1.0 - diag[l]
        T[l, l] = diag[l]
        T[(l + 1) % n, l] += 0.55 * rem
        T[(l + 2) % n, l] += 0.25 * rem
        others = [c for c in range(n) if c not in (l, (l + 1) % n, (l + 2) % n)]
        for c in others:
            T[c, l] += 0.20 * rem / len(others)
    return SynthSpec(
        n_classes=n,
        height=64,
        width=64,
        n_estimation=200,
        n_evaluation=200,
        region_scale=16.0,
        true_confusion=T,
        sharpness=2.0,
        seed=seed,
        border_noise=0.0,
        min_classes_per_image=3,
        max_classes_per_image=5,
        eval_confusion_drift=0.42,
    )
