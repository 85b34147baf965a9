"""Synthetic datasets with a known confusion process.

Ground truth is a seeded Voronoi partition into single-class regions; the
simulated classifier draws a hard label per pixel from the chosen column of
the true confusion matrix and emits a soft distribution peaked there. All
randomness flows from one root seed through per-image spawned streams, so
regeneration is byte-identical and per-image generation can run in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .confusion import ConfusionModel, DEFAULT_FLOOR
from .data import (
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    ProbabilityMap,
    _is_json_int,
    _map_ordered,
    _write_groups,
    save_label_map,
    save_manifest,
    save_probability_map,
)
from .errors import DataError

SPEC_FILENAME = "synthspec.json"
MANIFEST_FILENAME = "manifest.json"


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
        T = np.asarray(self.true_confusion, dtype=np.float64)
        if T.shape != (self.n_classes, self.n_classes):
            raise DataError(
                f"true_confusion {T.shape} does not match {self.n_classes} classes"
            )
        if not np.isfinite(T).all():
            raise DataError("true_confusion must be finite")
        if (T < 0).any() or np.abs(T.sum(axis=0) - 1.0).max() > 1e-9:
            raise DataError("true_confusion columns must be stochastic")
        T = T.copy()
        T.flags.writeable = False
        object.__setattr__(self, "true_confusion", T)
        if self.n_classes < 2:
            raise DataError("need >= 2 classes")
        if min(self.height, self.width) < 1:
            raise DataError("image size must be positive")
        if self.n_estimation < 0 or self.n_evaluation < 0:
            raise DataError("split sizes must be >= 0")
        if not self.region_scale > 0:
            raise DataError("region_scale must be positive")
        if not self.sharpness > 0:
            raise DataError("sharpness must be positive")
        if not 0.0 <= self.border_noise <= 1.0:
            raise DataError("border_noise must lie in [0, 1]")
        if not 0.0 <= self.eval_confusion_drift < 1.0:
            raise DataError("eval_confusion_drift must lie in [0, 1)")
        lo = self.min_classes_per_image
        hi = self.max_classes_per_image
        lo = self.n_classes if lo is None else int(lo)
        hi = self.n_classes if hi is None else int(hi)
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
        return {
            "n_classes": self.n_classes,
            "height": self.height,
            "width": self.width,
            "n_estimation": self.n_estimation,
            "n_evaluation": self.n_evaluation,
            "region_scale": self.region_scale,
            "true_confusion": [[float(v) for v in row] for row in self.true_confusion],
            "sharpness": self.sharpness,
            "seed": self.seed,
            "border_noise": self.border_noise,
            "min_classes_per_image": self.min_classes_per_image,
            "max_classes_per_image": self.max_classes_per_image,
            "eval_confusion_drift": self.eval_confusion_drift,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthSpec":
        """Build a spec from its JSON object. Count, size, seed and class
        bound fields must be JSON integers, and the other scalars and the
        matrix entries JSON numbers: nothing is truncated or coerced."""
        try:
            ints = {key: _json_int(obj, key) for key in _INT_FIELDS}
            bounds = {key: _json_int(obj, key, optional=True) for key in _BOUND_FIELDS}
            floats = {key: _json_number(obj, key) for key in _FLOAT_FIELDS}
            floats.update((key, _json_number(obj, key, 0.0)) for key in _OPTIONAL_FLOAT_FIELDS)
            matrix = obj["true_confusion"]
            if not (isinstance(matrix, list) and all(
                isinstance(row, list) and all(_is_json_number(v) for v in row)
                for row in matrix
            )):
                raise ValueError(f"true_confusion {matrix!r} is not a list of number rows")
            return cls(true_confusion=np.asarray(matrix, dtype=np.float64),
                       **ints, **bounds, **floats)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed synth spec ({exc})") from exc

    @classmethod
    def load(cls, path: str | Path) -> "SynthSpec":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(obj)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


_INT_FIELDS = ("n_classes", "height", "width", "n_estimation", "n_evaluation", "seed")
_BOUND_FIELDS = ("min_classes_per_image", "max_classes_per_image")
_FLOAT_FIELDS = ("region_scale", "sharpness")
_OPTIONAL_FLOAT_FIELDS = ("border_noise", "eval_confusion_drift")


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_int(obj: dict, key: str, optional: bool = False):
    """obj[key] as a JSON integer; with optional, a missing key or null is
    None."""
    value = obj.get(key) if optional else obj[key]
    if value is None and optional:
        return None
    if not _is_json_int(value):
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def _json_number(obj: dict, key: str, default=None) -> float:
    """obj[key] as a float from a JSON number; default if it is missing."""
    value = obj[key] if default is None else obj.get(key, default)
    if not _is_json_number(value):
        raise ValueError(f"{key} {value!r} is not a number")
    return float(value)


def true_confusion(spec: SynthSpec, floor: float = DEFAULT_FLOOR) -> ConfusionModel:
    """The generator's matrix with the same flooring normalize_confusion
    applies, for direct comparison against estimated models."""
    T = np.asarray(spec.true_confusion, dtype=np.float64)
    floored = np.where(T == 0.0, floor, T)
    return ConfusionModel(
        matrix=floored / floored.sum(axis=0, keepdims=True),
        source_counts=None,
        floor=floor,
    )


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


def generate_dataset(spec: SynthSpec, out_dir: str | Path, threads: int = 1) -> Manifest:
    """Write per-image SEGT tensors, manifest.json, and synthspec.json under
    out_dir; returns the manifest. Each image derives from its own spawned
    stream, so output is deterministic given spec.seed and invariant to the
    worker count. Images are built and written one write group at a time."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eval_matrix = eval_confusion_matrix(spec)
    true_matrix = np.asarray(spec.true_confusion, dtype=np.float64)
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_images)
    records = []

    def build(idx):
        split = "estimation" if idx < spec.n_estimation else "evaluation"
        hard_matrix = true_matrix if split == "estimation" else eval_matrix
        rng = np.random.default_rng(children[idx])
        gt, probs = _generate_image(spec, rng, hard_matrix)
        return split, gt, probs

    def write_group(indices):
        for idx, (split, gt, probs) in zip(indices, _map_ordered(build, indices, threads)):
            image_id = f"img_{idx:04d}"
            probs_path = out / f"{image_id}_probs.segt"
            gt_path = out / f"{image_id}_gt.segt"
            save_probability_map(probs, probs_path)
            save_label_map(gt, gt_path)
            records.append(
                ManifestRecord(
                    image_id=image_id,
                    probs_path=probs_path,
                    gt_path=gt_path,
                    split=split,
                )
            )

    shape = (spec.height, spec.width, spec.n_classes)
    for group in _write_groups(range(spec.n_images), lambda idx: shape):
        write_group(group)
    manifest = Manifest(label_set=spec.label_set, records=tuple(records))
    save_manifest(manifest, out / MANIFEST_FILENAME)
    spec.save(out / SPEC_FILENAME)
    return manifest


def bayes_optimal_accuracy(spec: SynthSpec, manifest: Manifest) -> float:
    """Accuracy of the exact posterior rule on the generated evaluation
    pixels: argmax_l P_eval(C=h | l) * realized-image-histogram(l), measured
    on the same pixels the pipeline scores. The soft residual carries no
    label information, so the hard label is sufficient."""
    from .data import load_label_map, load_probability_map

    matrix = eval_confusion_matrix(spec)
    correct = 0
    total = 0
    for rec in manifest.split_records("evaluation"):
        gt = load_label_map(rec.gt_path, manifest.label_set).labels.ravel()
        probs = load_probability_map(rec.probs_path, manifest.label_set)
        hard = probs.values.reshape(-1, spec.n_classes).argmax(axis=1)
        histogram = np.bincount(gt, minlength=spec.n_classes).astype(np.float64)
        histogram /= histogram.sum()
        scores = matrix[hard, :] * histogram[None, :]
        pred = scores.argmax(axis=1)
        correct += int((pred == gt).sum())
        total += gt.size
    if total == 0:
        raise DataError("no evaluation pixels")
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
