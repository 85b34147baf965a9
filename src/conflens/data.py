"""Domain containers: label sets, probability/label maps and the dataset
manifest, with their validation, file I/O and per-image grouping."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import segt
from .errors import DataError

SPLIT_ESTIMATION = "estimation"
SPLIT_EVALUATION = "evaluation"
SPLITS = (SPLIT_ESTIMATION, SPLIT_EVALUATION)

DEFAULT_SUM_TOL = 1e-4
# bit pattern of the largest float32 value load_probability_map accepts
_RANGE_BITS = np.float32(1.0 + 1e-6).view(np.uint32)

# Computed output bytes a per-image producer holds before it writes them.
# Writing each map as soon as it is computed would hold the least, but file
# creates interleaved with compute cost more system time than the same
# creates back to back, so small maps are written in a few long bursts.
WRITE_BUDGET = 16 << 20


def _frozen_array(values, dtype):
    arr = np.asarray(values, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LabelSet:
    """The label universe: |L| classes, optional display names, optional
    void (ignore) id that must lie outside [0, size)."""

    size: int
    names: tuple[str, ...] | None = None
    void_id: int | None = None

    def __post_init__(self):
        if self.size < 2:
            raise DataError(f"label set needs >= 2 classes, got {self.size}")
        if self.names is not None:
            if isinstance(self.names, str):
                raise DataError(f"names {self.names!r} is a string, not a sequence of names")
            object.__setattr__(self, "names", tuple(self.names))
            if not all(isinstance(name, str) for name in self.names):
                raise DataError(f"names {self.names!r} are not all strings")
            if len(self.names) != self.size:
                raise DataError(
                    f"{len(self.names)} names for {self.size} classes"
                )
        if self.void_id is not None and 0 <= self.void_id < self.size:
            raise DataError(f"void_id {self.void_id} collides with class ids")

    @property
    def void_sentinel(self) -> int:
        """void_id if set, else a value no valid label map contains."""
        return self.void_id if self.void_id is not None else -1


@dataclass(frozen=True)
class ProbabilityMap:
    """Per-pixel distributions over labels, H x W x |L| float32."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, np.float32)
        if arr.ndim != 3 or any(d < 1 for d in arr.shape):
            raise DataError(f"probability map must be HxWxC, got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel integer labels, H x W."""

    labels: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.labels, np.int32)
        if arr.ndim != 2 or any(d < 1 for d in arr.shape):
            raise DataError(f"label map must be HxW, got {arr.shape}")
        object.__setattr__(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class ManifestRecord:
    image_id: str
    probs_path: Path
    gt_path: Path
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}")
        # ids become output file names, so one must not leave --out
        if self.image_id in ("", ".", "..") or any(c in self.image_id for c in "/\\\0"):
            raise DataError(
                f"image id {self.image_id!r} is not a plain file name component"
            )


@dataclass(frozen=True)
class Manifest:
    """Dataset index: the label set plus per-image tensor paths and split
    tags. Paths are stored resolved."""

    label_set: LabelSet
    records: tuple[ManifestRecord, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        ids = [r.image_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate image ids in manifest")

    def split_records(self, split: str) -> list[ManifestRecord]:
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        return [r for r in self.records if r.split == split]


def validate_probability_map(probs: ProbabilityMap, tol: float) -> list[tuple[tuple[int, int], float]]:
    """All sites whose channel sum deviates from 1 by more than tol or is
    NaN, as ((row, col), deviation) in row-major order. Empty list means
    valid.

    The float64 deviation decides every site, but it is only computed for
    the sites that a float32 screen of the channel sums cannot clear."""
    values = probs.values
    return _sum_failures(values, tol, nonnegative=bool(values.min() >= 0))


def _sum_failures(values: np.ndarray, tol: float, nonnegative: bool):
    """validate_probability_map on an H x W x L float32 array; `nonnegative`
    says that no value is negative or NaN."""
    if not tol > 0:
        raise DataError(f"tolerance must be positive, got {tol}")
    _, width, channels = values.shape
    flat = values.reshape(-1, channels)
    # Why a cleared site passes the float64 check: take values x_1..x_L >= 0
    # with exact sum S, u = 2^-24 and g = (L-1)u / (1 - (L-1)u).
    # - The float32 sum s has |s - S| <= g*S in any summation order (Higham,
    #   Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2),
    #   so the order BLAS picks does not matter.
    # - d = fl32(|s - 1|) >= (1 - u)|s - 1|. The threshold T = tol - margin
    #   is compared in float64, so it is not rounded.
    # - A cleared site (d <= T) has |s - 1| <= (1 + 2u)T, and so
    #   S <= (1 + |s - 1|) / (1 - g) <= (1 + tol)(1 + 2u) / (1 - g).
    # - The float64 formula sums with error at most g64*S < u*S (L < 2^28)
    #   and rounds its subtraction by 2^-53 relative.
    # Its deviation is then at most |s - 1| + g*S + u*S, all times (1 + u):
    # T + 3u*tol + (g + u)S(1 + 3u). With (L-1)u <= 1/5, g <= 1/4 and this
    # is below T + 2(g + 4u)(1 + tol) = tol. This holds for any T >= 0; with
    # tol < margin no site is cleared. The bound needs every value >= 0: if
    # one is negative or NaN, the threshold is -inf and every site takes the
    # float64 check.
    nu = (channels - 1) * 2.0**-24
    margin = 2 * (nu / (1 - nu) + 4 * 2.0**-24) * (1 + tol) if nu <= 0.2 else np.inf
    threshold = np.float64(tol - margin) if nonnegative else -np.inf
    # inf and NaN sums fail the screen; the float64 check reports them
    with np.errstate(over="ignore", invalid="ignore"):
        dev32 = flat @ np.ones(channels, np.float32)
        dev32 -= 1
        np.abs(dev32, out=dev32)
    candidates = np.flatnonzero(~(dev32 <= threshold))
    dev = np.abs(flat[candidates].sum(axis=-1, dtype=np.float64) - 1.0)
    bad = ~(dev <= tol)
    rows, cols = np.divmod(candidates[bad], width)
    return [
        ((i, j), d)
        for i, j, d in zip(rows.tolist(), cols.tolist(), dev[bad].tolist())
    ]


# ---------------------------------------------------------------------------
# tensor-file wrappers
# ---------------------------------------------------------------------------

def save_probability_map(probs: ProbabilityMap, path: str | Path) -> None:
    segt.store_tensor(path, probs.values)


def load_probability_map(
    path: str | Path,
    labels: LabelSet | None = None,
    tol: float = DEFAULT_SUM_TOL,
) -> ProbabilityMap:
    """Load and validate a probability map: dtype/rank, value range, channel
    count when `labels` is given, and per-pixel sums at `tol`."""
    arr = segt.load_tensor(path)
    if arr.dtype != np.float32 or arr.ndim != 3:
        raise DataError(f"{path}: expected 3-d float32 tensor")
    if labels is not None and arr.shape[2] != labels.size:
        raise DataError(
            f"{path}: {arr.shape[2]} channels, label set has {labels.size}"
        )
    # One pass clears most maps: as unsigned integers, the float32 bit
    # patterns of [+0, 1 + 1e-6] are exactly those up to the bound's, and
    # negative values (-0.0 too), inf and NaN all lie above it. Only a map
    # that fails takes the min/max test, which accepts -0.0.
    if arr.view(np.uint32).max() > _RANGE_BITS and not (
        arr.min() >= 0.0 and arr.max() <= 1.0 + 1e-6
    ):
        raise DataError(f"{path}: values outside [0, 1] or NaN")
    probs = ProbabilityMap(arr)
    # the range check leaves no negative or NaN value, so skip the minimum
    bad = _sum_failures(probs.values, tol, nonnegative=True)
    if bad:
        (i, j), dev = bad[0]
        raise DataError(
            f"{path}: {len(bad)} sites fail sum check at tol {tol}, "
            f"first ({i},{j}) deviates by {dev:.2e}"
        )
    return probs


def save_label_map(label_map: LabelMap, path: str | Path) -> None:
    arr = label_map.labels
    if arr.min() < 0 or arr.max() > 0xFFFF:
        raise DataError("label map values outside u16 range")
    segt.store_tensor(path, arr.astype(np.uint16))


def load_label_map(path: str | Path, labels: LabelSet | None = None) -> LabelMap:
    arr = segt.load_tensor(path)
    if arr.dtype != np.uint16 or arr.ndim != 2:
        raise DataError(f"{path}: expected 2-d uint16 tensor")
    out = arr.astype(np.int32)
    if labels is not None:
        valid = (out >= 0) & (out < labels.size)
        if labels.void_id is not None:
            valid |= out == labels.void_id
        if not valid.all():
            bad = out[~valid].flat[0]
            raise DataError(f"{path}: label {bad} outside the label set")
    return LabelMap(out)


# ---------------------------------------------------------------------------
# per-image producers
# ---------------------------------------------------------------------------

def _map_ordered(fn, items, threads: int) -> list:
    """Apply fn per item, parallel over a thread pool, results in order so
    output never depends on the worker count."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _load_groups(items, load, size, budget, threads: int):
    """Consecutive groups of load(item), in item order, for a consumer that
    works on a whole group and then drops it; a group closes once the
    size() of its values reaches budget. Items load `threads` at a time, so
    up to threads - 1 loaded values wait for the next group. The groups do
    not depend on `threads`.

    The consumer must drop each group before asking for the next: a loop
    variable still bound to it keeps it alive while the next one loads."""
    group, total = [], 0
    for start in range(0, len(items), max(threads, 1)):
        for value in _map_ordered(load, items[start:start + max(threads, 1)], threads):
            group.append(value)
            total += size(value)
            if total >= budget:
                yield group
                group, total = [], 0
    if group:
        yield group


def _write_groups(items, map_shape):
    """Consecutive groups of items for a producer that computes a group,
    writes it, and only then computes the next. Each item yields a float32
    probability map of shape map_shape(item) and its int32 label map; a
    group closes once their bytes reach WRITE_BUDGET, so a map at least that
    large is a group by itself.

    Compute and write each group inside a function call: a loop variable
    bound to computed maps would keep the last group alive while the next
    one is computed."""
    group, size = [], 0
    for item in items:
        height, width, channels = map_shape(item)
        group.append(item)
        size += height * width * (4 * channels + 4)
        if size >= WRITE_BUDGET:
            yield group
            group, size = [], 0
    if group:
        yield group


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------

def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write the manifest with tensor paths relative to its directory."""
    path = Path(path)
    base = path.resolve().parent
    obj = {
        "labels": {
            "size": manifest.label_set.size,
            "names": list(manifest.label_set.names) if manifest.label_set.names else None,
            "void_id": manifest.label_set.void_id,
        },
        "records": [
            {
                "id": r.image_id,
                "probs": _relativize(r.probs_path, base),
                "gt": _relativize(r.gt_path, base),
                "split": r.split,
            }
            for r in manifest.records
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _relativize(p: Path, base: Path) -> str:
    try:
        return Path(p).resolve().relative_to(base).as_posix()
    except ValueError:
        return Path(p).resolve().as_posix()


def load_manifest(path: str | Path, check_files: bool = True) -> Manifest:
    """Parse a manifest; with check_files, every record's tensor headers are
    read and must agree on height/width with probs channels == |L|."""
    path = Path(path)
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    try:
        size, void_id = obj["labels"]["size"], obj["labels"].get("void_id")
        names = obj["labels"].get("names")
        if not _is_json_int(size):
            raise ValueError(f"label size {size!r} is not an integer")
        if void_id is not None and not _is_json_int(void_id):
            raise ValueError(f"void_id {void_id!r} is not an integer or null")
        if names is not None and not isinstance(names, list):
            raise ValueError(f"names {names!r} is not a list or null")
        labels = LabelSet(
            size=size,
            names=names,
            void_id=void_id,
        )
        base = path.resolve().parent
        records = tuple(
            ManifestRecord(
                image_id=str(r["id"]),
                probs_path=base / r["probs"],
                gt_path=base / r["gt"],
                split=str(r["split"]),
            )
            for r in obj["records"]
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: malformed manifest ({exc})") from exc
    manifest = Manifest(label_set=labels, records=records)
    if check_files:
        _check_record_files(manifest)
    return manifest


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_record_files(manifest: Manifest) -> None:
    for rec in manifest.records:
        p_dtype, p_dims = segt.read_header(rec.probs_path)
        g_dtype, g_dims = segt.read_header(rec.gt_path)
        if len(p_dims) != 3 or p_dtype != np.float32:
            raise DataError(f"{rec.probs_path}: expected 3-d float32 tensor")
        if len(g_dims) != 2 or g_dtype != np.uint16:
            raise DataError(f"{rec.gt_path}: expected 2-d uint16 tensor")
        if p_dims[:2] != g_dims:
            raise DataError(
                f"{rec.image_id}: probs {p_dims[:2]} and gt {g_dims} disagree"
            )
        if p_dims[2] != manifest.label_set.size:
            raise DataError(
                f"{rec.image_id}: {p_dims[2]} channels, label set has "
                f"{manifest.label_set.size}"
            )
