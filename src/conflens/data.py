"""Domain containers: label sets, probability/label maps and the dataset
manifest, with their validation, file I/O, publishing and chunked loading."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import stat
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import segt
from .errors import DataError

SPLITS = ("estimation", "evaluation")

DEFAULT_SUM_TOL = 1e-4
# How far from 1 the sum of a float64 distribution may be: a confusion or
# refinement column, or a prior.
SUM_TOL = 1e-9
# bit pattern of the largest float32 value load_probability_map accepts
_RANGE_BITS = np.float32(1.0 + 1e-6).view(np.uint32)

# Bytes of stacked maps (float32 probabilities, int32 labels) that a stage
# loads into one chunk, which it checks and computes on with one call per
# check and kernel instead of one per image, and that synthesis computes
# before it writes them. 24x24 maps of 8 classes come
# about 55 to a chunk, and a map at least this large is a chunk by itself.
# On the benchmark's many_small workload (2-core VM, tmpfs), 256 KiB chunks
# took about 5% longer than 1 MiB chunks, and 1 MiB chunks held less at
# their peak than the prior solver's groups.
CHUNK_BUDGET = 1 << 20


def _frozen_array(values, dtype):
    """values as a read-only array of dtype. An array that owns its data is
    frozen in place; a view is copied, unless it is a read-only view of a
    frozen array, such as one map of a frozen stack."""
    arr = np.asarray(values, dtype=dtype)
    base = arr.base
    frozen_view = (not arr.flags.writeable and isinstance(base, np.ndarray)
                   and base.flags.owndata and not base.flags.writeable)
    if not (arr.flags.owndata or frozen_view):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class LabelSet:
    """The label universe: |L| classes, optional display names, optional
    void (ignore) id that must lie outside [0, size)."""

    size: int
    names: tuple[str, ...] | None = None
    void_id: int | None = None

    def __post_init__(self):
        # the manifest's JSON type rules, for library callers too
        if not _is_json_int(self.size):
            raise DataError(f"label set size {self.size!r} is not an integer")
        if self.void_id is not None and not _is_json_int(self.void_id):
            raise DataError(f"void_id {self.void_id!r} is not an integer or None")
        if self.size < 2:
            raise DataError(f"label set needs >= 2 classes, got {self.size}")
        if self.names is not None:
            if not isinstance(self.names, (list, tuple)):
                raise DataError(f"names {self.names!r} is not a list or tuple of names")
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
    """Per-pixel distributions over labels, H x W x |L| float32, or a
    B x H x W x |L| stack of B equal-shape maps."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, np.float32)
        if arr.ndim not in (3, 4) or any(d < 1 for d in arr.shape):
            raise DataError(f"probability map must be HxWxC or BxHxWxC, got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[-3]

    @property
    def width(self) -> int:
        return self.values.shape[-2]

    @property
    def channels(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel integer labels, H x W, or a B x H x W stack of B
    equal-shape maps."""

    labels: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.labels, np.int32)
        if arr.ndim not in (2, 3) or any(d < 1 for d in arr.shape):
            raise DataError(f"label map must be HxW or BxHxW, got {arr.shape}")
        object.__setattr__(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[-2]

    @property
    def width(self) -> int:
        return self.labels.shape[-1]


@dataclass(frozen=True)
class ManifestRecord:
    image_id: str
    probs_path: Path
    gt_path: Path
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}")
        if not isinstance(self.image_id, str):
            raise DataError(f"image id {self.image_id!r} is not a string")
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
        """The records of split, in manifest order; DataError if none."""
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        records = [r for r in self.records if r.split == split]
        if not records:
            raise DataError(f"no {split} records in manifest")
        return records

    def to_dict(self, base: Path) -> dict:
        """The JSON object, tensor paths relative to the resolved dir base."""
        return {
            "labels": asdict(self.label_set),
            "records": [
                {
                    "id": r.image_id,
                    "probs": _relativize(r.probs_path, base),
                    "gt": _relativize(r.gt_path, base),
                    "split": r.split,
                }
                for r in self.records
            ],
        }


def validate_probability_map(probs: ProbabilityMap, tol: float) -> list[tuple[tuple[int, int], float]]:
    """All sites whose channel sum deviates from 1 by more than tol or is
    NaN, as ((row, col), deviation) in row-major order. Empty list means
    valid.

    The float64 deviation decides every site, but it is only computed for
    the sites that a float32 screen of the channel sums cannot clear. A
    stack of maps is a DataError."""
    values = probs.values
    if values.ndim != 3:
        raise DataError(f"validate_probability_map takes one HxWxC map, got {values.shape}")
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
    # inf and NaN sums fail the screen; the float64 check reports them, and
    # a site holding both inf and -inf sums to NaN there too
    with np.errstate(over="ignore", invalid="ignore"):
        dev32 = flat @ np.ones(channels, np.float32)
        dev32 -= 1
        np.abs(dev32, out=dev32)
        cleared = dev32 <= threshold
        if cleared.all():
            return []
        candidates = np.flatnonzero(~cleared)
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

# The two kinds of map file a stage loads.
PROBS, LABELS = "probs", "labels"


def save_probability_map(probs: ProbabilityMap, path: str | Path) -> None:
    """Store one map; a stack, which no loader reads, is refused unwritten."""
    _check_layout(path, PROBS, probs.values.dtype, probs.values.shape, None)
    segt.store_tensor(path, probs.values)


def load_probability_map(path: str | Path, labels: LabelSet | None = None) -> ProbabilityMap:
    """Load and validate a probability map, a chunk of one of _load_chunks:
    the layout _check_layout sets (its channel count when `labels` is
    given), the value range, and per-pixel sums within DEFAULT_SUM_TOL."""
    ((_, (probs,)),) = _load_chunks([path], lambda p: (p,), (PROBS,), labels)
    return ProbabilityMap(probs.values[0])


def save_label_map(label_map: LabelMap, path: str | Path) -> None:
    """Store one map as uint16; a stack, which no loader reads, is refused unwritten."""
    arr = label_map.labels
    _check_layout(path, LABELS, np.dtype(np.uint16), arr.shape, None)
    if arr.min() < 0 or arr.max() > 0xFFFF:
        raise DataError("label map values outside u16 range")
    segt.store_tensor(path, arr.astype(np.uint16))


def load_label_map(path: str | Path, labels: LabelSet | None = None) -> LabelMap:
    """Load a label map, a chunk of one of _load_chunks; with `labels`,
    every label must be a class or the void id."""
    ((_, (gt,)),) = _load_chunks([path], lambda p: (p,), (LABELS,), labels)
    return LabelMap(gt.labels[0])


def _check_layout(path, kind: str, dtype, shape, labels: LabelSet | None) -> None:
    """The layout of a map file, from its header or its loaded array: a
    PROBS map is a 3-d float32 tensor with |L| channels (when labels is
    given), a LABELS map a 2-d uint16 tensor."""
    want, ndim = (np.dtype(np.float32), 3) if kind == PROBS else (np.dtype(np.uint16), 2)
    if dtype != want or len(shape) != ndim:
        raise DataError(f"{path}: expected {ndim}-d {want.name} tensor")
    if kind == PROBS and labels is not None and shape[2] != labels.size:
        raise DataError(f"{path}: {shape[2]} channels, label set has {labels.size}")


def _read_map(path, kind: str, labels: LabelSet | None) -> np.ndarray:
    """A map file's array, its layout checked."""
    arr = segt.load_tensor(path)
    _check_layout(path, kind, arr.dtype, arr.shape, labels)
    return arr


def _check_probs(path, values: np.ndarray) -> None:
    """DataError naming path unless every value of the ... x W x L float32
    array lies in [0, 1] and every site's channels sum to 1 within
    DEFAULT_SUM_TOL."""
    # One pass clears most maps: as unsigned integers, the float32 bit
    # patterns of [+0, 1 + 1e-6] are exactly those up to the bound's, and
    # negative values (-0.0 too), inf and NaN all lie above it. Only a map
    # that fails takes the min/max test, which accepts -0.0.
    if values.view(np.uint32).max() > _RANGE_BITS and not (
        values.min() >= 0.0 and values.max() <= 1.0 + 1e-6
    ):
        raise DataError(f"{path}: values outside [0, 1] or NaN")
    # the range check leaves no negative or NaN value, so skip the minimum
    bad = _sum_failures(values.reshape((-1,) + values.shape[-2:]), DEFAULT_SUM_TOL,
                        nonnegative=True)
    if bad:
        (i, j), dev = bad[0]
        raise DataError(
            f"{path}: {len(bad)} sites fail sum check at tol {DEFAULT_SUM_TOL}, "
            f"first ({i},{j}) deviates by {dev:.2e}"
        )


def _bad_labels(values: np.ndarray, labels: LabelSet) -> np.ndarray:
    """Mask of the values of an int32 array that are neither a class nor
    the void id."""
    bad = (values < 0) | (values >= labels.size)
    if labels.void_id is not None:
        bad &= values != labels.void_id
    return bad


def _check_labels(path, values: np.ndarray, labels: LabelSet) -> None:
    """DataError naming path and its first label outside the label set."""
    bad = _bad_labels(values, labels)
    if bad.any():
        raise DataError(f"{path}: label {values[bad].flat[0]} outside the label set")


# ---------------------------------------------------------------------------
# chunked loading
# ---------------------------------------------------------------------------

def _load_chunks(items, paths, kinds, labels: LabelSet | None):
    """Consecutive chunks of items whose maps have equal shapes, loaded and
    checked with one call per check for the whole chunk: the one reader of
    map files. Yields (chunk items, maps): maps holds, for each kind in
    kinds (PROBS or LABELS), the chunk's maps stacked into one
    ProbabilityMap or LabelMap, with paths(item) giving each item's files
    in the same order. A label map's labels are checked only when labels
    is given.

    A chunk closes at a change of shape or once its stacks reach
    CHUNK_BUDGET bytes. Items are read one at a time, and an item's maps
    must agree on height and width. Only a chunk that fails a check is
    checked again file by file, in item order, so the DataError names the
    file that loading the items one by one would have stopped at; an error
    that reading a file raises comes after the checks of every file read
    before it."""
    dtypes = [np.float32 if kind == PROBS else np.int32 for kind in kinds]

    def read(item):
        """The item's arrays and the error that stopped reading them, if any."""
        arrays = []
        try:
            for path, kind in zip(paths(item), kinds):
                arrays.append(_read_map(path, kind, labels))
                arrays[-1].flags.writeable = False  # so a stack of one is a frozen view
                (h, w), (h0, w0) = arrays[-1].shape[:2], arrays[0].shape[:2]
                if (h, w) != (h0, w0):
                    raise DataError(f"{path}: {h}x{w} map, {paths(item)[0]} is {h0}x{w0}")
        except Exception as exc:  # raised after the checks of the files before it
            return arrays, exc
        return arrays, None

    def check_item(item, arrays):
        for path, kind, arr in zip(paths(item), kinds, arrays):
            if kind == PROBS:
                _check_probs(path, arr)
            elif labels is not None:
                _check_labels(path, arr.astype(np.int32), labels)

    def close(chunk):
        """The chunk's items and stacked maps, checked; empties chunk, so
        that only the stacks hold its maps."""
        stacks = [np.stack(maps, dtype=dtype) if len(maps) > 1
                  else maps[0][None].astype(dtype, copy=False)
                  for dtype, maps in zip(dtypes, zip(*(arrays for _, arrays in chunk)))]
        chunk_items = [item for item, _ in chunk]
        chunk.clear()
        try:
            for s, kind in zip(stacks, kinds):
                if kind == PROBS:
                    _check_probs("chunk", s)
                elif labels is not None:
                    _check_labels("chunk", s, labels)
        except DataError:  # name the first bad file
            for i, item in enumerate(chunk_items):
                check_item(item, [s[i] for s in stacks])
            raise
        return chunk_items, tuple(
            ProbabilityMap(s) if kind == PROBS else LabelMap(s) for s, kind in zip(stacks, kinds))

    chunk, size = [], 0
    for item in items:
        arrays, exc = read(item)
        if chunk and (exc is not None
                      or [a.shape for a in arrays] != [a.shape for a in chunk[0][1]]):
            yield close(chunk)
            size = 0
        if exc is not None:
            check_item(item, arrays)
            raise exc
        chunk.append((item, arrays))
        size += 4 * sum(arr.size for arr in arrays)  # float32 or int32 in the stack
        del arrays  # only the chunk holds its maps
        if size >= CHUNK_BUDGET:
            yield close(chunk)
            size = 0
    if chunk:
        yield close(chunk)


# ---------------------------------------------------------------------------
# publishing, JSON files, sidecars and the manifest
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def publish(out_dir: str | Path):
    """Stage files for out_dir (created if missing), then rename them into
    place; every file a command or generate_dataset writes goes through here.

    The block gets stage(name), the path (a str) to write `name` to in a hidden
    `.conflens-*` directory inside out_dir. If the block returns, each file
    moves to out_dir/name by os.replace, in staging order. If it raises, the
    staging directory goes, and so does the highest directory this call
    created: a pre-existing output is untouched.

    Each rename is atomic; the sequence is not. A tensor is staged before
    its sidecar, so a crash between those two renames leaves the new tensor
    beside the old sidecar (loaded if it fits) or none (rejected). A
    rename failing part-way leaves the earlier ones published. A process
    killed outright leaves its staging directory behind. An existing
    out_dir/name that is a symlink, a directory or any other non-regular
    file is a DataError when it is staged, before anything is renamed."""
    out = Path(out_dir).resolve()
    created = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    out = str(out)
    staging = tempfile.mkdtemp(prefix=".conflens-", dir=out)
    names = {}  # staging order, without repeats

    def stage(name: str) -> str:
        target = os.path.join(out, name)
        try:
            regular = stat.S_ISREG(os.lstat(target).st_mode)
        except FileNotFoundError:
            regular = True
        # a rename would replace a link itself, or fail on a directory
        if not regular:
            raise DataError(f"{target}: exists and is not a regular file")
        names[name] = None
        return os.path.join(staging, name)

    try:
        yield stage
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(out, name))
        os.rmdir(staging)
    except BaseException:
        shutil.rmtree(created[-1] if created else staging, ignore_errors=True)
        raise


def write_json(obj, path: str | Path) -> None:
    """Write obj in conflens's one JSON layout: indented, sorted, newline-ended."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> dict:
    """The JSON object in a file; DataError if it is invalid or not an object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: not a JSON object")
    return obj


def sidecar_path(path: str | Path) -> Path:
    """The JSON sidecar of a tensor file: the same name with .json."""
    return Path(path).with_suffix(".json")


def store_with_sidecar(path: str | Path, tensor: np.ndarray, meta: dict) -> None:
    """Publish a tensor and its sidecar object, the tensor first."""
    path = Path(path)
    with publish(path.parent) as stage:
        segt.store_tensor(stage(path.name), tensor)
        write_json(meta, stage(sidecar_path(path).name))


def _read_matrix(path: str | Path) -> np.ndarray:
    """A matrix file's array: a 2-d float32 tensor, every entry finite."""
    arr = segt.load_tensor(path)
    if arr.ndim != 2 or arr.dtype != np.float32:
        raise DataError(f"{path}: expected 2-d float32 tensor")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: non-finite entry")
    return arr


def load_with_sidecar(path: str | Path) -> tuple[np.ndarray, dict]:
    """A matrix file (_read_matrix) and its sidecar object; a missing
    sidecar is a DataError."""
    arr = _read_matrix(path)
    side = sidecar_path(path)
    try:
        return arr, read_json(side)
    except FileNotFoundError as exc:
        raise DataError(f"{path}: missing sidecar {side.name}") from exc


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Publish the manifest with tensor paths relative to its directory."""
    path = Path(path)
    with publish(path.parent) as stage:
        write_json(manifest.to_dict(path.resolve().parent), stage(path.name))


def _relativize(p: Path, base: Path) -> str:
    try:
        return Path(p).resolve().relative_to(base).as_posix()
    except ValueError:
        return Path(p).resolve().as_posix()


def load_manifest(path: str | Path) -> Manifest:
    """Parse a manifest. No tensor file is opened: each stage checks a map
    file where it loads it."""
    path = Path(path)
    obj = read_json(path)
    try:
        labels = LabelSet(
            size=obj["labels"]["size"],
            names=obj["labels"].get("names"),
            void_id=obj["labels"].get("void_id"),
        )
        base = path.resolve().parent
        records = tuple(
            ManifestRecord(
                image_id=r["id"],
                probs_path=base / r["probs"],
                gt_path=base / r["gt"],
                split=r["split"],
            )
            for r in obj["records"]
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: malformed manifest ({exc})") from exc
    return Manifest(label_set=labels, records=records)
