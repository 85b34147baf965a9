"""The benchmarked stage sequence, driven in-process through
``conflens.cli.main``, and the checks its outputs must pass.

One operation is one stage call. It fails on a non-zero exit, an exception,
or an output that fails its check. The checks read SEGT files with their own
reader, so a fault in the program's reader cannot hide a fault in its
outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import struct
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLOSED_PRIORS = ("uniform", "binary", "histogram")
# (run name, command, confusion file, prior kind)
RUNS = (
    ("base", "refine", "ident", "uniform"),
    ("labelbank", "labelbank", None, "binary"),
    ("binary", "refine", "conf", "binary"),
    ("histogram", "refine", "conf", "histogram"),
    ("unconstrained", "refine", "conf", "unconstrained"),
)
INTERIOR = "unconstrained_interior"

STOCHASTIC_TOL = 1e-5  # float32 storage of a float64 column or row summing to 1
MAP_SUM_TOL = 1e-4
MAP_MAX = 1.0 + 1e-6  # the bound conflens.data.load_probability_map accepts


@dataclass(frozen=True)
class Op:
    name: str
    group: str  # stage the per-layer trace attributes the call to
    argv: tuple[str, ...]


@dataclass
class OpResult:
    op: Op
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class CheckFailure(ValueError):
    pass


def build_ops(manifest: Path, ident: Path, out: Path, solver_opts: str) -> list[Op]:
    """confusion; the four priors; five refinement runs; their evals plus an
    interior-only eval of the unconstrained run."""
    m = str(manifest)
    conf = str(out / "conf.segt")
    ops = [Op("confusion", "confusion",
              ("confusion", "--manifest", m, "--radius", "2", "--out", conf))]
    for kind in CLOSED_PRIORS:
        ops.append(Op(f"prior_{kind}", "prior_closed",
                      ("prior", "--manifest", m, "--kind", kind,
                       "--out", str(out / f"prior_{kind}.segt"))))
    argv = ["prior", "--manifest", m, "--kind", "unconstrained", "--confusion", conf,
            "--out", str(out / "prior_unconstrained.segt")]
    if solver_opts:
        argv += ["--solver-opts", solver_opts]
    ops.append(Op("prior_unconstrained", "prior_unconstrained", tuple(argv)))
    confusions = {"ident": str(ident), "conf": conf}
    for name, command, confusion, kind in RUNS:
        argv = [command, "--manifest", m]
        if confusion:
            argv += ["--confusion", confusions[confusion]]
        argv += ["--priors", str(out / f"prior_{kind}.segt"), "--out", str(out / f"run_{name}")]
        ops.append(Op(f"run_{name}", command, tuple(argv)))
    for name, *_ in RUNS:
        ops.append(Op(f"eval_{name}", "eval",
                      ("eval", "--manifest", m, "--pred-dir", str(out / f"run_{name}"),
                       "--out", str(out / f"report_{name}.json"))))
    ops.append(Op(f"eval_{INTERIOR}", "eval",
                  ("eval", "--manifest", m, "--pred-dir", str(out / "run_unconstrained"),
                   "--exclude-borders", "--out", str(out / f"report_{INTERIOR}.json"))))
    return ops


def run_ops(main, ops: list[Op], stage_span=None) -> tuple[float, list[OpResult]]:
    """Run the ops back to back (closed loop, one caller); returns the wall
    time of the whole sequence and one result per op. The CLI's stdout is
    swallowed so it never mixes with the benchmark's output."""
    results = []
    start = time.perf_counter()
    for op in ops:
        err = io.StringIO()
        span = stage_span(f"stage.{op.group}") if stage_span else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(list(op.argv))
            except Exception:  # a crashed stage is a failed operation
                rc = None
                err.write(traceback.format_exc())
        result = OpResult(op)
        if rc != 0:
            result.problems.append(f"exit {rc}: {err.getvalue().strip()}")
        results.append(result)
    return time.perf_counter() - start, results


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_SEGT_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<u2")}


def read_segt(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"SEGT" or len(raw) < 10:
        raise CheckFailure(f"{path.name}: not a SEGT file")
    _, code, ndim = struct.unpack_from("<IBB", raw, 4)
    if code not in _SEGT_DTYPES or not 1 <= ndim <= 3:
        raise CheckFailure(f"{path.name}: bad SEGT header")
    dims = struct.unpack_from(f"<{ndim}I", raw, 10)
    dtype = _SEGT_DTYPES[code]
    count = math.prod(dims)
    offset = 10 + 4 * ndim
    if len(raw) != offset + count * dtype.itemsize:
        raise CheckFailure(f"{path.name}: {len(raw)} bytes do not match dims {dims}")
    return np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(dims)


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def check_confusion(path: Path, n_labels: int) -> None:
    """Column-stochastic and non-negative."""
    m = read_segt(path).astype(np.float64)
    _require(m.shape == (n_labels, n_labels), f"confusion shape {m.shape}")
    _require((m >= 0).all(), "negative confusion entry")
    dev = np.abs(m.sum(axis=0) - 1.0).max()
    _require(dev <= STOCHASTIC_TOL, f"confusion column sum off by {dev:.2e}")


def check_prior(path: Path, ids: list[str], n_labels: int) -> None:
    """One row per evaluation image, in order, each on the simplex."""
    w = read_segt(path).astype(np.float64)
    _require(w.shape == (len(ids), n_labels), f"prior bank shape {w.shape}")
    _require((w >= 0).all(), "negative prior weight")
    dev = np.abs(w.sum(axis=1) - 1.0).max()
    _require(dev <= STOCHASTIC_TOL, f"prior row sum off by {dev:.2e}")
    meta = json.loads(path.with_suffix(".json").read_text())
    _require(meta.get("ids") == ids, "prior bank ids differ from the evaluation split")


def check_maps(run_dir: Path, ids: list[str], n_labels: int) -> None:
    """Refined maps in [0, 1] summing to 1; each _pred is their argmax."""
    for image_id in ids:
        refined = read_segt(run_dir / f"{image_id}_refined.segt")
        pred = read_segt(run_dir / f"{image_id}_pred.segt")
        _require(refined.dtype == np.float32 and refined.ndim == 3
                 and refined.shape[2] == n_labels, f"{image_id}: refined shape {refined.shape}")
        _require(float(refined.min()) >= 0.0 and float(refined.max()) <= MAP_MAX,
                 f"{image_id}: refined values outside [0, 1]")
        dev = np.abs(refined.sum(axis=2, dtype=np.float64) - 1.0).max()
        _require(dev <= MAP_SUM_TOL, f"{image_id}: refined sums off by {dev:.2e}")
        _require(pred.dtype == np.uint16 and pred.shape == refined.shape[:2],
                 f"{image_id}: pred shape {pred.shape}")
        _require(np.array_equal(pred, refined.argmax(axis=2)),
                 f"{image_id}: pred is not the argmax of refined")


def check_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    acc, miou, n = report["pixel_accuracy"], report["mean_iou"], report["n_pixels_scored"]
    _require(0.0 <= acc <= 1.0 and 0.0 <= miou <= 1.0, f"scores out of range: {acc}, {miou}")
    _require(isinstance(n, int) and n > 0, f"n_pixels_scored {n!r}")
    return report


def check_outputs(results: list[OpResult], out: Path, ids: list[str], n_labels: int,
                  baseline: dict | None) -> dict:
    """Check every successful op's output, adding problems to its result.
    Returns the eval reports by run name."""
    reports = {}
    for result in results:
        if result.failed:
            continue
        name = result.op.name
        try:
            if name == "confusion":
                check_confusion(out / "conf.segt", n_labels)
            elif name.startswith("prior_"):
                check_prior(out / f"{name}.segt", ids, n_labels)
            elif name.startswith("run_"):
                check_maps(out / name, ids, n_labels)
            elif name.startswith("eval_"):
                run = name[len("eval_"):]
                report = check_report(out / f"report_{run}.json")
                if baseline is not None and run in baseline:
                    got = round(100.0 * report["pixel_accuracy"], 2)
                    _require(got == baseline[run],
                             f"accuracy {got} differs from baseline {baseline[run]}")
                reports[run] = report
        except (OSError, KeyError, ValueError) as exc:  # CheckFailure is a ValueError
            result.problems.append(f"check: {exc}")
    return reports


def tree_sha256(root: Path, pattern: str = "*") -> str:
    """Hash of the relative path and bytes of every file under root whose
    name matches pattern."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
