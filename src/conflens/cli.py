"""Command-line pipeline: estimate confusions, build priors, refine,
evaluate, render, and synthesize datasets, wired through manifest files.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import segt
from .confusion import (
    DEFAULT_FLOOR,
    DEFAULT_RADIUS,
    accumulate_counts,
    border_mask,
    load_confusion,
    merge_counts,
    normalize_confusion,
    save_confusion,
)
from .data import (
    _map_ordered,
    _write_groups,
    load_label_map,
    load_manifest,
    load_probability_map,
    save_label_map,
    save_probability_map,
)
from .errors import ConflensError, DataError, UsageError
from .metrics import MetricAccumulator, render_matrix_heatmap, save_report
from .priors import (
    PriorBank,
    SolverOptions,
    binary_prior,
    global_prior,
    histogram_prior,
    load_prior_bank,
    sample_set,
    save_prior_bank,
    solve_unconstrained_prior,
    uniform_prior,
)
from .refine import argmax_labels, build_refinement_matrix, labelbank_mask, refine_map
from .synth import SynthSpec, generate_dataset

DEFAULT_SUBSAMPLE = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_threads() -> int:
    raw = os.environ.get("CONFLENS_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return 1


def _add_threads(parser) -> None:
    parser.add_argument(
        "--threads", type=int, default=_default_threads(),
        help="worker cap for per-image stages (default: CONFLENS_THREADS or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conflens",
        description="Bayesian refinement of per-pixel label probabilities "
        "using learned confusion statistics and label priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("confusion", help="estimate the confusion matrix from the estimation split")
    p.add_argument("--manifest", required=True, help="path to manifest.json")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS,
                   help="border-exclusion dilation radius in pixels (default 2)")
    p.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                   help="pseudo-count substituted for zero cells (default 1e-4)")
    p.add_argument("--out", required=True, help="output .segt path (sidecar .json alongside)")
    _add_threads(p)
    p.set_defaults(func=cmd_confusion)

    p = sub.add_parser("prior", help="build a prior bank for the evaluation split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", required=True,
                   choices=["uniform", "global", "binary", "histogram", "unconstrained"])
    p.add_argument("--confusion", default=None,
                   help="confusion .segt (required for --kind unconstrained)")
    p.add_argument("--solver-opts", default="",
                   help="comma list k=v: max_iters, step_tolerance, loss_tolerance, "
                        "init, subsample, seed")
    p.add_argument("--out", required=True, help="output .segt path (sidecar .json alongside)")
    _add_threads(p)
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("refine", help="refine evaluation-split probability maps")
    p.add_argument("--manifest", required=True)
    p.add_argument("--confusion", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_threads(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("labelbank", help="masking baseline over the prior support")
    p.add_argument("--manifest", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_threads(p)
    p.set_defaults(func=cmd_labelbank)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--exclude-borders", action="store_true",
                   help="score only pixels outside the dilated border set")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS,
                   help="border radius for --exclude-borders (default 2)")
    p.add_argument("--out", required=True, help="output report JSON path")
    _add_threads(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render a matrix as a grayscale PGM heatmap")
    p.add_argument("--matrix", required=True, help="2-d f32 .segt with entries in [0, 1]")
    p.add_argument("--out", required=True)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--block", type=int, default=1, help="pixels per matrix cell")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON path")
    p.add_argument("--out-dir", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_confusion(args) -> int:
    manifest = load_manifest(args.manifest)
    records = manifest.split_records("estimation")
    if not records:
        raise DataError("no estimation records in manifest")
    if args.radius < 0:
        raise UsageError("--radius must be >= 0")
    if not 0 < args.floor < np.inf:
        raise UsageError("--floor must be finite and positive")
    labels = manifest.label_set

    def per_image(rec):
        gt = load_label_map(rec.gt_path, labels)
        probs = load_probability_map(rec.probs_path, labels)
        mask = border_mask(gt, args.radius)
        pred = argmax_labels(probs)
        return accumulate_counts(gt, pred, mask, labels)

    partials = _map_ordered(per_image, records, args.threads)
    counts = partials[0]
    for part in partials[1:]:
        counts = merge_counts(counts, part)
    model = normalize_confusion(counts, floor=args.floor)
    save_confusion(
        model, args.out,
        radius=args.radius, n_images=len(records), n_pixels=counts.total,
    )
    print(f"confusion: {len(records)} images, {counts.total} sites -> {args.out}")
    return 0


def _parse_solver_opts(raw: str) -> tuple[SolverOptions, int, int]:
    fields = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise UsageError(f"bad --solver-opts token {token!r}; expected k=v")
        key, value = token.split("=", 1)
        fields[key.strip()] = value.strip()
    kwargs = {}
    try:
        subsample = int(fields.pop("subsample", DEFAULT_SUBSAMPLE))
        seed = int(fields.pop("seed", 0))
        if "max_iters" in fields:
            kwargs["max_iters"] = int(fields.pop("max_iters"))
        if "step_tolerance" in fields:
            kwargs["step_tolerance"] = float(fields.pop("step_tolerance"))
        if "loss_tolerance" in fields:
            kwargs["loss_tolerance"] = float(fields.pop("loss_tolerance"))
        if "init" in fields:
            kwargs["init"] = fields.pop("init")
    except ValueError as exc:
        raise UsageError(f"bad --solver-opts value ({exc})") from exc
    if fields:
        raise UsageError(f"unknown --solver-opts keys: {sorted(fields)}")
    if subsample < 1:
        raise UsageError(f"--solver-opts subsample must be >= 1, got {subsample}")
    if seed < 0:
        raise UsageError(f"--solver-opts seed must be >= 0, got {seed}")
    return SolverOptions(**kwargs), subsample, seed


def cmd_prior(args) -> int:
    manifest = load_manifest(args.manifest)
    labels = manifest.label_set
    eval_records = manifest.split_records("evaluation")
    if not eval_records:
        raise DataError("no evaluation records in manifest")
    ids = tuple(r.image_id for r in eval_records)
    solver_meta = None

    if args.kind == "uniform":
        row = uniform_prior(labels).weights
        weights = np.tile(row, (len(ids), 1))
    elif args.kind == "global":
        row = global_prior(manifest, "estimation").weights
        weights = np.tile(row, (len(ids), 1))
    elif args.kind in ("binary", "histogram"):
        build = binary_prior if args.kind == "binary" else histogram_prior
        rows = _map_ordered(
            lambda rec: build(load_label_map(rec.gt_path, labels), labels).weights,
            eval_records, args.threads,
        )
        weights = np.stack(rows)
    else:  # unconstrained
        if not args.confusion:
            raise UsageError("--kind unconstrained requires --confusion")
        opts, subsample, seed = _parse_solver_opts(args.solver_opts)
        model, _ = load_confusion(args.confusion)
        if model.n_labels != labels.size:
            raise DataError(
                f"confusion has {model.n_labels} labels, manifest {labels.size}"
            )

        def per_image(item):
            # fit on every annotated, classified site of the image; the
            # evaluation scores all pixels, so masked fitting skews the
            # solved weights off the image's true composition
            idx, rec = item
            gt = load_label_map(rec.gt_path, labels)
            probs = load_probability_map(rec.probs_path, labels)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
            samples = sample_set(gt, probs, labels, mask=None,
                                 max_samples=subsample, rng=rng)
            if len(samples) == 0:
                raise DataError(f"{rec.image_id}: no usable solver samples")
            return solve_unconstrained_prior(model, samples, opts).weights

        rows = _map_ordered(per_image, list(enumerate(eval_records)), args.threads)
        weights = np.stack(rows)
        solver_meta = {
            "max_iters": opts.max_iters,
            "step_tolerance": opts.step_tolerance,
            "loss_tolerance": opts.loss_tolerance,
            "epsilon": opts.epsilon,
            "init": opts.init,
            "subsample": subsample,
            "seed": seed,
        }

    bank = PriorBank(kind=args.kind, ids=ids, weights=weights, solver=solver_meta)
    save_prior_bank(bank, args.out)
    print(f"prior[{args.kind}]: {len(ids)} images -> {args.out}")
    return 0


def _refine_split(manifest, bank: PriorBank, out, transform, threads: int) -> int:
    """Write transform(probs, prior) and its argmax for every evaluation
    record; returns the image count. The bank width, a prior for every id
    and every map's header are checked before --out is touched. Each map is
    then read and validated once, inside its write group, and its outputs go
    to a hidden staging directory in --out; they move to their final names
    only after the last map has passed. So memory does not grow with the
    split, and a failed run publishes nothing: it removes what it staged,
    and --out too if the run created it."""
    labels = manifest.label_set
    if bank.weights.shape[1] != labels.size:
        raise DataError(
            f"prior bank has {bank.weights.shape[1]} labels, manifest {labels.size}"
        )
    records = manifest.split_records("evaluation")
    if not records:
        raise DataError("no evaluation records in manifest")
    checked = []
    for rec in records:
        dtype, dims = segt.read_header(rec.probs_path)
        if dtype != np.float32 or len(dims) != 3:
            raise DataError(f"{rec.probs_path}: expected 3-d float32 tensor")
        checked.append((rec, dims, bank.get(rec.image_id)))
    out = Path(out).resolve()
    created = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".conflens-", dir=out))

    def per_image(item):
        rec, _, prior = item
        result = transform(load_probability_map(rec.probs_path, labels), prior)
        return result, argmax_labels(result)

    def write_group(group):
        for (rec, _, _), (result, pred) in zip(group, _map_ordered(per_image, group, threads)):
            save_probability_map(result, stage / f"{rec.image_id}_refined.segt")
            save_label_map(pred, stage / f"{rec.image_id}_pred.segt")

    try:
        for group in _write_groups(checked, lambda item: item[1]):
            write_group(group)
        for path in stage.iterdir():
            os.replace(path, out / path.name)
        stage.rmdir()
    except BaseException:
        shutil.rmtree(created[-1] if created else stage, ignore_errors=True)
        raise
    return len(checked)


def cmd_refine(args) -> int:
    manifest = load_manifest(args.manifest)
    model, _ = load_confusion(args.confusion)
    if model.n_labels != manifest.label_set.size:
        raise DataError(
            f"confusion has {model.n_labels} labels, manifest {manifest.label_set.size}"
        )
    n = _refine_split(
        manifest, load_prior_bank(args.priors), args.out,
        lambda probs, prior: refine_map(build_refinement_matrix(model, prior), probs),
        args.threads,
    )
    print(f"refine: {n} images -> {Path(args.out)}")
    return 0


def cmd_labelbank(args) -> int:
    manifest = load_manifest(args.manifest)
    n = _refine_split(
        manifest, load_prior_bank(args.priors), args.out,
        lambda probs, prior: labelbank_mask(probs, prior.support),
        args.threads,
    )
    print(f"labelbank: {n} images -> {Path(args.out)}")
    return 0


def cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    labels = manifest.label_set
    records = manifest.split_records("evaluation")
    if not records:
        raise DataError("no evaluation records in manifest")
    if args.radius < 0:
        raise UsageError("--radius must be >= 0")
    pred_dir = Path(args.pred_dir)

    def per_image(rec):
        gt = load_label_map(rec.gt_path, labels)
        pred = load_label_map(pred_dir / f"{rec.image_id}_pred.segt", labels)
        include = None
        if args.exclude_borders:
            include = border_mask(gt, args.radius).included
        acc = MetricAccumulator(labels)
        acc.add(pred, gt, include=include)
        return acc

    partials = _map_ordered(per_image, records, args.threads)
    total = partials[0]
    for part in partials[1:]:
        total.merge(part)
    report = total.report()
    save_report(report, args.out)
    print(
        f"eval: acc={report.pixel_accuracy:.4f} miou={report.mean_iou:.4f} "
        f"({report.n_pixels_scored} px) -> {args.out}"
    )
    return 0


def cmd_render(args) -> int:
    arr = segt.load_tensor(args.matrix)
    if arr.ndim != 2 or arr.dtype != np.float32:
        raise DataError(f"{args.matrix}: expected 2-d float32 tensor")
    render_matrix_heatmap(arr.astype(np.float64), args.out,
                          gamma=args.gamma, block=args.block)
    print(f"render: {arr.shape[0]}x{arr.shape[1]} matrix -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec.load(args.spec)
    generate_dataset(spec, args.out_dir, threads=args.threads)
    print(
        f"synth: {spec.n_estimation}+{spec.n_evaluation} images "
        f"({spec.height}x{spec.width}, {spec.n_classes} classes) -> {args.out_dir}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConflensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
