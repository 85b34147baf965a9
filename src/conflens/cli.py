"""Command-line pipeline: estimate confusions, build priors, refine,
evaluate, render, and synthesize datasets, wired through manifest files.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 I/O error
or out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .confusion import (DEFAULT_FLOOR, DEFAULT_RADIUS, estimate_confusion,
                        identity_confusion, load_confusion)
from .data import load_manifest
from .errors import ConflensError, DataError, UsageError
from .metrics import evaluate_split, render_matrix_file
from .priors import PRIOR_KINDS, SolverOptions, build_prior_bank, load_prior_bank
from .refine import refine_split
from .synth import SynthSpec, generate_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
    p.set_defaults(func=cmd_confusion)

    p = sub.add_parser("prior", help="build a prior bank for the evaluation split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", required=True, choices=PRIOR_KINDS)
    p.add_argument("--confusion", default=None,
                   help="confusion .segt (required for --kind unconstrained)")
    p.add_argument("--solver-opts", default=None,
                   help="comma list k=v of integers, each key at most once: "
                        + ", ".join(f"{f.name} (default {f.default})"
                                    for f in dataclasses.fields(SolverOptions))
                        + "; --kind unconstrained only")
    p.add_argument("--out", required=True, help="output .segt path (sidecar .json alongside)")
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("refine", help="refine evaluation-split probability maps")
    p.add_argument("--manifest", required=True)
    p.add_argument("--confusion", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("labelbank", help="masking baseline over the prior support: "
                       "refine with the identity confusion")
    p.add_argument("--manifest", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_refine, confusion=None)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--exclude-borders", action="store_true",
                   help="score only pixels outside the dilated border set")
    p.add_argument("--radius", type=int, default=None,
                   help="border radius, with --exclude-borders only (default 2)")
    p.add_argument("--out", required=True, help="output report JSON path")
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
    p.set_defaults(func=cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_confusion(args) -> int:
    if args.radius < 0:
        raise UsageError("--radius must be >= 0")
    if not 0 < args.floor < math.inf:
        raise UsageError("--floor must be finite and positive")
    manifest = load_manifest(args.manifest)
    model = estimate_confusion(manifest, args.out, args.radius, args.floor)
    n_images = len(manifest.split_records("estimation"))
    print(f"confusion: {n_images} images, {model.source_counts.total} sites -> {args.out}")
    return 0


def _parse_solver_opts(raw: str) -> SolverOptions:
    fields = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise UsageError(f"bad --solver-opts token {token!r}; expected k=v")
        key, value = (part.strip() for part in token.split("=", 1))
        if key in fields:
            raise UsageError(f"--solver-opts key {key!r} given twice")
        fields[key] = value
    unknown = sorted(fields.keys() - {f.name for f in dataclasses.fields(SolverOptions)})
    if unknown:
        raise UsageError(f"unknown --solver-opts keys: {unknown}")
    try:
        return SolverOptions(**{key: int(value) for key, value in fields.items()})
    except ValueError as exc:
        raise UsageError(f"bad --solver-opts value ({exc})") from exc
    except DataError as exc:
        raise UsageError(f"--solver-opts {exc}") from exc


def cmd_prior(args) -> int:
    if args.kind != "unconstrained" and (args.confusion, args.solver_opts) != (None, None):
        raise UsageError(f"--kind {args.kind} takes neither --confusion nor --solver-opts")
    if args.kind == "unconstrained" and not args.confusion:
        raise UsageError("--kind unconstrained requires --confusion")
    opts = _parse_solver_opts(args.solver_opts or "")
    manifest = load_manifest(args.manifest)
    model = load_confusion(args.confusion)[0] if args.confusion else None
    bank = build_prior_bank(manifest, args.kind, args.out, model, opts)
    print(f"prior[{args.kind}]: {len(bank.ids)} images -> {args.out}")
    return 0


def cmd_refine(args) -> int:
    manifest = load_manifest(args.manifest)
    model = (load_confusion(args.confusion)[0] if args.confusion
             else identity_confusion(manifest.label_set))
    n = refine_split(manifest, load_prior_bank(args.priors), args.out, model)
    print(f"{args.command}: {n} images -> {Path(args.out)}")
    return 0


def cmd_eval(args) -> int:
    if args.radius is not None and not args.exclude_borders:
        raise UsageError("--radius needs --exclude-borders")
    radius = DEFAULT_RADIUS if args.radius is None else args.radius
    if radius < 0:
        raise UsageError("--radius must be >= 0")
    manifest = load_manifest(args.manifest)
    report = evaluate_split(manifest, args.pred_dir, args.out,
                            radius if args.exclude_borders else None)
    print(
        f"eval: acc={report.pixel_accuracy:.4f} miou={report.mean_iou:.4f} "
        f"({report.n_pixels_scored} px) -> {args.out}"
    )
    return 0


def cmd_render(args) -> int:
    if not 0 < args.gamma < math.inf:
        raise UsageError("--gamma must be finite and positive")
    if args.block < 1:
        raise UsageError("--block must be >= 1")
    rows, cols = render_matrix_file(args.matrix, args.out, gamma=args.gamma, block=args.block)
    print(f"render: {rows}x{cols} matrix -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec.load(args.spec)
    generate_dataset(spec, args.out_dir)
    print(
        f"synth: {spec.n_estimation}+{spec.n_evaluation} images "
        f"({spec.height}x{spec.width}, {spec.n_classes} classes) -> {args.out_dir}"
    )
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConflensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
