"""Timing benchmark for the numpy kernels.

Times each kernel in conflens.kernels, and the probability-map sum check
that every map load runs, on segmentation-scale inputs (512x512 images, 20
classes), plus the solver's loss on 64 stacked 576-sample, 8-class images in
one call against one call per image, and prints the best of N runs per
case.
perfbench/harness.py imports make_inputs for its per-kernel metrics.

Usage:
    python benchmarks/bench_kernels.py [--size 512] [--classes 20] [--repeats 5]
"""

import argparse
import time

import numpy as np

from conflens import ProbabilityMap, kernels, validate_probability_map


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def make_inputs(size, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=(size, size)).astype(np.int32)
    pred = rng.integers(0, n_classes, size=(size, size)).astype(np.int32)
    included = rng.random((size, size)) < 0.8
    matrix = rng.random((n_classes, n_classes)) + 0.05
    matrix /= matrix.sum(axis=0, keepdims=True)
    probs = rng.random((size, size, n_classes)).astype(np.float32)
    probs /= probs.sum(axis=2, keepdims=True)
    n_samples = 100_000
    sample_probs = rng.random((n_samples, n_classes))
    sample_probs /= sample_probs.sum(axis=1, keepdims=True)
    sample_gt = rng.integers(0, n_classes, size=n_samples)
    weights = rng.dirichlet(np.ones(n_classes))
    n_seeds = 256
    seeds = (
        rng.random(n_seeds) * size,
        rng.random(n_seeds) * size,
        rng.integers(0, n_classes, size=n_seeds).astype(np.int32),
    )
    return dict(
        labels=labels, pred=pred, included=included, matrix=matrix,
        probs=probs, sample_probs=sample_probs, sample_gt=sample_gt,
        weights=weights, seeds=seeds,
    )


def batched_loss_cases(n_images=64, n_samples=576, n_classes=8, seed=0):
    """loss_value on n_images stacked images in one call, and the same
    images one call each: the prior solver's lockstep form against its
    sequential one."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_classes, n_classes)) + 0.05
    matrix /= matrix.sum(axis=0, keepdims=True)
    gt = rng.integers(0, n_classes, size=(n_images, n_samples))
    weights = rng.dirichlet(np.ones(n_classes), size=n_images)
    singles = [
        kernels.sample_evidence(matrix, g, rng.dirichlet(np.ones(n_classes), size=n_samples))
        for g in gt
    ]
    stacked = np.swapaxes(np.stack([np.swapaxes(e, 0, 1) for e in singles]), 1, 2)
    floor = np.full(gt.shape, 1e-10)
    label = f"loss_value ({n_images}x{n_samples}x{n_classes}"
    return [
        (f"{label}, 1 call)",
         lambda: kernels.loss_value(matrix, weights, gt, stacked, floor)),
        (f"{label}, {n_images} calls)",
         lambda: [kernels.loss_value(matrix, w, g, e, 1e-10)
                  for w, g, e in zip(weights, gt, singles)]),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--classes", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    data = make_inputs(args.size, args.classes)
    n = args.classes
    evidence = kernels.sample_evidence(data["matrix"], data["sample_gt"], data["sample_probs"])

    loss_args = (data["matrix"], data["weights"], data["sample_gt"], evidence, 1e-10)
    probs = ProbabilityMap(data["probs"])
    cases = [
        ("border_excluded (r=2)", lambda: kernels.border_excluded(data["labels"], 2)),
        ("pair_counts", lambda: kernels.pair_counts(
            data["pred"], data["labels"], data["included"], n, -1)),
        ("apply_refinement", lambda: kernels.apply_refinement(data["matrix"], data["probs"])),
        ("loss_value (1e5 samples)", lambda: kernels.loss_value(*loss_args)),
        ("loss_grad (1e5 samples)", lambda: kernels.loss_grad(*loss_args)),
        ("loss_hessian (1e5 samples)", lambda: kernels.loss_hessian(*loss_args)),
        ("nearest_seed (256 seeds)",
         lambda: kernels.nearest_seed(args.size, args.size, *data["seeds"])),
        ("validate_probability_map", lambda: validate_probability_map(probs, 1e-4)),
        *batched_loss_cases(),
    ]

    print(f"size={args.size} classes={args.classes} repeats={args.repeats} (best of N)")
    header = f"{'kernel':<36} {'time':>10}"
    print(header)
    print("-" * len(header))
    for name, call in cases:
        print(f"{name:<36} {timeit(call, args.repeats) * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
