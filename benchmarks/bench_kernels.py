"""Numba vs NumPy benchmark for the hot kernels.

Times each kernel backend on segmentation-scale inputs (512x512 images,
20 classes) and prints a comparison table. Numba timings exclude JIT
compilation (one warmup call per kernel). loss_hessian is numpy-only.

Usage:
    python benchmarks/bench_kernels.py [--size 512] [--classes 20] [--repeats 5]
"""

import argparse
import time

import numpy as np

from conflens import kernels


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--classes", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    data = make_inputs(args.size, args.classes)
    n = args.classes
    evidence = kernels.sample_evidence(data["matrix"], data["sample_gt"], data["sample_probs"])

    cases = [
        (
            "border_excluded (r=2)",
            lambda f: f(data["labels"], 2),
            kernels.border_excluded_numpy,
            kernels.border_excluded_numba,
        ),
        (
            "pair_counts",
            lambda f: f(data["pred"], data["labels"], data["included"], n, -1),
            kernels.pair_counts_numpy,
            kernels.pair_counts_numba,
        ),
        (
            "apply_refinement",
            lambda f: f(data["matrix"], data["probs"]),
            kernels.apply_refinement_numpy,
            kernels.apply_refinement_numba,
        ),
        (
            "loss_value (1e5 samples)",
            lambda f: f(data["matrix"], data["weights"], data["sample_gt"], evidence, 1e-10),
            kernels.loss_value_numpy,
            kernels.loss_value_numba,
        ),
        (
            "loss_grad (1e5 samples)",
            lambda f: f(data["matrix"], data["weights"], data["sample_gt"], evidence, 1e-10),
            kernels.loss_grad_numpy,
            kernels.loss_grad_numba,
        ),
        (
            "loss_hessian (1e5 samples)",
            lambda f: f(data["matrix"], data["weights"], data["sample_gt"], evidence, 1e-10),
            kernels.loss_hessian,
            None,
        ),
        (
            "nearest_seed (256 seeds)",
            lambda f: f(args.size, args.size, *data["seeds"]),
            kernels.nearest_seed_numpy,
            kernels.nearest_seed_numba,
        ),
    ]

    print(f"size={args.size} classes={args.classes} repeats={args.repeats} "
          f"(best of N, numba available: {kernels.HAVE_NUMBA})")
    header = f"{'kernel':<26} {'numpy':>10} {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, call, numpy_fn, numba_fn in cases:
        t_numpy = timeit(lambda: call(numpy_fn), args.repeats)
        if numba_fn is not None:
            call(numba_fn)  # JIT warmup
            t_numba = timeit(lambda: call(numba_fn), args.repeats)
            ratio = t_numpy / t_numba
            print(f"{name:<26} {t_numpy * 1e3:>8.2f}ms {t_numba * 1e3:>8.2f}ms "
                  f"{ratio:>7.1f}x")
        else:
            print(f"{name:<26} {t_numpy * 1e3:>8.2f}ms {'n/a':>10} {'':>8}")


if __name__ == "__main__":
    main()
