#!/usr/bin/env python3
"""Benchmark of the conflens batch pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload reference --seed 20240817 --seconds 15 --trace 0

Each run builds the workload's synthetic dataset from ``--seed`` (set-up),
then drives the stage sequence of ``pipeline.build_ops`` in-process through
``conflens.cli.main`` with the CLI defaults (``--threads 1``). The load is a
closed loop: one caller runs the stages back to back, and whole sequences
repeat until ``--seconds`` have passed (at least one). Every stage output is
checked; a failed check counts the stage call as a failed operation.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced sequences and prints the per-layer metrics:
spans around the public functions of each conflens module, kept in memory and
written once at the end, plus kernel timings on the 512x512, 20-class inputs
of benchmarks/bench_kernels.py.

End-to-end metrics: setup_s is the conflens import plus the median of three
dataset syntheses; pipeline_s is the median wall time of the stage
sequences; peak_rss_mb is the peak resident memory of the process; acc_* and
miou_* are pixel accuracy and mean IoU in %, deterministic for a seed.
error_rate (failed / attempted stage calls) is printed, and the result
carries it as ``attempted`` and ``failed``: being 0 when all is well, it
cannot be a bounded metric.

The last stdout line is the result object. The lines before it, and a JSON
file under .perfbench_run/, hold the environment, the error rate, the
SHA-256 of the output tree and, for traced runs, the spans. The CLI's own
stdout is swallowed. BLAS runs on one thread, matching the single caller.

Seeds: at the default seed (20240817) the `reference` accuracies must equal
the ROADMAP baseline; 31337 is held out for checking later performance
claims.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import importlib
import os
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's ceiling for its dynamic mmap threshold, and the trim threshold its
# dynamic rule pairs with it
MMAP_THRESHOLD = 32 << 20
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="conflens pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_conflens():
    """Import conflens from this checkout's src/; returns (module, seconds).
    The time includes numpy's import, as a user of the package sees it."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    conflens = importlib.import_module("conflens")
    importlib.import_module("conflens.cli")
    seconds = time.perf_counter() - t0
    found = Path(conflens.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise ImportError(f"conflens resolved to {found}, outside {SRC}")
    return conflens, seconds


def pin_allocator() -> int | None:
    """Fix glibc malloc's mmap threshold; returns it, or None where mallopt
    is unavailable.

    glibc raises the threshold whenever a larger mmapped block is freed, so
    whether the pipeline's per-image temporaries come from the heap or from
    fresh mmaps, which fault in every page on every call, would otherwise
    depend on which arrays earlier code, such as the set-up, happened to
    free. The solver's loss kernels run two to three times slower on the
    mmap path. Pinning the threshold at the ceiling the dynamic rule
    converges to makes timings independent of that history.
    """
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    if libc is None or not hasattr(libc, "mallopt"):
        return None
    if not (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
            and libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)):
        return None
    return MMAP_THRESHOLD


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads its BLAS
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CONFLENS_THREADS", None)
    mmap_threshold = pin_allocator()
    try:
        conflens, import_s = import_conflens()
    except ImportError as exc:
        print(f"perfbench: cannot import conflens: {exc}", file=sys.stderr)
        return 2
    # the harness imports numpy, so it loads after the timed import
    import harness

    return harness.main(args, conflens, import_s, BLAS_THREADS, mmap_threshold)


if __name__ == "__main__":
    sys.exit(main())
