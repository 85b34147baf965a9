"""One benchmark run: set-up, the measured stage sequences, the metrics and
the record written next to them. ``run.py`` is the entry point."""

from __future__ import annotations

import ctypes
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layers
import pipeline
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPS = 3


class Run:
    """The dataset of one workload and seed, and every op result so far."""

    def __init__(self, conflens, workload, seed: int, work: Path):
        self.conflens = conflens
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spec = workload.make_spec(conflens.synth, seed)
        self.data = work / "data"
        self.ident = work / "ident.segt"
        self.eval_ids: list[str] = []
        self.results: list[pipeline.OpResult] = []
        self.reports: dict | None = None
        self.tree_sha256: str | None = None
        self.iterations = 0

    def generate(self, out: Path) -> float:
        t0 = time.perf_counter()
        self.conflens.generate_dataset(self.spec, out)
        return time.perf_counter() - t0

    def prepare(self) -> None:
        """Inputs beyond the dataset: the identity confusion of the base run
        and the evaluation ids the checks expect."""
        self.conflens.save_confusion(
            self.conflens.identity_confusion(self.spec.label_set), self.ident, radius=0)
        manifest = json.loads((self.data / "manifest.json").read_text())
        self.eval_ids = [r["id"] for r in manifest["records"] if r["split"] == "evaluation"]

    def iteration(self, tracer: tracing.Tracer | None = None) -> float:
        """Run and check the stage sequence once; returns its wall time."""
        out = self.work / f"out{self.iterations}"
        out.mkdir()
        ops = pipeline.build_ops(self.data / "manifest.json", self.ident, out,
                                 self.workload.solver_opts)
        if tracer is None:
            elapsed, results = pipeline.run_ops(self.conflens.cli.main, ops)
        else:
            uninstall = layers.install(tracer)
            try:
                with tracer.span("iteration"):
                    elapsed, results = pipeline.run_ops(self.conflens.cli.main, ops, tracer.span)
            finally:
                uninstall()
        reports = pipeline.check_outputs(results, out, self.eval_ids, self.spec.n_classes,
                                         self.workload.baseline(self.seed))
        if self.reports is None:
            self.reports = reports
            self.tree_sha256 = pipeline.tree_sha256(out)
        elif reports != self.reports:
            for result in results:
                if result.op.group == "eval":
                    result.problems.append("scores differ from the first iteration")
        self.results += results
        self.iterations += 1
        shutil.rmtree(out)
        return elapsed

    def failures(self) -> list[str]:
        return [f"{r.op.name}: {p}" for r in self.results for p in r.problems]

    def quality(self) -> dict:
        r = self.reports
        m = {f"acc_{name}": 100.0 * r[name]["pixel_accuracy"] for name, *_ in pipeline.RUNS}
        m["miou_histogram"] = 100.0 * r["histogram"]["mean_iou"]
        m["miou_unconstrained"] = 100.0 * r["unconstrained"]["mean_iou"]
        m["acc_unconstrained_interior"] = 100.0 * r[pipeline.INTERIOR]["pixel_accuracy"]
        return m


def measure_end_to_end(run: Run, seconds: float, import_s: float) -> tuple[dict, dict]:
    gen = []
    for rep in range(SETUP_REPS):
        target = run.data if rep == 0 else run.work / f"data{rep}"
        gen.append(run.generate(target))
        if rep:
            shutil.rmtree(target)
    run.prepare()
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(run.iteration())
    metrics = {
        "setup_s": import_s + statistics.median(gen),
        "pipeline_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **run.quality(),
    }
    return metrics, {"import_s": import_s, "generate_s": gen, "pipeline_s_each": times}


def measure_per_layer(run: Run, seconds: float, tracer: tracing.Tracer) -> tuple[dict, dict]:
    uninstall = layers.install(tracer)
    try:
        with tracer.span("setup"):
            run.generate(run.data)
    finally:
        uninstall()
    run.prepare()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run.iteration())
        traced.append(run.iteration(tracer))
    setup_root, *iteration_roots = layers.aggregate(tracer.names, tracer.spans).values()
    metrics = layers.median_metrics([layers.iteration_metrics(a) for a in iteration_roots])
    metrics.update(layers.setup_metrics(setup_root))
    metrics["metrics.pixels_scored"] = sum(r["n_pixels_scored"] for r in run.reports.values())
    t_u, t_t = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_frac"] = (t_t - t_u) / t_u
    metrics.update(layers.time_kernels(run.conflens.kernels, _bench_kernels().make_inputs))
    solves = layers.pick(iteration_roots[0], layers.SOLVE).count
    info = {
        "pipeline_s_untraced": untraced,
        "pipeline_s_traced": traced,
        "solve_tail_percentile": layers.tail_percentile(solves),
        "solves_per_iteration": solves,
        "top_self_time_s": layers.self_time_table(iteration_roots[:1]),
        "spans": len(tracer.spans),
    }
    return metrics, info


def _bench_kernels():
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def blas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy reports, or None if it
    cannot be queried."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a source
    tree without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(conflens, blas_requested: int, mmap_threshold: int | None) -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": pipeline.tree_sha256(ROOT / "src", "*.py"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": conflens.kernels.BACKEND,
        "blas_threads": blas_threads(),
        "blas_threads_requested": blas_requested,
        "malloc_mmap_threshold": mmap_threshold,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(args, conflens, import_s: float, blas_requested: int,
         mmap_threshold: int | None) -> int:
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir()
    tracer = tracing.Tracer()
    run = Run(conflens, workload, args.seed, work)
    try:
        if args.trace:
            metrics, info = measure_per_layer(run, args.seconds, tracer)
        else:
            metrics, info = measure_end_to_end(run, args.seconds, import_s)
    except Exception as exc:
        failures = run.failures()
        if not failures:
            raise
        # a failed stage left a metric without a value
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(f"perfbench: no result ({exc!r})", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, run, declared, metrics, info,
                  environment(conflens, blas_requested, mmap_threshold), tracer)


def report(args, run: Run, declared: list, metrics: dict, info: dict, env: dict,
           tracer: tracing.Tracer) -> int:
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    failures = run.failures()
    attempted = len(run.results)
    failed = sum(r.failed for r in run.results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": run.iterations,
        "error_rate": failed / attempted,
        "output_tree_sha256": run.tree_sha256,
        "environment": env,
        **info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RUN_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({**record, "failures": failures, "result": result}, fh, indent=2)
    if args.trace:
        tracer.write(RUN_DIR / f"spans-{stem}.json")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value)}")
    rows = [(d["name"], metrics[d["name"]], d["unit"]) for d in declared]
    # a rate that is 0 when all is well cannot be a bounded metric
    rows.append(("error_rate", record["error_rate"], "failed/attempted"))
    for name, value, unit in rows:
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(json.dumps(result), flush=True)
    return 0
