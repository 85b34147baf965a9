"""The names the benchmark harness (perfbench/) reads from conflens and from
benchmarks/bench_kernels.py still exist, its workloads' solver options
still parse, and its traced run still gives every per-layer metric, so
breaking one fails here and not only in a benchmark run. Also a scan of
the package's source that keeps one map loader."""

import ast
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

import conflens

ROOT = Path(__file__).resolve().parent.parent


def load_bench_kernels():
    """benchmarks/bench_kernels.py loaded by path, as the harness loads it."""
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_names_exist():
    cli = importlib.import_module("conflens.cli")  # perfbench/run.py imports it so
    assert callable(conflens.synth.reference_spec)
    assert callable(cli.main)
    assert isinstance(conflens.kernels.BACKEND, str)
    for name in ("generate_dataset", "save_confusion", "identity_confusion"):
        assert callable(getattr(conflens, name)), name


def test_workload_solver_opts_parse(monkeypatch):
    """Each workload's `--solver-opts` string is one the prior stage takes,
    so a deleted or renamed key fails here, not as a failed benchmark run.
    perfbench/workloads.py is imported as perfbench/run.py imports it."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    cli = importlib.import_module("conflens.cli")
    assert workloads
    for workload in workloads.values():
        assert isinstance(cli._parse_solver_opts(workload.solver_opts),
                          conflens.SolverOptions), workload.name


def test_bench_kernels_inputs_run_every_timed_kernel():
    """make_inputs, and each kernel that the harness or
    benchmarks/bench_kernels.py times, called as the harness calls it."""
    kernels, data = conflens.kernels, load_bench_kernels().make_inputs(16, 3)
    loss_args = (data["matrix"], data["weights"], data["sample_gt"], data["sample_probs"],
                 conflens.priors.EPSILON)
    assert kernels.border_excluded(data["labels"], 2).shape == (16, 16)
    assert kernels.pair_counts(data["pred"], data["labels"], data["included"], 3, -1).shape == (3, 3)
    assert kernels.apply_refinement(data["matrix"], data["probs"]).shape == (16, 16, 3)
    assert np.isfinite(kernels.loss_value(*loss_args)).all()
    assert kernels.loss_grad(*loss_args)[1].shape == (3, 3)
    kernels.nearest_seed(16, 16, *data["seeds"])
    conflens.data._check_probs("probs", data["probs"])  # bench_kernels' map load check


def test_hooked_parameters_keep_their_positions():
    """perfbench/layers.py HOOKS read these arguments by position, so a
    parameter added before them would make `--trace 1` measure the wrong
    array."""
    positions = {
        conflens.kernels.loss_value: {"gt": 2, "evidence": 3},
        conflens.kernels.loss_grad: {"gt": 2, "evidence": 3},
        conflens.kernels.apply_refinement: {"probs": 1},
        conflens.segt.store_tensor: {"tensor": 1},
    }
    for fn, want in positions.items():
        names = list(inspect.signature(fn).parameters)
        assert {name: names.index(name) for name in want} == want, fn.__name__


def test_traced_run_gives_every_metric(small_dataset, tmp_path, monkeypatch):
    """perfbench's `--trace 1` sequence on a small dataset: every op passes
    its checks and every per-layer metric is finite. A metric reads the
    spans of the kernels it names, so one the pipeline stops calling fails
    here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers, pipeline, tracing = (importlib.import_module(name)
                                 for name in ("layers", "pipeline", "tracing"))
    spec, manifest, data = small_dataset
    ident, out = tmp_path / "ident.segt", tmp_path / "out"
    out.mkdir()
    conflens.save_confusion(conflens.identity_confusion(spec.label_set), ident, radius=0)
    ops = pipeline.build_ops(data / "manifest.json", ident, out, "")
    tracer = tracing.Tracer()
    uninstall = layers.install(tracer)
    try:
        with tracer.span("iteration"):
            _, results = pipeline.run_ops(importlib.import_module("conflens.cli").main, ops,
                                          tracer.span)
    finally:
        uninstall()
    ids = [rec.image_id for rec in manifest.split_records("evaluation")]
    pipeline.check_outputs(results, out, ids, spec.n_classes, None)
    assert [r.problems for r in results] == [[] for _ in ops]
    (aggs,) = layers.aggregate(tracer.names, tracer.spans).values()
    metrics = layers.iteration_metrics(aggs)
    assert {k: v for k, v in metrics.items() if not math.isfinite(v)} == {}


def test_load_chunks_is_the_one_map_loader():
    """Only data._load_chunks reads or checks a map file: nothing else in
    src/conflens names _read_map, _check_probs or _check_labels, not even
    to import them, so a second load path fails here."""
    guarded = {"_read_map", "_check_probs", "_check_labels"}
    found = []

    def scan(node, path, inside):
        for child in ast.iter_child_nodes(node):
            within = inside or (path.name == "data.py" and isinstance(child, ast.FunctionDef)
                                and child.name == "_load_chunks")
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, ast.alias):
                name = child.name
            if name in guarded and not within:
                found.append(f"{path.name}:{child.lineno} {name}")
            scan(child, path, within)

    paths = sorted((ROOT / "src" / "conflens").glob("*.py"))
    assert ROOT / "src" / "conflens" / "data.py" in paths
    for path in paths:
        scan(ast.parse(path.read_text(), filename=str(path)), path, False)
    assert found == []
