"""Per-layer metrics of a traced run. The layers are the conflens modules.

Every ``<layer>.<function>_s`` metric is the function's self time: its spans'
durations minus the time their child spans cover. The exceptions are the
``cli.<stage>_s`` stage wall times and ``priors.solve_total_s``, which
include their children. Byte and GB figures are computed from array sizes,
not measured on the hardware.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import tracing

LAYERS = ("cli", "confusion", "data", "kernels", "metrics", "priors", "refine", "segt", "synth")
METHODS = (("metrics", "MetricAccumulator.add"),)
PIPELINE_KERNELS = ("loss_grad", "loss_value", "apply_refinement", "border_excluded",
                    "pair_counts")
SETUP_KERNELS = ("nearest_seed",)  # called by the set-up's synthesis
STAGES = ("confusion", "prior_closed", "prior_unconstrained", "refine", "labelbank", "eval")
SOLVE = "priors.solve_unconstrained_prior"

# metric -> span whose self time it reports
SELF_TIMES = {
    "priors.solve_s": SOLVE,
    "priors.sample_set_s": "priors.sample_set",
    "data.load_manifest_s": "data.load_manifest",
    "data.load_probability_map_s": "data.load_probability_map",
    "data.validate_probability_map_s": "data.validate_probability_map",
    "data.load_label_map_s": "data.load_label_map",
    "data.save_probability_map_s": "data.save_probability_map",
    "data.save_label_map_s": "data.save_label_map",
    "segt.load_tensor_s": "segt.load_tensor",
    "segt.store_tensor_s": "segt.store_tensor",
    "confusion.border_mask_s": "confusion.border_mask",
    "confusion.accumulate_counts_s": "confusion.accumulate_counts",
    "refine.build_refinement_matrix_s": "refine.build_refinement_matrix",
    "refine.refine_map_s": "refine.refine_map",
    "refine.argmax_labels_s": "refine.argmax_labels",
    "refine.labelbank_mask_s": "refine.labelbank_mask",
    "metrics.accumulate_s": "metrics.MetricAccumulator.add",
}
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
KERNEL_REPS = 5

SEGT_HEADER = 10  # magic, version, dtype code, ndim; then 4 bytes per dim
NESTED_READ_HEADER = "segt.read_header@load_tensor"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _loss_bytes(args, kwargs, result):
    return _arg(args, kwargs, 2, "gt").nbytes + _arg(args, kwargs, 3, "probs").nbytes


# span name -> hook(args, kwargs, result) giving the span's amount
HOOKS = {
    "segt.load_tensor": lambda a, k, r: SEGT_HEADER + 4 * r.ndim + r.nbytes,
    "segt.read_header": lambda a, k, r: SEGT_HEADER + 4 * len(r[1]),
    "segt.store_tensor": lambda a, k, r: (
        SEGT_HEADER + 4 * np.ndim(_arg(a, k, 1, "tensor")) + _arg(a, k, 1, "tensor").nbytes
    ),
    "kernels.apply_refinement": lambda a, k, r: _arg(a, k, 1, "probs").nbytes + r.nbytes,
    "kernels.loss_value": _loss_bytes,
    "kernels.loss_grad": _loss_bytes,
    "confusion.border_mask": lambda a, k, r: (r.n_included, r.included.size),
}


def install(tracer: tracing.Tracer):
    """Wrap the conflens layers; returns the function that unwraps them."""
    return tracing.install(tracer, "conflens", LAYERS, METHODS, HOOKS)


def _sum(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b)) if a and b else a or b


@dataclass
class Agg:
    """Spans of one name: count, summed and self durations, each duration,
    and the elementwise sum of their hook amounts."""

    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations: list = field(default_factory=list)
    amount: tuple = ()

    def add(self, dur: int, self_ns: int, amount) -> None:
        self.count += 1
        self.total_ns += dur
        self.self_ns += self_ns
        self.durations.append(dur)
        if amount is not None:
            self.amount = _sum(self.amount, amount if isinstance(amount, tuple) else (amount,))

    def merge(self, other: "Agg") -> "Agg":
        return Agg(self.count + other.count, self.total_ns + other.total_ns,
                   self.self_ns + other.self_ns, self.durations + other.durations,
                   _sum(self.amount, other.amount))


def aggregate(names: list[str], spans: list[list]) -> dict:
    """Root span index -> {(stage, span name): Agg}. A span's stage is the
    benchmark's enclosing ``stage.<group>`` span, or None. A read_header
    nested in load_tensor is keyed apart, so file reads are not counted
    twice."""
    child_ns = [0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    root = [0] * len(spans)
    stage = [None] * len(spans)
    out: dict = {}
    for i, (nid, start, end, parent, amount) in enumerate(spans):
        name = names[nid]
        if parent >= 0:
            root[i], stage[i] = root[parent], stage[parent]
            if name == "segt.read_header" and names[spans[parent][0]] == "segt.load_tensor":
                name = NESTED_READ_HEADER
        else:
            root[i] = i
        if name.startswith("stage."):
            stage[i] = name[len("stage."):]
        aggs = out.setdefault(root[i], {})
        aggs.setdefault((stage[i], name), Agg()).add(end - start, end - start - child_ns[i], amount)
    return out


def pick(aggs: dict, name: str, stage: str | None = "*") -> Agg:
    """Merge a span's aggregates over every stage ("*") or one stage."""
    total = Agg()
    for (st, nm), agg in aggs.items():
        if nm == name and (stage == "*" or st == stage):
            total = total.merge(agg)
    return total


def tail_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it;
    the median when there are too few samples for any."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def iteration_metrics(aggs: dict) -> dict:
    """Per-layer metrics of one traced pipeline iteration."""
    m = {f"cli.{st}_s": pick(aggs, f"stage.{st}").total_ns / 1e9 for st in STAGES}
    m.update({metric: pick(aggs, span).self_ns / 1e9 for metric, span in SELF_TIMES.items()})
    solve = pick(aggs, SOLVE)
    m["priors.solve_total_s"] = solve.total_ns / 1e9
    durations_ms = np.asarray(solve.durations, dtype=np.float64) / 1e6
    m["priors.solve_ms_p50"] = float(np.percentile(durations_ms, 50))
    m["priors.solve_ms_tail"] = float(np.percentile(durations_ms, tail_percentile(solve.count)))
    grads = pick(aggs, "kernels.loss_grad", "prior_unconstrained").count
    values = pick(aggs, "kernels.loss_value", "prior_unconstrained").count
    m["priors.loss_grad_calls"] = grads
    m["priors.loss_value_calls"] = values
    m["priors.accept_ratio"] = grads / values
    m.update(_kernel_metrics(aggs, PIPELINE_KERNELS))
    m["kernels.apply_refinement_gb"] = pick(aggs, "kernels.apply_refinement").amount[0] / 1e9
    m["kernels.loss_gb"] = (pick(aggs, "kernels.loss_grad").amount[0]
                            + pick(aggs, "kernels.loss_value").amount[0]) / 1e9
    m["data.load_manifest_calls"] = pick(aggs, "data.load_manifest").count
    loads, headers = pick(aggs, "segt.load_tensor"), pick(aggs, "segt.read_header")
    stores = pick(aggs, "segt.store_tensor")
    m["segt.files_read"] = loads.count + headers.count
    m["segt.mb_read"] = (loads.amount[0] + headers.amount[0]) / 1e6
    m["segt.files_written"] = stores.count
    m["segt.mb_written"] = stores.amount[0] / 1e6
    included, examined = pick(aggs, "confusion.border_mask", "confusion").amount
    m["confusion.included_frac"] = included / examined
    return m


def setup_metrics(aggs: dict) -> dict:
    """Per-layer metrics of the traced set-up."""
    m = {"synth.generate_dataset_s": pick(aggs, "synth.generate_dataset").self_ns / 1e9}
    m.update(_kernel_metrics(aggs, SETUP_KERNELS))
    return m


def _kernel_metrics(aggs: dict, kernels) -> dict:
    m = {}
    for k in kernels:
        agg = pick(aggs, f"kernels.{k}")
        m[f"kernels.{k}_s"] = agg.self_ns / 1e9
        m[f"kernels.{k}_calls"] = agg.count
    return m


def median_metrics(per_iteration: list[dict]) -> dict:
    return {k: statistics.median(it[k] for it in per_iteration) for k in per_iteration[0]}


def self_time_table(aggs_list: list[dict], top: int = 12) -> list[tuple[str, float]]:
    """Span names by self time summed over the given roots, largest first."""
    totals: dict = {}
    for aggs in aggs_list:
        for (_, name), agg in aggs.items():
            totals[name] = totals.get(name, 0) + agg.self_ns
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [(name, ns / 1e9) for name, ns in ranked]


def time_kernels(kernels, make_inputs) -> dict:
    """Median ms of each kernel on bench_kernels' 512x512, 20-class inputs,
    after one warm-up call."""
    data = make_inputs(512, 20)
    n = 20
    loss_args = (data["matrix"], data["weights"], data["sample_gt"], data["sample_probs"], 1e-10)
    cases = {
        "border_excluded": lambda: kernels.border_excluded(data["labels"], 2),
        "pair_counts": lambda: kernels.pair_counts(
            data["pred"], data["labels"], data["included"], n, -1),
        "apply_refinement": lambda: kernels.apply_refinement(data["matrix"], data["probs"]),
        "loss_value": lambda: kernels.loss_value(*loss_args),
        "loss_grad": lambda: kernels.loss_grad(*loss_args),
        "nearest_seed": lambda: kernels.nearest_seed(512, 512, *data["seeds"]),
    }
    out = {}
    for name, call in cases.items():
        call()
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"kernels.{name}_512x20_ms"] = 1e3 * statistics.median(times)
    return out
