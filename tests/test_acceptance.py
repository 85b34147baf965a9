"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The reference pipeline
(synthesize, estimate, build priors, refine, evaluate) executes once in a
module fixture through the CLI entry points and is shared by the criteria
that score it.
"""

import json
import time

import numpy as np
import pytest

from conflens import (
    ConfusionModel,
    LabelSet,
    build_refinement_matrix,
    identity_confusion,
    kernels,
    load_confusion,
    load_label_map,
    load_manifest,
    load_prior_bank,
    load_probability_map,
    load_tensor,
    refine_map,
    refinement_loss,
    refinement_loss_gradient,
    render_matrix_heatmap,
    sample_set,
    save_confusion,
    uniform_prior,
    validate_probability_map,
)
from conflens.data import ProbabilityMap
from conflens.priors import SampleSet
from conflens.refine import argmax_labels
from conflens.cli import main
from conflens.synth import (
    SynthSpec,
    _draw_hard_labels,
    bayes_optimal_accuracy,
    generate_dataset,
    reference_spec,
    true_confusion,
)
from tests.conftest import mixed_confusion


def _run(argv):
    rc = main(argv)
    assert rc == 0, f"command failed ({rc}): {argv}"


@pytest.fixture(scope="module")
def ref(tmp_path_factory):
    """Reference dataset and the full pipeline over it, timed per stage."""
    root = tmp_path_factory.mktemp("acceptance")
    spec = reference_spec()
    spec.save(root / "spec.json")
    manifest_path = str(root / "data" / "manifest.json")
    timings = {}
    wall_start = time.perf_counter()

    t0 = time.perf_counter()
    _run(["synth", "--spec", str(root / "spec.json"), "--out-dir", str(root / "data")])
    timings["synth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _run(["confusion", "--manifest", manifest_path, "--radius", "2",
          "--out", str(root / "conf.segt")])
    timings["confusion"] = time.perf_counter() - t0

    save_confusion(identity_confusion(spec.label_set), root / "ident.segt", radius=0)

    t0 = time.perf_counter()
    for kind in ("uniform", "binary", "histogram"):
        _run(["prior", "--manifest", manifest_path, "--kind", kind,
              "--out", str(root / f"{kind}.segt")])
    _run(["prior", "--manifest", manifest_path, "--kind", "unconstrained",
          "--confusion", str(root / "conf.segt"),
          "--out", str(root / "unconstrained.segt")])
    timings["priors"] = time.perf_counter() - t0

    runs = {
        "base": ("refine", str(root / "ident.segt"), "uniform"),
        "labelbank": ("labelbank", None, "binary"),
        "ident_binary": ("refine", str(root / "ident.segt"), "binary"),
        "binary": ("refine", str(root / "conf.segt"), "binary"),
        "histogram": ("refine", str(root / "conf.segt"), "histogram"),
        "unconstrained": ("refine", str(root / "conf.segt"), "unconstrained"),
    }
    scores = {}
    for name, (command, conf, bank) in runs.items():
        t0 = time.perf_counter()
        argv = [command, "--manifest", manifest_path,
                "--priors", str(root / f"{bank}.segt"),
                "--out", str(root / f"pred_{name}")]
        if conf is not None:
            argv[1:1] = ["--confusion", conf]
        _run(argv)
        timings[f"run_{name}"] = time.perf_counter() - t0
        _run(["eval", "--manifest", manifest_path,
              "--pred-dir", str(root / f"pred_{name}"),
              "--out", str(root / f"report_{name}.json")])
        scores[name] = json.loads((root / f"report_{name}.json").read_text())
    timings["pipeline_total"] = time.perf_counter() - wall_start

    manifest = load_manifest(manifest_path)
    return {
        "root": root,
        "spec": spec,
        "manifest": manifest,
        "manifest_path": manifest_path,
        "scores": scores,
        "bayes": bayes_optimal_accuracy(spec, manifest),
        "timings": timings,
    }


def random_confusion(rng, n):
    raw = rng.random((n, n)) + 0.05
    return ConfusionModel(matrix=raw / raw.sum(axis=0, keepdims=True), floor=1e-4)


def test_criterion_01_identity_law(ref):
    """Identity confusion + uniform prior leaves predictions unchanged."""
    spec = ref["spec"]
    manifest = ref["manifest"]
    labels = spec.label_set
    records = manifest.split_records("evaluation")[:50]
    assert len(records) == 50
    t0 = time.perf_counter()
    matrix = build_refinement_matrix(identity_confusion(labels), uniform_prior(labels))
    worst = 0.0
    for rec in records:
        probs = load_probability_map(rec.probs_path, labels)
        refined = refine_map(matrix, probs)
        assert np.array_equal(
            argmax_labels(refined).labels, argmax_labels(probs).labels
        )
        worst = max(worst, float(np.abs(
            refined.values.astype(np.float64) - probs.values.astype(np.float64)
        ).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: identity law on 50 images, "
          f"max-abs change {worst:.1e}, {elapsed:.1f}s")


def test_criterion_02_labelbank_equivalence(ref):
    """Identity confusion + binary priors == labelbank masking at argmax."""
    spec = ref["spec"]
    root = ref["root"]
    mismatched = 0
    checked = 0
    for rec in ref["manifest"].split_records("evaluation"):
        a = load_tensor(root / "pred_ident_binary" / f"{rec.image_id}_pred.segt")
        b = load_tensor(root / "pred_labelbank" / f"{rec.image_id}_pred.segt")
        mismatched += int((a != b).sum())
        checked += a.size
    elapsed = ref["timings"]["run_ident_binary"] + ref["timings"]["run_labelbank"]
    assert mismatched == 0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: labelbank equivalence on {checked} pixels, "
          f"{elapsed:.1f}s of pipeline time")


def test_criterion_03_stochasticity_invariants(ref):
    """1000 random floored-confusion/positive-prior pairs: R columns sum to
    1 +/- 1e-9 and refined maps pass per-pixel validation at 1e-6."""
    rng = np.random.default_rng(1003)
    rec = ref["manifest"].split_records("evaluation")[0]
    probs = load_probability_map(rec.probs_path, ref["spec"].label_set)
    worst_col = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        confusion = random_confusion(rng, n)
        prior = rng.dirichlet(np.ones(n) * 0.8) + 1e-4
        prior /= prior.sum()
        matrix = build_refinement_matrix(confusion, prior)
        worst_col = max(worst_col, float(np.abs(matrix.matrix.sum(axis=0) - 1).max()))
        if n == ref["spec"].n_classes:
            refined = refine_map(matrix, probs)
            assert validate_probability_map(refined, 1e-6) == []
    assert worst_col <= 1e-9
    print(f"ACCEPTANCE 3 PASS: 1000 pairs, worst column-sum error {worst_col:.1e}")


def test_criterion_04_brute_force_oracle():
    """Matrix-path refinement matches the direct double-loop evaluation of
    the per-label posterior sum to 1e-12 on 10^4 random pixels."""
    rng = np.random.default_rng(1004)
    total = 0
    worst = 0.0
    for n in (2, 3, 4):
        confusion = random_confusion(rng, n)
        prior = rng.dirichlet(np.ones(n))
        matrix = build_refinement_matrix(confusion, prior)
        marginal = confusion.matrix @ prior
        pixels = rng.random((3400, n))
        pixels /= pixels.sum(axis=1, keepdims=True)
        for pixel in pixels:
            direct = np.zeros(n)
            for l in range(n):
                for c in range(n):
                    direct[l] += (
                        confusion.matrix[c, l] * prior[l] * pixel[c] / marginal[c]
                    )
            via_matrix = matrix.matrix @ pixel
            worst = max(worst, float(np.abs(via_matrix - direct).max()))
            total += 1
        # the float32 map path agrees with the float64 product at f32 precision
        block = ProbabilityMap(pixels.reshape(-1, 1, n).astype(np.float32))
        refined = refine_map(matrix, block)
        f64 = block.values.reshape(-1, n).astype(np.float64) @ matrix.matrix.T
        assert np.abs(refined.values.reshape(-1, n) - f64).max() < 1e-6
    assert total >= 10_000
    assert worst <= 1e-12
    print(f"ACCEPTANCE 4 PASS: {total} pixels, worst deviation {worst:.1e}")


def test_criterion_05_gradient_check():
    """Analytic gradient vs central finite differences (h=1e-6), relative
    error <= 1e-5 per component on 100 random interior instances."""
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        confusion = random_confusion(rng, n)
        count = int(rng.integers(5, 50))
        probs = rng.random((count, n))
        probs /= probs.sum(axis=1, keepdims=True)
        samples = SampleSet(gt=rng.integers(0, n, size=count), probs=probs)
        weights = rng.dirichlet(np.ones(n) * 4.0) * 0.9 + 0.1 / n
        weights /= weights.sum()
        grad = refinement_loss_gradient(weights, confusion, samples)
        for l in range(n):
            up, down = weights.copy(), weights.copy()
            up[l] += h
            down[l] -= h
            fd = (
                refinement_loss(up, confusion, samples)
                - refinement_loss(down, confusion, samples)
            ) / (2 * h)
            rel = abs(grad[l] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5 PASS: 100 instances, worst relative error "
          f"{worst:.1e}, {elapsed:.1f}s")


def test_criterion_06_solver_dominance(ref):
    """Per evaluation image, the solved prior's loss never exceeds the
    histogram prior's, nor the uniform prior's (+1e-9)."""
    spec = ref["spec"]
    labels = spec.label_set
    root = ref["root"]
    model, _ = load_confusion(root / "conf.segt")
    uc_bank = load_prior_bank(root / "unconstrained.segt")
    hist_bank = load_prior_bank(root / "histogram.segt")
    uniform = uniform_prior(labels)
    images = 0
    for rec in ref["manifest"].split_records("evaluation"):
        gt = load_label_map(rec.gt_path, labels)
        probs = load_probability_map(rec.probs_path, labels)
        samples = sample_set(gt, probs, labels)
        uc_loss = refinement_loss(uc_bank.get(rec.image_id), model, samples)
        hist_loss = refinement_loss(hist_bank.get(rec.image_id), model, samples)
        uniform_loss = refinement_loss(uniform, model, samples)
        assert uc_loss <= hist_loss + 1e-9
        assert uc_loss <= uniform_loss + 1e-9
        images += 1
    print(f"ACCEPTANCE 6 PASS: solver dominates histogram and uniform losses "
          f"on all {images} images")


def test_criterion_07_estimation_consistency():
    """1e5 samples per class: estimate within 0.01 max-abs of the floored
    truth for at least 99 of 100 seeds."""
    n = 4
    T = mixed_confusion(n)
    floored = np.where(T == 0, 1e-4, T)
    floored /= floored.sum(axis=0, keepdims=True)
    per_class = 100_000
    gt_flat = np.repeat(np.arange(n), per_class).astype(np.int32)
    included = np.ones((1, gt_flat.size), dtype=bool)
    hits = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        hard = _draw_hard_labels(T, gt_flat, rng.random(gt_flat.size))
        counts = kernels.pair_counts(
            gt_flat.reshape(1, -1), hard.reshape(1, -1), included, n, -1
        )
        estimate = counts.astype(np.float64)
        estimate = np.where(estimate == 0, 1e-4, estimate)
        estimate /= estimate.sum(axis=0, keepdims=True)
        err = float(np.abs(estimate - floored).max())
        worst = max(worst, err)
        hits += err < 0.01
    assert hits >= 99
    print(f"ACCEPTANCE 7 PASS: {hits}/100 seeds within 0.01 "
          f"(worst {worst:.4f})")


def test_criterion_08_border_exclusion_efficacy(tmp_path):
    """With border corruption, radius-2 estimation recovers the truth while
    radius-0 estimation is polluted by more than 3x that error."""
    n = 3
    T = mixed_confusion(n)
    spec = SynthSpec(
        n_classes=n, height=48, width=48, n_estimation=120, n_evaluation=0,
        region_scale=14.0, true_confusion=T, sharpness=6.0, seed=808,
        border_noise=1.0,
    )
    generate_dataset(spec, tmp_path / "noisy")
    manifest = str(tmp_path / "noisy" / "manifest.json")
    _run(["confusion", "--manifest", manifest, "--radius", "2",
          "--out", str(tmp_path / "r2.segt")])
    _run(["confusion", "--manifest", manifest, "--radius", "0",
          "--out", str(tmp_path / "r0.segt")])
    truth = true_confusion(spec).matrix
    r2, _ = load_confusion(tmp_path / "r2.segt")
    r0, _ = load_confusion(tmp_path / "r0.segt")
    err2 = float(np.abs(r2.matrix - truth).max())
    err0 = float(np.abs(r0.matrix - truth).max())
    assert err2 < 0.01
    assert err0 > 3 * err2
    print(f"ACCEPTANCE 8 PASS: radius-2 error {err2:.4f}, "
          f"radius-0 error {err0:.4f} ({err0 / max(err2, 1e-12):.1f}x)")


def test_criterion_09_ordering_replication(ref):
    """Desk-scale replication of the reported ordering with 0.5-point gaps,
    and histogram refinement within 2 points of the brute-force optimum."""
    scores = ref["scores"]
    bayes = ref["bayes"]
    chain = ["base", "labelbank", "binary", "histogram", "unconstrained"]
    for metric in ("pixel_accuracy", "mean_iou"):
        values = [scores[name][metric] for name in chain]
        for i in range(len(values) - 1):
            gap = values[i + 1] - values[i]
            assert gap >= 0.005, (
                f"{metric}: {chain[i]} -> {chain[i + 1]} gap {gap:.4f} < 0.005"
            )
    hist_acc = scores["histogram"]["pixel_accuracy"]
    assert bayes - hist_acc <= 0.02
    assert hist_acc > scores["base"]["pixel_accuracy"]
    total = ref["timings"]["pipeline_total"]
    assert total < 300.0
    accs = " <= ".join(
        f"{name}={100 * scores[name]['pixel_accuracy']:.2f}" for name in chain
    )
    print(f"ACCEPTANCE 9 PASS: {accs}, bayes={100 * bayes:.2f} "
          f"(pipeline {total:.0f}s)")


def test_criterion_10_format_determinism(tmp_path):
    """Identical seeds produce byte-identical SEGT, JSON, and PGM outputs."""
    import hashlib

    def tree_hash(directory):
        digest = hashlib.sha256()
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    spec = SynthSpec(
        n_classes=4, height=24, width=24, n_estimation=5, n_evaluation=5,
        region_scale=8.0, true_confusion=mixed_confusion(4), sharpness=2.0,
        seed=1010, min_classes_per_image=2, max_classes_per_image=4,
        eval_confusion_drift=0.3,
    )
    spec.save(tmp_path / "spec.json")
    checked = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        _run(["synth", "--spec", str(tmp_path / "spec.json"),
              "--out-dir", str(base / "data")])
        manifest = str(base / "data" / "manifest.json")
        _run(["confusion", "--manifest", manifest, "--out", str(base / "conf.segt")])
        _run(["prior", "--manifest", manifest, "--kind", "unconstrained",
              "--confusion", str(base / "conf.segt"),
              "--out", str(base / "uc.segt")])
        _run(["refine", "--manifest", manifest, "--confusion", str(base / "conf.segt"),
              "--priors", str(base / "uc.segt"), "--out", str(base / "pred")])
        _run(["eval", "--manifest", manifest, "--pred-dir", str(base / "pred"),
              "--out", str(base / "report.json")])
        _run(["render", "--matrix", str(base / "conf.segt"),
              "--out", str(base / "conf.pgm"), "--block", "4"])
        checked.append(tree_hash(base))
    assert checked[0] == checked[1]
    print("ACCEPTANCE 10 PASS: repeated runs byte-identical "
          f"(tree hash {checked[0][:12]})")
