"""CLI subcommands: exit codes, file outputs, determinism, and the
pipeline-level contracts."""

import hashlib
import json

import numpy as np
import pytest

from conflens import (
    ConfusionModel,
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    ProbabilityMap,
    identity_confusion,
    load_confusion,
    load_label_map,
    load_prior_bank,
    load_probability_map,
    load_tensor,
    refinement_loss,
    sample_set,
    save_confusion,
    save_label_map,
    save_manifest,
    save_probability_map,
)
from conflens import synth
from conflens.cli import main
from conflens.synth import SynthSpec, generate_dataset
from tests.conftest import mixed_confusion


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(small_spec, tmp_path_factory):
    """Dataset plus every pipeline artifact, produced through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    small_spec.save(spec_path)
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(root / "data")]) == 0
    manifest = str(root / "data" / "manifest.json")
    assert main(["confusion", "--manifest", manifest, "--radius", "1",
                 "--out", str(root / "conf.segt")]) == 0
    for kind in ("uniform", "global", "binary", "histogram"):
        assert main(["prior", "--manifest", manifest, "--kind", kind,
                     "--out", str(root / f"{kind}.segt")]) == 0
    assert main(["prior", "--manifest", manifest, "--kind", "unconstrained",
                 "--confusion", str(root / "conf.segt"),
                 "--solver-opts", "max_iters=300",
                 "--out", str(root / "unconstrained.segt")]) == 0
    save_confusion(identity_confusion(LabelSet(size=small_spec.n_classes)),
                   root / "ident.segt", radius=0)
    assert main(["refine", "--manifest", manifest,
                 "--confusion", str(root / "conf.segt"),
                 "--priors", str(root / "histogram.segt"),
                 "--out", str(root / "refined_hist")]) == 0
    assert main(["refine", "--manifest", manifest,
                 "--confusion", str(root / "ident.segt"),
                 "--priors", str(root / "binary.segt"),
                 "--out", str(root / "refined_ident_bin")]) == 0
    assert main(["labelbank", "--manifest", manifest,
                 "--priors", str(root / "binary.segt"),
                 "--out", str(root / "lb")]) == 0
    assert main(["eval", "--manifest", manifest,
                 "--pred-dir", str(root / "refined_hist"),
                 "--out", str(root / "report.json")]) == 0
    return root, manifest


class TestArtifacts:
    def test_confusion_files(self, pipeline, small_spec):
        root, _ = pipeline
        model, meta = load_confusion(root / "conf.segt")
        n = small_spec.n_classes
        assert model.matrix.shape == (n, n)
        assert meta["radius"] == 1 and meta["n_images"] == small_spec.n_estimation
        assert meta["n_pixels"] > 0
        # close to the generating matrix
        truth = np.asarray(small_spec.true_confusion)
        assert np.abs(model.matrix - truth).max() < 0.08

    def test_uniform_bank_repeats_single_row(self, pipeline, small_spec):
        root, _ = pipeline
        bank = load_prior_bank(root / "uniform.segt")
        assert bank.kind == "uniform"
        assert len(bank.ids) == small_spec.n_evaluation
        np.testing.assert_array_equal(
            bank.weights, np.tile(bank.weights[0], (len(bank.ids), 1))
        )
        np.testing.assert_allclose(bank.weights[0], 1.0 / small_spec.n_classes)

    def test_binary_bank_support_matches_images(self, pipeline, small_spec):
        root, manifest_path = pipeline
        from conflens import load_manifest

        manifest = load_manifest(manifest_path)
        bank = load_prior_bank(root / "binary.segt")
        for rec in manifest.split_records("evaluation"):
            gt = load_label_map(rec.gt_path, manifest.label_set)
            present = np.unique(gt.labels)
            prior = bank.get(rec.image_id)
            np.testing.assert_array_equal(prior.support, present)

    def test_unconstrained_beats_histogram_loss_per_image(self, pipeline):
        root, manifest_path = pipeline
        from conflens import load_manifest

        manifest = load_manifest(manifest_path)
        labels = manifest.label_set
        model, _ = load_confusion(root / "conf.segt")
        uc = load_prior_bank(root / "unconstrained.segt")
        hist = load_prior_bank(root / "histogram.segt")
        assert uc.solver == {"max_iters": 300, "subsample": 100000, "seed": 0}
        for rec in manifest.split_records("evaluation"):
            gt = load_label_map(rec.gt_path, labels)
            probs = load_probability_map(rec.probs_path, labels)
            samples = sample_set(gt, probs, labels)
            uc_loss = refinement_loss(uc.get(rec.image_id), model, samples)
            hist_loss = refinement_loss(hist.get(rec.image_id), model, samples)
            assert uc_loss <= hist_loss + 1e-9

    def test_identity_binary_refine_equals_labelbank(self, pipeline, small_spec):
        root, _ = pipeline
        for idx in range(small_spec.n_estimation,
                         small_spec.n_estimation + small_spec.n_evaluation):
            for name in (f"img_{idx:04d}_pred.segt", f"img_{idx:04d}_refined.segt"):
                a = (root / "refined_ident_bin" / name).read_bytes()
                assert a == (root / "lb" / name).read_bytes(), name

    def test_labelbank_of_unconstrained_bank_is_labelbank_of_binary_bank(self, small_dataset,
                                                                         tmp_path):
        """With a floored confusion a solved prior's support is exactly the
        image's sampled labels, the binary prior's support, and labelbank
        reads only the support: a weight the solver rounds to zero is stored
        as 0, not as rounding residue that would unmask its label."""
        _, _, data = small_dataset
        manifest = str(data / "manifest.json")
        conf = str(tmp_path / "conf.segt")
        assert main(["confusion", "--manifest", manifest, "--out", conf]) == 0
        solved = ["--confusion", conf]
        for kind, flags in (("binary", []), ("unconstrained", solved)):
            assert main(["prior", "--manifest", manifest, "--kind", kind, *flags,
                         "--out", str(tmp_path / f"{kind}.segt")]) == 0
            assert main(["labelbank", "--manifest", manifest, "--priors",
                         str(tmp_path / f"{kind}.segt"), "--out", str(tmp_path / kind)]) == 0
        names = sorted(p.name for p in (tmp_path / "binary").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "unconstrained").iterdir())
        for name in names:
            assert ((tmp_path / "unconstrained" / name).read_bytes()
                    == (tmp_path / "binary" / name).read_bytes()), name

    def test_identity_binary_refined_maps_load(self, pipeline):
        """The binary priors here leave out classes, so the identity
        refinement matrices have zero columns; the maps are rescaled and
        pass the probability-map check."""
        root, manifest_path = pipeline
        from conflens import load_manifest

        manifest = load_manifest(manifest_path)
        bank = load_prior_bank(root / "binary.segt")
        assert (bank.weights == 0).any()
        for rec in manifest.split_records("evaluation"):
            load_probability_map(root / "refined_ident_bin" / f"{rec.image_id}_refined.segt",
                                 manifest.label_set)

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_mass_outside_the_support_predicts_the_lowest_supported_class(self, tmp_path,
                                                                          command):
        """Pixels whose mass lies wholly on classes the binary prior rules
        out become uniform over its support: their argmax is its lowest
        class, not class 0."""
        labels = LabelSet(size=4)
        gt_path, probs_path = tmp_path / "img_gt.segt", tmp_path / "img_probs.segt"
        save_label_map(LabelMap(np.array([[1, 3, 3]], dtype=np.int32)), gt_path)
        values = np.array([[[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0.1, 0.2, 0.3, 0.4]]],
                          dtype=np.float32)
        save_probability_map(ProbabilityMap(values), probs_path)
        save_manifest(Manifest(labels, (ManifestRecord("img", probs_path, gt_path,
                                                       "evaluation"),)),
                      tmp_path / "manifest.json")
        manifest, bank = str(tmp_path / "manifest.json"), str(tmp_path / "binary.segt")
        save_confusion(identity_confusion(labels), tmp_path / "ident.segt", radius=0)
        assert main(["prior", "--manifest", manifest, "--kind", "binary", "--out", bank]) == 0
        extra = ["--confusion", str(tmp_path / "ident.segt")] if command == "refine" else []
        out = tmp_path / "out"
        assert main([command, "--manifest", manifest, "--priors", bank, *extra,
                     "--out", str(out)]) == 0
        refined = load_probability_map(out / "img_refined.segt", labels).values
        np.testing.assert_allclose(refined[0], [[0, 0.5, 0, 0.5], [0, 0.5, 0, 0.5],
                                                [0, 1 / 3, 0, 2 / 3]], atol=1e-7)
        np.testing.assert_array_equal(load_tensor(out / "img_pred.segt"), [[1, 1, 3]])

    def test_report_schema(self, pipeline):
        root, _ = pipeline
        report = json.loads((root / "report.json").read_text())
        assert set(report) == {
            "pixel_accuracy", "mean_iou", "per_class_iou", "n_pixels_scored"
        }
        assert 0.0 <= report["pixel_accuracy"] <= 1.0
        assert len(report["per_class_iou"]) == 4

    def test_refined_outputs_validate(self, pipeline, small_spec):
        root, manifest_path = pipeline
        from conflens import load_manifest, validate_probability_map

        manifest = load_manifest(manifest_path)
        rec = manifest.split_records("evaluation")[0]
        refined = load_probability_map(
            root / "refined_hist" / f"{rec.image_id}_refined.segt",
            manifest.label_set,
        )
        assert validate_probability_map(refined, 1e-6) == []

    def test_render(self, pipeline, tmp_path):
        root, _ = pipeline
        out = tmp_path / "conf.pgm"
        assert main(["render", "--matrix", str(root / "conf.segt"),
                     "--out", str(out), "--gamma", "0.5", "--block", "8"]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n32 32\n255\n")
        out2 = tmp_path / "conf2.pgm"
        assert main(["render", "--matrix", str(root / "conf.segt"),
                     "--out", str(out2), "--gamma", "0.5", "--block", "8"]) == 0
        assert raw == out2.read_bytes()

    def test_render_gamma_brightens(self, pipeline, tmp_path):
        root, _ = pipeline
        lo, hi = tmp_path / "g1.pgm", tmp_path / "g05.pgm"
        assert main(["render", "--matrix", str(root / "conf.segt"),
                     "--out", str(lo), "--gamma", "1.0"]) == 0
        assert main(["render", "--matrix", str(root / "conf.segt"),
                     "--out", str(hi), "--gamma", "0.5"]) == 0
        a = np.frombuffer(lo.read_bytes().split(b"\n255\n", 1)[1], dtype=np.uint8)
        b = np.frombuffer(hi.read_bytes().split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert (b >= a).all() and (b > a).any()


class TestDeterminism:
    def test_rerun_confusion_byte_identical(self, pipeline, tmp_path):
        root, manifest = pipeline
        out = tmp_path / "conf2.segt"
        assert main(["confusion", "--manifest", manifest, "--radius", "1",
                     "--out", str(out)]) == 0
        assert sha(out) == sha(root / "conf.segt")
        assert sha(out.with_suffix(".json")) == sha(root / "conf.json")

    def test_unconstrained_rerun_identical(self, pipeline, tmp_path):
        root, manifest = pipeline
        out = tmp_path / "uc2.segt"
        assert main(["prior", "--manifest", manifest, "--kind", "unconstrained",
                     "--confusion", str(root / "conf.segt"),
                     "--solver-opts", "max_iters=300",
                     "--out", str(out)]) == 0
        assert sha(out) == sha(root / "unconstrained.segt")


class TestEvalThroughFiles:
    def make_eval_case(self, tmp_path, gt_values, pred_values, n_classes=2):
        labels = LabelSet(size=n_classes)
        gt = LabelMap(np.asarray(gt_values, dtype=np.int32))
        probs = np.full(gt.labels.shape + (n_classes,), 1.0 / n_classes,
                        dtype=np.float32)
        gt_path = tmp_path / "img_gt.segt"
        probs_path = tmp_path / "img_probs.segt"
        save_label_map(gt, gt_path)
        save_probability_map(ProbabilityMap(probs), probs_path)
        manifest = Manifest(
            label_set=labels,
            records=(ManifestRecord("img", probs_path, gt_path, "evaluation"),),
        )
        save_manifest(manifest, tmp_path / "manifest.json")
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        save_label_map(LabelMap(np.asarray(pred_values, dtype=np.int32)),
                       pred_dir / "img_pred.segt")
        return tmp_path / "manifest.json", pred_dir

    def test_perfect_prediction(self, tmp_path):
        manifest, preds = self.make_eval_case(tmp_path, [[0, 1]], [[0, 1]])
        out = tmp_path / "r.json"
        assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(preds),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pixel_accuracy"] == 1.0
        assert report["mean_iou"] == 1.0

    def test_hand_counted_iou_example(self, tmp_path):
        manifest, preds = self.make_eval_case(
            tmp_path, [[0, 0, 1, 1]], [[0, 1, 1, 1]]
        )
        out = tmp_path / "r.json"
        assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(preds),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["mean_iou"] - 7.0 / 12.0) < 1e-9
        assert report["pixel_accuracy"] == 0.75

    def test_exclude_borders_helps_on_corrupted_data(self, tmp_path):
        spec = SynthSpec(
            n_classes=3, height=32, width=32, n_estimation=0, n_evaluation=12,
            region_scale=10.0, true_confusion=np.eye(3), sharpness=50.0,
            seed=3, border_noise=1.0,
        )
        generate_dataset(spec, tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        save_confusion(identity_confusion(LabelSet(size=3)),
                       tmp_path / "ident.segt", radius=0)
        assert main(["prior", "--manifest", manifest, "--kind", "uniform",
                     "--out", str(tmp_path / "uniform.segt")]) == 0
        assert main(["refine", "--manifest", manifest,
                     "--confusion", str(tmp_path / "ident.segt"),
                     "--priors", str(tmp_path / "uniform.segt"),
                     "--out", str(tmp_path / "base")]) == 0
        assert main(["eval", "--manifest", manifest, "--pred-dir",
                     str(tmp_path / "base"), "--out", str(tmp_path / "all.json")]) == 0
        assert main(["eval", "--manifest", manifest, "--pred-dir",
                     str(tmp_path / "base"), "--exclude-borders", "--radius", "2",
                     "--out", str(tmp_path / "inner.json")]) == 0
        all_px = json.loads((tmp_path / "all.json").read_text())
        inner = json.loads((tmp_path / "inner.json").read_text())
        assert inner["pixel_accuracy"] > all_px["pixel_accuracy"]
        assert inner["n_pixels_scored"] < all_px["n_pixels_scored"]


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        assert main(["confusion", "--bogus"]) == 1

    def test_usage_error_missing_subcommand(self):
        assert main([]) == 1

    def test_threads_is_an_unknown_flag(self, pipeline, tmp_path):
        """Every stage runs on one thread; no subcommand takes --threads."""
        root, manifest = pipeline
        out = str(tmp_path / "out")
        argvs = [
            ["confusion", "--manifest", manifest, "--out", out],
            ["prior", "--manifest", manifest, "--kind", "histogram", "--out", out],
            ["refine", "--manifest", manifest, "--confusion", str(root / "conf.segt"),
             "--priors", str(root / "histogram.segt"), "--out", out],
            ["labelbank", "--manifest", manifest, "--priors", str(root / "binary.segt"),
             "--out", out],
            ["eval", "--manifest", manifest, "--pred-dir", str(root / "refined_hist"),
             "--out", out],
            ["synth", "--spec", str(root / "spec.json"), "--out-dir", out],
        ]
        for argv in argvs:
            assert main(argv + ["--threads", "2"]) == 1, argv[0]
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_3_without_a_traceback(self, small_spec, tmp_path,
                                                       monkeypatch, capsys):
        """A MemoryError escaping a stage is one `error:` line and exit 3,
        and the stage publishes nothing."""
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(synth, "_generate_image", exhausted)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(small_spec.to_dict()))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: out of memory (Unable to allocate 1.00 TiB)\n"
        assert not out.exists()

    def test_unconstrained_without_confusion(self, pipeline):
        _, manifest = pipeline
        assert main(["prior", "--manifest", manifest, "--kind", "unconstrained",
                     "--out", "/tmp/never.segt"]) == 1

    def test_empty_estimation_split_is_data_error(self, tmp_path, capsys):
        spec = SynthSpec(
            n_classes=3, height=8, width=8, n_estimation=0, n_evaluation=2,
            region_scale=4.0, true_confusion=mixed_confusion(3), sharpness=2.0,
            seed=5,
        )
        generate_dataset(spec, tmp_path / "d")
        rc = main(["confusion", "--manifest", str(tmp_path / "d" / "manifest.json"),
                   "--out", str(tmp_path / "c.segt")])
        assert rc == 2
        assert "no estimation records" in capsys.readouterr().err

    def test_missing_manifest_is_io_error(self, tmp_path):
        rc = main(["confusion", "--manifest", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "c.segt")])
        assert rc == 3

    def test_corrupt_tensor_is_data_error(self, pipeline, tmp_path):
        root, manifest = pipeline
        bad = tmp_path / "bad.segt"
        bad.write_bytes(b"XXXX1234")
        rc = main(["refine", "--manifest", manifest, "--confusion", str(bad),
                   "--priors", str(root / "histogram.segt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_no_partial_outputs_on_validation_failure(self, pipeline, tmp_path):
        root, manifest = pipeline
        # bank with a missing image id: validation fails before any write
        bank_path = tmp_path / "short.segt"
        from conflens.priors import PriorBank, save_prior_bank

        bank = PriorBank(kind="uniform", ids=("img_9999",),
                         weights=np.full((1, 4), 0.25))
        save_prior_bank(bank, bank_path)
        out = tmp_path / "never_created"
        rc = main(["refine", "--manifest", manifest,
                   "--confusion", str(root / "conf.segt"),
                   "--priors", str(bank_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
