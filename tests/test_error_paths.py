"""Error branches and edge cases across modules: invalid constructions,
malformed files, and CLI flag validation."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conflens import (
    ConfusionModel,
    CountMatrix,
    LabelMap,
    LabelSet,
    Prior,
    ProbabilityMap,
    SampleSet,
    SolverOptions,
    border_mask,
    identity_confusion,
    labelbank_mask,
    load_confusion,
    load_label_map,
    load_manifest,
    load_prior_bank,
    load_probability_map,
    load_tensor,
    normalize_confusion,
    output_marginal,
    render_matrix_heatmap,
    sample_set,
    save_confusion,
    save_label_map,
    save_prior_bank,
    store_tensor,
    validate_probability_map,
    write_pgm,
)
from conflens import cli
from conflens.cli import main
from conflens.errors import DataError
from conflens.metrics import MetricAccumulator
from conflens.priors import PriorBank
from conflens.refine import RefinementMatrix
from conflens.synth import SynthSpec
from tests.conftest import mixed_confusion


class TestSegtStore:
    def test_rejects_zero_dim(self, tmp_path):
        with pytest.raises(DataError):
            store_tensor(tmp_path / "x.segt", np.zeros((2, 0), dtype=np.float32))

    def test_rejects_rank_4(self, tmp_path):
        with pytest.raises(DataError):
            store_tensor(tmp_path / "x.segt", np.zeros((1, 1, 1, 1), dtype=np.float32))

    def test_truncated_header_dims(self, tmp_path):
        import struct

        path = tmp_path / "t.segt"
        path.write_bytes(b"SEGT" + struct.pack("<IBB", 1, 0, 3) + b"\x01\x00")
        from conflens.errors import TruncatedPayloadError

        with pytest.raises(TruncatedPayloadError):
            load_probability_map(path)


class TestDataValidation:
    def test_validate_requires_positive_tol(self):
        probs = ProbabilityMap(np.full((1, 1, 2), 0.5, dtype=np.float32))
        for tol in (0.0, np.nan):
            with pytest.raises(DataError):
                validate_probability_map(probs, tol)

    def test_load_probability_map_wrong_rank(self, tmp_path):
        path = tmp_path / "x.segt"
        store_tensor(path, np.zeros((3, 3), dtype=np.float32))
        with pytest.raises(DataError):
            load_probability_map(path)

    def test_load_probability_map_out_of_range(self, tmp_path):
        path = tmp_path / "x.segt"
        arr = np.full((2, 2, 2), 0.5, dtype=np.float32)
        arr[0, 0, 0] = 1.5
        store_tensor(path, arr)
        with pytest.raises(DataError):
            load_probability_map(path)

    def test_load_probability_map_rejects_nan(self, tmp_path):
        path = tmp_path / "x.segt"
        arr = np.full((2, 2, 2), 0.5, dtype=np.float32)
        arr[1, 0, 1] = np.nan
        store_tensor(path, arr)
        with pytest.raises(DataError, match="NaN"):
            load_probability_map(path)

    def test_validate_probability_map_reports_nan_site(self):
        arr = np.full((2, 2, 2), 0.5, dtype=np.float32)
        arr[1, 0, 1] = np.nan
        bad = validate_probability_map(ProbabilityMap(arr), 1e-4)
        assert [site for site, _ in bad] == [(1, 0)]

    def test_save_label_map_rejects_negative(self, tmp_path):
        with pytest.raises(DataError):
            save_label_map(LabelMap(np.array([[-1]], dtype=np.int32)),
                           tmp_path / "x.segt")

    def test_load_label_map_wrong_dtype(self, tmp_path):
        path = tmp_path / "x.segt"
        store_tensor(path, np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DataError):
            load_label_map(path)

    def test_load_manifest_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_manifest(path)

    def test_load_manifest_missing_keys(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"labels": {"size": 2}}))
        with pytest.raises(DataError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "size", ["abc", float("nan"), float("inf"), 3.9, 3.0, True, "3"], ids=str
    )
    def test_load_manifest_malformed_size(self, tmp_path, size):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"labels": {"size": size}, "records": []}))
        with pytest.raises(DataError, match="malformed manifest"):
            load_manifest(path)

    @pytest.mark.parametrize("void_id", [255.5, 255.0, "255", True, [255]], ids=str)
    def test_load_manifest_malformed_void_id(self, tmp_path, void_id):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"labels": {"size": 3, "void_id": void_id}, "records": []})
        )
        with pytest.raises(DataError, match="malformed manifest"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "size, names", [(3, "abc"), (2, [1, [2]]), (2, ["sky", 2]), (2, {"a": 1, "b": 2})],
        ids=["string", "nested", "non-string", "object"],
    )
    def test_load_manifest_malformed_names(self, tmp_path, size, names):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"labels": {"size": size, "names": names}, "records": []})
        )
        with pytest.raises(DataError, match="malformed manifest"):
            load_manifest(path)

    def test_manifest_names_round_trip(self, tmp_path):
        from conflens import Manifest, ManifestRecord, save_manifest, save_probability_map

        labels = LabelSet(size=2, names=("sky", "road"), void_id=255)
        raw = np.full((2, 2, 2), 0.5, dtype=np.float32)
        probs_path = tmp_path / "p.segt"
        gt_path = tmp_path / "g.segt"
        save_probability_map(ProbabilityMap(raw), probs_path)
        save_label_map(LabelMap(np.zeros((2, 2), dtype=np.int32)), gt_path)
        manifest = Manifest(
            label_set=labels,
            records=(ManifestRecord("a", probs_path, gt_path, "evaluation"),),
        )
        save_manifest(manifest, tmp_path / "m.json")
        back = load_manifest(tmp_path / "m.json")
        assert back.label_set.names == ("sky", "road")
        assert back.label_set.void_id == 255

    def test_unknown_split_rejected(self, tmp_path):
        from conflens import Manifest, ManifestRecord

        with pytest.raises(DataError):
            ManifestRecord("a", tmp_path / "p", tmp_path / "g", "training")
        manifest = Manifest(label_set=LabelSet(size=2))
        with pytest.raises(DataError):
            manifest.split_records("training")


class TestImageIds:
    """Ids become output file names, so each must be one plain path
    component."""

    BAD_IDS = {"parent-escape": "../escaped", "empty": "", "dot": ".", "dotdot": "..",
               "slash": "a/b", "absolute": "/abs", "backslash": "a\\b", "nul": "a\0b"}

    @staticmethod
    def escaped_manifest(small_dataset, tmp_path, image_id):
        """The shared small dataset's manifest with absolute tensor paths
        and the first evaluation record renamed to `image_id`."""
        _, _, data = small_dataset
        obj = json.loads((data / "manifest.json").read_text())
        for rec in obj["records"]:
            rec["probs"] = str(data / rec["probs"])
            rec["gt"] = str(data / rec["gt"])
        next(r for r in obj["records"] if r["split"] == "evaluation")["id"] = image_id
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("image_id", BAD_IDS.values(), ids=BAD_IDS.keys())
    def test_load_manifest_rejects_path_like_id(self, small_dataset, tmp_path, image_id):
        path = self.escaped_manifest(small_dataset, tmp_path, image_id)
        with pytest.raises(DataError, match="plain file name"):
            load_manifest(path, check_files=False)

    def test_refine_writes_nothing_outside_out(self, small_dataset, tmp_path):
        manifest = str(self.escaped_manifest(small_dataset, tmp_path, "../escaped"))
        conf, priors = str(tmp_path / "c.segt"), str(tmp_path / "p.segt")
        main(["confusion", "--manifest", manifest, "--out", conf])
        main(["prior", "--manifest", manifest, "--kind", "binary", "--out", priors])
        top = tmp_path / "out"
        code = main(["refine", "--manifest", manifest, "--confusion", conf,
                     "--priors", priors, "--out", str(top / "run")])
        written = [p for p in top.rglob("*") if p.is_file()] if top.exists() else []
        assert [p for p in written if (top / "run") not in p.parents] == []
        assert code == 2


class TestPriorBankWidth:
    """A bank whose rows do not cover the manifest's labels is rejected
    before refine or labelbank writes any output."""

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_narrow_bank_writes_nothing(self, small_dataset, tmp_path, command):
        spec, manifest, data = small_dataset
        ids = [r.image_id for r in manifest.split_records("evaluation")]
        width = spec.n_classes - 1
        bank = PriorBank(kind="histogram", ids=ids,
                         weights=np.full((len(ids), width), 1.0 / width))
        priors = tmp_path / "narrow.segt"
        save_prior_bank(bank, priors)
        conf = tmp_path / "ident.segt"
        save_confusion(identity_confusion(manifest.label_set), conf, radius=0)
        out = tmp_path / "out"
        argv = [command, "--manifest", str(data / "manifest.json"),
                "--priors", str(priors), "--out", str(out)]
        if command == "refine":
            argv += ["--confusion", str(conf)]
        assert main(argv) == 2
        assert not out.exists() or not any(out.iterdir())


class TestValidateBeforeWrite:
    """refine and labelbank read and validate each map once, inside its
    write group, and publish their outputs only after the last map has
    passed: a failed run leaves --out as it found it, here with every map in
    a write group of its own."""

    @pytest.fixture
    def split(self, small_dataset, tmp_path, monkeypatch):
        """A private copy of the shared small dataset with the identity
        confusion and a uniform prior bank; returns (evaluation records,
        argv for a command and an --out directory)."""
        spec, _, data = small_dataset
        monkeypatch.setattr(
            "conflens.data.WRITE_BUDGET", spec.height * spec.width * (4 * spec.n_classes + 4)
        )
        shutil.copytree(data, tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        conf, priors = str(tmp_path / "ident.segt"), str(tmp_path / "uniform.segt")
        save_confusion(identity_confusion(spec.label_set), conf, radius=0)
        assert main(["prior", "--manifest", manifest, "--kind", "uniform",
                     "--out", priors]) == 0

        def argv(command, out):
            args = [command, "--manifest", manifest, "--priors", priors, "--out", str(out)]
            return args + ["--confusion", conf] if command == "refine" else args

        return load_manifest(manifest).split_records("evaluation"), argv

    @staticmethod
    def corrupt(path, defect):
        values = load_probability_map(path).values.copy()
        if defect == "sum":
            values[3, 5] *= 0.5
        else:
            values[3, 5, 0] = np.nan
        store_tensor(path, values)

    @pytest.mark.parametrize("defect", ["sum", "nan"])
    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_bad_last_map_writes_nothing(self, split, tmp_path, command, defect):
        records, argv = split
        self.corrupt(records[-1].probs_path, defect)
        out = tmp_path / "out"
        assert main(argv(command, out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_bad_middle_map_publishes_nothing(self, split, tmp_path, command):
        records, argv = split
        self.corrupt(records[len(records) // 2].probs_path, "sum")
        out = tmp_path / "out"
        assert main(argv(command, out)) == 2
        assert not out.exists()

    @staticmethod
    def fail_third_save(monkeypatch):
        calls = []
        save = cli.save_probability_map

        def save_or_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return save(*args, **kwargs)

        monkeypatch.setattr(cli, "save_probability_map", save_or_fail)

    @pytest.mark.parametrize("failure", ["bad_middle_map", "write_error"])
    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_failed_run_leaves_existing_out_unchanged(self, split, tmp_path, monkeypatch,
                                                      command, failure):
        records, argv = split
        out = tmp_path / "out"
        assert main(argv(command, out)) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        # a binary bank changes every output, so an overwrite would show
        args = argv(command, out)
        priors = args[args.index("--priors") + 1]
        assert main(["prior", "--manifest", args[args.index("--manifest") + 1],
                     "--kind", "binary", "--out", priors]) == 0
        if failure == "bad_middle_map":
            self.corrupt(records[len(records) // 2].probs_path, "sum")
        else:
            self.fail_third_save(monkeypatch)
        assert main(args) == (2 if failure == "bad_middle_map" else 3)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_write_error_publishes_nothing(self, split, tmp_path, monkeypatch, command):
        _, argv = split
        self.fail_third_save(monkeypatch)
        out = tmp_path / "out"
        assert main(argv(command, out)) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_each_map_read_once(self, split, tmp_path, monkeypatch, command):
        records, argv = split
        reads = []
        load = cli.load_probability_map

        def counted(path, *args, **kwargs):
            reads.append(Path(path))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_probability_map", counted)
        out = tmp_path / "out"
        assert main(argv(command, out)) == 0
        assert sorted(reads) == sorted(r.probs_path for r in records)
        # a successful run leaves only the final files
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{r.image_id}_{kind}.segt" for r in records for kind in ("pred", "refined")
        )


class TestStageFileChecks:
    """Stages read the manifest without a header pass over every record and
    check each file where they load it: a bad file that a stage reads makes
    it exit 2 before it publishes anything, and a bad file that it does not
    read does not stop it."""

    @pytest.fixture
    def data(self, small_dataset, tmp_path):
        """A private copy of the shared small dataset, with its confusion, a
        binary prior bank and labelbank predictions; returns (manifest, the
        predictions' directory, a function giving a stage's argv for an
        output path)."""
        _, _, src = small_dataset
        shutil.copytree(src, tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        conf, bank, preds = (str(tmp_path / name) for name in ("c.segt", "b.segt", "preds"))
        assert main(["confusion", "--manifest", manifest, "--out", conf]) == 0
        assert main(["prior", "--manifest", manifest, "--kind", "binary", "--out", bank]) == 0
        assert main(["labelbank", "--manifest", manifest, "--priors", bank,
                     "--out", preds]) == 0

        def argv(stage, out):
            command, _, kind = stage.partition("-")
            args = [command, "--manifest", manifest, "--out", str(out)]
            if command == "prior":
                args += ["--kind", kind]
                if kind == "unconstrained":
                    args += ["--confusion", conf]
            elif command in ("refine", "labelbank"):
                args += ["--priors", bank] + (["--confusion", conf] if command == "refine" else [])
            elif command == "eval":
                args += ["--pred-dir", preds]
            return args

        return load_manifest(manifest, check_files=False), Path(preds), argv

    @staticmethod
    def spoil(manifest, preds, split, file, defect):
        """Spoil the last record of a split: its probs, gt or pred file."""
        rec = manifest.split_records(split)[-1]
        path = {"probs": rec.probs_path, "gt": rec.gt_path,
                "pred": preds / f"{rec.image_id}_pred.segt"}[file]
        values = load_tensor(path)
        if defect == "channels":
            values = np.concatenate([values, np.zeros(values.shape[:2] + (1,), values.dtype)],
                                    axis=2)
        elif defect == "shape":
            values = values[:-1]
        else:  # a label outside the label set
            values = values.copy()
            values[0, 0] = manifest.label_set.size
        store_tensor(path, values)

    READ = {
        "confusion-channels": ("confusion", "estimation", "probs", "channels"),
        "confusion-shape": ("confusion", "estimation", "probs", "shape"),
        "global-label": ("prior-global", "estimation", "gt", "label"),
        "binary-label": ("prior-binary", "evaluation", "gt", "label"),
        "histogram-label": ("prior-histogram", "evaluation", "gt", "label"),
        "unconstrained-channels": ("prior-unconstrained", "evaluation", "probs", "channels"),
        "unconstrained-shape": ("prior-unconstrained", "evaluation", "probs", "shape"),
        "refine-channels": ("refine", "evaluation", "probs", "channels"),
        "labelbank-channels": ("labelbank", "evaluation", "probs", "channels"),
        "eval-shape": ("eval", "evaluation", "pred", "shape"),
    }

    @pytest.mark.parametrize("case", READ.values(), ids=READ.keys())
    def test_bad_file_read_exits_2_and_publishes_nothing(self, data, tmp_path, case):
        stage, split, file, defect = case
        manifest, preds, argv = data
        self.spoil(manifest, preds, split, file, defect)
        out = tmp_path / "out" / ("run" if stage in ("refine", "labelbank") else "result.segt")
        assert main(argv(stage, out)) == 2
        assert not (tmp_path / "out").exists()

    NOT_READ = {
        "eval-estimation-probs": ("eval", "estimation", "probs", "channels"),
        "refine-evaluation-gt": ("refine", "evaluation", "gt", "shape"),
        "binary-evaluation-probs": ("prior-binary", "evaluation", "probs", "channels"),
        "uniform-evaluation-gt": ("prior-uniform", "evaluation", "gt", "label"),
    }

    @pytest.mark.parametrize("case", NOT_READ.values(), ids=NOT_READ.keys())
    def test_bad_file_not_read_does_not_stop_stage(self, data, tmp_path, case):
        stage, split, file, defect = case
        manifest, preds, argv = data
        self.spoil(manifest, preds, split, file, defect)
        assert main(argv(stage, tmp_path / "result")) == 0


class TestHugeJsonIntegers:
    """An integer literal longer than Python's 4300-digit conversion limit
    makes json.load raise a plain ValueError; every JSON loader reports it
    as invalid JSON."""

    HUGE = "9" * 5000

    def manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"labels": {"size": %s}, "records": []}' % self.HUGE)
        return path

    def test_manifest(self, tmp_path):
        with pytest.raises(DataError, match="invalid JSON"):
            load_manifest(self.manifest(tmp_path))

    def test_confusion_sidecar(self, tmp_path):
        path = tmp_path / "c.segt"
        store_tensor(path, np.eye(2, dtype=np.float32))
        path.with_suffix(".json").write_text('{"floor": %s}' % self.HUGE)
        with pytest.raises(DataError, match="invalid JSON"):
            load_confusion(path)

    def test_prior_bank_sidecar(self, tmp_path):
        path = tmp_path / "p.segt"
        store_tensor(path, np.full((1, 2), 0.5, dtype=np.float32))
        path.with_suffix(".json").write_text(
            '{"kind": "uniform", "ids": ["a"], "n": %s}' % self.HUGE
        )
        with pytest.raises(DataError, match="invalid JSON"):
            load_prior_bank(path)

    def test_synth_spec(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"n_classes": %s}' % self.HUGE)
        with pytest.raises(DataError, match="invalid JSON"):
            SynthSpec.load(path)

    def test_cli_exits_2(self, tmp_path, capsys):
        argv = ["confusion", "--manifest", str(self.manifest(tmp_path)),
                "--out", str(tmp_path / "c.segt")]
        assert main(argv) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestConfusionValidation:
    def test_negative_radius(self):
        gt = LabelMap(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(DataError):
            border_mask(gt, -1)

    def test_confusion_model_rejects_bad_columns(self):
        with pytest.raises(DataError):
            ConfusionModel(matrix=np.full((2, 2), 0.4))
        with pytest.raises(DataError):
            ConfusionModel(matrix=np.array([[1.2, 0.0], [-0.2, 1.0]]))

    def test_confusion_model_rejects_nan_column(self):
        with pytest.raises(DataError, match="NaN"):
            ConfusionModel(matrix=np.array([[0.7, np.nan], [0.3, np.nan]]))

    def test_count_matrix_rejects_negative(self):
        with pytest.raises(DataError):
            CountMatrix(np.array([[1, -1], [0, 0]]))

    def test_accumulate_rejects_out_of_range_labels(self):
        from conflens import PixelMask, accumulate_counts

        labels = LabelSet(size=2)
        full = PixelMask(np.ones((2, 2), dtype=bool))
        good = LabelMap(np.zeros((2, 2), dtype=np.int32))
        bad = LabelMap(np.full((2, 2), 7, dtype=np.int32))
        with pytest.raises(DataError):
            accumulate_counts(bad, good, full, labels)
        with pytest.raises(DataError):
            accumulate_counts(good, bad, full, labels)

    def test_normalize_rejects_bad_floor(self):
        counts = CountMatrix(np.ones((2, 2), dtype=np.int64))
        with pytest.raises(DataError):
            normalize_confusion(counts, floor=0.0)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf")], ids=str)
    def test_normalize_rejects_non_finite_floor(self, floor):
        """Counts with no zero cell never use the floor, so only the check
        itself can stop a NaN or inf floor from reaching the model."""
        counts = CountMatrix(np.ones((2, 2), dtype=np.int64))
        with pytest.raises(DataError, match="floor"):
            normalize_confusion(counts, floor=floor)

    def test_load_confusion_rejects_non_square(self, tmp_path):
        path = tmp_path / "c.segt"
        store_tensor(path, np.full((2, 3), 0.5, dtype=np.float32))
        with pytest.raises(DataError):
            load_confusion(path)


class TestPriorValidation:
    def test_prior_rejects_negative_and_unnormalized(self):
        with pytest.raises(DataError):
            Prior(np.array([0.7, -0.1, 0.4]))
        with pytest.raises(DataError):
            Prior(np.array([0.7, 0.7]))

    def test_prior_rejects_nan_and_inf(self):
        for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [1.0, np.nan]):
            with pytest.raises(DataError):
                Prior(np.array(bad))

    def test_solver_options_validation(self):
        with pytest.raises(DataError):
            SolverOptions(max_iters=0)
        with pytest.raises(DataError):
            SolverOptions(loss_tolerance=0.0)
        with pytest.raises(DataError):
            SolverOptions(init="midpoint")

    @pytest.mark.parametrize("field", ["step_tolerance", "loss_tolerance", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_solver_options_reject_non_finite(self, field, value):
        with pytest.raises(DataError):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, True, "3"],
                             ids=["nan", "inf", "2.5", "True", "str"])
    def test_solver_options_reject_non_integer_max_iters(self, value):
        with pytest.raises(DataError, match="max_iters"):
            SolverOptions(max_iters=value)

    def test_sample_set_shape_checks(self):
        with pytest.raises(DataError):
            SampleSet(gt=np.zeros(3, dtype=np.int64), probs=np.zeros((2, 2)))
        with pytest.raises(DataError):
            SampleSet(gt=np.array([5]), probs=np.zeros((1, 3)))

    def test_sample_set_subsampling_is_deterministic_and_bounded(self):
        rng_data = np.random.default_rng(1)
        labels = LabelSet(size=3)
        gt = LabelMap(rng_data.integers(0, 3, size=(20, 20)).astype(np.int32))
        raw = rng_data.dirichlet(np.ones(3), size=(20, 20)).astype(np.float32)
        probs = ProbabilityMap(raw)
        a = sample_set(gt, probs, labels, max_samples=50,
                       rng=np.random.default_rng(9))
        b = sample_set(gt, probs, labels, max_samples=50,
                       rng=np.random.default_rng(9))
        assert len(a) == 50
        np.testing.assert_array_equal(a.gt, b.gt)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_bank_requires_known_kind(self):
        with pytest.raises(DataError):
            PriorBank(kind="magic", ids=("a",), weights=np.array([[0.5, 0.5]]))

    def test_load_bank_without_sidecar(self, tmp_path):
        path = tmp_path / "b.segt"
        store_tensor(path, np.full((1, 2), 0.5, dtype=np.float32))
        with pytest.raises(DataError):
            load_prior_bank(path)


class TestSidecars:
    """A sidecar that is not a JSON object, or holds a field of the wrong
    type, is a DataError from either loader."""

    CASES = {
        "confusion-list": ("confusion", [1, 2]),
        "confusion-floor-str": ("confusion", {"floor": "abc"}),
        "confusion-floor-null": ("confusion", {"floor": None}),
        "confusion-floor-bool": ("confusion", {"floor": True}),
        "confusion-floor-nan": ("confusion", {"floor": float("nan")}),
        "confusion-floor-inf": ("confusion", {"floor": float("-inf")}),
        "confusion-floor-huge-int": ("confusion", {"floor": 10**400}),
        "bank-list": ("bank", [1]),
        "bank-ids-int": ("bank", {"kind": "uniform", "ids": 5}),
        "bank-ids-not-str": ("bank", {"kind": "uniform", "ids": [1]}),
        "bank-solver-int": ("bank", {"kind": "uniform", "ids": ["a"], "solver": 7}),
    }

    @pytest.mark.parametrize("loader, sidecar", CASES.values(), ids=CASES.keys())
    def test_malformed_sidecar(self, tmp_path, loader, sidecar):
        path = tmp_path / "x.segt"
        if loader == "confusion":
            store_tensor(path, np.eye(2, dtype=np.float32))
            load = load_confusion
        else:
            store_tensor(path, np.full((1, 2), 0.5, dtype=np.float32))
            load = load_prior_bank
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(DataError):
            load(path)


class TestRefineValidation:
    def test_output_marginal_size_mismatch(self):
        confusion = ConfusionModel(matrix=np.eye(3), floor=0.0)
        with pytest.raises(DataError):
            output_marginal(confusion, np.array([0.5, 0.5]))

    def test_refinement_matrix_invariants(self):
        with pytest.raises(DataError):
            RefinementMatrix(matrix=np.full((2, 2), 0.6),
                             marginal=np.array([0.5, 0.5]))
        with pytest.raises(DataError):
            RefinementMatrix(matrix=-np.eye(2), marginal=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("matrix, marginal", [
        (np.full((3, 3), np.nan), np.full(3, np.nan)),
        (np.where(np.eye(3) > 0, np.nan, 0.0), np.full(3, 1 / 3)),
        (np.eye(3), np.array([np.nan, 0.5, 0.5])),
        (np.eye(3), np.array([np.inf, 0.5, 0.5])),
    ], ids=["all-nan", "nan-entries", "nan-marginal", "inf-marginal"])
    def test_refinement_matrix_rejects_non_finite(self, matrix, marginal):
        with pytest.raises(DataError):
            RefinementMatrix(matrix=matrix, marginal=marginal)

    def test_labelbank_rejects_out_of_range(self):
        probs = ProbabilityMap(np.full((1, 1, 3), 1 / 3, dtype=np.float32))
        with pytest.raises(DataError):
            labelbank_mask(probs, {0, 5})


class TestMetricsValidation:
    def test_write_pgm_requires_2d(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(np.zeros((2, 2, 2), dtype=np.uint8), tmp_path / "x.pgm")

    def test_render_flag_validation(self, tmp_path):
        with pytest.raises(DataError):
            render_matrix_heatmap(np.eye(2), tmp_path / "x.pgm", gamma=0.0)
        with pytest.raises(DataError):
            render_matrix_heatmap(np.eye(2), tmp_path / "x.pgm", block=0)

    def test_accumulator_shape_mismatch(self):
        acc = MetricAccumulator(LabelSet(size=2))
        with pytest.raises(DataError):
            acc.add(LabelMap(np.zeros((2, 2), dtype=np.int32)),
                    LabelMap(np.zeros((3, 3), dtype=np.int32)))

    def test_eval_rejects_void_id_in_prediction(self, tmp_path, capsys):
        from conflens import Manifest, ManifestRecord, save_manifest, save_probability_map

        labels = LabelSet(size=2, void_id=255)
        gt_path, probs_path = tmp_path / "a_gt.segt", tmp_path / "a_probs.segt"
        save_label_map(LabelMap(np.array([[0, 1]], dtype=np.int32)), gt_path)
        save_probability_map(ProbabilityMap(np.full((1, 2, 2), 0.5, dtype=np.float32)),
                             probs_path)
        save_manifest(Manifest(labels, (ManifestRecord("a", probs_path, gt_path,
                                                        "evaluation"),)),
                      tmp_path / "m.json")
        preds = tmp_path / "preds"
        preds.mkdir()
        save_label_map(LabelMap(np.array([[255, 1]], dtype=np.int32)),
                       preds / "a_pred.segt")
        assert main(["eval", "--manifest", str(tmp_path / "m.json"),
                     "--pred-dir", str(preds), "--out", str(tmp_path / "r.json")]) == 2
        assert "outside [0, 2)" in capsys.readouterr().err


class TestSynthValidation:
    def base(self, **overrides):
        kwargs = dict(
            n_classes=3, height=8, width=8, n_estimation=1, n_evaluation=1,
            region_scale=4.0, true_confusion=mixed_confusion(3),
            sharpness=2.0, seed=1,
        )
        kwargs.update(overrides)
        return kwargs

    def test_field_validation(self):
        for bad in (
            dict(sharpness=0.0),
            dict(region_scale=-1.0),
            dict(border_noise=1.5),
            dict(eval_confusion_drift=1.0),
            dict(height=0),
        ):
            with pytest.raises(DataError):
                SynthSpec(**self.base(**bad))

    def test_non_finite_fields(self):
        nan_matrix = mixed_confusion(3)
        nan_matrix[0, 0] = np.nan
        for bad in (
            dict(region_scale=float("nan")),
            dict(sharpness=float("nan")),
            dict(true_confusion=nan_matrix),
        ):
            with pytest.raises(DataError):
                SynthSpec(**self.base(**bad))

    @pytest.mark.parametrize("key, value", [
        ("height", 8.5), ("seed", 1.5), ("n_classes", 3.0), ("n_evaluation", True),
        ("min_classes_per_image", 1.5), ("max_classes_per_image", "3"),
        ("region_scale", "4.0"), ("sharpness", True), ("border_noise", None),
        ("true_confusion", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ])
    def test_constructor_rejects_wrong_types(self, key, value):
        spec = SynthSpec(**self.base())
        with pytest.raises(DataError, match=key):
            dataclasses.replace(spec, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("n_classes", 3.9), ("height", "8"), ("seed", True), ("n_evaluation", 1.0),
        ("min_classes_per_image", 1.7), ("max_classes_per_image", "3"),
        ("region_scale", "4.0"), ("sharpness", True), ("border_noise", "0"),
        ("eval_confusion_drift", False), ("true_confusion", [["1", 0, 0], [0, 1, 0], [0, 0, 1]]),
    ])
    def test_from_dict_rejects_coercible_types(self, key, value):
        obj = SynthSpec(**self.base()).to_dict()
        SynthSpec.from_dict(obj)
        obj[key] = value
        with pytest.raises(DataError, match="malformed synth spec"):
            SynthSpec.from_dict(obj)

    @pytest.mark.parametrize("key", ["region_scale", "sharpness", "true_confusion"])
    def test_cli_synth_rejects_nan_spec(self, tmp_path, capsys, key):
        obj = SynthSpec(**self.base()).to_dict()
        if key == "true_confusion":
            obj[key][1][2] = float("nan")
        else:
            obj[key] = float("nan")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 2")
        with pytest.raises(DataError):
            SynthSpec.load(path)

    def test_from_dict_missing_keys(self):
        with pytest.raises(DataError):
            SynthSpec.from_dict({"n_classes": 3})


class TestCliFlagValidation:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "confusion" in capsys.readouterr().out

    def test_bad_solver_opts_token(self, small_dataset):
        _, _, out = small_dataset
        manifest = str(out / "manifest.json")
        assert main(["prior", "--manifest", manifest, "--kind", "unconstrained",
                     "--confusion", "whatever.segt",
                     "--solver-opts", "max_iters",
                     "--out", "/tmp/x.segt"]) == 1

    @pytest.mark.parametrize("opts, code", [
        ("subsample=abc", 1), ("seed=x", 1), ("subsample=-1", 1), ("subsample=0", 1),
        ("seed=-1", 1), ("step_tolerance=nan", 2), ("loss_tolerance=inf", 2),
    ])
    def test_bad_solver_opts_value(self, small_dataset, tmp_path, capsys, opts, code):
        _, _, data = small_dataset
        out = tmp_path / "x.segt"
        assert main(["prior", "--manifest", str(data / "manifest.json"),
                     "--kind", "unconstrained", "--confusion", "whatever.segt",
                     "--solver-opts", opts, "--out", str(out)]) == code
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_solver_opts_key(self, small_dataset, tmp_path):
        _, _, out = small_dataset
        manifest = str(out / "manifest.json")
        conf = tmp_path / "c.segt"
        assert main(["confusion", "--manifest", manifest, "--out", str(conf)]) == 0
        assert main(["prior", "--manifest", manifest, "--kind", "unconstrained",
                     "--confusion", str(conf),
                     "--solver-opts", "momentum=0.9",
                     "--out", str(tmp_path / "x.segt")]) == 1

    def test_negative_radius_rejected(self, small_dataset, tmp_path):
        _, _, out = small_dataset
        manifest = str(out / "manifest.json")
        assert main(["confusion", "--manifest", manifest, "--radius", "-1",
                     "--out", str(tmp_path / "c.segt")]) == 1

    def test_bad_floor_rejected(self, small_dataset, tmp_path):
        _, _, out = small_dataset
        manifest = str(out / "manifest.json")
        assert main(["confusion", "--manifest", manifest, "--floor", "0",
                     "--out", str(tmp_path / "c.segt")]) == 1

    @pytest.mark.parametrize("floor", ["nan", "inf"])
    def test_non_finite_floor_rejected(self, small_dataset, tmp_path, floor):
        _, _, out = small_dataset
        manifest = str(out / "manifest.json")
        assert main(["confusion", "--manifest", manifest, "--floor", floor,
                     "--out", str(tmp_path / "c.segt")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_confusion_rejects_malformed_manifest_field(self, small_dataset, tmp_path):
        _, _, out = small_dataset
        obj = json.loads((out / "manifest.json").read_text())
        obj["labels"]["size"] = "abc"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(obj))
        assert main(["confusion", "--manifest", str(manifest),
                     "--out", str(tmp_path / "c.segt")]) == 2
        assert not (tmp_path / "c.segt").exists()

    def test_render_rejects_nan_matrix(self, tmp_path):
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.array([[0.5, np.nan], [0.5, 1.0]], dtype=np.float32))
        assert main(["render", "--matrix", str(matrix), "--out", str(tmp_path / "x.pgm")]) == 2
        assert not (tmp_path / "x.pgm").exists()

    def test_render_rejects_nan_gamma(self, tmp_path):
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.eye(2, dtype=np.float32))
        assert main(["render", "--matrix", str(matrix), "--out", str(tmp_path / "x.pgm"),
                     "--gamma", "nan"]) == 2
        assert not (tmp_path / "x.pgm").exists()

    def test_render_rejects_3d_matrix(self, small_dataset, tmp_path):
        _, manifest, out = small_dataset
        rec = manifest.records[0]
        assert main(["render", "--matrix", str(rec.probs_path),
                     "--out", str(tmp_path / "x.pgm")]) == 2
