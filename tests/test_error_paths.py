"""Error branches and edge cases across modules: invalid constructions,
malformed files, and CLI flag validation."""

import dataclasses
import json
import math
import os
import random
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from conflens import (
    ConfusionModel,
    CountMatrix,
    LabelMap,
    LabelSet,
    ManifestRecord,
    Prior,
    ProbabilityMap,
    SampleSet,
    SolverOptions,
    border_mask,
    generate_dataset,
    identity_confusion,
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
from conflens import data, metrics, refine, segt, synth
from conflens.cli import main
from conflens.errors import DataError, SegtFormatError
from conflens.metrics import MetricAccumulator
from conflens.priors import PriorBank
from conflens.refine import RefinementMatrix
from conflens.synth import SynthSpec, true_confusion
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
        with pytest.raises(SegtFormatError, match="truncated dims$"):
            load_probability_map(path)


class TestDataValidation:
    def test_validate_requires_positive_tol(self):
        probs = ProbabilityMap(np.full((1, 1, 2), 0.5, dtype=np.float32))
        for tol in (0.0, np.nan):
            with pytest.raises(DataError):
                validate_probability_map(probs, tol)

    def test_inf_and_minus_inf_site_fails_without_warning(self):
        """A site holding inf and -inf sums to NaN: it fails the check, and
        the check raises no RuntimeWarning on the way."""
        values = np.full((2, 3, 3), 1 / 3, dtype=np.float32)
        values[1, 2, :2] = (np.inf, -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bad = validate_probability_map(ProbabilityMap(values), 1e-4)
        assert [site for site, _ in bad] == [(1, 2)]
        assert np.isnan(bad[0][1])

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

    def test_validate_probability_map_rejects_a_stack_by_its_shape(self):
        stack = ProbabilityMap(np.full((2, 3, 3, 2), 0.5, dtype=np.float32))
        with pytest.raises(DataError, match=r"got \(2, 3, 3, 2\)$"):
            validate_probability_map(stack, 1e-4)

    def test_save_label_map_rejects_negative(self, tmp_path):
        with pytest.raises(DataError):
            save_label_map(LabelMap(np.array([[-1]], dtype=np.int32)),
                           tmp_path / "x.segt")

    def test_saving_a_stack_writes_nothing(self, tmp_path):
        """A map file holds one map, so a stack is refused before it is
        written as a file that its loader would then reject."""
        from conflens import save_probability_map
        path = tmp_path / "x.segt"
        with pytest.raises(DataError, match="expected 2-d uint16 tensor$"):
            save_label_map(LabelMap(np.zeros((2, 3, 3), dtype=np.int32)), path)
        with pytest.raises(DataError, match="expected 3-d float32 tensor$"):
            save_probability_map(ProbabilityMap(np.full((2, 3, 3, 2), 0.5, dtype=np.float32)),
                                 path)
        assert not path.exists()

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

    @pytest.mark.parametrize("image_id", [None, 7, ["x"]], ids=str)
    def test_load_manifest_malformed_id(self, tmp_path, image_id):
        """An id is checked, not coerced: null would load as image "None"
        and name its outputs None_pred.segt."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"labels": {"size": 3}, "records": [
            {"id": image_id, "probs": "p.segt", "gt": "g.segt", "split": "evaluation"}]}))
        with pytest.raises(DataError, match="malformed manifest.*not a string"):
            load_manifest(path)

    @pytest.mark.parametrize("image_id", [None, 7, ["x"]], ids=str)
    def test_manifest_id_not_a_string_exits_2(self, small_dataset, tmp_path, image_id):
        _, _, data = small_dataset
        obj = json.loads((data / "manifest.json").read_text())
        for rec in obj["records"]:
            rec["probs"], rec["gt"] = str(data / rec["probs"]), str(data / rec["gt"])
        obj["records"][-1]["id"] = image_id
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(obj))
        bank = tmp_path / "bank.segt"
        assert main(["prior", "--manifest", str(manifest), "--kind", "uniform",
                     "--out", str(bank)]) == 2
        assert not bank.exists()

    def test_manifest_record_rejects_non_string_id(self):
        with pytest.raises(DataError, match="not a string"):
            ManifestRecord(image_id=7, probs_path=Path("p.segt"), gt_path=Path("g.segt"),
                           split="evaluation")

    @pytest.mark.parametrize("kwargs, field", [
        (dict(size=3.0), "size"), (dict(size="3"), "size"),
        (dict(size=3, void_id=7.5), "void_id"), (dict(size=3, void_id="255"), "void_id"),
        (dict(size=2, names={"a": 0, "b": 1}), "names"),
    ], ids=["float-size", "string-size", "float-void-id", "string-void-id", "dict-names"])
    def test_label_set_rejects_wrong_types(self, kwargs, field):
        """LabelSet applies the manifest's type rules when it is built
        directly: a float size would fail later as a TypeError, and a float
        void id can match no int32 label."""
        with pytest.raises(DataError, match=field):
            LabelSet(**kwargs)

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

    def test_empty_split_rejected(self, tmp_path):
        from conflens import Manifest, ManifestRecord

        record = ManifestRecord("a", tmp_path / "p", tmp_path / "g", "estimation")
        manifest = Manifest(label_set=LabelSet(size=2), records=(record,))
        assert manifest.split_records("estimation") == [record]
        with pytest.raises(DataError, match="no evaluation records"):
            manifest.split_records("evaluation")


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
            load_manifest(path)

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
    chunk, and publish their outputs only after the last map has passed: a
    failed run leaves --out as it found it, here with every map in a chunk
    of its own."""

    @pytest.fixture
    def split(self, small_dataset, tmp_path, monkeypatch):
        """A private copy of the shared small dataset with the identity
        confusion and a uniform prior bank; returns (evaluation records,
        argv for a command and an --out directory)."""
        spec, _, data = small_dataset
        monkeypatch.setattr("conflens.data.CHUNK_BUDGET", spec.height * spec.width * 4)
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
        save = refine.save_probability_map

        def save_or_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return save(*args, **kwargs)

        monkeypatch.setattr(refine, "save_probability_map", save_or_fail)

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
        load = segt.load_tensor

        def counted(path, *args, **kwargs):
            reads.append(Path(path))
            return load(path, *args, **kwargs)

        # every tensor read goes through segt.load_tensor; the bank and the
        # confusion lie outside the dataset's directory
        monkeypatch.setattr(segt, "load_tensor", counted)
        out = tmp_path / "out"
        assert main(argv(command, out)) == 0
        data = records[0].probs_path.parent
        assert sorted(p for p in reads if p.parent == data) == sorted(r.probs_path for r in records)
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

        return load_manifest(manifest), Path(preds), argv

    @staticmethod
    def spoil(manifest, preds, split, file, defect):
        """Spoil the last record of a split: its probs, gt or pred file,
        whose path is returned."""
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
        return path

    READ = {
        "confusion-channels": ("confusion", "estimation", "probs", "channels"),
        "confusion-shape": ("confusion", "estimation", "probs", "shape"),
        "global-label": ("prior-global", "estimation", "gt", "label"),
        "binary-label": ("prior-binary", "evaluation", "gt", "label"),
        "histogram-label": ("prior-histogram", "evaluation", "gt", "label"),
        "unconstrained-channels": ("prior-unconstrained", "evaluation", "probs", "channels"),
        "unconstrained-shape": ("prior-unconstrained", "evaluation", "probs", "shape"),
        "unconstrained-label": ("prior-unconstrained", "evaluation", "gt", "label"),
        "refine-channels": ("refine", "evaluation", "probs", "channels"),
        "labelbank-channels": ("labelbank", "evaluation", "probs", "channels"),
        "eval-shape": ("eval", "evaluation", "pred", "shape"),
    }

    @pytest.mark.parametrize("case", READ.values(), ids=READ.keys())
    def test_bad_file_read_exits_2_and_publishes_nothing(self, data, tmp_path, capsys, case):
        stage, split, file, defect = case
        manifest, preds, argv = data
        path = self.spoil(manifest, preds, split, file, defect)
        out = tmp_path / "out" / ("run" if stage in ("refine", "labelbank") else "result.segt")
        capsys.readouterr()
        assert main(argv(stage, out)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: "), line
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


class TestRefineHeaderPass:
    """refine and labelbank check the layout of every evaluation map from its
    header before they load any map."""

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_channel_mismatch_exits_2_before_any_map_loads(self, small_dataset, tmp_path,
                                                            monkeypatch, capsys, command):
        _, _, src = small_dataset
        shutil.copytree(src, tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        conf, bank = str(tmp_path / "c.segt"), str(tmp_path / "b.segt")
        assert main(["confusion", "--manifest", manifest, "--out", conf]) == 0
        assert main(["prior", "--manifest", manifest, "--kind", "binary", "--out", bank]) == 0
        parsed = load_manifest(manifest)
        TestStageFileChecks.spoil(parsed, tmp_path, "evaluation", "probs", "channels")
        spoilt = parsed.split_records("evaluation")[-1].probs_path
        maps = {str(path) for r in parsed.records for path in (r.probs_path, r.gt_path)}
        real, loaded = segt.load_tensor, []

        def load(p):
            loaded.append(str(p))
            return real(p)

        monkeypatch.setattr(segt, "load_tensor", load)
        capsys.readouterr()
        argv = [command, "--manifest", manifest, "--priors", bank, "--out",
                str(tmp_path / "out")] + (["--confusion", conf] if command == "refine" else [])
        assert main(argv) == 2
        channels = parsed.label_set.size + 1
        assert f"{spoilt}: {channels} channels" in capsys.readouterr().err
        assert not maps & set(loaded)
        assert not (tmp_path / "out").exists()


class TestWriterCrashes:
    """A write that fails part-way, as on a full disk, makes a command exit
    3 and leaves its output location as it found it: nothing published, no
    staging directory left, and an earlier run's output byte for byte the
    same."""

    @staticmethod
    def tree(root):
        """Every file (with its bytes) and directory under root."""
        return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
                for path in sorted(root.rglob("*"))}

    @staticmethod
    def crash(monkeypatch, owner, name, n, partial):
        """Make owner.name write part of its output with partial(*args),
        then raise OSError, on its n-th call."""
        real, calls = getattr(owner, name), []

        def crashing(*args, **kwargs):
            calls.append(1)
            if len(calls) == n:
                partial(*args)
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, crashing)

    def crash_json(self, monkeypatch):
        self.crash(monkeypatch, json, "dump", 1, lambda obj, fh: fh.write("{"))

    def crash_store(self, monkeypatch, n):
        self.crash(monkeypatch, segt, "store_tensor", n,
                   lambda path, tensor: Path(path).write_bytes(b"SEGT"))

    def assert_unchanged(self, argv, root, before):
        assert main(argv) == 3
        assert self.tree(root) == before
        assert not list(root.rglob(".conflens-*"))

    @pytest.fixture
    def manifest(self, small_dataset):
        return str(small_dataset[2] / "manifest.json")

    def test_confusion(self, manifest, tmp_path, monkeypatch):
        """The tensor is written, its sidecar write fails."""
        argv = ["confusion", "--manifest", manifest, "--out", str(tmp_path / "c.segt")]
        assert main(argv + ["--radius", "0"]) == 0
        before = self.tree(tmp_path)
        self.crash_json(monkeypatch)
        self.assert_unchanged(argv + ["--radius", "2"], tmp_path, before)

    def test_prior(self, manifest, tmp_path, monkeypatch):
        out = ["--out", str(tmp_path / "p.segt")]
        assert main(["prior", "--manifest", manifest, "--kind", "uniform"] + out) == 0
        before = self.tree(tmp_path)
        self.crash_json(monkeypatch)
        self.assert_unchanged(["prior", "--manifest", manifest, "--kind", "histogram"] + out,
                              tmp_path, before)

    def test_eval(self, manifest, tmp_path, monkeypatch):
        bank, preds = str(tmp_path / "b.segt"), str(tmp_path / "preds")
        assert main(["prior", "--manifest", manifest, "--kind", "binary", "--out", bank]) == 0
        assert main(["labelbank", "--manifest", manifest, "--priors", bank, "--out", preds]) == 0
        argv = ["eval", "--manifest", manifest, "--pred-dir", preds,
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        before = self.tree(tmp_path)
        self.crash_json(monkeypatch)
        self.assert_unchanged(argv + ["--exclude-borders"], tmp_path, before)

    def test_synth(self, small_spec, tmp_path, monkeypatch):
        """The third tensor write fails while a dataset from another seed
        sits in --out-dir."""
        out = tmp_path / "out"
        generate_dataset(small_spec, out)
        before = self.tree(out)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dataclasses.replace(small_spec, seed=72).to_dict()))
        self.crash_store(monkeypatch, 3)
        self.assert_unchanged(["synth", "--spec", str(spec), "--out-dir", str(out)], out, before)

    def test_synth_into_new_directory(self, small_spec, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        small_spec.save(spec)
        self.crash_store(monkeypatch, 3)
        out = tmp_path / "new" / "data"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(out)]) == 3
        assert not (tmp_path / "new").exists()

    def test_render(self, tmp_path, monkeypatch):
        """The PGM header is written, the pixel write fails."""
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.eye(3, dtype=np.float32))
        argv = ["render", "--matrix", str(matrix), "--out", str(tmp_path / "m.pgm")]
        assert main(argv) == 0
        before = self.tree(tmp_path)

        def crashing_open(path, mode="r"):
            Path(path).write_bytes(b"P5\n")
            raise OSError("disk full")

        monkeypatch.setattr("conflens.metrics.open", crashing_open, raising=False)
        self.assert_unchanged(argv + ["--gamma", "1.0"], tmp_path, before)

    def test_rename_order(self, small_spec, manifest, tmp_path, monkeypatch):
        """A sidecar is renamed after its tensor, and a dataset's manifest
        after every other file."""
        renamed = []
        replace = os.replace

        def recorded(src, dst):
            renamed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(data.os, "replace", recorded)
        assert main(["confusion", "--manifest", manifest, "--out", str(tmp_path / "c.segt")]) == 0
        assert renamed == ["c.segt", "c.json"]
        del renamed[:]
        generate_dataset(small_spec, tmp_path / "data")
        assert renamed[-1] == "manifest.json"
        assert sorted(renamed) == sorted(p.name for p in (tmp_path / "data").iterdir())

    @pytest.mark.parametrize("kind", ["symlink", "directory"])
    def test_non_regular_out_is_refused(self, manifest, tmp_path, kind):
        """A rename would replace a symlinked --out with a regular file and
        leave its target stale, so such an --out, like a directory, is a
        data error before anything is renamed."""
        out = tmp_path / "c.segt"
        if kind == "symlink":
            target = tmp_path / "target.segt"
            store_tensor(target, np.eye(2, dtype=np.float32))
            out.symlink_to(target)
        else:
            out.mkdir()
        before = self.tree(tmp_path)
        assert main(["confusion", "--manifest", manifest, "--out", str(out)]) == 2
        assert self.tree(tmp_path) == before
        assert out.is_symlink() == (kind == "symlink")
        assert not list(tmp_path.rglob(".conflens-*"))


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
        for few_labels in (np.zeros((0, 0)), np.ones((1, 1))):
            with pytest.raises(DataError, match=">= 2 labels"):
                ConfusionModel(matrix=few_labels)

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

    @pytest.mark.parametrize("floor", [0.0, -1e-4, float("nan"), float("inf")], ids=str)
    def test_true_confusion_rejects_bad_floor(self, floor):
        """true_confusion floors through the same function, and check, as
        normalize_confusion."""
        spec = SynthSpec(n_classes=3, height=4, width=4, n_estimation=1, n_evaluation=1,
                         region_scale=2.0, true_confusion=np.eye(3), sharpness=2.0, seed=1)
        with pytest.raises(DataError, match="floor"):
            true_confusion(spec, floor=floor)

    def test_load_confusion_without_sidecar(self, tmp_path):
        """The prior-bank loader's rule: a tensor without its sidecar is a
        DataError."""
        path = tmp_path / "c.segt"
        store_tensor(path, np.eye(2, dtype=np.float32))
        with pytest.raises(DataError, match="missing sidecar"):
            load_confusion(path)

    def test_load_confusion_rejects_non_square(self, tmp_path):
        path = tmp_path / "c.segt"
        store_tensor(path, np.full((2, 3), 0.5, dtype=np.float32))
        path.with_suffix(".json").write_text('{"floor": 0.0001}')
        with pytest.raises(DataError, match="square"):
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

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("max_iters", -5),
        ("subsample", -3), ("subsample", 0), ("subsample", 2.5), ("subsample", True),
        ("seed", -1), ("seed", 1.0), ("seed", "0"),
    ], ids=["max_iters-zero", "max_iters-negative", "subsample-negative", "subsample-zero",
            "subsample-float", "subsample-bool", "seed-negative", "seed-float", "seed-str"])
    def test_solver_options_validation(self, field, value):
        """One rule for the three fields: an int at or above the field's
        lowest value, which is taken, else a DataError naming the field."""
        low = {"max_iters": 1, "subsample": 1, "seed": 0}[field]
        with pytest.raises(DataError, match=f"^{field} must be an integer >= {low}, got "):
            SolverOptions(**{field: value})
        assert getattr(SolverOptions(**{field: low}), field) == low

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

    @pytest.mark.parametrize("max_samples", [0, -1, 2.5, True, "50"])
    def test_sample_set_takes_the_subsample_rule(self, max_samples):
        """max_samples is None or an integer >= 1, the prior stage's
        subsample rule; 0 does not give an empty sample set."""
        gt = LabelMap(np.zeros((4, 4), dtype=np.int32))
        probs = ProbabilityMap(np.full((4, 4, 2), 0.5, dtype=np.float32))
        with pytest.raises(DataError, match="^subsample must be an integer >= 1, got "):
            sample_set(gt, probs, LabelSet(size=2), max_samples=max_samples)
        assert len(sample_set(gt, probs, LabelSet(size=2), max_samples=1)) == 1

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


class TestStageInputChecks:
    """Hostile inputs that reach a stage's own checks, past every loader
    check before them: each exits 2 through the CLI and publishes nothing."""

    @pytest.fixture
    def data(self, small_dataset, tmp_path):
        """A private copy of the shared small dataset with an identity
        confusion `conf.segt` and a uniform bank `bank.segt`."""
        spec, _, src = small_dataset
        data = tmp_path / "data"
        shutil.copytree(src, data)
        save_confusion(identity_confusion(spec.label_set), data / "conf.segt", radius=0)
        assert main(["prior", "--manifest", str(data / "manifest.json"), "--kind", "uniform",
                     "--out", str(data / "bank.segt")]) == 0
        return data

    def test_all_void_evaluation_image(self, data, tmp_path, capsys):
        """An evaluation image with no annotated pixel has nothing for the
        unconstrained prior to fit."""
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["labels"]["void_id"] = 255
        (data / "manifest.json").write_text(json.dumps(manifest))
        (record,) = [r for r in manifest["records"] if r["split"] == "evaluation"][-1:]
        gt = load_label_map(data / record["gt"]).labels
        save_label_map(LabelMap(np.full_like(gt, 255)), data / record["gt"])
        out = tmp_path / "u.segt"
        assert main(["prior", "--manifest", str(data / "manifest.json"), "--kind",
                     "unconstrained", "--confusion", str(data / "conf.segt"),
                     "--out", str(out)]) == 2
        assert "no usable solver samples" in capsys.readouterr().err
        assert not out.exists()

    # the file's tensor, rewritten with its sidecar kept, and the error
    CASES = {
        "confusion-3-labels": ("conf", lambda m: m[:3, :3], "confusion has 3 labels"),
        "confusion-zero-column": ("conf", lambda m: m * (np.arange(len(m)) > 0),
                                  "empty confusion column"),
        "bank-3-d": ("bank", lambda w: w[..., None], "expected 2-d float32 tensor"),
        "bank-uint16": ("bank", lambda w: np.ones(w.shape, dtype=np.uint16),
                        "expected 2-d float32 tensor"),
        "bank-zero-row": ("bank", lambda w: w * (np.arange(len(w)) > 0)[:, None],
                          "zero-mass prior row"),
    }

    @pytest.mark.parametrize("name, rewrite, message", CASES.values(), ids=CASES.keys())
    def test_refine_rejects_input_file(self, data, tmp_path, capsys, name, rewrite, message):
        path = data / f"{name}.segt"
        store_tensor(path, rewrite(load_tensor(path)))
        out = tmp_path / "out"
        assert main(["refine", "--manifest", str(data / "manifest.json"),
                     "--confusion", str(data / "conf.segt"), "--priors", str(data / "bank.segt"),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # the stage's arguments; "conf" and "bank" stand for the fixture's files
    NON_FINITE = {
        "refine-confusion": ("conf", ["refine", "--confusion", "conf", "--priors", "bank"]),
        "labelbank-priors": ("bank", ["labelbank", "--priors", "bank"]),
        "render-matrix": ("conf", ["render", "--matrix", "conf"]),
    }

    @pytest.mark.parametrize("name, argv", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_matrix_file(self, data, tmp_path, capsys, name, argv):
        """An inf entry in a confusion, a bank or a rendered matrix is one
        error line that names the file, before numpy meets it (a warning
        would be an exception here)."""
        path = data / f"{name}.segt"
        arr = load_tensor(path)
        arr[0, 0] = np.inf
        store_tensor(path, arr)
        argv = [str(data / f"{a}.segt") if a in ("conf", "bank") else a for a in argv]
        if argv[0] != "render":
            argv += ["--manifest", str(data / "manifest.json")]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: non-finite entry"]
        assert not out.exists()


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


class TestMetricsValidation:
    def test_write_pgm_requires_2d(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(np.zeros((2, 2, 2), dtype=np.uint8), tmp_path / "x.pgm")

    @pytest.mark.parametrize("gray, first", [
        ([[300, -1]], "300"),
        ([[0, -1]], "-1"),
        ([[0.0, np.nan]], "nan"),
        ([[np.inf, 0.0]], "inf"),
    ], ids=["above", "below", "nan", "inf"])
    def test_write_pgm_rejects_values_outside_a_byte(self, tmp_path, gray, first):
        """A value a byte cannot hold is refused, not wrapped, and nothing
        is published."""
        with pytest.raises(DataError, match=rf"^PGM value {first} lies outside \[0, 255\]$"):
            write_pgm(np.array(gray), tmp_path / "x.pgm")
        assert not list(tmp_path.iterdir())

    def test_render_flag_validation(self, tmp_path):
        """The library takes the gammas `render --gamma` takes; an infinite
        one would make a step image."""
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DataError, match="^gamma must be finite and positive, got "):
                render_matrix_heatmap(np.full((2, 2), 0.5), tmp_path / "x.pgm", gamma=gamma)
        with pytest.raises(DataError):
            render_matrix_heatmap(np.eye(2), tmp_path / "x.pgm", block=0)
        assert not (tmp_path / "x.pgm").exists()

    def test_render_caps_the_image_before_allocating(self, tmp_path, monkeypatch, capsys):
        """--block 10**7 on a 3x3 matrix asks for a 9e14-pixel image. It is
        refused from the shape and block alone: the numpy calls that would
        make the block image are patched to fail, so the test allocates
        nothing even where they are reached."""
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.full((3, 3), 0.5, dtype=np.float32))

        def refuse(*args, **kwargs):
            raise AssertionError("render built the block image")

        monkeypatch.setattr(np, "ones", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        out = tmp_path / "x.pgm"
        assert main(["render", "--matrix", str(matrix), "--out", str(out),
                     "--block", str(10**7)]) == 2
        assert "pixel cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, code", [(2, 0), (3, 2)])
    def test_render_cap_admits_an_image_of_exactly_the_cap(self, tmp_path, monkeypatch,
                                                           block, code):
        """With a 36-pixel cap, a 3x3 matrix renders at block 2 (6x6) and
        is refused at block 3 (9x9)."""
        monkeypatch.setattr(metrics, "MAX_RENDER_PIXELS", 36)
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.full((3, 3), 0.5, dtype=np.float32))
        out = tmp_path / "x.pgm"
        assert main(["render", "--matrix", str(matrix), "--out", str(out),
                     "--block", str(block)]) == code
        assert out.exists() == (code == 0)

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
            dict(region_scale=0.5),
            dict(border_noise=1.5),
            dict(eval_confusion_drift=1.0),
            dict(height=0),
            dict(seed=-1),
        ):
            with pytest.raises(DataError):
                SynthSpec(**self.base(**bad))

    def test_map_size_cap(self):
        """A map too large to build is refused when the spec is built, before
        anything is allocated; the largest maps the tests and the benchmark
        build stay valid. Only specs are built here, never datasets."""
        SynthSpec(**self.base(n_classes=20, height=512, width=512,
                              true_confusion=mixed_confusion(20)))
        for height, width in ((1 << 15, 1 << 15), (1, 1 << 26)):
            with pytest.raises(DataError, match="cap"):
                SynthSpec(**self.base(height=height, width=width))

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
        pytest.param("region_scale", 10**400, id="region_scale-10**400"),
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
        pytest.param("sharpness", 10**400, id="sharpness-10**400"),
        pytest.param("true_confusion", [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]],
                     id="true_confusion-10**400"),
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

    def test_cli_synth_rejects_negative_seed(self, tmp_path, capsys):
        obj = SynthSpec(**self.base()).to_dict()
        obj["seed"] = -1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["constructor", "from_dict", "cli"])
    def test_integer_valued_floats_are_stored_as_floats(self, tmp_path, route):
        """A float field given as an integer saves as the float it means,
        whether the spec is built directly, read from JSON or read by
        `synth --spec`."""
        ints = dict(region_scale=4, sharpness=2, border_noise=0, eval_confusion_drift=0)
        expected = json.dumps(SynthSpec(**self.base()).to_dict(), sort_keys=True)
        if route == "constructor":
            got = SynthSpec(**self.base(**ints)).to_dict()
        elif route == "from_dict":
            got = SynthSpec.from_dict({**SynthSpec(**self.base()).to_dict(), **ints}).to_dict()
        else:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({**SynthSpec(**self.base()).to_dict(), **ints}))
            out = tmp_path / "data"
            assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 0
            got = json.loads((out / synth.SPEC_FILENAME).read_text())
        assert json.dumps(got, sort_keys=True) == expected

    @pytest.mark.parametrize("scale", [0.5, 0.999])
    def test_cli_synth_rejects_region_scale_below_1(self, tmp_path, capsys, scale):
        """A scale below 1 asks for more Voronoi seeds than pixels."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SynthSpec(**self.base()).to_dict(),
                                         "region_scale": scale}))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert "region_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e200, 1.4e154])
    def test_cli_synth_rejects_region_scale_with_infinite_square(self, tmp_path, capsys, scale):
        """The seed count divides by the square of region_scale, which
        overflows a float here."""
        with pytest.raises(DataError, match="region_scale"):
            SynthSpec(**self.base(region_scale=float("inf")))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SynthSpec(**self.base()).to_dict(),
                                         "region_scale": scale}))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert "region_scale" in capsys.readouterr().err
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
        ("seed=-1", 1), ("max_iters=0", 1), ("max_iters=-5", 1),
    ])
    def test_bad_solver_opts_value(self, small_dataset, tmp_path, capsys, opts, code):
        _, _, data = small_dataset
        out = tmp_path / "x.segt"
        assert main(["prior", "--manifest", str(data / "manifest.json"),
                     "--kind", "unconstrained", "--confusion", "whatever.segt",
                     "--solver-opts", opts, "--out", str(out)]) == code
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["uniform", "global", "binary", "histogram"])
    @pytest.mark.parametrize("flag", [("--solver-opts", "garbage,,=x"),
                                      ("--confusion", "/nonexistent")], ids=lambda f: f[0])
    def test_closed_form_kind_rejects_solver_flags(self, small_dataset, tmp_path, capsys, kind,
                                                   flag):
        """A closed-form prior reads neither flag, so passing one is a usage
        error, not an option silently dropped."""
        _, _, data = small_dataset
        assert main(["prior", "--manifest", str(data / "manifest.json"), "--kind", kind, *flag,
                     "--out", str(tmp_path / "x.segt")]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_eval_radius(self, small_dataset, tmp_path, capsys):
        _, _, data = small_dataset
        assert main(["eval", "--manifest", str(data / "manifest.json"),
                     "--pred-dir", str(tmp_path / "preds"), "--exclude-borders",
                     "--radius", "-1", "--out", str(tmp_path / "report.json")]) == 1
        assert "--radius must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("opts", ["init=uniform", "step_tolerance=1e-9",
                                      "loss_tolerance=1e-9", "max_iters=1,max_iters=2",
                                      "seed=1, seed=1"])
    def test_solver_opts_key_not_taken(self, small_dataset, tmp_path, capsys, opts):
        """A key the solver does not take, or one given twice, of which all
        but the last would be dropped, exits 1 before anything is read."""
        spec, _, data = small_dataset
        conf = tmp_path / "c.segt"
        save_confusion(identity_confusion(spec.label_set), conf, radius=0)
        out = tmp_path / "x.segt"
        assert main(["prior", "--manifest", str(data / "manifest.json"), "--kind",
                     "unconstrained", "--confusion", str(conf), "--solver-opts", opts,
                     "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["prior", "--kind", "unconstrained", "--confusion", "c.segt",
         "--solver-opts", "max_iters=x"],
        ["confusion", "--radius", "-1"],
        ["eval", "--pred-dir", "preds", "--exclude-borders", "--radius", "-1"],
    ], ids=["prior", "confusion", "eval"])
    def test_bad_flag_exits_1_before_the_manifest_is_read(self, tmp_path, capsys, argv):
        """A bad flag value is a usage error even where the manifest does not
        exist: flags are checked before any file is read."""
        out = tmp_path / "out.segt"
        assert main([*argv, "--manifest", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_radius_needs_exclude_borders(self, small_dataset, tmp_path, capsys):
        """--radius without --exclude-borders, which the scoring would
        ignore, exits 1; --exclude-borders alone takes radius 2."""
        _, _, data = small_dataset
        manifest = str(data / "manifest.json")
        bank, preds = str(tmp_path / "bank.segt"), str(tmp_path / "preds")
        assert main(["prior", "--manifest", manifest, "--kind", "uniform", "--out", bank]) == 0
        assert main(["labelbank", "--manifest", manifest, "--priors", bank,
                     "--out", preds]) == 0
        evaluate = ["eval", "--manifest", manifest, "--pred-dir", preds]
        assert main(evaluate + ["--radius", "7", "--out", str(tmp_path / "r7.json")]) == 1
        assert "--radius needs --exclude-borders" in capsys.readouterr().err
        assert not (tmp_path / "r7.json").exists()
        for name, flags in (("default.json", []), ("r2.json", ["--radius", "2"])):
            assert main(evaluate + ["--exclude-borders", *flags,
                                    "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "default.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

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

    def test_render_names_the_file_and_its_out_of_range_entry(self, tmp_path, capsys):
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.array([[0.5, 2.0], [0.5, -1.0]], dtype=np.float32))
        out = tmp_path / "x.pgm"
        assert main(["render", "--matrix", str(matrix), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {matrix}: heatmap entry 2.0 lies outside [0, 1]"]
        assert not out.exists()

    def test_render_rejects_nan_gamma(self, tmp_path):
        matrix = tmp_path / "m.segt"
        store_tensor(matrix, np.eye(2, dtype=np.float32))
        assert main(["render", "--matrix", str(matrix), "--out", str(tmp_path / "x.pgm"),
                     "--gamma", "nan"]) == 1
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("flags", [
        ["--gamma", "-1"], ["--gamma", "nan"], ["--gamma", "inf"], ["--block", "0"],
    ], ids=["gamma-1", "gamma-nan", "gamma-inf", "block0"])
    def test_render_bad_flag_exits_1_before_the_matrix_is_read(self, tmp_path, capsys, flags):
        out = tmp_path / "x.pgm"
        assert main(["render", "--matrix", str(tmp_path / "missing.segt"), "--out", str(out),
                     *flags]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_render_rejects_3d_matrix(self, small_dataset, tmp_path):
        _, manifest, out = small_dataset
        rec = manifest.records[0]
        assert main(["render", "--matrix", str(rec.probs_path),
                     "--out", str(tmp_path / "x.pgm")]) == 2


class TestHostileRefineInput:
    """Seeded mutations (a bit flip, a cut, appended bytes, and in a matrix
    file a non-finite entry) of the inputs each stage reads: an evaluation
    probability map and its ground truth, a binary bank, the estimated
    confusion, their sidecars and the manifest. They are fed to labelbank,
    to refine with the identity and the estimated confusion, to confusion,
    to the unconstrained prior and to eval: every run exits 0, 2 or 3
    without a traceback, a cut or extended tensor file and a non-finite
    matrix entry exit 2, a failed run publishes nothing, and a successful
    one publishes outputs that load."""

    RUNS = 420

    @staticmethod
    def mutate(raw: bytes, rng: random.Random, matrix: bool) -> tuple[str, bytes]:
        """The kind of mutation and the mutated bytes; `matrix` says that raw
        is a 2-d float32 tensor file, whose payload follows an 18-byte header."""
        kind = rng.choice(["flip", "cut", "append"] + ["non-finite"] * matrix)
        if kind == "flip":
            at = rng.randrange(len(raw))
            return kind, raw[:at] + bytes([raw[at] ^ (1 << rng.randrange(8))]) + raw[at + 1:]
        if kind == "cut":
            return kind, raw[:rng.randrange(len(raw))]
        if kind == "non-finite":
            at = 18 + 4 * rng.randrange((len(raw) - 18) // 4)
            value = struct.pack("<f", rng.choice([math.inf, -math.inf, math.nan]))
            return kind, raw[:at] + value + raw[at + 4:]
        return kind, raw + bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))

    def test_mutated_inputs(self, small_dataset, tmp_path, capsys):
        spec, manifest, src = small_dataset
        root = tmp_path / "data"
        shutil.copytree(src, root)
        manifest_path = root / "manifest.json"
        bank, conf, ident, pred = (str(root / name) for name in
                                   ("bank.segt", "conf.segt", "ident.segt", "pred"))
        save_confusion(identity_confusion(spec.label_set), ident, radius=0)
        assert main(["confusion", "--manifest", str(manifest_path), "--out", conf]) == 0
        assert main(["prior", "--manifest", str(manifest_path), "--kind", "binary",
                     "--out", bank]) == 0
        assert main(["labelbank", "--manifest", str(manifest_path), "--priors", bank,
                     "--out", pred]) == 0
        record = manifest.split_records("evaluation")[3]
        probs, gt = root / record.probs_path.name, root / record.gt_path.name
        bank_files = [probs, root / "bank.segt", root / "bank.json", manifest_path]
        conf_files = [root / "conf.segt", root / "conf.json"]

        def maps(out):
            for path in sorted(out.glob("*_refined.segt")):
                load_probability_map(path, spec.label_set)
            for path in sorted(out.glob("*_pred.segt")):
                load_label_map(path, spec.label_set)

        # (arguments, files the stage reads, output under out, its loader)
        stages = [
            (["labelbank", "--priors", bank], bank_files, "", maps),
            (["refine", "--confusion", ident, "--priors", bank], bank_files, "", maps),
            (["refine", "--confusion", conf, "--priors", bank], bank_files + conf_files, "",
             maps),
            (["confusion"], [manifest_path], "conf.segt", load_confusion),
            (["prior", "--kind", "unconstrained", "--confusion", conf],
             [probs, gt, *conf_files, manifest_path], "bank.segt", load_prior_bank),
            (["eval", "--pred-dir", pred], [gt, manifest_path], "report.json", data.read_json),
        ]
        originals = {path: path.read_bytes() for _, reads, _, _ in stages for path in reads}
        rng = random.Random(1234)
        codes = []
        for run in range(self.RUNS):
            argv, reads, name, load = stages[run % len(stages)]
            target = rng.choice(reads)
            kind, mutated = self.mutate(originals[target], rng,
                                        target.name in ("bank.segt", "conf.segt"))
            target.write_bytes(mutated)
            out = tmp_path / f"out{run}"
            capsys.readouterr()
            code = main([*argv, "--manifest", str(manifest_path), "--out", str(out / name)])
            err = capsys.readouterr().err
            target.write_bytes(originals[target])
            assert code in (0, 2, 3), (run, target.name, err)
            assert "Traceback" not in err, (run, target.name, err)
            if kind == "non-finite":
                assert (code, err) == (2, f"error: {target}: non-finite entry\n"), run
            elif kind != "flip" and target.suffix == ".segt":
                assert code == 2, (run, target.name, kind, err)
            if code:
                assert not out.exists(), (run, target.name)
            else:
                load(out / name)
            codes.append(code)
        assert 0 in codes and 2 in codes
