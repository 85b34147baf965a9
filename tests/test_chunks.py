"""Stages that load, check and compute on chunks of equal-shape maps, on a
split whose maps come in two interleaved sizes, with void labels in one
image: outputs do not depend on where chunks close, and a bad file inside a
chunk fails with the message of its own per-file check."""

import dataclasses
import hashlib

import numpy as np
import pytest

from conflens import (
    LabelSet,
    Manifest,
    SynthSpec,
    data,
    generate_dataset,
    histogram_prior,
    kernels,
    load_label_map,
    load_prior_bank,
    load_probability_map,
    load_tensor,
    priors,
    save_manifest,
    store_tensor,
)
from conflens.cli import main
from conflens.errors import DataError
from tests.conftest import mixed_confusion

VOID = 255
# per split, which synthesized set each record comes from: runs of 3, 3, 1,
# 1, 1 and 1 equal-shape maps
ORDER = "aaabbbabab"
MIDDLE = 4  # the middle map of the second run


def spec(height, width, seed):
    return SynthSpec(n_classes=4, height=height, width=width, n_estimation=5, n_evaluation=5,
                     region_scale=5.0, true_confusion=mixed_confusion(4), sharpness=3.0,
                     seed=seed, min_classes_per_image=2, max_classes_per_image=3)


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def dataset(tmp_path):
    """Two synthesized sets of 12x10 and 9x14 maps interleaved per split as
    ORDER says, with void pixels in one estimation and one evaluation
    image; returns (manifest path, evaluation records)."""
    sets = {}
    for key, (h, w, seed) in {"a": (12, 10, 3), "b": (9, 14, 4)}.items():
        manifest = generate_dataset(spec(h, w, seed), tmp_path / key)
        sets[key] = {split: [dataclasses.replace(r, image_id=f"{key}_{r.image_id}")
                             for r in manifest.split_records(split)]
                     for split in data.SPLITS}
    records = []
    for split in data.SPLITS:
        taken = {"a": iter(sets["a"][split]), "b": iter(sets["b"][split])}
        records += [next(taken[key]) for key in ORDER]
    for rec in (records[1], records[len(ORDER) + 1]):
        gt = load_tensor(rec.gt_path).copy()
        gt[:3, :4] = VOID
        store_tensor(rec.gt_path, gt)
    path = tmp_path / "manifest.json"
    save_manifest(Manifest(LabelSet(size=4, void_id=VOID), records), path)
    return str(path), records[len(ORDER):]


def run_stages(manifest, out):
    """Every stage that reads maps, into the directory out."""
    conf, hist, binary = (str(out / name) for name in ("c.segt", "h.segt", "b.segt"))
    argvs = [
        ["confusion", "--manifest", manifest, "--out", conf],
        ["prior", "--manifest", manifest, "--kind", "unconstrained", "--confusion", conf,
         "--out", str(out / "u.segt")],
        ["prior", "--manifest", manifest, "--kind", "histogram", "--out", hist],
        ["prior", "--manifest", manifest, "--kind", "binary", "--out", binary],
        ["prior", "--manifest", manifest, "--kind", "global", "--out", str(out / "g.segt")],
        ["refine", "--manifest", manifest, "--confusion", conf, "--priors", hist,
         "--out", str(out / "refined")],
        ["labelbank", "--manifest", manifest, "--priors", binary, "--out", str(out / "lb")],
        ["eval", "--manifest", manifest, "--pred-dir", str(out / "refined"),
         "--out", str(out / "eval.json")],
        ["eval", "--manifest", manifest, "--pred-dir", str(out / "lb"), "--exclude-borders",
         "--out", str(out / "eval_interior.json")],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv


class TestChunkInvariance:
    def test_outputs_do_not_depend_on_chunks(self, dataset, tmp_path, monkeypatch):
        """Also the unconstrained bank, whose solve groups close inside
        chunks: about one and a half images of samples fill a group, so
        groups of two images cut the first two three-map chunks."""
        manifest, _ = dataset
        monkeypatch.setattr(priors, "SOLVE_BUDGET", 6000)
        hashes = {}
        for tag, budget in (("chunks", data.CHUNK_BUDGET), ("one_per_chunk", 1)):
            monkeypatch.setattr(data, "CHUNK_BUDGET", budget)
            run_stages(manifest, tmp_path / tag)
            hashes[tag] = tree_hash(tmp_path / tag)
        assert len(set(hashes.values())) == 1, hashes

    def test_chunks_break_at_shape_changes(self, dataset, tmp_path, monkeypatch):
        manifest, records = dataset
        stacks = []
        apply = kernels.apply_refinement

        def counted(matrix, probs):
            stacks.append(probs.shape[0])
            return apply(matrix, probs)

        monkeypatch.setattr(kernels, "apply_refinement", counted)
        run_stages(manifest, tmp_path / "out")
        assert stacks == [3, 3, 1, 1, 1, 1] * 2  # refine, then labelbank

    def test_bank_rows_match_one_image_priors(self, dataset, tmp_path):
        manifest, records = dataset
        run_stages(manifest, tmp_path)
        bank = load_prior_bank(tmp_path / "h.segt")
        labels = LabelSet(size=4, void_id=VOID)
        want = np.stack([histogram_prior(load_label_map(r.gt_path, labels), labels).weights
                         for r in records]).astype(np.float32)
        np.testing.assert_array_equal(load_tensor(tmp_path / "h.segt"), want)
        assert bank.ids == tuple(r.image_id for r in records)


class TestDefectInsideChunk:
    """The defect sits in the middle map of a three-map chunk."""

    CASES = {
        "confusion-nan": ("confusion", "estimation", "probs", "nan"),
        "confusion-sum": ("confusion", "estimation", "probs", "sum"),
        "confusion-gt-label": ("confusion", "estimation", "gt", "label"),
        "confusion-channels": ("confusion", "estimation", "probs", "channels"),
        "histogram-gt-label": ("prior-histogram", "evaluation", "gt", "label"),
        "unconstrained-nan": ("prior-unconstrained", "evaluation", "probs", "nan"),
        "unconstrained-gt-label": ("prior-unconstrained", "evaluation", "gt", "label"),
        "refine-nan": ("refine", "evaluation", "probs", "nan"),
        "refine-channels": ("refine", "evaluation", "probs", "channels"),
        "labelbank-sum": ("labelbank", "evaluation", "probs", "sum"),
        "eval-gt-label": ("eval", "evaluation", "gt", "label"),
        "eval-pred-label": ("eval", "evaluation", "pred", "label"),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_exits_2_with_the_per_file_message(self, dataset, tmp_path, capsys, case):
        stage, split, file, defect = case
        manifest, _ = dataset
        ready = tmp_path / "ready"
        run_stages(manifest, ready)
        labels = LabelSet(size=4, void_id=VOID)
        rec = data.load_manifest(manifest).split_records(split)[MIDDLE]
        path = {"probs": rec.probs_path, "gt": rec.gt_path,
                "pred": ready / "refined" / f"{rec.image_id}_pred.segt"}[file]
        values = load_tensor(path).copy()
        if defect == "nan":
            values[2, 3, 1] = np.nan
        elif defect == "sum":
            values[2, 3] *= 0.5
        elif defect == "channels":
            values = np.concatenate([values, np.zeros(values.shape[:2] + (1,), values.dtype)],
                                    axis=2)
        else:
            values[1, 1] = 7
        store_tensor(path, values)
        load = load_probability_map if file == "probs" else load_label_map
        with pytest.raises(DataError) as expected:
            load(path, labels)

        command, _, kind = stage.partition("-")
        out = tmp_path / "out" / "result"
        argv = [command, "--manifest", manifest, "--out", str(out)]
        if command == "prior":
            argv += ["--kind", kind]
            if kind == "unconstrained":
                argv += ["--confusion", str(ready / "c.segt")]
        elif command == "refine":
            argv += ["--confusion", str(ready / "c.segt"), "--priors", str(ready / "h.segt")]
        elif command == "labelbank":
            argv += ["--priors", str(ready / "b.segt")]
        elif command == "eval":
            argv += ["--pred-dir", str(ready / "refined")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert not (tmp_path / "out").exists()
