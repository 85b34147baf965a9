"""Grouped writes of synthesis, the chunked reads and writes of refine and
labelbank, and the grouped solves of the unconstrained prior: memory held is
bounded by the chunk or solve budget, and outputs do not depend on where
groups or chunks close."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from conflens import (
    ConfusionModel,
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    ProbabilityMap,
    SynthSpec,
    data,
    generate_dataset,
    identity_confusion,
    load_label_map,
    load_manifest,
    load_probability_map,
    save_confusion,
    save_label_map,
    save_probability_map,
)
from conflens import priors
from conflens.cli import main
from conflens.synth import _generate_image, reference_spec, true_confusion
from tests.conftest import mixed_confusion

SIDE, CLASSES = 128, 20
# a float32 SIDE x SIDE x CLASSES map, alone and with its int32 label map
MAP_BYTES = SIDE * SIDE * CLASSES * 4
OUTPUT_BYTES = SIDE * SIDE * (4 * CLASSES + 4)


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def large_spec(n_images: int, **overrides) -> SynthSpec:
    kwargs = dict(
        n_classes=CLASSES,
        height=SIDE,
        width=SIDE,
        n_estimation=0,
        n_evaluation=n_images,
        region_scale=32.0,
        true_confusion=mixed_confusion(CLASSES),
        sharpness=2.0,
        seed=5,
        min_classes_per_image=3,
        max_classes_per_image=6,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, above what was live before.

    The cycle collector is off while fn runs, so cyclic garbage that fn
    makes (argparse's parser, for one) counts until fn returns. Left on,
    it frees that garbage at a point set by what earlier tests allocated,
    and two runs compared would differ by when it ran, not by what they
    hold."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        gc.enable()


def refine_inputs(root, n_images):
    """A dataset of n_images evaluation maps, the identity confusion and a
    uniform prior bank; returns (manifest, confusion, priors) paths."""
    generate_dataset(large_spec(n_images), root / "data")
    manifest = str(root / "data" / "manifest.json")
    conf, priors = str(root / "ident.segt"), str(root / "uniform.segt")
    save_confusion(identity_confusion(LabelSet(size=CLASSES)), conf, radius=0)
    assert main(["prior", "--manifest", manifest, "--kind", "uniform", "--out", priors]) == 0
    return manifest, conf, priors


def split_commands(manifest, conf, priors, out):
    return {
        "refine": ["refine", "--manifest", manifest, "--confusion", conf,
                   "--priors", priors, "--out", str(out / "refine")],
        "labelbank": ["labelbank", "--manifest", manifest,
                      "--priors", priors, "--out", str(out / "labelbank")],
    }


class TestMemoryBound:
    """With room for about two maps per group, doubling the image count
    raises a producer's peak by less than one output map (refine and
    labelbank: plus one input map). A producer that wrote after computing
    everything, or held every input until its last write, would grow by
    eight."""

    @pytest.fixture(autouse=True)
    def two_map_budget(self, monkeypatch):
        monkeypatch.setattr(data, "CHUNK_BUDGET", 2 * OUTPUT_BYTES)

    def test_synthesis_peak(self, tmp_path):
        peaks = {
            n: traced_peak(lambda: generate_dataset(large_spec(n), tmp_path / str(n)))
            for n in (8, 16)
        }
        assert peaks[16] - peaks[8] < OUTPUT_BYTES, peaks

    def test_generate_image_peak(self):
        """One image is built in pixel blocks straight into its float32 map,
        so the whole-image float64 draw and label table are never held."""
        spec = large_spec(1, height=256, width=256)
        rng = np.random.default_rng(0)
        peak = traced_peak(lambda: _generate_image(spec, rng, spec.true_confusion))
        assert peak < 2 * 256 * 256 * CLASSES * 4, peak

    @pytest.mark.parametrize("command", ["refine", "labelbank"])
    def test_refine_split_peak(self, tmp_path, command):
        peaks = {}
        for n in (8, 16):
            root = tmp_path / str(n)
            argv = split_commands(*refine_inputs(root, n), root)[command]
            peaks[n] = traced_peak(lambda: main(argv))
        assert peaks[16] - peaks[8] < MAP_BYTES + OUTPUT_BYTES, peaks


class TestGroupInvariance:
    """Outputs spanning several groups (refine and labelbank: chunks) are
    byte-identical to one. small_spec's maps have no void, so every image
    gives the prior solver the same sample count."""

    BUDGETS = {"many_groups": 3 * (20 * 20 * (4 * 4 + 4)), "one_group": 1 << 40}

    def small_spec(self):
        return large_spec(6, n_estimation=4, n_classes=4, height=20, width=20,
                          region_scale=7.0, true_confusion=mixed_confusion(4),
                          min_classes_per_image=2, max_classes_per_image=3)

    def test_synthesis(self, tmp_path, monkeypatch):
        hashes = set()
        for tag, budget in self.BUDGETS.items():
            monkeypatch.setattr(data, "CHUNK_BUDGET", budget)
            generate_dataset(self.small_spec(), tmp_path / tag)
            hashes.add(tree_hash(tmp_path / tag))
        assert len(hashes) == 1

    def test_refine_and_labelbank(self, tmp_path, monkeypatch):
        generate_dataset(self.small_spec(), tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        conf, priors = str(tmp_path / "conf.segt"), str(tmp_path / "hist.segt")
        assert main(["confusion", "--manifest", manifest, "--out", conf]) == 0
        assert main(["prior", "--manifest", manifest, "--kind", "histogram",
                     "--out", priors]) == 0
        hashes = {}
        for tag, budget in self.BUDGETS.items():
            monkeypatch.setattr(data, "CHUNK_BUDGET", budget)
            out = tmp_path / tag
            for argv in split_commands(manifest, conf, priors, out).values():
                assert main(argv) == 0
            hashes[tag] = (tree_hash(out / "refine"), tree_hash(out / "labelbank"))
        assert hashes["many_groups"] == hashes["one_group"]
        assert len(list((tmp_path / "one_group" / "refine").iterdir())) == 2 * 6


    def test_unconstrained_prior(self, tmp_path, monkeypatch):
        """A group of one image per solve, the default budget and one group
        of every image give the same bank."""
        generate_dataset(self.small_spec(), tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        conf = str(tmp_path / "conf.segt")
        assert main(["confusion", "--manifest", manifest, "--out", conf]) == 0
        banks = set()
        for budget in (1, priors.SOLVE_BUDGET, 1 << 40):
            monkeypatch.setattr(priors, "SOLVE_BUDGET", budget)
            out = tmp_path / f"prior_{budget}.segt"
            assert main(["prior", "--manifest", manifest, "--kind", "unconstrained",
                         "--confusion", conf, "--out", str(out)]) == 0
            banks.add(out.read_bytes())
        assert len(banks) == 1


class TestSolveGroups:
    """The prior stage loads one image's maps at a time, and samples and
    solves images a group at a time."""

    def spec(self, n_images):
        return large_spec(n_images, n_estimation=4, n_classes=4, height=20, width=20,
                          region_scale=7.0, true_confusion=mixed_confusion(4),
                          min_classes_per_image=2, max_classes_per_image=3)

    def prior_argv(self, root, n_images):
        generate_dataset(self.spec(n_images), root / "data")
        manifest = str(root / "data" / "manifest.json")
        assert main(["confusion", "--manifest", manifest, "--out", str(root / "c.segt")]) == 0
        return ["prior", "--manifest", manifest, "--kind", "unconstrained",
                "--confusion", str(root / "c.segt"), "--out", str(root / "prior.segt")]

    def test_groups_give_identical_banks_on_rerun(self, tmp_path, monkeypatch):
        """Several groups, each one descent, and the same bytes when run
        again."""
        monkeypatch.setattr(priors, "SOLVE_BUDGET", 3 * 20 * 20 * 4 * 8)
        solves = []
        descend = priors._descend

        def counted(*args, **kwargs):
            solves.append(1)
            return descend(*args, **kwargs)

        monkeypatch.setattr(priors, "_descend", counted)
        argv = self.prior_argv(tmp_path, 10)
        digests = set()
        for _ in range(2):
            del solves[:]
            assert main(argv) == 0
            assert len(solves) >= 4
            digests.add(hashlib.sha256((tmp_path / "prior.segt").read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_peak_does_not_grow_with_the_split(self, tmp_path, monkeypatch):
        """24 more images add their records and bank rows, but far less
        than a quarter of their float64 samples. The stage holds one
        image's maps and one group of samples, about three images."""
        samples = 20 * 20 * 4 * 8
        monkeypatch.setattr(priors, "SOLVE_BUDGET", 3 * samples)
        monkeypatch.setattr(data, "CHUNK_BUDGET", 3 * 20 * 20 * (4 + 1) * 4)
        peaks = {}
        for n in (8, 32):
            argv = self.prior_argv(tmp_path / str(n), n)
            peaks[n] = traced_peak(lambda: main(argv))
        assert peaks[32] - peaks[8] < 24 * samples / 4, peaks


    def test_a_wide_image_after_narrow_ones_is_not_padded_into_their_group(
            self, tmp_path, monkeypatch):
        """40 8x8 maps, then one 64x64 map: the narrow images fill less than
        one group, and the wide one would pad it to 41 of its width. The
        stage solves the narrow images and then the wide one alone, so it
        holds about the budget, the wide image's samples and its maps, and
        a library call on the same sample_sets is bounded the same way and
        gives the stage's bank. A lone image's line search tries 8 steps at
        once, in per-sample buffers of 8 times its sample count, so its
        solve holds about 8 times its samples. Padding the wide image into
        the narrow ones' group held about 12 MB, 7 times the bound."""
        n_labels, narrow, wide, n_narrow = 4, 8, 64, 40
        labels = LabelSet(size=n_labels)
        budget = n_narrow * narrow * narrow * n_labels * 8 + 1
        wide_samples = wide * wide * n_labels * 8
        wide_maps = wide * wide * (n_labels + 1) * 4
        monkeypatch.setattr(priors, "SOLVE_BUDGET", budget)
        rng = np.random.default_rng(12)
        records, maps = [], []
        for k, side in enumerate([narrow] * n_narrow + [wide]):
            gt = LabelMap(rng.integers(0, n_labels, size=(side, side)).astype(np.int32))
            probs = rng.dirichlet(np.full(n_labels, 0.5), size=(side, side)).astype(np.float32)
            probs = ProbabilityMap(probs / probs.sum(axis=2, keepdims=True))
            rec = ManifestRecord(f"img{k}", tmp_path / f"p{k}.segt", tmp_path / f"g{k}.segt",
                                 "evaluation")
            save_label_map(gt, rec.gt_path)
            save_probability_map(probs, rec.probs_path)
            records.append(rec)
            maps.append((gt, probs))
        manifest = Manifest(labels, tuple(records))
        confusion = ConfusionModel(matrix=mixed_confusion(n_labels), floor=1e-4)
        opts = priors.SolverOptions(max_iters=20)
        sets = [priors.sample_set(gt, probs, labels, opts.subsample,
                                  np.random.SeedSequence(opts.seed, spawn_key=(idx,)))
                for idx, (gt, probs) in enumerate(maps)]
        del maps
        bound = budget + 12 * wide_samples + wide_maps

        def stage():
            return priors.build_prior_bank(manifest, "unconstrained", tmp_path / "u.segt",
                                           confusion, opts)

        bank = stage()  # first-call allocations
        stage_peak = traced_peak(stage)
        library_peak = traced_peak(lambda: priors.solve_unconstrained_prior(confusion, sets, opts))
        assert stage_peak < bound, (stage_peak, bound)
        assert library_peak < bound, (library_peak, bound)
        want = [p.weights for p in priors.solve_unconstrained_prior(confusion, sets, opts)]
        np.testing.assert_array_equal(bank.weights, np.stack(want))


class TestProducerPeaks:
    """Each producer holds about one CHUNK_BUDGET of maps, whatever the
    split's size."""

    def test_synthesis_holds_one_chunk_of_maps(self, tmp_path):
        """30 64x64 maps of 8 classes, 4.4 MB, are built and written about
        1 MiB at a time."""
        spec = large_spec(30, n_classes=8, height=64, width=64, region_scale=16.0,
                          true_confusion=mixed_confusion(8))
        image = 64 * 64 * (4 * 8 + 4)
        generate_dataset(large_spec(1), tmp_path / "warm")  # first-call allocations
        peak = traced_peak(lambda: generate_dataset(spec, tmp_path / "data"))
        assert peak < 2 * data.CHUNK_BUDGET + image, peak

    def test_prior_stage_holds_samples_once(self, tmp_path, monkeypatch):
        """Each image's samples go straight into its group's evidence, and
        each image's maps are dropped before its group is solved: above what
        solving one group takes, the stage holds one image's maps and about
        one image's samples. A stage that held a chunk of three images' maps
        beside a solve, or the group's samples again beside the evidence,
        would hold more."""
        side, n_labels, n_images = 32, 4, 12
        samples = side * side * n_labels * 8
        image = side * side * (n_labels + 1) * 4
        chunk = 3 * image
        monkeypatch.setattr(priors, "SOLVE_BUDGET", 3 * samples)
        monkeypatch.setattr(data, "CHUNK_BUDGET", chunk)
        spec = large_spec(n_images, n_classes=n_labels, height=side, width=side,
                          region_scale=10.0, true_confusion=mixed_confusion(n_labels),
                          min_classes_per_image=2, max_classes_per_image=3)
        generate_dataset(spec, tmp_path / "data")
        manifest = load_manifest(tmp_path / "data" / "manifest.json")
        labels, confusion = manifest.label_set, true_confusion(spec)
        sets = []
        for idx, rec in enumerate(manifest.split_records("evaluation")):
            rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(idx,)))
            sets.append(priors.sample_set(load_label_map(rec.gt_path, labels),
                                          load_probability_map(rec.probs_path, labels),
                                          labels, priors.DEFAULT_SUBSAMPLE, rng))
        solve_peak = max(
            traced_peak(lambda: priors.solve_unconstrained_prior(confusion, sets[g:g + 3]))
            for g in range(0, n_images, 3))
        del sets

        def stage():
            priors.build_prior_bank(manifest, "unconstrained", tmp_path / "p.segt", confusion)

        stage()  # first-call allocations
        peak = traced_peak(stage)
        assert peak - solve_peak < image + samples, (peak, solve_peak)

    def test_one_image_solve_holds_little_beside_its_evidence(self):
        """Solving one 20 000-sample, 21-label image alone holds its float64
        evidence and per-sample buffers that the loss kernels fill in place:
        under 2.5 times the evidence. Kernels that made a fresh array for
        each step of the loss held about 2.7 times."""
        n, n_labels = 20_000, 21
        rng = np.random.default_rng(3)
        gt = rng.integers(0, n_labels, size=n)
        probs = rng.dirichlet(np.ones(n_labels), size=n)
        probs[np.arange(n), gt] += 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        samples = priors.SampleSet(gt, probs)
        confusion = true_confusion(large_spec(1, n_classes=n_labels,
                                              true_confusion=mixed_confusion(n_labels)))
        priors.solve_unconstrained_prior(confusion, samples)  # first-call allocations
        peak = traced_peak(lambda: priors.solve_unconstrained_prior(confusion, samples))
        assert peak < 2.5 * n * n_labels * 8, peak


@pytest.fixture(scope="module")
def reference_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    generate_dataset(reference_spec(), root)
    return str(root / "manifest.json")


@pytest.mark.parametrize("kind", ["binary", "histogram"])
def test_closed_form_prior_counts_in_blocks(reference_manifest, tmp_path, kind):
    """The per-image closed-form priors hold one chunk of label maps (1 MiB
    of int32 labels, the uint16 maps it is stacked from and its check
    masks) and count its labels in pixel blocks: on the reference dataset,
    under 3.5 chunk budgets above the interpreter. Counting a whole chunk
    at once (its labels offset, masked, compressed and cast to int64) held
    about 4.7 MB."""
    argv = ["prior", "--manifest", reference_manifest, "--kind", kind,
            "--out", str(tmp_path / "p.segt")]
    assert main(argv) == 0  # first-call allocations
    peak = traced_peak(lambda: main(argv))
    assert peak < 3.5 * data.CHUNK_BUDGET, peak
