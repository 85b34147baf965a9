"""Grouped writes of the per-image producers (synthesis, refine, labelbank)
and the grouped solves of the unconstrained prior: memory held is bounded by
the write or solve budget, and outputs do not depend on where groups close
(for solves: on the thread count that loads them)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conflens import (
    LabelSet,
    SynthSpec,
    data,
    generate_dataset,
    identity_confusion,
    save_confusion,
)
from conflens import cli
from conflens.cli import main
from conflens.data import _load_groups
from conflens.synth import _generate_image
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
    """Peak bytes allocated while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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


class TestWriteGroups:
    def test_groups_close_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(data, "WRITE_BUDGET", 5 * (4 * 3 + 4))
        shapes = [(1, 2, 3), (1, 3, 3), (2, 3, 3), (1, 1, 3), (1, 1, 3)]
        groups = list(data._write_groups(range(5), lambda i: shapes[i]))
        # 2 + 3 pixels reach the 5-pixel budget, 6 exceed it alone, 1 + 1 stay below
        assert groups == [[0, 1], [2], [3, 4]]

    def test_empty_input_gives_no_group(self):
        assert list(data._write_groups([], lambda item: (1, 1, 2))) == []


class TestMemoryBound:
    """With room for about two maps per group, doubling the image count
    raises a producer's peak by less than one output map (refine and
    labelbank: plus one input map). A producer that wrote after computing
    everything, or held every input until its last write, would grow by
    eight."""

    @pytest.fixture(autouse=True)
    def two_map_budget(self, monkeypatch):
        # raising=False so a producer without grouped writes fails the bound,
        # not the set-up
        monkeypatch.setattr(data, "WRITE_BUDGET", 2 * OUTPUT_BYTES, raising=False)

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
    """Outputs spanning several groups are byte-identical to one group."""

    BUDGETS = {"many_groups": 3 * (20 * 20 * (4 * 4 + 4)), "one_group": 1 << 40}

    def small_spec(self):
        return large_spec(6, n_estimation=4, n_classes=4, height=20, width=20,
                          region_scale=7.0, true_confusion=mixed_confusion(4),
                          min_classes_per_image=2, max_classes_per_image=3)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_synthesis(self, tmp_path, monkeypatch, threads):
        hashes = set()
        for tag, budget in self.BUDGETS.items():
            monkeypatch.setattr(data, "WRITE_BUDGET", budget)
            generate_dataset(self.small_spec(), tmp_path / tag, threads=threads)
            hashes.add(tree_hash(tmp_path / tag))
        assert len(hashes) == 1

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_refine_and_labelbank(self, tmp_path, monkeypatch, threads):
        generate_dataset(self.small_spec(), tmp_path / "data")
        manifest = str(tmp_path / "data" / "manifest.json")
        conf, priors = str(tmp_path / "conf.segt"), str(tmp_path / "hist.segt")
        assert main(["confusion", "--manifest", manifest, "--out", conf]) == 0
        assert main(["prior", "--manifest", manifest, "--kind", "histogram",
                     "--out", priors]) == 0
        hashes = {}
        for tag, budget in self.BUDGETS.items():
            monkeypatch.setattr(data, "WRITE_BUDGET", budget)
            out = tmp_path / tag
            for argv in split_commands(manifest, conf, priors, out).values():
                assert main(argv + ["--threads", threads]) == 0
            hashes[tag] = (tree_hash(out / "refine"), tree_hash(out / "labelbank"))
        assert hashes["many_groups"] == hashes["one_group"]
        assert len(list((tmp_path / "one_group" / "refine").iterdir())) == 2 * 6



class TestSolveGroups:
    """The prior stage loads, samples and solves images a group at a time."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_groups_close_at_budget_whatever_the_threads(self, threads):
        sizes = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        groups = list(_load_groups(list(range(len(sizes))), lambda i: sizes[i],
                                   lambda size: size, 6, threads))
        assert groups == [[3, 1, 4], [1, 5], [9], [2, 6], [5, 3]]

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

    def test_threads_give_identical_banks(self, tmp_path, monkeypatch):
        """Several groups, loaded 1 or 3 images at a time: the same groups,
        so the same bytes."""
        monkeypatch.setattr(cli, "SOLVE_BUDGET", 3 * 20 * 20 * 4 * 8)
        solves = []
        solve = cli.solve_unconstrained_prior

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_unconstrained_prior", counted)
        argv = self.prior_argv(tmp_path, 10)
        digests = set()
        for threads in ("1", "3"):
            del solves[:]
            assert main(argv + ["--threads", threads]) == 0
            assert len(solves) >= 4
            digests.add(hashlib.sha256((tmp_path / "prior.segt").read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_peak_does_not_grow_with_the_split(self, tmp_path, monkeypatch):
        """24 more images add their records and bank rows, but far less
        than a quarter of their float64 samples."""
        samples = 20 * 20 * 4 * 8
        monkeypatch.setattr(cli, "SOLVE_BUDGET", 3 * samples)
        peaks = {}
        for n in (8, 32):
            argv = self.prior_argv(tmp_path / str(n), n)
            peaks[n] = traced_peak(lambda: main(argv))
        assert peaks[32] - peaks[8] < 24 * samples / 4, peaks
