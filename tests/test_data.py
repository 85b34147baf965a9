"""Domain types, probability-map validation, and manifest I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflens import (
    LabelMap,
    LabelSet,
    Manifest,
    ManifestRecord,
    ProbabilityMap,
    load_label_map,
    load_manifest,
    load_probability_map,
    save_label_map,
    save_manifest,
    save_probability_map,
    store_tensor,
    validate_probability_map,
)
from conflens import segt
from conflens.errors import DataError
from tests.oracles import sum_check_formula


class TestLabelSet:
    def test_minimum_size(self):
        with pytest.raises(DataError):
            LabelSet(size=1)

    def test_names_length(self):
        with pytest.raises(DataError):
            LabelSet(size=3, names=("a", "b"))

    def test_names_must_be_strings(self):
        with pytest.raises(DataError):
            LabelSet(size=2, names="ab")
        with pytest.raises(DataError):
            LabelSet(size=2, names=("sky", 2))
        assert LabelSet(size=2, names=["sky", "road"]).names == ("sky", "road")

    def test_void_outside_range(self):
        with pytest.raises(DataError):
            LabelSet(size=3, void_id=1)
        LabelSet(size=3, void_id=255)
        LabelSet(size=3, void_id=-1)


class TestValidateProbabilityMap:
    def test_one_hot_is_valid(self):
        values = np.zeros((3, 3, 4), dtype=np.float32)
        values[..., 1] = 1.0
        assert validate_probability_map(ProbabilityMap(values), 1e-6) == []

    def test_single_scaled_pixel_reported(self):
        values = np.full((2, 2, 2), 0.5, dtype=np.float32)
        values[1, 0] *= 1.01
        bad = validate_probability_map(ProbabilityMap(values), 1e-4)
        assert len(bad) == 1
        (site, dev) = bad[0]
        assert site == (1, 0)
        assert dev == pytest.approx(0.01, abs=1e-6)

    def test_all_zero_map_reports_every_site(self):
        values = np.zeros((2, 3, 2), dtype=np.float32)
        bad = validate_probability_map(ProbabilityMap(values), 1e-4)
        assert len(bad) == 6
        assert all(dev == pytest.approx(1.0) for _, dev in bad)


def crafted_map(seed, height, width, channels, tol, specials):
    """A float32 map whose sites sit near the tolerance boundary.

    Each site is one of: a Dirichlet draw scaled to sum 1 + delta with
    |delta| <= 2*tol; a site whose values are multiples of 2^-24, so that its
    float64 sum is exact and equals 1 +- tol rounded to float32, or one
    float32 ulp either side of that; or an exact one-hot site. `specials`
    adds NaN, +inf, -inf and negative entries at random sites."""
    rng = np.random.default_rng(seed)
    n = height * width
    base = rng.dirichlet(np.ones(channels), size=n)
    delta = rng.uniform(-2 * tol, 2 * tol, size=(n, 1))
    out = (base * (1 + delta)).astype(np.float32)
    kind = rng.integers(0, 3, size=n)
    for k in np.flatnonzero(kind == 1):
        target = np.float32(1 + rng.choice([-1, 1]) * tol)
        step = int(rng.integers(-1, 2))
        if step:
            target = np.nextafter(target, np.float32(2 * step))
        rest = np.floor(base[k, 1:] * 0.9 * 2**24) / 2**24
        out[k, 1:] = rest
        out[k, 0] = float(target) - rest.sum()
    for k in np.flatnonzero(kind == 2):
        out[k] = 0
        out[k, rng.integers(channels)] = 1
    if specials:
        for value in (np.nan, np.inf, -np.inf, -0.25):
            hits = rng.random(n) < 0.05
            out[hits, rng.integers(channels)] = value
    return out.reshape(height, width, channels)


def assert_same_failures(got, expected):
    assert [site for site, _ in got] == [site for site, _ in expected]
    np.testing.assert_array_equal([d for _, d in got], [d for _, d in expected])


class TestValidateMatchesFormula:
    """validate_probability_map screens in float32 and rechecks in float64;
    it must return exactly what the whole-map float64 formula returns."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(2, 24),
        st.floats(np.log(3e-7), np.log(1e-3)),
        st.booleans(),
    )
    def test_same_sites_and_deviations(self, seed, height, width, channels, log_tol, specials):
        tol = float(np.exp(log_tol))
        values = crafted_map(seed, height, width, channels, tol, specials)
        assert_same_failures(
            validate_probability_map(ProbabilityMap(values), tol),
            sum_check_formula(values, tol),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_tol_below_margin_rechecks_every_site(self, seed):
        """At L = 20 the screen's margin (about 2.7e-6) exceeds tol, so no
        site may be cleared: every site takes the float64 check."""
        tol = 1e-7
        values = crafted_map(seed, 16, 16, 20, tol, specials=False)
        expected = sum_check_formula(values, tol)
        assert expected
        assert_same_failures(validate_probability_map(ProbabilityMap(values), tol), expected)

    def test_negative_values_are_not_screened(self):
        """In float32, 1 + 1.1e-4 is lost when it is added to 3000 or to
        -3000 first, and the site's sum reads exactly 1; its float64
        deviation is 1.1e-4. The small term sits in each position once, so
        in whatever order BLAS sums, a screen that trusted its error bound
        for negative values would clear at least one failing site."""
        big, near = 3000.0, 1 + 1.1e-4
        values = np.array(
            [[[big, near, -big], [near, big, -big], [big, -big, near]]],
            dtype=np.float32,
        )
        expected = sum_check_formula(values, 1e-4)
        assert len(expected) == 3
        assert_same_failures(validate_probability_map(ProbabilityMap(values), 1e-4), expected)

    def test_load_message_names_count_and_first_site(self, tmp_path):
        values = crafted_map(3, 8, 8, 6, 1e-4, specials=False)
        values[2, 5] *= 1.5
        values[6, 1] *= 0.5
        path = tmp_path / "p.segt"
        save_probability_map(ProbabilityMap(values), path)
        expected = sum_check_formula(values, 1e-4)
        (i, j), dev = expected[0]
        with pytest.raises(DataError) as info:
            load_probability_map(path, LabelSet(size=6))
        assert str(info.value) == (
            f"{path}: {len(expected)} sites fail sum check at tol 0.0001, "
            f"first ({i},{j}) deviates by {dev:.2e}"
        )


class TestTensorWrappers:
    def test_probability_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.random((4, 5, 3))
        raw /= raw.sum(axis=2, keepdims=True)
        probs = ProbabilityMap(raw.astype(np.float32))
        path = tmp_path / "p.segt"
        save_probability_map(probs, path)
        back = load_probability_map(path, LabelSet(size=3))
        np.testing.assert_array_equal(back.values, probs.values)

    def test_load_rejects_bad_sums(self, tmp_path):
        values = np.full((2, 2, 2), 0.4, dtype=np.float32)
        path = tmp_path / "bad.segt"
        save_probability_map(ProbabilityMap(values), path)
        with pytest.raises(DataError):
            load_probability_map(path, LabelSet(size=2))

    # float32 bit patterns at the edges of the accepted range [-0, 1 + 1e-6]
    RANGE_EDGES = {
        "+0": 0x00000000, "-0": 0x80000000, "-denormal": 0x80000001,
        "1+8ulp": 0x3F800008, "1+9ulp": 0x3F800009, "+inf": 0x7F800000,
        "-inf": 0xFF800000, "+nan": 0x7FC00000, "-nan": 0xFFC00000,
    }

    @pytest.mark.parametrize("bits", RANGE_EDGES.values(), ids=RANGE_EDGES.keys())
    def test_range_check_matches_min_max(self, tmp_path, bits):
        """The one-pass range check accepts exactly the maps that the
        min/max expression accepts."""
        value = np.array([bits], dtype=np.uint32).view(np.float32)[0]
        values = np.full((2, 2, 2), 0.5, dtype=np.float32)
        values[1, 0] = [value, 1.0 if abs(value) < 0.5 else 0.0]
        path = tmp_path / "edge.segt"
        store_tensor(path, values)
        in_range = bool(values.min() >= 0.0 and values.max() <= 1.0 + 1e-6)
        assert in_range == (bits in (0x00000000, 0x80000000, 0x3F800008))
        if in_range:
            np.testing.assert_array_equal(load_probability_map(path).values, values)
        else:
            with pytest.raises(DataError, match=r"outside \[0, 1\] or NaN"):
                load_probability_map(path)

    def test_label_map_round_trip_and_void(self, tmp_path):
        labels = LabelSet(size=3, void_id=255)
        lm = LabelMap(np.array([[0, 1], [2, 255]], dtype=np.int32))
        path = tmp_path / "l.segt"
        save_label_map(lm, path)
        back = load_label_map(path, labels)
        np.testing.assert_array_equal(back.labels, lm.labels)

    def test_label_map_rejects_out_of_set(self, tmp_path):
        path = tmp_path / "l.segt"
        save_label_map(LabelMap(np.array([[7]], dtype=np.int32)), path)
        with pytest.raises(DataError):
            load_label_map(path, LabelSet(size=3, void_id=255))


class TestManifest:
    def _write_pair(self, directory, image_id, height=3, width=3, channels=2):
        rng = np.random.default_rng(abs(hash(image_id)) % 2**32)
        raw = rng.random((height, width, channels))
        raw /= raw.sum(axis=2, keepdims=True)
        probs_path = directory / f"{image_id}_probs.segt"
        gt_path = directory / f"{image_id}_gt.segt"
        save_probability_map(ProbabilityMap(raw.astype(np.float32)), probs_path)
        save_label_map(LabelMap(np.zeros((height, width), dtype=np.int32)), gt_path)
        return probs_path, gt_path

    def test_round_trip(self, tmp_path):
        p0, g0 = self._write_pair(tmp_path, "a")
        p1, g1 = self._write_pair(tmp_path, "b")
        manifest = Manifest(
            label_set=LabelSet(size=2),
            records=(
                ManifestRecord("a", p0, g0, "estimation"),
                ManifestRecord("b", p1, g1, "evaluation"),
            ),
        )
        save_manifest(manifest, tmp_path / "manifest.json")
        back = load_manifest(tmp_path / "manifest.json")
        assert [r.image_id for r in back.records] == ["a", "b"]
        assert len(back.split_records("estimation")) == 1
        assert back.label_set.size == 2

    def test_record_outside_the_manifest_directory(self, tmp_path):
        """A map path that is not under the manifest's directory is stored
        absolute, and reads back as the same file."""
        p0, g0 = self._write_pair(tmp_path, "a")
        manifest = Manifest(label_set=LabelSet(size=2),
                            records=(ManifestRecord("a", p0, g0, "estimation"),))
        path = tmp_path / "sub" / "manifest.json"
        save_manifest(manifest, path)
        stored = json.loads(path.read_text())["records"][0]
        assert stored["probs"] == p0.resolve().as_posix()
        assert stored["gt"] == g0.resolve().as_posix()
        back = load_manifest(path).records[0]
        assert (back.probs_path, back.gt_path) == (p0.resolve(), g0.resolve())

    def test_duplicate_ids_rejected(self, tmp_path):
        p0, g0 = self._write_pair(tmp_path, "a")
        with pytest.raises(DataError):
            Manifest(
                label_set=LabelSet(size=2),
                records=(
                    ManifestRecord("a", p0, g0, "estimation"),
                    ManifestRecord("a", p0, g0, "evaluation"),
                ),
            )

    def test_load_manifest_opens_no_tensor_file(self, tmp_path, monkeypatch):
        p0, g0 = self._write_pair(tmp_path, "a", channels=3)
        manifest = Manifest(
            label_set=LabelSet(size=2),
            records=(ManifestRecord("a", p0, g0, "estimation"),),
        )
        save_manifest(manifest, tmp_path / "manifest.json")

        def opened(path):
            raise AssertionError(f"load_manifest opened {path}")

        monkeypatch.setattr(segt, "read_header", opened)
        monkeypatch.setattr(segt, "load_tensor", opened)
        back = load_manifest(tmp_path / "manifest.json")
        assert back.records[0].probs_path == p0.resolve()

    def test_immutable_arrays(self):
        lm = LabelMap(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(ValueError):
            lm.labels[0, 0] = 1
