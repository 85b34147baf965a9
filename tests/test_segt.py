"""SEGT tensor file format: round trips, header validation, error taxonomy."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conflens import load_tensor, read_header, store_tensor
from conflens.errors import (
    BadMagicError,
    DataError,
    DimOverflowError,
    InvalidDimensionsError,
    SegtFormatError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
)


class TestRoundTrip:
    def test_f32_zeros_2x3(self, tmp_path):
        path = tmp_path / "z.segt"
        arr = np.zeros((2, 3), dtype=np.float32)
        store_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == np.float32
        assert back.shape == (2, 3)
        np.testing.assert_array_equal(back, arr)

    def test_u16_1d(self, tmp_path):
        path = tmp_path / "u.segt"
        arr = np.array([0, 5, 65535], dtype=np.uint16)
        store_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == np.uint16
        assert back.shape == (3,)
        np.testing.assert_array_equal(back, arr)

    def test_random_tensors_value_and_byte_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(60):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
            if trial % 2 == 0:
                arr = rng.random(shape).astype(np.float32)
            else:
                arr = rng.integers(0, 1 << 16, size=shape).astype(np.uint16)
            p1 = tmp_path / f"t{trial}a.segt"
            p2 = tmp_path / f"t{trial}b.segt"
            store_tensor(p1, arr)
            back = load_tensor(p1)
            np.testing.assert_array_equal(back, arr)
            assert back.dtype == arr.dtype
            store_tensor(p2, back)
            assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.segt"
        store_tensor(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"SEGT"
        version, dtype_code, ndim = struct.unpack("<IBB", raw[4:10])
        assert (version, dtype_code, ndim) == (1, 0, 2)
        assert struct.unpack("<II", raw[10:18]) == (2, 3)
        assert len(raw) == 18 + 6 * 4

    def test_read_header_only(self, tmp_path):
        path = tmp_path / "h.segt"
        store_tensor(path, np.zeros((4, 5, 6), dtype=np.float32))
        dtype, dims = read_header(path)
        assert dtype == np.float32
        assert dims == (4, 5, 6)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.segt"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            load_tensor(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.segt"
        path.write_bytes(b"SEGT" + struct.pack("<IBB", 9, 0, 1) + struct.pack("<I", 1) + b"\x00" * 4)
        with pytest.raises(UnsupportedVersionError):
            load_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "d.segt"
        path.write_bytes(b"SEGT" + struct.pack("<IBB", 1, 7, 1) + struct.pack("<I", 1) + b"\x00" * 4)
        with pytest.raises(UnsupportedDtypeError):
            load_tensor(path)

    def test_bad_ndim(self, tmp_path):
        path = tmp_path / "n.segt"
        path.write_bytes(b"SEGT" + struct.pack("<IBB", 1, 0, 4) + struct.pack("<IIII", 1, 1, 1, 1))
        with pytest.raises(InvalidDimensionsError):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.segt"
        store_tensor(path, np.zeros((4, 4), dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedPayloadError):
            load_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.segt"
        store_tensor(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SegtFormatError, match="1 trailing byte"):
            load_tensor(path)

    def test_dim_overflow(self, tmp_path):
        path = tmp_path / "o.segt"
        huge = struct.pack("<III", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(b"SEGT" + struct.pack("<IBB", 1, 0, 3) + huge)
        with pytest.raises(DimOverflowError):
            load_tensor(path)

    def test_store_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(DataError):
            store_tensor(tmp_path / "x.segt", np.zeros(3, dtype=np.float64))

    def test_error_types_are_distinct(self):
        kinds = {
            BadMagicError, UnsupportedVersionError, UnsupportedDtypeError,
            InvalidDimensionsError, DimOverflowError, TruncatedPayloadError,
        }
        assert len(kinds) == 6


segt_arrays = hnp.arrays(
    dtype=st.sampled_from([np.dtype("<f4"), np.dtype("<u2")]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
)


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(segt_arrays)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, arr):
        path = tmp_path_factory.mktemp("rt") / "t.segt"
        store_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()  # NaN payloads included
        assert read_header(path) == (arr.dtype, arr.shape)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(segt_arrays)
    def test_every_strict_prefix_is_rejected(self, tmp_path_factory, arr):
        work = tmp_path_factory.mktemp("prefix")
        store_tensor(work / "full.segt", arr)
        raw = (work / "full.segt").read_bytes()
        path = work / "cut.segt"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(SegtFormatError):
                load_tensor(path)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(segt_arrays, st.binary(min_size=1, max_size=64))
    def test_appended_bytes_are_rejected(self, tmp_path_factory, arr, extra):
        path = tmp_path_factory.mktemp("tail") / "t.segt"
        store_tensor(path, arr)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(SegtFormatError, match=f"{len(extra)} trailing byte"):
            load_tensor(path)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1 << 7, 1 << 9), min_size=3, max_size=3),
        st.integers(0, 256),
    )
    def test_oversized_header_rejected_before_allocation(self, tmp_path_factory, dims, held):
        """A header declaring 8-512 MiB over a file of at most 256 payload
        bytes is refused without allocating anything near the declared
        size (numpy and bytes allocations are both traced)."""
        path = tmp_path_factory.mktemp("big") / "t.segt"
        path.write_bytes(
            b"SEGT" + struct.pack("<IBB3I", 1, 0, 3, *dims) + bytes(held)
        )
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError):
                load_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
