"""SEGT binary tensor files.

Layout, all little-endian: magic "SEGT", u32 version (=1), u8 dtype code
(0 = float32, 1 = uint16), u8 ndim (1..3), ndim x u32 dims, then the payload
row-major (last dim fastest). No padding, no footer.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    DimOverflowError,
    InvalidDimensionsError,
    SegtFormatError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
)

MAGIC = b"SEGT"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U16 = 1
MAX_ELEMENTS = 1 << 40

_CODE_TO_DTYPE = {DTYPE_F32: np.dtype("<f4"), DTYPE_U16: np.dtype("<u2")}
_KIND_TO_CODE = {"f4": DTYPE_F32, "u2": DTYPE_U16}


def store_tensor(path: str | Path, tensor: np.ndarray) -> None:
    """Write `tensor` (float32 or uint16, 1-3 dims) to `path`."""
    arr = np.ascontiguousarray(tensor)
    key = f"{arr.dtype.kind}{arr.dtype.itemsize}"
    if key not in _KIND_TO_CODE:
        raise DataError(f"cannot store dtype {arr.dtype}; use float32 or uint16")
    if not 1 <= arr.ndim <= 3:
        raise DataError(f"cannot store {arr.ndim}-d tensor; 1-3 dims supported")
    if any(d < 1 for d in arr.shape):
        raise DataError(f"cannot store tensor with empty dims {arr.shape}")
    if any(d > 0xFFFFFFFF for d in arr.shape):
        raise DataError(f"dims {arr.shape} exceed u32 range")
    code = _KIND_TO_CODE[key]
    header = MAGIC + struct.pack("<IBB", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(_CODE_TO_DTYPE[code], copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_header(path: str | Path) -> tuple[np.dtype, tuple[int, ...]]:
    """Parse and validate only the header; returns (dtype, dims)."""
    with open(path, "rb") as fh:
        head = fh.read(10)
        if len(head) < 4 or head[:4] != MAGIC:
            raise BadMagicError(f"{path}: not a SEGT file")
        if len(head) < 10:
            raise TruncatedPayloadError(f"{path}: truncated header")
        version, code, ndim = struct.unpack("<IBB", head[4:10])
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported version {version}")
        if code not in _CODE_TO_DTYPE:
            raise UnsupportedDtypeError(f"{path}: unsupported dtype code {code}")
        if not 1 <= ndim <= 3:
            raise InvalidDimensionsError(f"{path}: ndim {ndim} outside 1..3")
        raw = fh.read(4 * ndim)
        if len(raw) < 4 * ndim:
            raise TruncatedPayloadError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{ndim}I", raw)
        if any(d == 0 for d in dims):
            raise InvalidDimensionsError(f"{path}: zero-sized dim in {dims}")
        count = 1
        for d in dims:
            count *= d
        if count > MAX_ELEMENTS:
            raise DimOverflowError(f"{path}: {count} elements exceed limit")
        return _CODE_TO_DTYPE[code], dims


def load_tensor(path: str | Path) -> np.ndarray:
    """Read a SEGT file back into an array; bit-exact with store_tensor.
    A file longer than its header and payload is rejected."""
    dtype, dims = read_header(path)
    count = int(np.prod(dims, dtype=np.int64))
    offset = 10 + 4 * len(dims)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(offset)
        payload = fh.read(count * dtype.itemsize)
    if len(payload) < count * dtype.itemsize:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, expected {count * dtype.itemsize}"
        )
    extra = size - offset - len(payload)
    if extra > 0:
        raise SegtFormatError(f"{path}: {extra} trailing byte(s) after the payload")
    return np.frombuffer(payload, dtype=dtype, count=count).reshape(dims).copy()
