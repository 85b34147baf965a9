"""SEGT binary tensor files.

Layout, all little-endian: magic "SEGT", u32 version (=1), u8 dtype code
(0 = float32, 1 = uint16), u8 ndim (1..3), ndim x u32 dims, then the payload
row-major (last dim fastest). No padding, no footer.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, SegtFormatError

MAGIC = b"SEGT"
VERSION = 1
DTYPE_F32 = 0
DTYPE_U16 = 1
MAX_ELEMENTS = 1 << 40
MAX_HEADER = 10 + 4 * 3

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
    payload = arr.astype(_CODE_TO_DTYPE[code], copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def _parse_header(path: str | Path, head: bytes) -> tuple[np.dtype, tuple[int, ...]]:
    """Validate the header at the start of `head`, the file's first
    MAX_HEADER bytes or all of a shorter file; returns (dtype, dims)."""
    if len(head) < 4 or head[:4] != MAGIC:
        raise SegtFormatError(f"{path}: not a SEGT file")
    if len(head) < 10:
        raise SegtFormatError(f"{path}: truncated header")
    version, code, ndim = struct.unpack_from("<IBB", head, 4)
    if version != VERSION:
        raise SegtFormatError(f"{path}: unsupported version {version}")
    if code not in _CODE_TO_DTYPE:
        raise SegtFormatError(f"{path}: unsupported dtype code {code}")
    if not 1 <= ndim <= 3:
        raise SegtFormatError(f"{path}: ndim {ndim} outside 1..3")
    if len(head) < 10 + 4 * ndim:
        raise SegtFormatError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{ndim}I", head, 10)
    if any(d == 0 for d in dims):
        raise SegtFormatError(f"{path}: zero-sized dim in {dims}")
    count = math.prod(dims)
    if count > MAX_ELEMENTS:
        raise SegtFormatError(f"{path}: {count} elements exceed limit")
    return _CODE_TO_DTYPE[code], dims


def read_header(path: str | Path) -> tuple[np.dtype, tuple[int, ...]]:
    """Parse and validate only the header; returns (dtype, dims)."""
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(MAX_HEADER)
    return _parse_header(path, head)


def load_tensor(path: str | Path) -> np.ndarray:
    """Read a SEGT file back into an array; bit-exact with store_tensor.
    The file size is checked against the header before the array is
    allocated; a file longer than its header and payload is rejected."""
    with open(path, "rb", buffering=0) as fh:
        dtype, dims = _parse_header(path, fh.read(MAX_HEADER))
        offset = 10 + 4 * len(dims)
        nbytes = math.prod(dims) * dtype.itemsize
        held = os.fstat(fh.fileno()).st_size - offset
        if held < nbytes:
            raise SegtFormatError(f"{path}: payload holds {held} bytes, expected {nbytes}")
        if held > nbytes:
            raise SegtFormatError(f"{path}: {held - nbytes} trailing byte(s) after the payload")
        arr = np.empty(dims, dtype=dtype)
        view = memoryview(arr).cast("B")
        fh.seek(offset)
        # one raw read returns at most ~2 GiB, and 0 if the file was cut
        # after the size check
        got = 0
        while got < nbytes:
            n = fh.readinto(view[got:])
            if not n:
                raise SegtFormatError(f"{path}: payload holds {got} bytes, expected {nbytes}")
            got += n
    return arr
