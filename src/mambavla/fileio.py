"""The RMCK checkpoint format, read and written at the byte level.

RMCK is little-endian and fully specified here so that a fixed seed
reproduces a checkpoint byte-for-byte.  Writes go through a same-directory
temp file plus os.replace, so readers never observe a half-written file.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from typing import Iterable

import numpy as np


class FormatError(ValueError):
    """A file does not conform to its declared byte-level format."""


RMCK_MAGIC = b"RMCK"
RMCK_VERSION = 1
_DTYPE_F32 = 0  # the only payload dtype the format defines


def atomic_write_bytes(path: str, parts: Iterable) -> None:
    """Write the bytes-like parts (C-contiguous arrays are written from
    their buffers) in order to path, via temp-file-then-rename in the same
    directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _take(buf: bytes, offset: int, n: int, what: str) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise FormatError(f"truncated file: expected {n} bytes for {what} "
                          f"at offset {offset}, have {len(buf) - offset}")
    return buf[offset:offset + n], offset + n


# ---------------------------------------------------------------------------
# RMCK: magic, u32 version, u32 tensor_count, then per tensor
#   u32 name_len, UTF-8 name, u8 dtype (0 = f32), u8 rank, rank x u64 dims,
#   payload little-endian f32 row-major;
# then a trailing UTF-8 JSON config blob length-prefixed by u64.


def write_rmck(path: str, tensors: dict[str, np.ndarray], config: dict) -> None:
    parts = [RMCK_MAGIC, struct.pack("<II", RMCK_VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.require(arr, "<f4", "C")    # ascontiguousarray would make a 0-d array 1-D
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<BB", _DTYPE_F32, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr)                     # written from its buffer, not copied
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<Q", len(blob)))
    parts.append(blob)
    atomic_write_bytes(path, parts)


def read_rmck(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Returns ({name: float32 array}, config dict)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != RMCK_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {RMCK_MAGIC!r}")
    head, off = _take(buf, off, 8, "header")
    version, count = struct.unpack("<II", head)
    if version != RMCK_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        raw, off = _take(buf, off, 4, f"tensor {i} name length")
        (name_len,) = struct.unpack("<I", raw)
        raw, off = _take(buf, off, name_len, f"tensor {i} name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"tensor {i} name is not valid UTF-8: {err}") from err
        raw, off = _take(buf, off, 2, f"{name}: dtype/rank")
        dtype_code, rank = struct.unpack("<BB", raw)
        if dtype_code != _DTYPE_F32:
            raise FormatError(f"{name}: unknown dtype code {dtype_code}")
        raw, off = _take(buf, off, 8 * rank, f"{name}: dims")
        dims = struct.unpack(f"<{rank}Q", raw)
        n_elem = 1
        for d in dims:
            n_elem *= d
        raw, off = _take(buf, off, 4 * n_elem, f"{name}: payload")
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        try:
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        except ValueError as err:       # a zero dim beside one numpy cannot size
            raise FormatError(f"{name}: dims {dims} are too large: {err}") from err
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{name}: non-finite values in payload")
        tensors[name] = arr
    raw, off = _take(buf, off, 8, "config blob length")
    (blob_len,) = struct.unpack("<Q", raw)
    raw, off = _take(buf, off, blob_len, "config blob")
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after config blob")
    try:
        config = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"config blob is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise FormatError(f"config blob is a JSON {type(config).__name__}, "
                          f"not an object")
    return tensors, config
