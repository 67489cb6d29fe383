"""Byte-level file formats: RMIM images, RMCK checkpoints, JSONL manifests.

Both binary formats are little-endian and fully specified here so that a
fixed seed reproduces files byte-for-byte.  Writes go through a same-directory
temp file plus os.replace, so readers never observe a half-written file.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np


class FormatError(ValueError):
    """A file does not conform to its declared byte-level format."""


RMIM_MAGIC = b"RMIM"
RMIM_VERSION = 1
RMCK_MAGIC = b"RMCK"
RMCK_VERSION = 1
_DTYPE_F32 = 0  # the only payload dtype either format defines


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path via temp-file-then-rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
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
# RMIM: magic, u32 version, u32 W, u32 H, u8 channels (3 = RGB, 4 = RGB+depth),
# then W*H*channels little-endian f32, row-major, channel-last.


def write_rmim(path: str, rgb: np.ndarray, depth: np.ndarray | None = None) -> None:
    rgb = np.asarray(rgb, dtype=np.float32)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FormatError(f"rgb must be [H, W, 3], got {rgb.shape}")
    if not np.all(np.isfinite(rgb)) or rgb.min() < 0.0 or rgb.max() > 1.0:
        raise FormatError("rgb values must be finite and in [0, 1]")
    h, w = rgb.shape[:2]
    if depth is None:
        channels = 3
        pixels = rgb
    else:
        depth = np.asarray(depth, dtype=np.float32)
        if depth.shape != (h, w):
            raise FormatError(f"depth shape {depth.shape} does not match rgb {(h, w)}")
        if not np.all(np.isfinite(depth)) or depth.min() < 0.0:
            raise FormatError("depth values must be finite and >= 0")
        channels = 4
        pixels = np.concatenate([rgb, depth[:, :, None]], axis=2)
    header = RMIM_MAGIC + struct.pack("<IIIB", RMIM_VERSION, w, h, channels)
    body = np.ascontiguousarray(pixels, dtype="<f4").tobytes()
    atomic_write_bytes(path, header + body)


def read_rmim(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns (rgb [H, W, 3] float32, depth [H, W] float32 or None)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != RMIM_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {RMIM_MAGIC!r}")
    head, off = _take(buf, off, 13, "header")
    version, w, h, channels = struct.unpack("<IIIB", head)
    if version != RMIM_VERSION:
        raise FormatError(f"unsupported image format version {version}")
    if channels not in (3, 4):
        raise FormatError(f"channels must be 3 or 4, got {channels}")
    body, off = _take(buf, off, w * h * channels * 4, "pixel payload")
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after pixel payload")
    pixels = np.frombuffer(body, dtype="<f4").reshape(h, w, channels).copy()
    if not np.all(np.isfinite(pixels)):
        raise FormatError("non-finite pixel values")
    rgb = pixels[:, :, :3]
    depth = pixels[:, :, 3] if channels == 4 else None
    return rgb, depth


# ---------------------------------------------------------------------------
# RMCK: magic, u32 version, u32 tensor_count, then per tensor
#   u32 name_len, UTF-8 name, u8 dtype (0 = f32), u8 rank, rank x u64 dims,
#   payload little-endian f32 row-major;
# then a trailing UTF-8 JSON config blob length-prefixed by u64.


def write_rmck(path: str, tensors: dict[str, np.ndarray], config: dict) -> None:
    parts = [RMCK_MAGIC, struct.pack("<II", RMCK_VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<BB", _DTYPE_F32, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<Q", len(blob)))
    parts.append(blob)
    atomic_write_bytes(path, b"".join(parts))


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
        name = raw.decode("utf-8")
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
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
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


# ---------------------------------------------------------------------------
# JSONL manifests


def write_jsonl(path: str, records: list[dict]) -> None:
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_jsonl(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise FormatError(f"{path}:{lineno}: bad JSON line: {err}") from err
    return records
