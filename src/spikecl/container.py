"""Versioned binary container shared by checkpoints, mask dumps and chip images.

Layout (all integers little-endian):

    offset  size  field
    0       8     magic  b"SPKBUN01"
    8       4     u32    metadata byte length M
    12      M     utf-8  canonical JSON metadata (sorted keys, no spaces)
    12+M    4     u32    array count A
    ...           A records, each:
                    u16   name byte length, then name utf-8
                    u8    dtype code (0 = float64, 1 = int64)
                    u32   rows
                    u32   cols
                    raw   rows*cols elements, row-major, little-endian
    end-4   4     u32    CRC32 of every preceding byte (incl. magic)

Canonical JSON plus fixed field order make serialization a pure function of
the content, so parse/serialize round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .errors import FormatError, TransportError

MAGIC = b"SPKBUN01"

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


def serialize_bundle(metadata: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Encode metadata and named 2-D arrays into one checksummed byte string."""
    buf = bytearray(MAGIC)
    meta = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf += struct.pack("<I", len(meta))
    buf += meta
    buf += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        if a.ndim != 2:
            raise FormatError(f"array {name!r} must be 2-D, got ndim={a.ndim}")
        code = _DTYPE_CODES.get(a.dtype)
        if code is None:
            raise FormatError(f"array {name!r} has unsupported dtype {a.dtype}")
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb))
        buf += nb
        buf += struct.pack("<BII", code, a.shape[0], a.shape[1])
        buf += a.astype(_DTYPES[code], copy=False).tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


def parse_bundle(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a bundle, verifying magic and checksum.

    Raises TransportError on checksum mismatch (corrupted transfer) and
    FormatError on any structural problem.
    """
    if len(data) < len(MAGIC) + 12:
        raise FormatError("bundle truncated")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError("bad bundle magic")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise TransportError("bundle checksum mismatch")
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data) - 4:
            raise FormatError("bundle truncated")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    (meta_len,) = struct.unpack("<I", take(4))
    try:
        metadata = json.loads(take(meta_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise FormatError(f"bad bundle metadata: {exc}") from exc
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"bad array name: {exc}") from exc
        code, rows, cols = struct.unpack("<BII", take(9))
        if code not in _DTYPES:
            raise FormatError(f"unknown dtype code {code}")
        dt = _DTYPES[code]
        raw = take(rows * cols * dt.itemsize)
        arrays[name] = np.frombuffer(raw, dtype=dt).reshape(rows, cols).copy()
    if pos != len(data) - 4:
        raise FormatError("trailing bytes in bundle")
    return metadata, arrays


def write_bundle(path, metadata: dict, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(serialize_bundle(metadata, arrays))


def read_bundle(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        return parse_bundle(f.read())
