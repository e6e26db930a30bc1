import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.container import MAGIC, parse_bundle, read_bundle, serialize_bundle, write_bundle
from spikecl.errors import FormatError, SpikeclError, TransportError


def test_round_trip_bit_exact():
    meta = {"kind": "test", "layers": [2, 3], "scale": 0.1234567890123}
    arrays = {
        "w0": np.array([[1.5, -2.25], [0.0, 3.75]]),
        "q0": np.array([[1, -7], [127, 0]], dtype=np.int64),
    }
    blob = serialize_bundle(meta, arrays)
    meta2, arrays2 = parse_bundle(blob)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert arrays2[k].dtype == arrays[k].dtype
        assert np.array_equal(arrays2[k], arrays[k])
    assert serialize_bundle(meta2, arrays2) == blob


def test_checksum_corruption():
    blob = bytearray(serialize_bundle({"a": 1}, {"m": np.zeros((1, 1))}))
    blob[20] ^= 0xFF
    with pytest.raises(TransportError):
        parse_bundle(bytes(blob))


def test_bad_magic():
    blob = b"NOTMAGIC" + b"\x00" * 32
    with pytest.raises(FormatError):
        parse_bundle(blob)


def test_truncated():
    blob = serialize_bundle({}, {})
    with pytest.raises(FormatError):
        parse_bundle(blob[:6])


def test_file_round_trip(tmp_path):
    path = tmp_path / "bundle.bin"
    write_bundle(path, {"v": 2}, {"x": np.arange(6, dtype=np.float64).reshape(2, 3)})
    meta, arrays = read_bundle(path)
    assert meta == {"v": 2}
    assert np.array_equal(arrays["x"], np.arange(6).reshape(2, 3))


def test_rejects_non_2d():
    with pytest.raises(FormatError):
        serialize_bundle({}, {"bad": np.zeros(3)})


@st.composite
def bundle_bytes(draw):
    """Bundle-shaped byte strings with a valid checksum, so that parsing
    reaches the structure: random or JSON metadata, an array count that may
    not match the records, names that may not be UTF-8, known and unknown
    dtype codes, and payloads that fit their shape or do not."""
    meta = draw(st.binary(max_size=30) | st.just(b'{"kind":"x"}'))
    body = MAGIC + struct.pack("<I", len(meta)) + meta + struct.pack("<I", draw(st.integers(0, 4)))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.binary(max_size=6))
        code, rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
        fitting = st.binary(min_size=rows * cols * 8, max_size=rows * cols * 8)
        payload = draw(fitting | st.binary(max_size=80))
        body += struct.pack("<H", len(name)) + name + struct.pack("<BII", code, rows, cols) + payload
    body = body[: draw(st.integers(0, len(body)))] if draw(st.booleans()) else body
    return body + struct.pack("<I", zlib.crc32(body))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80) | bundle_bytes())
def test_parse_bundle_parses_or_raises_spikecl_errors(blob):
    try:
        _, arrays = parse_bundle(blob)
    except SpikeclError:
        return
    assert all(a.ndim == 2 and a.dtype in (np.float64, np.int64) for a in arrays.values())
