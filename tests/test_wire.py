import io
import tracemalloc

import numpy as np
import pytest

from cvqkd import wire
from cvqkd.rng import stream


def test_frame_roundtrip():
    for msg_type in (wire.MsgType.HELLO, wire.MsgType.BYE):
        for payload in (b"", b"x", bytes(range(256)) * 10):
            frame = wire.encode_frame(msg_type, payload)
            got_type, got_payload = wire.decode_frame(frame)
            assert got_type == msg_type
            assert got_payload == payload


def test_frame_stream_roundtrip():
    buf = io.BytesIO()
    buf.write(wire.encode_frame(wire.MsgType.HELLO, b"abc"))
    buf.write(wire.encode_frame(wire.MsgType.SYMBOLS, b"\x00" * 100))
    buf.seek(0)
    t1, p1 = wire.read_frame(buf)
    t2, p2 = wire.read_frame(buf)
    assert (t1, p1) == (wire.MsgType.HELLO, b"abc")
    assert (t2, p2) == (wire.MsgType.SYMBOLS, b"\x00" * 100)


def test_bad_magic_rejected():
    frame = bytearray(wire.encode_frame(wire.MsgType.HELLO, b""))
    frame[0] ^= 0xFF
    with pytest.raises(wire.BadMagicError):
        wire.decode_frame(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(wire.encode_frame(wire.MsgType.HELLO, b""))
    frame[4] = 0xEE
    with pytest.raises(wire.BadVersionError):
        wire.decode_frame(bytes(frame))


def test_truncated_frame_rejected():
    frame = wire.encode_frame(wire.MsgType.HELLO, b"payload")
    with pytest.raises(wire.TruncatedFrameError):
        wire.decode_frame(frame[:-2])
    buf = io.BytesIO(frame[:-2])
    with pytest.raises(wire.TruncatedFrameError):
        wire.read_frame(buf)


def test_claimed_length_is_not_allocated_up_front():
    """A header may claim up to 2 GiB; memory follows the bytes that come."""
    frame = wire.HEADER.pack(wire.MAGIC, wire.VERSION, wire.MsgType.SYMBOLS,
                             64 << 20) + bytes(10)
    stream = io.BufferedReader(io.BytesIO(frame))
    tracemalloc.start()
    try:
        with pytest.raises(wire.TruncatedFrameError):
            wire.read_frame(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_unknown_message_type_rejected():
    frame = bytearray(wire.encode_frame(wire.MsgType.HELLO, b""))
    frame[5] = 0xFE
    with pytest.raises(wire.UnknownMessageTypeError):
        wire.decode_frame(bytes(frame))


def test_pack_floats_roundtrip():
    arr = stream(1, "test", "wire").normal(0.0, 3.0, 1000)
    buf = wire.pack_floats(arr)
    back, offset = wire.unpack_floats(buf)
    assert np.array_equal(back, arr)
    assert offset == len(buf)


def test_pack_indices_roundtrip():
    idx = np.array([0, 5, 17, 2**32], dtype=np.uint64)
    buf = wire.pack_indices(idx)
    back, offset = wire.unpack_indices(buf)
    assert np.array_equal(back, idx)
    assert offset == len(buf)


def test_pack_bits_roundtrip():
    for n in (0, 1, 7, 8, 9, 1001):
        bits = stream(2, "test", "wire-bits", str(n)).integers(
            0, 2, n, dtype=np.uint8
        )
        buf = wire.pack_bits(bits)
        back, offset = wire.unpack_bits(buf)
        assert np.array_equal(back, bits)
        assert offset == len(buf)


def test_auth_tag_is_reserved_zeros():
    assert wire.AUTH_TAG == bytes(16)
