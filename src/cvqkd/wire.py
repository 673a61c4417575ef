"""Length-prefixed framing for the authenticated classical channel.

Frame layout: 4-byte magic "CVQK", 1-byte version, 1-byte message type,
4-byte little-endian payload length, payload.  Session payloads start with
a reserved 16-byte authentication tag of zeros (authentication is modeled,
not implemented).  Unknown message types are a protocol error, never a
silent skip.
"""

import struct
from enum import IntEnum

import numpy as np

from .errors import ProtocolError

MAGIC = b"CVQK"
VERSION = 1
HEADER = struct.Struct("<4sBBI")
MAX_PAYLOAD = 1 << 31
AUTH_TAG = bytes(16)


class MsgType(IntEnum):
    HELLO = 1
    HELLO_ACK = 2
    SYMBOLS = 3
    ANNOUNCE_MAGNITUDES = 5
    REVEAL_SUBSET = 6
    KEEP_MASK = 7
    AD_MASKS = 8
    AD_ACCEPT = 9
    CASCADE_REQ = 10
    CASCADE_RESP = 11
    PA_SEED = 12
    KEY_CONFIRM = 13
    BYE = 14
    ABORT = 15


class BadMagicError(ProtocolError):
    pass


class BadVersionError(ProtocolError):
    pass


class TruncatedFrameError(ProtocolError):
    pass


class UnknownMessageTypeError(ProtocolError):
    pass


def encode_frame(msg_type, payload=b""):
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes too large")
    return HEADER.pack(MAGIC, VERSION, int(msg_type), len(payload)) + payload


def decode_frame(data):
    """Decode one frame from a byte string; returns (msg_type, payload)."""
    if len(data) < HEADER.size:
        raise TruncatedFrameError(f"{len(data)} bytes < header size")
    magic, version, mtype, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if len(data) < HEADER.size + length:
        raise TruncatedFrameError("payload truncated")
    try:
        mtype = MsgType(mtype)
    except ValueError:
        raise UnknownMessageTypeError(f"unknown message type {mtype}")
    return mtype, data[HEADER.size: HEADER.size + length]


def read_frame(stream):
    """Read one frame from a blocking binary stream."""
    head = stream.read(HEADER.size)
    if len(head) < HEADER.size:
        raise TruncatedFrameError("stream closed mid-header")
    magic, version, mtype, length = HEADER.unpack(head)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise TruncatedFrameError("stream closed mid-payload")
        payload += chunk
    try:
        mtype = MsgType(mtype)
    except ValueError:
        raise UnknownMessageTypeError(f"unknown message type {mtype}")
    return mtype, payload


# payload building blocks (all little-endian); a decoder that would read
# past the end of its buffer raises TruncatedFrameError

def take(buf, offset, nbytes):
    """A view of ``nbytes`` bytes of ``buf`` from ``offset``."""
    if offset + nbytes > len(buf):
        raise TruncatedFrameError(
            f"payload of {len(buf)} bytes ends before byte {offset + nbytes}"
        )
    return memoryview(buf)[offset: offset + nbytes]


def unpack_from(fmt, buf, offset=0):
    return struct.unpack(fmt, take(buf, offset, struct.calcsize(fmt)))


def pack_floats(arr):
    arr = np.asarray(arr, dtype="<f8")
    return struct.pack("<Q", len(arr)) + arr.tobytes()


def unpack_floats(buf, offset=0, count=None):
    """A float array and the offset after it; an array of other than
    ``count`` values (when given) raises ``ProtocolError``."""
    (n,) = unpack_from("<Q", buf, offset)
    if count is not None and n != count:
        raise ProtocolError(f"array of {n} values, expected {count}")
    arr = np.frombuffer(take(buf, offset + 8, 8 * n), dtype="<f8").copy()
    return arr, offset + 8 + 8 * n


def pack_indices(arr):
    arr = np.asarray(arr, dtype="<u8")
    return struct.pack("<Q", len(arr)) + arr.tobytes()


def unpack_indices(buf, offset=0):
    (n,) = unpack_from("<Q", buf, offset)
    arr = np.frombuffer(take(buf, offset + 8, 8 * n), dtype="<u8")
    return arr.astype(np.int64), offset + 8 + 8 * n


def pack_bits(bits):
    """Bit strings travel most-significant-bit-first with an exact length."""
    bits = np.asarray(bits, dtype=np.uint8)
    return struct.pack("<Q", len(bits)) + np.packbits(bits).tobytes()


def unpack_bits(buf, offset=0, count=None):
    """A bit array and the offset after it; an array of other than
    ``count`` bits (when given) raises ``ProtocolError``."""
    (n,) = unpack_from("<Q", buf, offset)
    if count is not None and n != count:
        raise ProtocolError(f"array of {n} bits, expected {count}")
    nbytes = (n + 7) // 8
    packed = np.frombuffer(take(buf, offset + 8, nbytes), dtype=np.uint8)
    return np.unpackbits(packed)[:n], offset + 8 + nbytes
