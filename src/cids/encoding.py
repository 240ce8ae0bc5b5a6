"""Canonical byte encoding primitives used everywhere a digest is taken.

Layout rules, applied uniformly across the package:
  * unsigned integers: 8 bytes, big-endian
  * reals: IEEE-754 binary64, big-endian
  * enum values: 1-byte tag in declaration order
  * digests: raw 32 bytes
  * lists: 8-byte big-endian element count, then elements in order
"""

import hashlib
import struct

from .errors import MalformedBytes

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def encode_u64(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"u64 cannot encode negative value {value}")
    return struct.pack(">Q", value)


def encode_f64(value: float) -> bytes:
    return struct.pack(">d", value)


def encode_digest(digest: bytes) -> bytes:
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
    return digest


class Reader:
    """Sequential decoder over a byte buffer; raises on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedBytes(f"truncated input: need {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def digest(self) -> bytes:
        return self.take(DIGEST_LEN)

    def tag(self) -> int:
        return self.take(1)[0]

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_done(self) -> None:
        if not self.done():
            raise MalformedBytes(f"{len(self.data) - self.pos} trailing bytes")
