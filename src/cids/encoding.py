"""Canonical byte encoding: the layout rules every hashed or stored record follows.

Each fixed-layout record is declared once, as a `struct.Struct` beside the
type it encodes, big-endian throughout:
  * unsigned integers: `>Q`, 8 bytes
  * reals: `>d`, IEEE-754 binary64
  * enum values and flag sets: `B`, 1 byte holding the member's value
  * digests: `32s`, the raw 32 bytes
  * lists: a `>Q` element count, then the elements in order; a list of reals
    is one `>f8` array

`struct` pads a short digest and raises `struct.error` on an out-of-range
integer, so the type holding a value checks its range before it is packed.
"""

import hashlib
import struct

from .errors import MalformedBytes

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


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

    def peek(self) -> int:
        """The next byte, left unread."""
        if self.pos >= len(self.data):
            raise MalformedBytes(f"truncated input: need 1 byte at offset {self.pos}")
        return self.data[self.pos]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def expect_done(self) -> None:
        if self.pos != len(self.data):
            raise MalformedBytes(f"{len(self.data) - self.pos} trailing bytes")
