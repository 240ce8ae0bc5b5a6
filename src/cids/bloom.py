"""Bloom filters for compact intrusion-signature exchange.

Double hashing: one SHA-256 of the item yields two 64-bit lanes (h1, h2),
and bit index i is (h1 + i*h2) mod m. h2 is forced odd so the stride never
degenerates. No false negatives; the false-positive rate for n inserted
items is the standard (1 - e^(-kn/m))^k.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .encoding import Reader, sha256
from .errors import MalformedBytes, ShapeMismatch

MAX_K = 16
_HEADER = struct.Struct(">QQQ")  # m_bits, k_hashes, n_inserted; the bit array follows
HEADER_LEN = _HEADER.size
_LANES = struct.Struct(">QQ")  # h1, h2: the first 16 bytes of the item's digest


def positions(m_bits: int, k_hashes: int, item: bytes) -> list[int]:
    """Bit indices probed for `item` in an (m, k) filter."""
    if m_bits < 8:
        raise ValueError("m_bits must be >= 8")
    if not 1 <= k_hashes <= MAX_K:
        raise ValueError(f"k_hashes must be in [1, {MAX_K}]")
    h1, h2 = _LANES.unpack_from(sha256(item))
    h2 |= 1
    return [(h1 + i * h2) % m_bits for i in range(k_hashes)]


def analytic_fpr(m_bits: int, k_hashes: int, n_items: int) -> float:
    """Closed-form false-positive probability after n inserts."""
    if m_bits < 1 or k_hashes < 1 or n_items < 0:
        raise ValueError("m_bits >= 1, k_hashes >= 1, n_items >= 0 required")
    if n_items == 0:
        return 0.0
    return (1.0 - math.exp(-k_hashes * n_items / m_bits)) ** k_hashes


def optimal_k(m_bits: int, n_items: int) -> int:
    """k minimizing the FPR for m bits and n items, clamped to [1, 16]."""
    if m_bits < 1 or n_items < 1:
        raise ValueError("m_bits >= 1 and n_items >= 1 required")
    k = round((m_bits / n_items) * math.log(2))
    return max(1, min(MAX_K, k))


@dataclass
class BloomFilter:
    m_bits: int
    k_hashes: int
    bits: bytearray = field(default_factory=bytearray)
    n_inserted: int = 0

    def __post_init__(self):
        if self.m_bits < 8:
            raise ValueError("m_bits must be >= 8")
        if not 1 <= self.k_hashes <= MAX_K:
            raise ValueError(f"k_hashes must be in [1, {MAX_K}]")
        nbytes = (self.m_bits + 7) // 8
        if not self.bits:
            self.bits = bytearray(nbytes)
        elif len(self.bits) != nbytes:
            raise ValueError("bit array length does not match m_bits")
        if self.n_inserted < 0:
            raise ValueError("n_inserted must be >= 0")

    def insert(self, item: bytes) -> None:
        for idx in positions(self.m_bits, self.k_hashes, item):
            self.bits[idx >> 3] |= 1 << (idx & 7)
        self.n_inserted += 1

    def query(self, item: bytes) -> bool:
        return all(
            self.bits[idx >> 3] & (1 << (idx & 7))
            for idx in positions(self.m_bits, self.k_hashes, item)
        )

    def merge(self, other: BloomFilter) -> BloomFilter:
        """Bitwise OR; n_inserted sums as an upper bound on distinct items."""
        if self.m_bits != other.m_bits or self.k_hashes != other.k_hashes:
            raise ShapeMismatch(
                f"cannot merge ({self.m_bits},{self.k_hashes}) "
                f"with ({other.m_bits},{other.k_hashes})"
            )
        merged = int.from_bytes(self.bits, "little") | int.from_bytes(other.bits, "little")
        return BloomFilter(self.m_bits, self.k_hashes,
                           bytearray(merged.to_bytes(len(self.bits), "little")),
                           self.n_inserted + other.n_inserted)

    def popcount(self) -> int:
        return int.from_bytes(self.bits, "little").bit_count()

    def serialize(self) -> bytes:
        return _HEADER.pack(self.m_bits, self.k_hashes, self.n_inserted) + self.bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.m_bits == other.m_bits
            and self.k_hashes == other.k_hashes
            and self.n_inserted == other.n_inserted
            and self.bits == other.bits
        )


class ProbeSet:
    """A growing list of keys with their bit positions, hashed once per filter shape.

    `hits(f)` equals `sum(f.query(key) for key in keys)`, counted with one numpy
    gather over `f.bits` instead of a hash and a probe loop per key.
    """

    def __init__(self, keys: Iterable[bytes] = ()):
        self.keys: list[bytes] = list(keys)
        self._positions: dict[tuple[int, int], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def extend(self, keys: Iterable[bytes]) -> None:
        self.keys.extend(keys)

    def positions(self, m_bits: int, k_hashes: int) -> np.ndarray:
        """(len(keys), k_hashes) bit indices; only keys added since the last call are hashed."""
        shape = (m_bits, k_hashes)
        cached = self._positions.get(shape, np.empty((0, k_hashes), dtype=np.int64))
        if len(cached) < len(self.keys):
            fresh = np.array([positions(m_bits, k_hashes, key) for key in self.keys[len(cached):]],
                             dtype=np.int64)
            cached = self._positions[shape] = np.concatenate([cached, fresh])
        return cached

    def hits(self, f: BloomFilter) -> int:
        """How many keys `f` reports as present."""
        bits = np.unpackbits(np.frombuffer(f.bits, dtype=np.uint8), bitorder="little")
        return int(bits[self.positions(f.m_bits, f.k_hashes)].all(axis=1).sum())


def deserialize(data: bytes) -> BloomFilter:
    r = Reader(data)
    m_bits, k_hashes, n_inserted = r.unpack(_HEADER)
    if m_bits < 8 or not 1 <= k_hashes <= MAX_K:
        raise MalformedBytes(f"invalid filter parameters m={m_bits} k={k_hashes}")
    payload = r.take((m_bits + 7) // 8)
    r.expect_done()
    f = BloomFilter(m_bits, k_hashes, bytearray(payload), n_inserted)
    if n_inserted == 0 and f.popcount() != 0:
        raise MalformedBytes("n_inserted is 0 but bits are set")
    return f


def serialized_size(m_bits: int) -> int:
    """Wire size of a filter with m_bits, independent of contents."""
    return HEADER_LEN + (m_bits + 7) // 8
