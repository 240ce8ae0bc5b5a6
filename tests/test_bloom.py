import hashlib
import math
import random

import pytest

from cids.bloom import (
    BloomFilter,
    analytic_fpr,
    deserialize,
    optimal_k,
    positions,
    serialized_size,
)
from cids.errors import MalformedBytes, ShapeMismatch


def test_positions_deterministic():
    assert positions(4096, 5, b"item") == positions(4096, 5, b"item")


def test_positions_k1_is_h1_mod_m():
    digest = hashlib.sha256(b"xyz").digest()
    h1 = int.from_bytes(digest[:8], "big")
    assert positions(1024, 1, b"xyz") == [h1 % 1024]


def test_positions_abc_oracle():
    # Recomputed from the SHA-256("abc") digest:
    # h1 = first 8 bytes BE, h2 = (next 8 bytes BE) | 1, idx_i = (h1 + i*h2) % 1024
    assert positions(1024, 3, b"abc") == [1002, 525, 48]
    digest = hashlib.sha256(b"abc").digest()
    h1 = int.from_bytes(digest[0:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    assert positions(1024, 3, b"abc") == [(h1 + i * h2) % 1024 for i in range(3)]


def test_insert_sets_at_most_k_bits():
    f = BloomFilter(1024, 7)
    f.insert(b"one")
    assert 0 < f.popcount() <= 7


def test_insert_idempotent_bits():
    f = BloomFilter(1024, 7)
    f.insert(b"dup")
    snapshot = bytes(f.bits)
    f.insert(b"dup")
    assert bytes(f.bits) == snapshot
    assert f.n_inserted == 2


def test_no_false_negatives():
    rng = random.Random(7)
    f = BloomFilter(4096, 5)
    items = [rng.randbytes(24) for _ in range(100)]
    for item in items:
        f.insert(item)
    assert all(f.query(item) for item in items)


def test_query_empty_filter_false():
    f = BloomFilter(256, 3)
    assert not f.query(b"anything")


def test_popcount_invariant():
    rng = random.Random(11)
    f = BloomFilter(512, 4)
    for i in range(50):
        f.insert(rng.randbytes(8))
        assert f.popcount() <= min(f.m_bits, f.k_hashes * f.n_inserted)


def test_merge_identity_and_commutes():
    rng = random.Random(3)
    a = BloomFilter(512, 4)
    b = BloomFilter(512, 4)
    for _ in range(30):
        a.insert(rng.randbytes(8))
    for _ in range(10):
        b.insert(rng.randbytes(8))
    empty = BloomFilter(512, 4)
    assert a.merge(empty).bits == a.bits
    assert a.merge(b).bits == b.merge(a).bits


def test_merge_associative_and_superset():
    rng = random.Random(4)
    filters = []
    corpora = []
    for _ in range(3):
        f = BloomFilter(1024, 5)
        items = [rng.randbytes(12) for _ in range(20)]
        for item in items:
            f.insert(item)
        filters.append(f)
        corpora.append(items)
    a, b, c = filters
    assert a.merge(b).merge(c).bits == a.merge(b.merge(c)).bits
    merged = a.merge(b)
    for item in corpora[0] + corpora[1]:
        assert merged.query(item)


@pytest.mark.parametrize("m_bits", [8, 13, 1000, 10001])
def test_merge_and_popcount_match_byte_loops(m_bits):
    rng = random.Random(m_bits)
    for _ in range(20):
        nbytes = (m_bits + 7) // 8
        a = BloomFilter(m_bits, 3, bytearray(rng.randbytes(nbytes)), 1)
        b = BloomFilter(m_bits, 3, bytearray(rng.randbytes(nbytes)), 2)
        merged = a.merge(b)
        assert merged.bits == bytearray(x | y for x, y in zip(a.bits, b.bits))
        assert merged.n_inserted == 3
        assert merged.popcount() == sum(bin(x).count("1") for x in merged.bits)
    assert BloomFilter(m_bits, 3).popcount() == 0


def test_merge_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        BloomFilter(512, 4).merge(BloomFilter(1024, 4))
    with pytest.raises(ShapeMismatch):
        BloomFilter(512, 4).merge(BloomFilter(512, 5))


def test_analytic_fpr_empty():
    assert analytic_fpr(10000, 7, 0) == 0.0


def test_analytic_fpr_standard_point():
    # (1 - e^(-7*1000/10000))^7 = 0.0081937...
    assert analytic_fpr(10000, 7, 1000) == pytest.approx(0.00819, abs=1e-4)


def test_analytic_fpr_k1_small_load_limit():
    # first-order: (1 - e^(-n/m)) -> n/m for n << m
    assert analytic_fpr(10**6, 1, 10) == pytest.approx(10 / 10**6, abs=1e-9)


def test_optimal_k():
    assert optimal_k(10000, 1000) == 7
    assert optimal_k(1000, 1000) == 1
    assert optimal_k(1000000, 1) == 16


def test_empirical_fpr_tracks_analytic():
    rng = random.Random(1337)
    f = BloomFilter(10000, 7)
    for _ in range(1000):
        f.insert(rng.randbytes(16))
    queries = 20000
    hits = sum(f.query(rng.randbytes(17)) for _ in range(queries))
    expected = analytic_fpr(10000, 7, 1000)
    assert hits / queries == pytest.approx(expected, rel=0.30)


def test_serialize_empty_size():
    f = BloomFilter(64, 3)
    blob = f.serialize()
    assert len(blob) == 32  # 24-byte header + 8 bytes of bits
    assert serialized_size(64) == 32


def test_serialize_round_trip():
    rng = random.Random(9)
    f = BloomFilter(1000, 6)
    for _ in range(80):
        f.insert(rng.randbytes(10))
    assert deserialize(f.serialize()) == f


def test_deserialize_truncated():
    f = BloomFilter(256, 3)
    blob = f.serialize()
    with pytest.raises(MalformedBytes):
        deserialize(blob[:-1])
    with pytest.raises(MalformedBytes):
        deserialize(blob + b"\x00")


def test_deserialize_rejects_bad_params():
    f = BloomFilter(256, 3)
    blob = bytearray(f.serialize())
    blob[15] = 99  # k_hashes: 99 > 16
    with pytest.raises(MalformedBytes):
        deserialize(bytes(blob))


def test_compression_vs_raw_signatures():
    # 1000 items at m = 10n: 1274 bytes on the wire vs 64 kB of raw 64-byte keys
    assert serialized_size(10000) == 1274
    assert 1000 * 64 / serialized_size(10000) >= 50


def test_fpr_optimum_sanity():
    m, n = 10000, 1000
    best = analytic_fpr(m, optimal_k(m, n), n)
    for k in (1, 3, 12, 16):
        assert best <= analytic_fpr(m, k, n) + 1e-12


def test_positions_rejects_bad_params():
    with pytest.raises(ValueError):
        positions(4, 3, b"x")
    with pytest.raises(ValueError):
        positions(1024, 17, b"x")
    with pytest.raises(ValueError):
        optimal_k(0, 10)
    with pytest.raises(ValueError):
        analytic_fpr(10, 0, 5)


def test_fpr_formula_shape():
    # more bits -> lower fpr, more items -> higher fpr
    assert analytic_fpr(20000, 7, 1000) < analytic_fpr(10000, 7, 1000)
    assert analytic_fpr(10000, 7, 2000) > analytic_fpr(10000, 7, 1000)
    assert math.isclose(analytic_fpr(10000, 7, 1000), 0.008193722065862417)
