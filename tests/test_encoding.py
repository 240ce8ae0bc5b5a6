"""Every binary record the package hashes or stores, pinned byte for byte.

Signature keys are hashed into bloom filters; filter, model and evidence blobs
are stored by their SHA-256, and those digests go on-chain. So each layout is
a consensus format: these hex strings must never change. The decoders of the
blobs that peers supply raise `MalformedBytes` on any other input.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cids import bloom
from cids.bloom import BloomFilter, deserialize
from cids.content_store import ContentStore
from cids.detection import (
    EventRecord,
    Flags,
    LabeledDataset,
    LinearModel,
    dataset_serialize,
    model_deserialize,
    model_serialize,
    signature_key,
    signature_key_from,
)
from cids.errors import MalformedBytes
from cids.node import NodeState


def f64s(*hex_values: str) -> str:
    """Hex of consecutive big-endian binary64 values, each given as 16 hex digits."""
    assert all(len(h) == 16 for h in hex_values)
    return "".join(hex_values)


# --- golden encodings ---------------------------------------------------------

def test_golden_signature_keys():
    # port u64, payload digest, flags byte
    low = signature_key(EventRecord(5, 1, 2, 0, b"\x5a" * 32, 60, Flags.SYN | Flags.ACK, 1))
    assert low.hex() == "0000000000000000" + "5a" * 32 + "03"
    high = signature_key_from(65535, bytes(range(32)), Flags.ARP_REPLY)
    assert high.hex() == "000000000000ffff" + bytes(range(32)).hex() + "04"


def golden_model() -> LinearModel:
    return LinearModel([0.5, -0.0, 1.0, -2.0, 0.25, 3.0, -1.5, 0.0], -0.75,
                       [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                       [1.0, 0.5, 2.0, 0.125, 4.0, 1.0, 8.0, 0.0625], b"\xcd" * 32)


GOLDEN_MODEL_HEX = (
    # weights
    f64s("3fe0000000000000", "8000000000000000", "3ff0000000000000", "c000000000000000",
         "3fd0000000000000", "4008000000000000", "bff8000000000000", "0000000000000000")
    # bias
    + f64s("bfe8000000000000")
    # feature means
    + f64s("0000000000000000", "3ff0000000000000", "4000000000000000", "4008000000000000",
           "4010000000000000", "4014000000000000", "4018000000000000", "401c000000000000")
    # feature scales
    + f64s("3ff0000000000000", "3fe0000000000000", "4000000000000000", "3fc0000000000000",
           "4010000000000000", "3ff0000000000000", "4020000000000000", "3fb0000000000000")
    # training digest
    + "cd" * 32
)


def test_golden_model_blob():
    blob = model_serialize(golden_model())
    assert blob.hex() == GOLDEN_MODEL_HEX
    decoded = model_deserialize(blob)
    assert math.copysign(1.0, decoded.weights[1]) == -1.0  # -0.0 survives the round trip
    assert model_serialize(decoded) == blob


def test_golden_filter_blob():
    f = BloomFilter(64, 3)
    f.insert(b"alpha")
    f.insert(b"beta")
    blob = f.serialize()
    # m_bits, k_hashes, n_inserted as u64, then the bit array
    assert blob.hex() == ("0000000000000040" "0000000000000003" "0000000000000002"
                          "0808004000024001")
    assert deserialize(blob) == f


def test_golden_dataset_bytes():
    X = np.arange(40, dtype=float).reshape(5, 8) / 4 - 2
    X[0, 0] = -0.0
    data = LabeledDataset(X, [1, -1, -1, 1, -1])
    # row count u64, then each row's 8 features and its label as binary64
    assert dataset_serialize(data).hex() == "0000000000000005" + (
        f64s("8000000000000000", "bffc000000000000", "bff8000000000000", "bff4000000000000",
             "bff0000000000000", "bfe8000000000000", "bfe0000000000000", "bfd0000000000000",
             "3ff0000000000000")
        + f64s("0000000000000000", "3fd0000000000000", "3fe0000000000000", "3fe8000000000000",
               "3ff0000000000000", "3ff4000000000000", "3ff8000000000000", "3ffc000000000000",
               "bff0000000000000")
        + f64s("4000000000000000", "4002000000000000", "4004000000000000", "4006000000000000",
               "4008000000000000", "400a000000000000", "400c000000000000", "400e000000000000",
               "bff0000000000000")
        + f64s("4010000000000000", "4011000000000000", "4012000000000000", "4013000000000000",
               "4014000000000000", "4015000000000000", "4016000000000000", "4017000000000000",
               "3ff0000000000000")
        + f64s("4018000000000000", "4019000000000000", "401a000000000000", "401b000000000000",
               "401c000000000000", "401d000000000000", "401e000000000000", "401f000000000000",
               "bff0000000000000")
    )


def test_golden_bloom_positions():
    assert bloom.positions(10000, 7, b"abc") == [74, 9021, 7968, 6915, 5862, 4809, 3756]


def test_golden_alarm_evidence():
    node = NodeState(3, filter_m_bits=64, filter_k_hashes=3)
    # zero weights and a positive bias: every window scores as an attack
    node.model = LinearModel(np.zeros(8), 1.0, np.zeros(8), np.ones(8), b"\x00" * 32)
    node.window = [
        EventRecord(t, 1 + t % 2, 0, 80 + t % 3, bytes([t % 2]) * 32, 40 + 10 * t,
                    Flags.SYN if t % 2 else Flags.ACK, 1)
        for t in (0, 1, 3, 6)
    ]
    store = ContentStore()
    _features, alarms = node.close_window(4, 8, store)
    (alarm,) = alarms
    # the window's 8 features as binary64: 1, 65, 2, 0.5, 0.5, 2, 1, 2/3
    assert store.get(alarm.payload.evidence_digest).hex() == f64s(
        "3ff0000000000000", "4050400000000000", "4000000000000000", "3fe0000000000000",
        "3fe0000000000000", "4000000000000000", "3ff0000000000000", "3fe5555555555555")


# --- hostile blobs ------------------------------------------------------------

U64_MAX = 2**64 - 1
_HEADER = struct.Struct(">QQQ")
u64s = st.integers(0, U64_MAX)


def filter_blob(m_bits: int, k_hashes: int, n_inserted: int, body: bytes) -> bytes:
    return _HEADER.pack(m_bits, k_hashes, n_inserted) + body


@st.composite
def filter_blobs(draw):
    """Header-shaped blobs: edge and random parameters, a body of about the stated size."""
    m_bits = draw(st.sampled_from([0, 7, 8, 64, 1000, U64_MAX]) | u64s)
    k_hashes = draw(st.sampled_from([0, 1, 7, 16, 17]) | u64s)
    n_inserted = draw(st.sampled_from([0, 1]) | u64s)
    size = (m_bits + 7) // 8 if m_bits <= 4096 else draw(st.integers(0, 64))
    size = max(0, size + draw(st.sampled_from([-1, 0, 0, 1])))
    body = draw(st.sampled_from([bytes(size), b"\xff" * size])
                | st.binary(min_size=size, max_size=size))
    return filter_blob(m_bits, k_hashes, n_inserted, body)


@st.composite
def model_blobs(draw):
    """Model-shaped blobs: any binary64 values, a digest, sometimes a byte short or long."""
    values = draw(st.lists(st.floats() | st.sampled_from([math.inf, -math.inf, -0.0]),
                           min_size=25, max_size=25))
    blob = struct.pack(">25d", *values) + draw(st.binary(min_size=32, max_size=32))
    return draw(st.sampled_from([blob, blob[:-1], blob + b"\x00"]))


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=300) | filter_blobs())
def test_filter_decoder_raises_only_malformed_bytes(blob):
    try:
        f = deserialize(blob)
    except MalformedBytes:
        return
    assert f.serialize() == blob  # what decodes is exactly what encodes


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=300) | st.binary(min_size=232, max_size=232) | model_blobs())
def test_model_decoder_raises_only_malformed_bytes(blob):
    try:
        model = model_deserialize(blob)
    except MalformedBytes:
        return
    assert model_serialize(model) == blob


HOSTILE_FILTERS = {
    "m_bits-0": filter_blob(0, 3, 0, b""),
    "m_bits-7": filter_blob(7, 3, 0, b"\x00"),
    "m_bits-max": filter_blob(U64_MAX, 3, 0, bytes(8)),
    "k-0": filter_blob(64, 0, 0, bytes(8)),
    "k-17": filter_blob(64, 17, 0, bytes(8)),
    "body-short": filter_blob(64, 3, 0, bytes(7)),
    "body-long": filter_blob(64, 3, 0, bytes(9)),
    "header-short": filter_blob(64, 3, 0, b"")[:23],
    "empty-with-bits": filter_blob(64, 3, 0, b"\x01" + bytes(7)),
}


@pytest.mark.parametrize("blob", HOSTILE_FILTERS.values(), ids=HOSTILE_FILTERS.keys())
def test_hostile_filter_blob_is_malformed(blob):
    with pytest.raises(MalformedBytes):
        deserialize(blob)


def _with_value(index: int, value: float) -> bytes:
    blob = bytearray(bytes.fromhex(GOLDEN_MODEL_HEX))
    struct.pack_into(">d", blob, 8 * index, value)
    return bytes(blob)


HOSTILE_MODELS = {
    "weight-nan": _with_value(0, math.nan),
    "bias-inf": _with_value(8, math.inf),
    "mean-minus-inf": _with_value(9, -math.inf),
    "scale-zero": _with_value(17, 0.0),
    "scale-negative": _with_value(24, -1.0),
    "one-byte-short": bytes.fromhex(GOLDEN_MODEL_HEX)[:-1],
    "one-byte-long": bytes.fromhex(GOLDEN_MODEL_HEX) + b"\x00",
}


@pytest.mark.parametrize("blob", HOSTILE_MODELS.values(), ids=HOSTILE_MODELS.keys())
def test_hostile_model_blob_is_malformed(blob):
    with pytest.raises(MalformedBytes):
        model_deserialize(blob)
