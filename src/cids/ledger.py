"""Proof-of-authority meta-data ledger.

A fixed consortium of authorities takes turns sealing blocks (round-robin
by height). Blocks carry only meta-data transactions: contribution digests,
alarms, trust updates. Payloads live in the content store; the chain gives
tamper evidence and a total order.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from enum import IntEnum
from operator import attrgetter, is_
from typing import NamedTuple, get_type_hints

from .encoding import DIGEST_LEN, ZERO_DIGEST, Reader, sha256
from .errors import MalformedBytes, NoAuthorities, WrongProposer


class TxKind(IntEnum):
    MODEL_CONTRIBUTION = 0
    SIGNATURE_CONTRIBUTION = 1
    ALARM = 2
    TRUST_UPDATE = 3


class ModelKind(IntEnum):
    SVM = 0


class AttackClass(IntEnum):
    DOS = 0
    SPOOF = 1
    RECON = 2
    REPLAY = 3
    ANOMALY = 4


class Outcome(IntEnum):
    POSITIVE = 0
    NEGATIVE = 1


class Reason(IntEnum):
    MODEL_ACCEPTED = 0
    MODEL_REJECTED = 1
    FILTER_ACCEPTED = 2
    FILTER_REJECTED = 3
    ALARM_CONFIRMED = 4
    ALARM_FALSE = 5


_U64_LIMIT = 1 << 64


def _check_digest(digest: bytes, name: str) -> None:
    if not isinstance(digest, bytes) or len(digest) != DIGEST_LEN:
        raise ValueError(f"{name} must be exactly {DIGEST_LEN} bytes")


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_count(value: int, name: str) -> None:
    if not 0 <= value < _U64_LIMIT:
        raise ValueError(f"{name} must be a u64 (0 <= value < 2**64), got {value}")


class _Payload:
    """Shared invariant of the payloads: each field checked by its schema type."""

    def __post_init__(self):
        for name, check in _PAYLOAD_CHECKS[type(self)]:
            check(getattr(self, name), name)


# A payload's fields, in declaration order, are its wire order. Field types:
# bytes is a digest, int a u64, float an f64 in [0, 1], an IntEnum a 1-byte tag.

@dataclass(frozen=True)
class ModelContribution(_Payload):
    model_digest: bytes
    model_kind: ModelKind
    holdout_claimed_accuracy: float


@dataclass(frozen=True)
class SignatureContribution(_Payload):
    filter_digest: bytes
    n_items: int
    m_bits: int
    k_hashes: int


@dataclass(frozen=True)
class Alarm(_Payload):
    attack_class: AttackClass
    evidence_digest: bytes
    sim_time: int


@dataclass(frozen=True)
class TrustUpdate(_Payload):
    subject: int
    outcome: Outcome
    reason: Reason


Payload = ModelContribution | SignatureContribution | Alarm | TrustUpdate


class _Spec(NamedTuple):
    """Everything the codecs need about one payload, derived from its class."""

    cls: type
    types: tuple[type, ...]  # field types in wire order
    wire: struct.Struct  # kind tag and sender u64, then the fields
    values: Callable  # payload -> its field values in wire order
    checks: tuple[tuple[str, Callable], ...]
    to_json: tuple[tuple[str, Callable | None], ...]  # None: the value as is
    from_json: tuple[tuple[str, Callable], ...]
    json_keys: frozenset[str]  # every key of the kind's JSONL record


_WIRE = {bytes: f"{DIGEST_LEN}s", int: "Q", float: "d"}  # an IntEnum is "B"
_CHECKS = {bytes: _check_digest, int: _check_count, float: _check_fraction}


def _digest_from_json(value) -> bytes:
    """A digest exactly as export writes it: lowercase hex, no spaces."""
    digest = bytes.fromhex(value)
    if digest.hex() != value:
        raise ValueError(f"digest {value!r} is not lowercase hex")
    return digest


def _exact(t: type) -> Callable:
    """The JSON value itself if its type is exactly t (so an int is no bool or float)."""
    def parse(value):
        if type(value) is not t:
            raise TypeError(f"expected a JSON {t.__name__}, got {value!r}")
        return value
    return parse


_INT_FROM_JSON = _exact(int)


def _json_codec(t: type) -> tuple[Callable | None, Callable]:
    """(to JSON, from JSON) for a field type; None writes the value as is.

    Import takes only what export writes, so one chain has one JSONL form.
    """
    if t is bytes:
        return bytes.hex, _digest_from_json
    if t in (int, float):
        return None, _exact(t)
    return {m: m.name.lower() for m in t}.__getitem__, {m.name.lower(): m for m in t}.__getitem__


def _spec(cls: type) -> _Spec:
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    types = tuple(hints[name] for name in names)
    to_json, from_json = zip(*map(_json_codec, types))
    return _Spec(
        cls,
        types,
        struct.Struct(">BQ" + "".join(_WIRE.get(t, "B") for t in types)),
        attrgetter(*names),  # returns a tuple: every payload has several fields
        tuple((name, _CHECKS[t]) for name, t in zip(names, types) if t in _CHECKS),
        tuple(zip(names, to_json)),
        tuple(zip(names, from_json)),
        frozenset(("kind", "sender", *names)),
    )


_SCHEMA: dict[TxKind, _Spec] = {
    TxKind.MODEL_CONTRIBUTION: _spec(ModelContribution),
    TxKind.SIGNATURE_CONTRIBUTION: _spec(SignatureContribution),
    TxKind.ALARM: _spec(Alarm),
    TxKind.TRUST_UPDATE: _spec(TrustUpdate),
}
_PAYLOAD_KIND = {spec.cls: kind for kind, spec in _SCHEMA.items()}
_PAYLOAD_CHECKS = {spec.cls: spec.checks for spec in _SCHEMA.values()}
_KIND_TO_JSON, _KIND_FROM_JSON = _json_codec(TxKind)


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    sender: int
    payload: Payload

    def __post_init__(self):
        _check_count(self.sender, "sender")
        expected = _PAYLOAD_KIND[type(self.payload)]
        if self.kind != expected:
            raise ValueError(f"kind {self.kind} does not match payload {type(self.payload)}")

    @classmethod
    def wrap(cls, sender: int, payload: Payload) -> Transaction:
        return cls(_PAYLOAD_KIND[type(payload)], sender, payload)


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    proposer: int
    sim_time: int
    txs: tuple[Transaction, ...]
    hash: bytes

    def __post_init__(self):
        _check_digest(self.prev_hash, "prev_hash")
        _check_digest(self.hash, "hash")
        _check_count(self.index, "index")
        _check_count(self.proposer, "proposer")
        _check_count(self.sim_time, "sim_time")


_BLOCK_HEADER = struct.Struct(f">Q{DIGEST_LEN}sQQQ")  # index, prev_hash, proposer, sim_time, n_txs
_BLOCK_JSON_KEYS = frozenset(f.name for f in fields(Block))


def encode_tx(tx: Transaction) -> bytes:
    spec = _SCHEMA[tx.kind]
    return spec.wire.pack(tx.kind, tx.sender, *spec.values(tx.payload))


def canonical_encode(block: Block) -> bytes:
    """Deterministic encoding of everything but the hash field."""
    header = _BLOCK_HEADER.pack(
        block.index, block.prev_hash, block.proposer, block.sim_time, len(block.txs)
    )
    return header + b"".join(map(encode_tx, block.txs))


def decode_tx(r: Reader) -> Transaction:
    tag = r.peek()  # the kind's struct starts with the tag
    spec = _SCHEMA.get(tag)
    if spec is None:
        raise MalformedBytes(f"invalid transaction kind tag {tag}")
    _, sender, *values = r.unpack(spec.wire)
    try:
        payload = spec.cls(*(t(v) for t, v in zip(spec.types, values)))
    except ValueError as exc:  # an unknown enum tag or a failed payload check
        raise MalformedBytes(str(exc)) from None
    return Transaction(TxKind(tag), sender, payload)


def canonical_decode(data: bytes, block_hash: bytes) -> Block:
    """Inverse of canonical_encode; the hash field is supplied by the caller."""
    r = Reader(data)
    index, prev_hash, proposer, sim_time, n_txs = r.unpack(_BLOCK_HEADER)
    if n_txs > len(data):  # cheap bound before allocating
        raise MalformedBytes(f"implausible tx count {n_txs}")
    txs = tuple(decode_tx(r) for _ in range(n_txs))
    r.expect_done()
    return Block(index, prev_hash, proposer, sim_time, txs, block_hash)


def block_hash(index: int, prev_hash: bytes, proposer: int, sim_time: int,
               txs: tuple[Transaction, ...]) -> bytes:
    probe = Block(index, prev_hash, proposer, sim_time, txs, ZERO_DIGEST)
    return sha256(canonical_encode(probe))


def make_genesis() -> Block:
    h = block_hash(0, ZERO_DIGEST, 0, 0, ())
    return Block(0, ZERO_DIGEST, 0, 0, (), h)


@dataclass
class Ledger:
    authorities: list[int]
    blocks: list[Block] = field(default_factory=list)
    pending: list[Transaction] = field(default_factory=list)

    def __post_init__(self):
        if not self.authorities:
            raise NoAuthorities("authority list must be non-empty")
        if len(set(self.authorities)) != len(self.authorities):
            raise ValueError("duplicate authorities")
        if not self.blocks:
            self.blocks = [make_genesis()]

    @property
    def height(self) -> int:
        return len(self.blocks)

    def submit(self, tx: Transaction) -> None:
        self.pending.append(tx)

    def select_proposer(self, height: int) -> int:
        if not self.authorities:
            raise NoAuthorities("authority list must be non-empty")
        return self.authorities[height % len(self.authorities)]

    def seal_block(self, proposer: int, sim_time: int, txs: list[Transaction]) -> Block:
        scheduled = self.select_proposer(self.height)
        if proposer != scheduled:
            raise WrongProposer(
                f"node {proposer} sealed at height {self.height}, expected {scheduled}"
            )
        prev = self.blocks[-1]
        txs = list(txs)
        h = block_hash(self.height, prev.hash, proposer, sim_time, tuple(txs))
        block = Block(self.height, prev.hash, proposer, sim_time, tuple(txs), h)
        self.blocks.append(block)
        self.discard(txs)
        return block

    def discard(self, txs: list[Transaction]) -> None:
        """Drop these submissions from pending, matched by identity, in one pass."""
        pending = self.pending
        # usual case, tested first as it costs no set: all of pending, in submission order
        if len(pending) <= len(txs) and all(map(is_, pending, txs)):
            pending.clear()
        elif txs:
            gone = set(map(id, txs))
            pending[:] = [tx for tx in pending if id(tx) not in gone]

    def scan(self, kind: TxKind, since_height: int = 0) -> list[tuple[int, Transaction]]:
        out = []
        for block in self.blocks[since_height:]:
            for tx in block.txs:
                if tx.kind == kind:
                    out.append((block.index, tx))
        return out

    def total_bytes(self) -> int:
        """Chain size: canonical encodings plus one stored hash per block."""
        return sum(len(canonical_encode(b)) + DIGEST_LEN for b in self.blocks)


def first_invalid_height(ledger: Ledger) -> int | None:
    """Height of the first block violating an invariant, or None if clean."""
    if not ledger.blocks:
        return 0
    genesis = ledger.blocks[0]
    if genesis.index != 0 or genesis.prev_hash != ZERO_DIGEST or genesis.txs:
        return 0
    for i, block in enumerate(ledger.blocks):
        if block.index != i:
            return i
        if i > 0 and block.prev_hash != ledger.blocks[i - 1].hash:
            return i
        if sha256(canonical_encode(block)) != block.hash:
            return i
    return None


def verify_chain(ledger: Ledger) -> bool:
    return first_invalid_height(ledger) is None


# --- JSON-lines export / import -------------------------------------------

def _tx_to_json(tx: Transaction) -> dict:
    spec = _SCHEMA[tx.kind]
    out = {"kind": _KIND_TO_JSON(tx.kind), "sender": tx.sender}
    for (name, to_json), value in zip(spec.to_json, spec.values(tx.payload)):
        out[name] = value if to_json is None else to_json(value)
    return out


def _tx_from_json(obj: dict) -> Transaction:
    try:
        kind = _KIND_FROM_JSON(obj["kind"])
        sender = _INT_FROM_JSON(obj["sender"])
        spec = _SCHEMA[kind]
        # every key export writes is read, so a matching count leaves no unknown key
        if len(obj) != len(spec.json_keys):
            raise ValueError(f"keys {sorted(obj)} are not {sorted(spec.json_keys)}")
        payload = spec.cls(*[parse(obj[name]) for name, parse in spec.from_json])
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise MalformedBytes(f"bad transaction record: {exc}") from None
    return Transaction(kind, sender, payload)


def export_jsonl(ledger: Ledger) -> str:
    """One JSON object per block; digests hex, lowercase."""
    lines = []
    for block in ledger.blocks:
        lines.append(
            json.dumps(
                {
                    "index": block.index,
                    "prev_hash": block.prev_hash.hex(),
                    "proposer": block.proposer,
                    "sim_time": block.sim_time,
                    "txs": [_tx_to_json(t) for t in block.txs],
                    "hash": block.hash.hex(),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def import_jsonl(text: str, authorities: list[int] | None = None) -> Ledger:
    blocks = []
    for lineno, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if type(obj) is not dict or len(obj) != len(_BLOCK_JSON_KEYS):
                raise ValueError(f"a block is an object with keys {sorted(_BLOCK_JSON_KEYS)}")
            block = Block(
                _INT_FROM_JSON(obj["index"]),
                _digest_from_json(obj["prev_hash"]),
                _INT_FROM_JSON(obj["proposer"]),
                _INT_FROM_JSON(obj["sim_time"]),
                tuple(_tx_from_json(t) for t in obj["txs"]),
                _digest_from_json(obj["hash"]),
            )
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError,  # too deep
                MalformedBytes) as exc:  # a bad transaction, located by its line here
            raise MalformedBytes(f"line {lineno}: {exc}") from None
        blocks.append(block)
    if not blocks:
        raise MalformedBytes("no blocks in input")
    return Ledger(authorities=authorities or [0], blocks=blocks)
