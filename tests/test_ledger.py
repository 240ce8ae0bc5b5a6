import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cids.encoding import ZERO_DIGEST
from cids.errors import CidsError, MalformedBytes, NoAuthorities, WrongProposer
from cids.ledger import (
    Alarm,
    AttackClass,
    Block,
    Ledger,
    ModelContribution,
    ModelKind,
    Outcome,
    Reason,
    SignatureContribution,
    Transaction,
    TrustUpdate,
    TxKind,
    canonical_decode,
    canonical_encode,
    encode_tx,
    export_jsonl,
    first_invalid_height,
    import_jsonl,
    make_genesis,
    verify_chain,
)
from util import build_chain, json_values, random_tx


def test_genesis_encoding_is_64_bytes():
    # index + prev_hash + proposer + sim_time + tx count = 8+32+8+8+8
    genesis = make_genesis()
    assert len(canonical_encode(genesis)) == 64


def test_encoding_deterministic():
    genesis = make_genesis()
    assert canonical_encode(genesis) == canonical_encode(genesis)


def test_proposer_changes_only_its_offset():
    a = Block(3, b"\x05" * 32, 1, 70, (), ZERO_DIGEST)
    b = Block(3, b"\x05" * 32, 2, 70, (), ZERO_DIGEST)
    ea, eb = canonical_encode(a), canonical_encode(b)
    assert len(ea) == len(eb)
    diff = [i for i in range(len(ea)) if ea[i] != eb[i]]
    assert diff == [47]  # last byte of the proposer u64 at offset 40..48


def test_seal_on_genesis():
    ledger = Ledger(authorities=[0, 1, 2])
    tx = random_tx(random.Random(1))
    ledger.submit(tx)
    block = ledger.seal_block(proposer=1, sim_time=10, txs=[tx])
    assert block.index == 1
    assert block.prev_hash == ledger.blocks[0].hash
    assert ledger.pending == []


def test_pending_removed_by_identity():
    # equal transactions are still separate submissions: sealing or
    # discarding one of them leaves the others pending
    ledger = Ledger(authorities=[0])
    first, second, third = (Transaction.wrap(3, Alarm(AttackClass.DOS, bytes(32), 5))
                            for _ in range(3))
    assert first == second == third
    for tx in (first, second, third):
        ledger.submit(tx)
    ledger.seal_block(0, 10, [second])
    assert [id(tx) for tx in ledger.pending] == [id(first), id(third)]
    ledger.discard([third])
    assert [id(tx) for tx in ledger.pending] == [id(first)]
    ledger.discard([second, third])  # as many as pending, and equal, but not the same
    assert [id(tx) for tx in ledger.pending] == [id(first)]
    ledger.discard([first, second])
    assert ledger.pending == []


def test_wrong_proposer_rejected():
    ledger = Ledger(authorities=[0, 1, 2])
    with pytest.raises(WrongProposer):
        ledger.seal_block(proposer=2, sim_time=10, txs=[])


def test_block_hash_matches_reference_sha256():
    ledger = build_chain(random.Random(2), 3)
    for block in ledger.blocks:
        assert hashlib.sha256(canonical_encode(block)).digest() == block.hash


def test_verify_genesis_only():
    assert verify_chain(Ledger(authorities=[4]))


def test_verify_10_block_honest_chain():
    ledger = build_chain(random.Random(3), 10)
    assert len(ledger.blocks) == 11
    assert verify_chain(ledger)


def test_flipped_tx_byte_detected():
    ledger = Ledger(authorities=[0])
    tx = Transaction.wrap(2, ModelContribution(b"\xaa" * 32, ModelKind.SVM, 0.9))
    ledger.submit(tx)
    ledger.seal_block(0, 10, [tx])
    tampered_payload = ModelContribution(b"\xab" + b"\xaa" * 31, ModelKind.SVM, 0.9)
    old = ledger.blocks[1]
    ledger.blocks[1] = Block(
        old.index, old.prev_hash, old.proposer, old.sim_time,
        (Transaction.wrap(2, tampered_payload),), old.hash,
    )
    assert not verify_chain(ledger)
    assert first_invalid_height(ledger) == 1


def test_select_proposer_rotation():
    ledger = Ledger(authorities=[3, 7, 9])
    assert ledger.select_proposer(0) == 3
    assert ledger.select_proposer(5) == 9
    assert Ledger(authorities=[4]).select_proposer(3) == 4


def test_no_authorities():
    with pytest.raises(NoAuthorities):
        Ledger(authorities=[])


def test_proposer_fairness():
    ledger = build_chain(random.Random(4), 9, authorities=(0, 1, 2))
    counts = {a: 0 for a in (0, 1, 2)}
    for block in ledger.blocks[1:]:
        counts[block.proposer] += 1
    assert counts == {0: 3, 1: 3, 2: 3}


def test_scan_empty_chain():
    ledger = build_chain(random.Random(5), 4)
    # strip alarms by scanning a fresh alarm-free ledger
    clean = Ledger(authorities=[0])
    assert clean.scan(TxKind.ALARM) == []


def test_scan_since_height_bound():
    ledger = Ledger(authorities=[0])
    alarm = Transaction.wrap(1, Alarm(AttackClass.DOS, b"\x02" * 32, 15))
    ledger.seal_block(0, 10, [])
    ledger.seal_block(0, 20, [alarm])
    assert ledger.scan(TxKind.ALARM, since_height=3) == []
    assert ledger.scan(TxKind.ALARM, since_height=2) == [(2, alarm)]


def test_scan_filters_kind_in_chain_order():
    ledger = Ledger(authorities=[0])
    a1 = Transaction.wrap(1, Alarm(AttackClass.DOS, b"\x01" * 32, 5))
    m1 = Transaction.wrap(2, ModelContribution(b"\x03" * 32, ModelKind.SVM, 0.5))
    a2 = Transaction.wrap(3, Alarm(AttackClass.RECON, b"\x04" * 32, 18))
    ledger.seal_block(0, 10, [a1, m1])
    ledger.seal_block(0, 20, [a2])
    assert ledger.scan(TxKind.ALARM) == [(1, a1), (2, a2)]
    assert ledger.scan(TxKind.MODEL_CONTRIBUTION) == [(1, m1)]


def test_append_only_verify_after_every_seal():
    rng = random.Random(6)
    ledger = Ledger(authorities=[0, 1])
    for i in range(8):
        txs = [random_tx(rng) for _ in range(2)]
        ledger.seal_block(ledger.select_proposer(ledger.height), (i + 1) * 10, txs)
        assert verify_chain(ledger)


def test_encoding_injective_over_random_corpus():
    rng = random.Random(7)
    seen = {}
    for _ in range(300):
        block = Block(
            rng.randrange(100),
            rng.randbytes(32),
            rng.randrange(8),
            rng.randrange(1000),
            tuple(random_tx(rng) for _ in range(rng.randrange(3))),
            ZERO_DIGEST,
        )
        enc = canonical_encode(block)
        if enc in seen:
            assert seen[enc] == block
        seen[enc] = block
    # distinct blocks always produced distinct encodings
    assert len({hashlib.sha256(e).digest() for e in seen}) == len(seen)


def test_canonical_decode_round_trip():
    rng = random.Random(8)
    ledger = build_chain(rng, 6)
    for block in ledger.blocks:
        decoded = canonical_decode(canonical_encode(block), block.hash)
        assert decoded == block


def test_canonical_decode_rejects_truncation_and_trailing():
    block = build_chain(random.Random(9), 2).blocks[-1]
    enc = canonical_encode(block)
    with pytest.raises(MalformedBytes):
        canonical_decode(enc[:-1], block.hash)
    with pytest.raises(MalformedBytes):
        canonical_decode(enc + b"\x00", block.hash)


def test_canonical_decode_rejects_bad_enum_tag():
    ledger = Ledger(authorities=[0])
    tx = Transaction.wrap(1, Alarm(AttackClass.REPLAY, b"\x05" * 32, 3))
    block = ledger.seal_block(0, 10, [tx])
    enc = bytearray(canonical_encode(block))
    enc[64] = 200  # first tx kind tag
    with pytest.raises(MalformedBytes):
        canonical_decode(bytes(enc), block.hash)


def test_export_import_round_trip():
    ledger = build_chain(random.Random(10), 5)
    text = export_jsonl(ledger)
    back = import_jsonl(text)
    assert back.blocks == ledger.blocks
    assert verify_chain(back)


def test_import_detects_edited_hex_digit():
    ledger = build_chain(random.Random(11), 3)
    text = export_jsonl(ledger)
    pos = text.index('"hash": "') + len('"hash": "')
    flipped = "0" if text[pos] != "0" else "1"
    tampered = text[:pos] + flipped + text[pos + 1 :]
    back = import_jsonl(tampered)
    assert not verify_chain(back)
    assert first_invalid_height(back) is not None


def test_import_rejects_garbage():
    with pytest.raises(MalformedBytes):
        import_jsonl("")
    with pytest.raises(MalformedBytes):
        import_jsonl("not json\n")
    with pytest.raises(MalformedBytes, match="^line 0: maximum recursion depth"):
        import_jsonl("[" * 100_000 + "\n")


# Edits of an exported block that the old lenient import read back as the
# original chain: (record, field, edit of the exported value). Each must now
# be rejected, so a chain has exactly one JSONL form.
NON_CANONICAL_EDITS = {
    "block-sim_time-padded-string": ("block", "sim_time", lambda v: f" {v} "),
    "tx-sender-fraction": ("tx", "sender", lambda v: v + 0.75),
    "block-proposer-bool": ("block", "proposer", lambda v: bool(v)),
    "tx-sim_time-float": ("tx", "sim_time", float),
    "tx-kind-uppercase": ("tx", "kind", str.upper),
    "tx-attack_class-titlecase": ("tx", "attack_class", str.title),
    "block-prev_hash-uppercase": ("block", "prev_hash", str.upper),
    "tx-digest-with-space": ("tx", "evidence_digest", lambda v: v[:8] + " " + v[8:]),
}


@pytest.mark.parametrize("edit", NON_CANONICAL_EDITS.values(), ids=NON_CANONICAL_EDITS.keys())
def test_import_rejects_non_canonical_json(edit):
    where, name, change = edit
    ledger = Ledger(authorities=[0])
    ledger.seal_block(0, 10, [Transaction.wrap(1, Alarm(AttackClass.DOS, b"\xab" * 32, 5))])
    lines = export_jsonl(ledger).splitlines()
    assert import_jsonl("\n".join(lines)).blocks == ledger.blocks
    block = json.loads(lines[1])
    record = block["txs"][0] if where == "tx" else block
    edited = change(record[name])
    assert edited != record[name] or type(edited) is not type(record[name])
    record[name] = edited
    lines[1] = json.dumps(block, sort_keys=True)
    with pytest.raises(MalformedBytes):
        import_jsonl("\n".join(lines))


def _export_with_txs(seed: int):
    """A build_chain export as parsed lines, and the height of its first block with txs."""
    text = export_jsonl(build_chain(random.Random(seed), 6))
    lines = [json.loads(line) for line in text.splitlines()]
    return lines, next(i for i, block in enumerate(lines) if block["txs"])


def test_import_rejects_unknown_block_key():
    lines, height = _export_with_txs(21)
    lines[height]["extra"] = [1]
    text = "\n".join(json.dumps(block, sort_keys=True) for block in lines)
    with pytest.raises(MalformedBytes, match=f"line {height}: a block is an object with keys"):
        import_jsonl(text)


def test_import_rejects_unknown_transaction_key():
    lines, height = _export_with_txs(21)
    lines[height]["txs"][-1]["note"] = "x"
    text = "\n".join(json.dumps(block, sort_keys=True) for block in lines)
    with pytest.raises(MalformedBytes,
                       match=f"^line {height}: bad transaction record: keys .*'note'"):
        import_jsonl(text)


def test_transaction_invariants():
    with pytest.raises(ValueError):
        ModelContribution(b"\x01" * 31, ModelKind.SVM, 0.5)
    with pytest.raises(ValueError):
        ModelContribution(b"\x01" * 32, ModelKind.SVM, 1.5)
    with pytest.raises(ValueError):
        Alarm(AttackClass.DOS, b"\x01" * 32, -1)


# One fixed transaction per kind: its wire bytes and its exported block line.
GOLDEN_TXS = [
    (
        Transaction.wrap(1, ModelContribution(b"\x11" * 32, ModelKind.SVM, 0.9137)),
        "00" "0000000000000001" + "11" * 32 + "00" "3fed3d07c84b5dcc",
        '{"holdout_claimed_accuracy": 0.9137, "kind": "model_contribution", '
        '"model_digest": "' + "11" * 32 + '", "model_kind": "svm", "sender": 1}',
        "08284a88d1ed07f9525e7109198179327b7798b1a75f06cb9034ad40d27dbb43",
    ),
    (
        Transaction.wrap(2, SignatureContribution(b"\x22" * 32, 1096, 10000, 7)),
        "01" "0000000000000002" + "22" * 32
        + "0000000000000448" "0000000000002710" "0000000000000007",
        '{"filter_digest": "' + "22" * 32 + '", "k_hashes": 7, '
        '"kind": "signature_contribution", "m_bits": 10000, "n_items": 1096, "sender": 2}',
        "57551e26a2a15dbcd718a7f70e3ac926b2adaef2b1c5d9833d903567a254b693",
    ),
    (
        Transaction.wrap(3, Alarm(AttackClass.REPLAY, b"\x33" * 32, 1234)),
        "02" "0000000000000003" "03" + "33" * 32 + "00000000000004d2",
        '{"attack_class": "replay", "evidence_digest": "' + "33" * 32 + '", '
        '"kind": "alarm", "sender": 3, "sim_time": 1234}',
        "1cdd51172227d46995be90431eb6e52bd8f9db62b0ec0f7469b61cd1c64c8162",
    ),
    (
        Transaction.wrap(4, TrustUpdate(5, Outcome.NEGATIVE, Reason.FILTER_REJECTED)),
        "03" "0000000000000004" "0000000000000005" "01" "03",
        '{"kind": "trust_update", "outcome": "negative", "reason": "filter_rejected", '
        '"sender": 4, "subject": 5}',
        "37f898320c56a14fa1fbca2fab6434986833b528604061de8b1dd3c2ac4c4995",
    ),
]


@pytest.mark.parametrize("tx,wire_hex,tx_json,block_hash", GOLDEN_TXS,
                         ids=[t.kind.name.lower() for t, *_ in GOLDEN_TXS])
def test_golden_tx_encodings(tx, wire_hex, tx_json, block_hash):
    assert encode_tx(tx).hex() == wire_hex
    ledger = Ledger(authorities=[0])
    ledger.seal_block(0, 10, [tx])
    genesis_hash = ledger.blocks[0].hash.hex()
    assert export_jsonl(ledger).splitlines()[1] == (
        f'{{"hash": "{block_hash}", "index": 1, "prev_hash": "{genesis_hash}", '
        f'"proposer": 0, "sim_time": 10, "txs": [{tx_json}]}}'
    )


# --- property tests over both codecs ----------------------------------------

digests = st.binary(min_size=32, max_size=32)
u64s = st.integers(0, 2**64 - 1)
transactions = st.builds(
    Transaction.wrap,
    u64s,
    st.one_of(
        st.builds(ModelContribution, digests, st.sampled_from(ModelKind),
                  st.floats(0.0, 1.0)),
        st.builds(SignatureContribution, digests, u64s, u64s, u64s),
        st.builds(Alarm, st.sampled_from(AttackClass), digests, u64s),
        st.builds(TrustUpdate, u64s, st.sampled_from(Outcome), st.sampled_from(Reason)),
    ),
)
blocks = st.builds(Block, u64s, digests, u64s, u64s,
                   st.lists(transactions, max_size=4).map(tuple), digests)


@settings(max_examples=200, deadline=None)
@given(blocks)
def test_canonical_round_trip_property(block):
    assert canonical_decode(canonical_encode(block), block.hash) == block


@settings(max_examples=100, deadline=None)
@given(st.lists(blocks, min_size=1, max_size=3))
def test_jsonl_round_trip_property(chain):
    ledger = Ledger(authorities=[0], blocks=chain)
    assert import_jsonl(export_jsonl(ledger)).blocks == chain


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300) | blocks.map(canonical_encode).flatmap(
    lambda enc: st.tuples(st.integers(0, len(enc)), st.binary(max_size=3)).map(
        lambda cut: enc[: cut[0]] + cut[1] + enc[cut[0] + len(cut[1]):])))
def test_canonical_decode_hostile_bytes_raise_package_errors(data):
    try:
        canonical_decode(data, ZERO_DIGEST)
    except CidsError:
        pass


@settings(max_examples=300, deadline=None)
@given(blocks.filter(lambda b: b.txs), st.data())
def test_import_jsonl_hostile_field_raises_package_errors(block, data):
    record = json.loads(export_jsonl(Ledger(authorities=[0], blocks=[block])))
    target = data.draw(st.sampled_from([record, *record["txs"]]))
    target[data.draw(st.sampled_from(sorted(target)))] = data.draw(json_values)
    try:
        imported = import_jsonl(json.dumps(record))
    except CidsError:
        return
    # whatever imports must also encode, as verification does, without a raw exception
    for imported_block in imported.blocks:
        canonical_encode(imported_block)
