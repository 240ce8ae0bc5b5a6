import numpy as np
import pytest

from cids.bloom import BloomFilter
from cids.content_store import ContentStore
from cids.detection import (
    EventRecord,
    Flags,
    LabeledDataset,
    model_serialize,
    signature_key,
)
from cids.encoding import sha256
from cids.ledger import (
    Alarm,
    AttackClass,
    Ledger,
    ModelContribution,
    ModelKind,
    SignatureContribution,
    Transaction,
    TxKind,
)
from cids.node import NodeState, TrainParams
from cids.trust import TrustRecord


def make_node(node_id=0, train_min=20):
    return NodeState(node_id, filter_m_bits=2048, filter_k_hashes=5,
                     train=TrainParams(lam=0.1, epochs=10, train_min=train_min),
                     global_seed=7)


def make_event(sim_time=0, dst_port=80, digest=b"\x09" * 32, flags=Flags.NONE, src=1):
    return EventRecord(sim_time, src, 0, dst_port, digest, 50, flags, src)


def training_set(n=30, seed=3):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n, 8)), rng.normal(2.5, 1, (n, 8))])
    return LabeledDataset(X, np.array([-1] * n + [1] * n))


def test_local_signature_invariant():
    node = make_node()
    keys = {bytes([i]) * 41: AttackClass.DOS for i in range(20)}
    node.add_signatures(keys)
    for key in node.local_signatures:
        assert node.local_filter.query(key)
        assert node.merged_filter.query(key)


def test_add_signatures_dedups():
    node = make_node()
    assert node.add_signatures({b"\x01" * 41: AttackClass.DOS}) == 1
    assert node.add_signatures({b"\x01" * 41: AttackClass.RECON}) == 0
    assert node.local_signatures[b"\x01" * 41] == AttackClass.DOS


def test_benign_stream_no_alarms():
    node = make_node()
    store = ContentStore()
    events = [make_event(sim_time=t) for t in range(10)]
    assert node.observe(events, store) == []
    features, alarms = node.close_window(20, 20, store)
    assert alarms == []  # no model yet
    assert features[0] == pytest.approx(0.5)


def test_signature_match_raises_classed_alarm():
    node = make_node()
    store = ContentStore()
    event = make_event(dst_port=7777, digest=b"\x42" * 32, flags=Flags.SYN)
    node.add_signatures({signature_key(event): AttackClass.DOS})
    alarms = node.observe([event], store)
    assert len(alarms) == 1
    assert alarms[0].kind == TxKind.ALARM
    assert alarms[0].payload.attack_class == AttackClass.DOS
    # evidence blob is retrievable by its digest
    assert store.get(alarms[0].payload.evidence_digest) == signature_key(event)


def test_one_signature_alarm_per_key_per_window():
    node = make_node()
    store = ContentStore()
    event = make_event(dst_port=7777, digest=b"\x42" * 32, flags=Flags.SYN)
    node.add_signatures({signature_key(event): AttackClass.DOS})
    assert len(node.observe([event, event, event], store)) == 1
    node.close_window(20, 20, store)
    assert len(node.observe([event], store)) == 1  # new window, alarm again


def test_whitelist_suppresses_signature_alarms():
    node = make_node()
    store = ContentStore()
    event = make_event(dst_port=80, digest=b"\x33" * 32)
    key = signature_key(event)
    node.add_signatures({key: AttackClass.DOS})
    node.benign_whitelist = {key}
    assert node.observe([event], store) == []


def test_learn_below_threshold_no_model():
    node = make_node(train_min=100)
    assert node.learn(training_set(n=20)) is False
    assert node.model is None


def test_learn_trains_and_is_deterministic():
    node_a = make_node()
    node_b = make_node()
    data = training_set()
    assert node_a.learn(data) is True
    assert node_b.learn(data) is True
    assert model_serialize(node_a.model) == model_serialize(node_b.model)
    assert node_a.model_digest == sha256(model_serialize(node_a.model))


def test_anomaly_alarm_on_attack_window():
    node = make_node()
    store = ContentStore()
    node.learn(training_set())
    hot = np.full(8, 4.0)
    label_events = [  # build a window whose features sit far on the attack side
        EventRecord(t, 1, 0, 1000 + t, bytes([t]) * 32, 500, Flags.SYN, 99)
        for t in range(40)
    ]
    node.observe(label_events, store)
    features, alarms = node.close_window(20, 40, store)
    # verify against the model directly rather than trusting the pipeline
    from cids.detection import svm_predict

    expected_label, _ = svm_predict(node.model, features)
    assert (len(alarms) == 1) == (expected_label == 1)


def test_contribute_without_model_only_filter():
    node = make_node()
    store = ContentStore()
    txs = node.contribute(5, store)
    assert [t.kind for t in txs] == [TxKind.SIGNATURE_CONTRIBUTION]
    payload = txs[0].payload
    assert payload.m_bits == 2048
    assert payload.n_items == 0


def test_contribute_digests_match_store_keys():
    node = make_node()
    store = ContentStore()
    node.learn(training_set())
    node.add_signatures({b"\x05" * 41: AttackClass.RECON})
    txs = node.contribute(5, store)
    kinds = {t.kind for t in txs}
    assert kinds == {TxKind.MODEL_CONTRIBUTION, TxKind.SIGNATURE_CONTRIBUTION}
    for tx in txs:
        if tx.kind == TxKind.MODEL_CONTRIBUTION:
            blob = store.get(tx.payload.model_digest)
            assert sha256(blob) == tx.payload.model_digest
            assert 0.0 <= tx.payload.holdout_claimed_accuracy <= 1.0
        else:
            blob = store.get(tx.payload.filter_digest)
            assert sha256(blob) == tx.payload.filter_digest


def test_contribute_unchanged_state_identical_digests():
    node = make_node()
    store = ContentStore()
    node.learn(training_set())
    first = node.contribute(5, store)
    second = node.contribute(25, store)
    digests = lambda txs: sorted(
        (t.payload.model_digest if t.kind == TxKind.MODEL_CONTRIBUTION
         else t.payload.filter_digest)
        for t in txs
    )
    assert digests(first) == digests(second)


# --- sync -------------------------------------------------------------------

def sealed_ledger_with(txs, authorities=(0,)):
    ledger = Ledger(authorities=list(authorities))
    ledger.seal_block(authorities[0], 10, txs)
    return ledger


def test_sync_no_new_blocks_is_noop():
    node = make_node()
    ledger = Ledger(authorities=[0])
    store = ContentStore()
    node.last_synced_height = ledger.height
    before = node.state_summary()
    assert node.sync(ledger, store, {}) == 0
    assert node.state_summary() == before


def test_sync_merges_peer_filter():
    node = make_node(node_id=0)
    store = ContentStore()
    peer_filter = BloomFilter(2048, 5)
    event = make_event(dst_port=3333, digest=b"\x77" * 32)
    peer_filter.insert(signature_key(event))
    digest = store.put(peer_filter.serialize())
    tx = Transaction.wrap(1, SignatureContribution(digest, 1, 2048, 5))
    ledger = sealed_ledger_with([tx])

    assert not node.merged_filter.query(signature_key(event))
    assert node.sync(ledger, store, {}) == 0
    assert node.merged_filter.query(signature_key(event))
    assert node.last_synced_height == 2


def test_sync_counts_missing_blob_as_fault():
    node = make_node(node_id=0)
    store = ContentStore()
    tx = Transaction.wrap(1, SignatureContribution(b"\x01" * 32, 1, 2048, 5))
    ledger = sealed_ledger_with([tx])
    assert node.sync(ledger, store, {}) == 1


def test_sync_records_alarms():
    node = make_node(node_id=0)
    store = ContentStore()
    alarm = Alarm(AttackClass.SPOOF, b"\x02" * 32, 7)
    ledger = sealed_ledger_with([Transaction.wrap(3, alarm)])
    node.sync(ledger, store, {})
    assert node.known_alarms == [(1, alarm)]


def trust_map(scores: dict[int, int]) -> dict[int, TrustRecord]:
    # positives-only records give distinct, ordered scores
    return {n: TrustRecord(n, positives=p) for n, p in scores.items()}


def test_sync_adopts_higher_trust_model():
    node = make_node(node_id=0)
    store = ContentStore()
    node.learn(training_set())
    own_digest = node.model_digest

    peer = make_node(node_id=4)
    peer.learn(training_set(seed=9))
    blob = model_serialize(peer.model)
    digest = store.put(blob)
    tx = Transaction.wrap(4, ModelContribution(digest, ModelKind.SVM, 0.95))
    ledger = sealed_ledger_with([tx])

    trust = trust_map({0: 1, 4: 10})
    assert node.sync(ledger, store, trust) == 0
    assert node.model_source == 4
    assert node.model_digest == digest
    assert node.model_digest != own_digest


def test_sync_ignores_equal_or_lower_trust():
    node = make_node(node_id=0)
    store = ContentStore()
    node.learn(training_set())
    digest = store.put(model_serialize(node.model))
    tx = Transaction.wrap(4, ModelContribution(digest, ModelKind.SVM, 0.95))
    ledger = sealed_ledger_with([tx])
    node.sync(ledger, store, trust_map({0: 5, 4: 5}))
    assert node.model_source == 0  # strict inequality required


def test_sync_tie_breaks_to_lower_node_id():
    node = make_node(node_id=0)
    store = ContentStore()
    node.learn(training_set())
    blobs = {}
    txs = []
    for sender in (5, 3):
        peer = make_node(node_id=sender)
        peer.learn(training_set(seed=sender))
        digest = store.put(model_serialize(peer.model))
        blobs[sender] = digest
        txs.append(Transaction.wrap(sender, ModelContribution(digest, ModelKind.SVM, 0.9)))
    ledger = sealed_ledger_with(txs)
    node.sync(ledger, store, trust_map({0: 1, 3: 8, 5: 8}))
    assert node.model_source == 3
    assert node.model_digest == blobs[3]


def test_sync_respects_adopt_peers_flag():
    node = make_node(node_id=0)
    store = ContentStore()
    node.learn(training_set())
    peer = make_node(node_id=4)
    peer.learn(training_set(seed=2))
    digest = store.put(model_serialize(peer.model))
    tx = Transaction.wrap(4, ModelContribution(digest, ModelKind.SVM, 0.95))
    ledger = sealed_ledger_with([tx])
    node.sync(ledger, store, trust_map({0: 1, 4: 10}), adopt_peers=False)
    assert node.model_source == 0


def test_merged_filter_only_gains_bits():
    node = make_node(node_id=0)
    store = ContentStore()
    rng = np.random.default_rng(5)
    pops = []
    for step in range(3):
        peer_filter = BloomFilter(2048, 5)
        for _ in range(20):
            peer_filter.insert(rng.bytes(41))
        digest = store.put(peer_filter.serialize())
        ledger = Ledger(authorities=[0])
        for _ in range(step + 1):
            ledger.seal_block(0, 10, [Transaction.wrap(1, SignatureContribution(digest, 20, 2048, 5))])
        node.sync(ledger, store, {})
        node.last_synced_height = 0  # re-reads the same chain; merge must stay monotone
        pops.append(node.merged_filter.popcount())
    assert pops == sorted(pops)
