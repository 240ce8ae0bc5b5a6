"""Per-gateway IDS node: detection pipeline, contribution, and ledger sync.

The pipeline is signature-first: events whose key sits on the node's benign
allowlist skip the signature engine entirely (known-good traffic never
raises a signature alarm, whatever the merged filter's false-positive rate);
remaining events are matched against the merged bloom filter; the anomaly
engine scores each completed window with the current linear model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloom import BloomFilter
from .content_store import ContentStore
from .detection import (
    EventRecord,
    LabeledDataset,
    LinearModel,
    evaluate,
    extract_features,
    model_deserialize,
    model_serialize,
    signature_key,
    svm_predict,
    svm_train,
)
from .encoding import sha256
from .errors import MalformedBytes, NotFound
from .ledger import (
    Alarm,
    AttackClass,
    Ledger,
    ModelContribution,
    ModelKind,
    SignatureContribution,
    Transaction,
    TxKind,
)
from . import bloom
from .trust import TrustRecord


@dataclass
class TrainParams:
    lam: float = 0.5
    epochs: int = 10
    train_min: int = 80


@dataclass
class NodeState:
    id: int
    filter_m_bits: int
    filter_k_hashes: int
    train: TrainParams = field(default_factory=TrainParams)
    global_seed: int = 0

    local_signatures: dict[bytes, AttackClass] = field(default_factory=dict)
    benign_whitelist: set[bytes] = field(default_factory=set)
    local_filter: BloomFilter | None = None   # filled by __post_init__
    merged_filter: BloomFilter | None = None  # filled by __post_init__
    model: LinearModel | None = None
    model_source: int | None = None
    model_digest: bytes | None = None
    holdout: LabeledDataset | None = None
    training_buffer: LabeledDataset | None = None
    last_synced_height: int = 0
    window: list[EventRecord] = field(default_factory=list)
    raised_alarms: int = 0  # alarms this node raised; the ledger holds them
    known_alarms: int = 0   # sealed alarms read by sync

    def __post_init__(self):
        if self.local_filter is None:
            self.local_filter = BloomFilter(self.filter_m_bits, self.filter_k_hashes)
        if self.merged_filter is None:
            self.merged_filter = BloomFilter(self.filter_m_bits, self.filter_k_hashes)
        self._window_sig_alarmed: set[bytes] = set()

    @property
    def seed(self) -> int:
        # masked so numpy accepts it even for negative global seeds
        return (self.global_seed ^ self.id) & 0x7FFFFFFFFFFFFFFF

    # --- signature knowledge -------------------------------------------------

    def add_signatures(self, keyed: dict[bytes, AttackClass]) -> int:
        """Insert new attack keys into the local and merged filters."""
        added = 0
        for key, attack_class in keyed.items():
            if key in self.local_signatures:
                continue
            self.local_signatures[key] = attack_class
            self.local_filter.insert(key)
            self.merged_filter.insert(key)
            added += 1
        return added

    # --- detection ------------------------------------------------------------

    def observe(self, events: list[EventRecord], store: ContentStore) -> list[Transaction]:
        """Run the signature engine over a tick's events; buffer them for the window."""
        alarms = []
        for event in events:
            key = signature_key(event)
            self.window.append(event)
            if key in self.benign_whitelist:
                continue
            if not self.merged_filter.query(key):
                continue
            if key in self._window_sig_alarmed:
                continue  # one signature alarm per key per window
            self._window_sig_alarmed.add(key)
            attack_class = self.local_signatures.get(key, AttackClass.ANOMALY)
            evidence = store.put(key)
            alarms.append(Transaction.wrap(self.id, Alarm(attack_class, evidence, event.sim_time)))
        self.raised_alarms += len(alarms)
        return alarms

    def close_window(
        self, window_ticks: int, sim_time: int, store: ContentStore
    ) -> tuple[np.ndarray, list[Transaction]]:
        """Score the completed window with the anomaly engine and reset it."""
        features = extract_features(self.window, window_ticks)
        self.window = []
        self._window_sig_alarmed = set()
        alarms = []
        if self.model is not None:
            label, _margin = svm_predict(self.model, features)
            if label == 1:
                evidence = store.put(features.astype(">f8").tobytes())
                alarms.append(Transaction.wrap(self.id,
                                               Alarm(AttackClass.ANOMALY, evidence, sim_time)))
        self.raised_alarms += len(alarms)
        return features, alarms

    # --- learning ---------------------------------------------------------------

    def learn(self, rows: LabeledDataset) -> bool:
        """Buffer labeled rows; retrain once the buffer qualifies. True if retrained."""
        if len(rows) > 0:
            if self.training_buffer is None:
                self.training_buffer = rows
            else:
                self.training_buffer = LabeledDataset.concat([self.training_buffer, rows])
        buf = self.training_buffer
        if buf is None or len(buf) < self.train.train_min or not buf.has_both_classes:
            return False
        self.model = svm_train(buf, self.train.lam, self.train.epochs, self.seed)
        self.model_source = self.id
        self.model_digest = sha256(model_serialize(self.model))
        return True

    # --- contribution -----------------------------------------------------------

    def contribute(self, sim_time: int, store: ContentStore) -> list[Transaction]:
        """Publish the current model and signature filter; digests go on-chain."""
        txs = []
        if self.model is not None:
            blob = model_serialize(self.model)
            digest = store.put(blob)
            claimed = self._self_assessed_accuracy()
            txs.append(
                Transaction.wrap(
                    self.id, ModelContribution(digest, ModelKind.SVM, claimed)
                )
            )
        filter_blob = self.local_filter.serialize()
        digest = store.put(filter_blob)
        txs.append(
            Transaction.wrap(
                self.id,
                SignatureContribution(
                    digest,
                    self.local_filter.n_inserted,
                    self.local_filter.m_bits,
                    self.local_filter.k_hashes,
                ),
            )
        )
        return txs

    def _self_assessed_accuracy(self) -> float:
        reference = self.holdout if self.holdout is not None else self.training_buffer
        if reference is None or len(reference) == 0:
            return 0.0
        return evaluate(self.model, reference).accuracy

    # --- sync ---------------------------------------------------------------------

    def sync(
        self,
        ledger: Ledger,
        store: ContentStore,
        trust: dict[int, TrustRecord],
        adopt_peers: bool = True,
    ) -> int:
        """Pull newly sealed contributions and alarms; returns the fault count."""
        faults = 0
        since = self.last_synced_height
        for _height, tx in ledger.scan(TxKind.SIGNATURE_CONTRIBUTION, since):
            if tx.sender == self.id:
                continue
            try:
                peer_filter = bloom.deserialize(store.get(tx.payload.filter_digest))
                self.merged_filter = self.merged_filter.merge(peer_filter)
            except (NotFound, MalformedBytes):
                faults += 1

        if adopt_peers:
            faults += self._consider_model_adoption(ledger, store, trust, since)

        self.known_alarms += len(ledger.scan(TxKind.ALARM, since))
        self.last_synced_height = ledger.height
        return faults

    def _consider_model_adoption(
        self,
        ledger: Ledger,
        store: ContentStore,
        trust: dict[int, TrustRecord],
        since: int,
    ) -> int:
        def score(node_id: int) -> float:
            return trust.get(node_id, TrustRecord(node_id)).score

        candidates = [
            tx
            for _h, tx in ledger.scan(TxKind.MODEL_CONTRIBUTION, since)
            if tx.sender != self.id
        ]
        if not candidates:
            return 0
        # highest-trust contributor wins; ties break toward the lower node id
        best = min(candidates, key=lambda tx: (-score(tx.sender), tx.sender))
        current = self.model_source if self.model_source is not None else self.id
        if score(best.sender) <= score(current):
            return 0
        try:
            blob = store.get(best.payload.model_digest)
            self.model = model_deserialize(blob)
            self.model_source = best.sender
            self.model_digest = best.payload.model_digest
            return 0
        except (NotFound, MalformedBytes):
            return 1

    # --- debugging ------------------------------------------------------------------

    def state_summary(self) -> dict:
        return {
            "id": self.id,
            "signatures": len(self.local_signatures),
            "filter_bits_set": self.local_filter.popcount(),
            "merged_bits_set": self.merged_filter.popcount(),
            "model_source": self.model_source,
            "training_rows": 0 if self.training_buffer is None else len(self.training_buffer),
            "last_synced_height": self.last_synced_height,
            "raised_alarms": self.raised_alarms,
            "known_alarms": self.known_alarms,
        }
