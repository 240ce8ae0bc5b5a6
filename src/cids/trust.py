"""Trust management: reputation scores and consensus-time contribution vetting.

Reputation is the Beta(1,1) posterior mean over positive/negative outcomes,
(1 + positives) / (2 + positives + negatives). Every update is also emitted
as a ledger transaction, so the full trust state is a pure fold over the
chain and anyone can audit it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .bloom import BloomFilter, ProbeSet
from .detection import LabeledDataset, LinearModel, evaluate
from .errors import EmptyHoldout, EmptyReference
from .ledger import Ledger, Outcome, Reason, Transaction, TrustUpdate, TxKind


@dataclass(frozen=True)
class TrustRecord:
    node: int
    positives: int = 0
    negatives: int = 0

    @property
    def score(self) -> float:
        return (1 + self.positives) / (2 + self.positives + self.negatives)


def apply_outcome(record: TrustRecord, outcome: Outcome) -> TrustRecord:
    if outcome == Outcome.POSITIVE:
        return TrustRecord(record.node, record.positives + 1, record.negatives)
    return TrustRecord(record.node, record.positives, record.negatives + 1)


class VerdictReason(Enum):
    OK = "ok"
    BELOW_ACCURACY = "below_accuracy"
    LOW_COVERAGE = "low_coverage"
    HIGH_FPR = "high_fpr"


@dataclass(frozen=True)
class ValidationVerdict:
    accepted: bool
    measured: float
    threshold: float
    reason: VerdictReason

    def __post_init__(self):
        if self.accepted != (self.reason == VerdictReason.OK):
            raise ValueError(f"accepted={self.accepted} contradicts reason {self.reason}")


def validate_model(
    model: LinearModel, holdout: LabeledDataset, accuracy_threshold: float
) -> ValidationVerdict:
    """Measure the contributed model on the validator's local holdout."""
    if len(holdout) == 0 or not holdout.has_both_classes:
        raise EmptyHoldout("holdout must be non-empty with both classes")
    accuracy = evaluate(model, holdout).accuracy
    if accuracy >= accuracy_threshold:
        return ValidationVerdict(True, accuracy, accuracy_threshold, VerdictReason.OK)
    return ValidationVerdict(False, accuracy, accuracy_threshold, VerdictReason.BELOW_ACCURACY)


def _hit_rate(f: BloomFilter, keys: list[bytes] | ProbeSet) -> float:
    probes = keys if isinstance(keys, ProbeSet) else ProbeSet(keys)
    return probes.hits(f) / len(probes)


def validate_signature_filter(
    contributed: BloomFilter,
    known_attack_keys: list[bytes] | ProbeSet,
    benign_sample_keys: list[bytes] | ProbeSet,
    coverage_threshold: float,
    fpr_threshold: float,
) -> ValidationVerdict:
    """Coverage of known attacks first, then measured FPR on benign samples.

    A validator that checks many filters against the same references passes
    them as `ProbeSet`s, so each key is hashed once rather than once per filter.
    """
    if not known_attack_keys or not benign_sample_keys:
        raise EmptyReference("need non-empty attack and benign reference keys")
    coverage = _hit_rate(contributed, known_attack_keys)
    if coverage < coverage_threshold:
        return ValidationVerdict(False, coverage, coverage_threshold, VerdictReason.LOW_COVERAGE)
    fpr_est = _hit_rate(contributed, benign_sample_keys)
    if fpr_est > fpr_threshold:
        return ValidationVerdict(False, fpr_est, fpr_threshold, VerdictReason.HIGH_FPR)
    return ValidationVerdict(True, coverage, coverage_threshold, VerdictReason.OK)


def quorum(
    verdicts: list[tuple[int, ValidationVerdict]],
    trust: dict[int, TrustRecord],
) -> bool:
    """Strict trust-weighted majority of accepting validators."""
    if not verdicts:
        raise ValueError("quorum requires at least one verdict")
    total = 0.0
    accepting = 0.0
    for validator, verdict in verdicts:
        weight = trust.get(validator, TrustRecord(validator)).score
        total += weight
        if verdict.accepted:
            accepting += weight
    return accepting > 0.5 * total


def outcome_from_quorum(contributor: int, accepted: bool, kind: TxKind,
                        sender: int) -> Transaction:
    """TrustUpdate transaction recording a quorum decision on a contribution."""
    if kind == TxKind.MODEL_CONTRIBUTION:
        reason = Reason.MODEL_ACCEPTED if accepted else Reason.MODEL_REJECTED
    elif kind == TxKind.SIGNATURE_CONTRIBUTION:
        reason = Reason.FILTER_ACCEPTED if accepted else Reason.FILTER_REJECTED
    else:
        raise ValueError(f"no trust outcome defined for {kind}")
    outcome = Outcome.POSITIVE if accepted else Outcome.NEGATIVE
    return Transaction.wrap(sender, TrustUpdate(contributor, outcome, reason))


def fold_updates(records: dict[int, TrustRecord], txs: Iterable[Transaction]) -> dict:
    """Apply each TrustUpdate among txs, in order, to records in place, and return them."""
    for tx in txs:
        if tx.kind == TxKind.TRUST_UPDATE:
            update = tx.payload
            current = records.get(update.subject, TrustRecord(update.subject))
            records[update.subject] = apply_outcome(current, update.outcome)
    return records


def fold_trust(ledger: Ledger) -> dict[int, TrustRecord]:
    """Replay the chain's TrustUpdate stream into per-node records."""
    return fold_updates({}, (tx for block in ledger.blocks for tx in block.txs))
