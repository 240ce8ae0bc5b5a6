import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cids.bloom import BloomFilter, ProbeSet
from cids.detection import LabeledDataset, svm_train
from cids.errors import EmptyHoldout, EmptyReference
from cids.ledger import Ledger, Outcome, Reason, TxKind
from cids.trust import (
    TrustRecord,
    ValidationVerdict,
    VerdictReason,
    apply_outcome,
    fold_trust,
    outcome_from_quorum,
    quorum,
    validate_model,
    validate_signature_filter,
)


def clusters(n=100, seed=77):
    rng = np.random.default_rng(seed)
    shift = 4.0 / np.sqrt(8)  # 4 sigma between centers, spread over 8 dims
    benign = rng.normal(0.0, 1.0, size=(n, 8))
    attack = rng.normal(shift, 1.0, size=(n, 8))
    return LabeledDataset(np.vstack([benign, attack]), np.array([-1] * n + [1] * n))


# --- reputation -------------------------------------------------------------

def test_fresh_record_score():
    assert TrustRecord(0).score == 0.5


def test_beta_mean_arithmetic():
    r = TrustRecord(1)
    for _ in range(3):
        r = apply_outcome(r, Outcome.POSITIVE)
    r = apply_outcome(r, Outcome.NEGATIVE)
    assert r.score == pytest.approx(4 / 6)


def test_positive_then_negative_returns_to_half():
    r = apply_outcome(apply_outcome(TrustRecord(2), Outcome.POSITIVE), Outcome.NEGATIVE)
    assert r.score == pytest.approx(0.5)


def test_score_bounds_and_monotonicity():
    rng = random.Random(31)
    r = TrustRecord(3)
    for _ in range(200):
        before = r.score
        outcome = Outcome.POSITIVE if rng.random() < 0.5 else Outcome.NEGATIVE
        r = apply_outcome(r, outcome)
        assert 0.0 < r.score < 1.0
        if outcome == Outcome.POSITIVE:
            assert r.score > before
        else:
            assert r.score < before


# --- model validation -------------------------------------------------------

def test_honest_model_accepted():
    data = clusters()
    model = svm_train(data, lam=0.01, epochs=10, seed=1)
    verdict = validate_model(model, data, accuracy_threshold=0.7)
    assert verdict.accepted
    assert verdict.reason == VerdictReason.OK
    assert verdict.measured >= 0.97


def test_poisoned_model_rejected():
    data = clusters()
    model = svm_train(data, lam=0.01, epochs=10, seed=1)
    verdict = validate_model(model.negated(), data, accuracy_threshold=0.7)
    assert not verdict.accepted
    assert verdict.reason == VerdictReason.BELOW_ACCURACY
    assert verdict.measured <= 0.1


def test_zero_threshold_always_accepts():
    data = clusters(n=20)
    model = svm_train(data, lam=0.01, epochs=2, seed=2)
    assert validate_model(model.negated(), data, accuracy_threshold=0.0).accepted


def test_empty_holdout():
    data = clusters(n=5)
    model = svm_train(data, lam=0.01, epochs=2, seed=3)
    single_class = LabeledDataset(np.ones((3, 8)), np.array([1, 1, 1]))
    with pytest.raises(EmptyHoldout):
        validate_model(model, single_class, 0.5)


# --- filter validation ------------------------------------------------------

def reference_keys(seed=55, n_attack=200, n_benign=300):
    rng = random.Random(seed)
    return ([rng.randbytes(41) for _ in range(n_attack)],
            [rng.randbytes(41) for _ in range(n_benign)])


def test_honest_filter_accepted():
    attack_keys, benign_keys = reference_keys()
    f = BloomFilter(2048, 7)
    for k in attack_keys:
        f.insert(k)
    verdict = validate_signature_filter(f, attack_keys, benign_keys,
                                        coverage_threshold=0.8, fpr_threshold=0.05)
    assert verdict.accepted
    assert verdict.measured == 1.0  # bloom filters have no false negatives


def test_all_ones_filter_rejected_high_fpr():
    attack_keys, benign_keys = reference_keys()
    f = BloomFilter(2048, 7, bytearray(b"\xff" * 256), n_inserted=1)
    verdict = validate_signature_filter(f, attack_keys, benign_keys, 0.8, 0.05)
    assert not verdict.accepted
    assert verdict.reason == VerdictReason.HIGH_FPR
    assert verdict.measured == 1.0


def test_empty_filter_rejected_low_coverage():
    attack_keys, benign_keys = reference_keys()
    verdict = validate_signature_filter(BloomFilter(2048, 7), attack_keys, benign_keys,
                                        0.8, 0.05)
    assert not verdict.accepted
    assert verdict.reason == VerdictReason.LOW_COVERAGE
    assert verdict.measured == 0.0


def test_coverage_checked_before_fpr():
    # saturated filter with an impossible coverage threshold still reports coverage first
    attack_keys, benign_keys = reference_keys()
    empty = BloomFilter(2048, 7)
    verdict = validate_signature_filter(empty, attack_keys, benign_keys, 0.5, 0.0)
    assert verdict.reason == VerdictReason.LOW_COVERAGE


def test_empty_reference_lists():
    f = BloomFilter(2048, 7)
    with pytest.raises(EmptyReference):
        validate_signature_filter(f, [], [b"x"], 0.8, 0.05)
    with pytest.raises(EmptyReference):
        validate_signature_filter(f, [b"x"], [], 0.8, 0.05)


@st.composite
def filters_and_keys(draw):
    m_bits = draw(st.integers(8, 400))  # most values are not a multiple of 8
    k_hashes = draw(st.integers(1, 16))
    nbytes = (m_bits + 7) // 8
    fill = draw(st.sampled_from(["random", "empty", "saturated"]))
    if fill == "random":
        bits = bytearray(draw(st.binary(min_size=nbytes, max_size=nbytes)))
    else:
        bits = bytearray((b"\xff" if fill == "saturated" else b"\x00") * nbytes)
    keys = draw(st.lists(st.binary(min_size=1, max_size=48), max_size=60))
    return BloomFilter(m_bits, k_hashes, bits, 1), keys, draw(st.integers(0, len(keys)))


@settings(max_examples=200, deadline=None)
@given(filters_and_keys())
def test_probe_set_hits_equal_query_count(case):
    f, keys, split = case
    probes = ProbeSet(keys[:split])
    assert probes.hits(f) == sum(f.query(k) for k in keys[:split])
    probes.extend(keys[split:])  # only the new keys get hashed
    assert probes.hits(f) == sum(f.query(k) for k in keys)
    # a second shape gets its own positions and leaves the first one's intact
    nbytes = (f.m_bits + 8) // 8
    saturated = BloomFilter(f.m_bits + 1, f.k_hashes, bytearray(b"\xff" * nbytes), 1)
    assert probes.hits(saturated) == len(keys)
    assert probes.hits(f) == sum(f.query(k) for k in keys)


def test_filter_verdict_same_for_probe_sets_and_lists():
    attack_keys, benign_keys = reference_keys()
    probes = ProbeSet(attack_keys), ProbeSet(benign_keys)
    rng = random.Random(9)
    for n_inserted in (0, 50, 150, 200):
        f = BloomFilter(1024, 5)
        for k in attack_keys[:n_inserted] + [rng.randbytes(41) for _ in range(40)]:
            f.insert(k)
        from_lists = validate_signature_filter(f, attack_keys, benign_keys, 0.7, 0.05)
        assert validate_signature_filter(f, *probes, 0.7, 0.05) == from_lists
    with pytest.raises(EmptyReference):
        validate_signature_filter(f, ProbeSet(), probes[1], 0.7, 0.05)


def test_verdict_must_agree_with_its_reason():
    with pytest.raises(ValueError):
        ValidationVerdict(True, 0.5, 0.7, VerdictReason.LOW_COVERAGE)
    with pytest.raises(ValueError):
        ValidationVerdict(False, 0.9, 0.7, VerdictReason.OK)


# --- quorum -----------------------------------------------------------------

def accept(measured=0.9):
    return ValidationVerdict(True, measured, 0.7, VerdictReason.OK)


def reject(measured=0.1):
    return ValidationVerdict(False, measured, 0.7, VerdictReason.BELOW_ACCURACY)


def record_with_score(node, score):
    # positives chosen so (1+p)/(2+p) ~ score for synthetic trust maps
    # easier: build via repeated outcomes
    r = TrustRecord(node)
    while abs(r.score - score) > 0.01 and r.positives + r.negatives < 500:
        r = apply_outcome(r, Outcome.POSITIVE if r.score < score else Outcome.NEGATIVE)
    return r


def test_single_validator_accepting():
    assert quorum([(0, accept())], {0: TrustRecord(0)})


def test_equal_trust_tie_rejects():
    trust = {0: TrustRecord(0), 1: TrustRecord(1)}
    assert not quorum([(0, accept()), (1, reject())], trust)


def test_weighted_majority():
    trust = {0: record_with_score(0, 0.9), 1: record_with_score(1, 0.3),
             2: record_with_score(2, 0.3)}
    assert abs(trust[0].score - 0.9) < 0.02
    assert quorum([(0, accept()), (1, reject()), (2, reject())], trust)


def test_quorum_invariant_under_common_rescaling():
    # scores themselves cannot be rescaled through the public API, so check the
    # decision rule directly: multiplying every weight by c>0 cannot change it
    verdicts = [(0, accept()), (1, reject()), (2, accept()), (3, reject())]
    trust = {i: record_with_score(i, s) for i, s in enumerate((0.34, 0.71, 0.55, 0.48))}
    weights = {i: trust[i].score for i, _ in verdicts}
    base = sum(w for i, w in weights.items() if verdicts[i][1].accepted) > 0.5 * sum(
        weights.values()
    )
    for c in (0.001, 3.7, 1e6):
        scaled = {i: c * w for i, w in weights.items()}
        decision = sum(w for i, w in scaled.items() if verdicts[i][1].accepted) > 0.5 * sum(
            scaled.values()
        )
        assert decision == base
    assert quorum(verdicts, trust) == base


def test_quorum_requires_verdicts():
    with pytest.raises(ValueError):
        quorum([], {})


# --- trust transactions -----------------------------------------------------

def test_outcome_from_quorum_mapping():
    tx = outcome_from_quorum(contributor=4, accepted=True,
                             kind=TxKind.MODEL_CONTRIBUTION, sender=0)
    assert tx.payload.outcome == Outcome.POSITIVE
    assert tx.payload.reason == Reason.MODEL_ACCEPTED
    assert tx.payload.subject == 4

    tx = outcome_from_quorum(contributor=5, accepted=False,
                             kind=TxKind.SIGNATURE_CONTRIBUTION, sender=1)
    assert tx.payload.outcome == Outcome.NEGATIVE
    assert tx.payload.reason == Reason.FILTER_REJECTED


def test_fold_reproduces_live_records():
    rng = random.Random(17)
    ledger = Ledger(authorities=[0])
    live: dict[int, TrustRecord] = {}
    height = 0
    for step in range(40):
        subject = rng.randrange(5)
        accepted = rng.random() < 0.6
        kind = TxKind.MODEL_CONTRIBUTION if rng.random() < 0.5 else TxKind.SIGNATURE_CONTRIBUTION
        tx = outcome_from_quorum(subject, accepted, kind, sender=0)
        ledger.seal_block(0, (step + 1) * 10, [tx])
        current = live.get(subject, TrustRecord(subject))
        live[subject] = apply_outcome(current, tx.payload.outcome)
        height += 1
    replayed = fold_trust(ledger)
    assert replayed == live
    for node, record in replayed.items():
        assert record.score == live[node].score
