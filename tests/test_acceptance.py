"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints
one PASS line with the measured values once its assertions hold. The
standard scenario (frozen in scenarios/standard.json, seed 42) is executed
once per session and shared.
"""

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from cids.bloom import BloomFilter, analytic_fpr
from cids.cli import main
from cids.detection import (
    LabeledDataset,
    hinge_subgradient,
    svm_predict,
    svm_train,
)
from cids.ledger import (
    Ledger,
    TxKind,
    canonical_decode,
    canonical_encode,
    export_jsonl,
    verify_chain,
)
from cids.simnet import Simulation
from cids.trust import (
    TrustRecord,
    VerdictReason,
    apply_outcome,
    fold_trust,
    validate_model,
    validate_signature_filter,
)
from cids.ledger import Outcome
from util import build_chain, standard_config


@pytest.fixture(scope="module")
def standard_run():
    sim = Simulation(standard_config())
    started = time.monotonic()
    report = sim.run()
    elapsed = time.monotonic() - started
    return sim, report, elapsed


def test_criterion_1_bloom_correctness():
    started = time.monotonic()
    rng = random.Random(20260810)

    # zero false negatives over 10^4 randomized insert/query trials
    f = BloomFilter(131072, 5)
    inserted = [rng.randbytes(rng.randrange(8, 48)) for _ in range(10_000)]
    for item in inserted:
        f.insert(item)
    false_negatives = sum(not f.query(item) for item in inserted)
    assert false_negatives == 0

    # Monte-Carlo FPR within 3 standard errors of the closed form
    target = BloomFilter(10000, 7)
    for _ in range(1000):
        target.insert(rng.randbytes(16))
    queries = 100_000
    hits = sum(target.query(rng.randbytes(17)) for _ in range(queries))
    empirical = hits / queries
    expected = analytic_fpr(10000, 7, 1000)
    stderr = math.sqrt(expected * (1 - expected) / queries)
    assert abs(empirical - expected) <= 3 * stderr
    assert expected == pytest.approx(0.00819, abs=1e-4)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: 0 false negatives /10^4; empirical FPR "
          f"{empirical:.5f} vs analytic {expected:.5f} (3se={3 * stderr:.5f}); "
          f"{elapsed:.1f}s")


def test_criterion_2_compression_ratio(standard_run):
    _sim, report, _ = standard_run
    assert report.bytes_filters_exchanged > 0
    ratio = report.compression_ratio
    assert ratio >= 50.0
    assert report.bytes_raw_baseline % 64 == 0  # 64 bytes per raw signature
    print(f"\nPASS criterion 2: {report.bytes_raw_baseline} raw bytes vs "
          f"{report.bytes_filters_exchanged} filter bytes, ratio {ratio:.1f} >= 50")


def test_criterion_3_ledger_tamper_evidence():
    started = time.monotonic()
    ledger = build_chain(random.Random(99), 10)
    assert verify_chain(ledger)

    positions = 0
    mutations = 0
    for block in ledger.blocks:
        encoded = canonical_encode(block)
        assert hashlib.sha256(encoded).digest() == block.hash
        for pos in range(len(encoded)):
            original = encoded[pos]
            # exhaustive at the hash layer: all 255 alternative byte values
            mutated = bytearray(encoded)
            for alt in range(256):
                if alt == original:
                    continue
                mutated[pos] = alt
                assert hashlib.sha256(bytes(mutated)).digest() != block.hash
                mutations += 1
            # end-to-end per position: a decodable mutation must flip verify_chain
            mutated[pos] = original ^ 0xFF
            try:
                tampered_block = canonical_decode(bytes(mutated), block.hash)
            except Exception:
                positions += 1  # undecodable tampering cannot even be loaded
                continue
            tampered = Ledger(
                authorities=list(ledger.authorities),
                blocks=[tampered_block if b.index == block.index else b
                        for b in ledger.blocks],
            )
            assert not verify_chain(tampered)
            positions += 1

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 3: {mutations} single-byte mutations over "
          f"{positions} positions in 11 blocks all detected; {elapsed:.1f}s")


def test_criterion_4_svm_verification():
    # subgradient vs central finite differences at 100 non-kink points
    rng = np.random.default_rng(424242)
    lam, h = 0.05, 1e-6
    checked = 0
    worst = 0.0
    while checked < 100:
        w = rng.normal(size=8)
        b = float(rng.normal())
        x = rng.normal(size=8)
        y = int(rng.choice([-1, 1]))
        if abs(1.0 - y * (float(w @ x) + b)) < 1e-3:
            continue

        def J(wv, bv):
            return 0.5 * lam * float(wv @ wv) + max(0.0, 1.0 - y * (float(wv @ x) + bv))

        grad_w, grad_b = hinge_subgradient(w, b, x, y, lam)
        num = np.zeros(9)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            num[j] = (J(w + e, b) - J(w - e, b)) / (2 * h)
        num[8] = (J(w, b + h) - J(w, b - h)) / (2 * h)
        analytic = np.concatenate([grad_w, [grad_b]])
        rel = np.linalg.norm(analytic - num) / max(1.0, float(np.linalg.norm(analytic)))
        worst = max(worst, rel)
        assert rel < 1e-4
        checked += 1

    # separable pair trains to positive margin on both points
    X = np.zeros((2, 8))
    X[0, 0], X[1, 0] = -1.0, 1.0
    pair = LabeledDataset(X, np.array([-1, 1]))
    model = svm_train(pair, lam=0.01, epochs=100, seed=0)
    margins = [svm_predict(model, X[0])[1], svm_predict(model, X[1])[1]]
    assert margins[0] < 0 < margins[1]

    # seeded two-cluster set, 4 sigma between centers: accuracy >= 0.97
    crng = np.random.default_rng(1234)
    shift = 4.0 / np.sqrt(8)
    data = LabeledDataset(
        np.vstack([crng.normal(0, 1, (200, 8)), crng.normal(shift, 1, (200, 8))]),
        np.array([-1] * 200 + [1] * 200),
    )
    cluster_model = svm_train(data, lam=0.03, epochs=30, seed=7)
    correct = sum(
        svm_predict(cluster_model, row)[0] == label for row, label in zip(data.X, data.y)
    )
    accuracy = correct / len(data)
    assert accuracy >= 0.97
    print(f"\nPASS criterion 4: max fd relative error {worst:.2e} < 1e-4; "
          f"pair margins ({margins[0]:.2f}, {margins[1]:.2f}); "
          f"cluster accuracy {accuracy:.3f} >= 0.97")


def test_criterion_5_poisoned_model_exclusion(standard_run):
    sim, report, _ = standard_run
    threshold = sim.config.thresholds.model_accuracy
    assert threshold == 0.7

    honest = sim.nodes[0].model
    poisoned = honest.negated()
    rejections = acceptances = 0
    for node in sim.nodes:
        if node.id == sim.config.adversary.node:
            continue
        verdict = validate_model(poisoned, node.holdout, threshold)
        assert not verdict.accepted
        rejections += 1
        verdict = validate_model(honest, node.holdout, threshold)
        assert verdict.accepted
        acceptances += 1

    assert report.rejected_model_contributions >= 1
    sealed_model_txs = sim.ledger.scan(TxKind.MODEL_CONTRIBUTION)
    sealed_senders = {tx.sender for _, tx in sealed_model_txs}
    assert sim.config.adversary.node not in sealed_senders
    sealed_digests = {tx.payload.model_digest.hex() for _, tx in sealed_model_txs}
    assert set(report.adopted_model_digests) <= sealed_digests
    print(f"\nPASS criterion 5: poisoned model rejected by {rejections}/"
          f"{rejections} honest validators, honest accepted by {acceptances}; "
          f"{report.rejected_model_contributions} on-chain rejections; "
          f"no poisoned digest adopted")


def test_criterion_6_poisoned_filter_exclusion(standard_run):
    sim, _report, _ = standard_run
    cfg = sim.config
    validator = sim.nodes[0]
    attack_keys = list(validator.local_signatures)
    benign_keys = sim.benign_samples[0]

    all_ones = BloomFilter(
        cfg.bloom_m_bits, cfg.bloom_k_hashes,
        bytearray(b"\xff" * ((cfg.bloom_m_bits + 7) // 8)), n_inserted=1,
    )
    verdict = validate_signature_filter(
        all_ones, attack_keys, benign_keys,
        cfg.thresholds.filter_coverage, cfg.thresholds.filter_fpr,
    )
    assert not verdict.accepted
    assert verdict.reason == VerdictReason.HIGH_FPR

    empty = BloomFilter(cfg.bloom_m_bits, cfg.bloom_k_hashes)
    verdict = validate_signature_filter(
        empty, attack_keys, benign_keys,
        cfg.thresholds.filter_coverage, cfg.thresholds.filter_fpr,
    )
    assert not verdict.accepted
    assert verdict.reason == VerdictReason.LOW_COVERAGE

    honest = sim.nodes[1].local_filter
    verdict = validate_signature_filter(
        honest, attack_keys, benign_keys,
        cfg.thresholds.filter_coverage, cfg.thresholds.filter_fpr,
    )
    assert verdict.accepted
    print("\nPASS criterion 6: all-ones filter rejected (high_fpr), empty filter "
          "rejected (low_coverage), honest filter accepted")


def test_criterion_7_detection_effectiveness(standard_run):
    _sim, report, elapsed = standard_run
    rates = {name: m.detection_rate for name, m in report.per_class.items()}
    assert rates["dos"] >= 0.9
    assert rates["recon"] >= 0.9
    assert rates["spoof"] >= 0.8
    assert rates["replay"] >= 0.8
    assert report.false_alarm_rate <= 0.05
    assert elapsed < 30.0
    printable = {k: round(v, 3) for k, v in sorted(rates.items())}
    print(f"\nPASS criterion 7: detection {printable}, false alarm rate "
          f"{report.false_alarm_rate:.4f} <= 0.05; run {elapsed:.1f}s")


def test_criterion_8_alarm_dissemination(standard_run):
    sim, report, _ = standard_run
    assert report.dissemination_max is not None
    assert report.dissemination_max <= sim.config.block_interval
    print(f"\nPASS criterion 8: max dissemination latency "
          f"{report.dissemination_max} <= block interval {sim.config.block_interval}")


def test_criterion_9_trust_auditability(standard_run):
    sim, _report, _ = standard_run
    replayed = fold_trust(sim.ledger)
    exported = export_jsonl(sim.ledger)
    from cids.ledger import import_jsonl

    refolded = fold_trust(import_jsonl(exported))
    assert refolded == replayed
    for node_id, record in replayed.items():
        assert record == sim.trust[node_id]
        assert record.score == sim.trust[node_id].score

    assert TrustRecord(9).score == 0.5
    r = TrustRecord(1)
    for _ in range(3):
        r = apply_outcome(r, Outcome.POSITIVE)
    r = apply_outcome(r, Outcome.NEGATIVE)
    assert abs(r.score - 0.6667) <= 1e-4
    assert abs(r.score - 4 / 6) <= 1e-9
    print(f"\nPASS criterion 9: exported-ledger trust fold reproduces all "
          f"{len(replayed)} live records exactly; fresh=0.5; 3+/1- = {r.score:.4f}")


def test_criterion_10_determinism(capsys, standard_run):
    from pathlib import Path

    config_path = Path(__file__).parent.parent / "scenarios" / "standard.json"
    assert main(["run", "--config", str(config_path)]) == 0
    first = capsys.readouterr().out
    # the shared run is a second, independent Simulation of the same config
    _sim, report, _elapsed = standard_run
    assert first == report.to_json()

    assert main(["run", "--config", str(config_path), "--seed", "43"]) == 0
    other_seed = capsys.readouterr().out
    assert other_seed != first
    assert json.loads(other_seed)["seed"] == 43
    print(f"\nPASS criterion 10: identical config+seed -> byte-identical "
          f"{len(first)}-byte reports; changed seed -> different report")


# Fingerprints of the frozen standard scenario at seed 42. A change that moves
# the random stream, the report layout, either ledger encoding or what a node
# contributes changes one of these; such a change must update them and say why.
STANDARD_REPORT_SHA256 = "b296c0c5ed4d9ebea2a86c23b43c1edbd49b855311a10f558ad6b617abecd24b"
STANDARD_CHAIN_HEAD = "83329c90c8ea8e899ea82371130ef37a85736ca9977e6494b14f48db7e05360f"
STANDARD_JSONL_SHA256 = "a622b742251ed395d568d840ba1281cf5705f2640eb5cd13cfd47c691c1ce8da"


def test_standard_fingerprints_pinned(standard_run):
    sim, report, _ = standard_run
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == STANDARD_REPORT_SHA256
    assert sim.ledger.blocks[-1].hash.hex() == STANDARD_CHAIN_HEAD
    jsonl = export_jsonl(sim.ledger).encode()
    assert hashlib.sha256(jsonl).hexdigest() == STANDARD_JSONL_SHA256


# Detection figures of the standard scenario at two seeds near the DoS gate:
# seed 1 passes it at 30/33 = 0.909 and seed 32 fails it at 30/35 = 0.857.
# Unlike the fingerprints these hold while the chain's bytes change, and move
# only when what the nodes detect does.
MARGIN_SEED_FIGURES = {
    # seed: ({class: (injected, detected, mean latency)}, benign, false alarms,
    #        max dissemination)
    1: ({"dos": (33, 30, 20.0), "recon": (30, 30, 20.0), "replay": (5, 5, 20.0),
         "spoof": (30, 30, 20.0)}, 486, 0, 7),
    32: ({"dos": (35, 30, 20.0), "recon": (30, 30, 4.0), "replay": (5, 5, 20.0),
          "spoof": (30, 30, 20.0)}, 486, 0, 8),
}


@pytest.mark.parametrize("seed", sorted(MARGIN_SEED_FIGURES))
def test_margin_seed_detection_figures_pinned(seed):
    per_class, benign, false_alarms, dissemination_max = MARGIN_SEED_FIGURES[seed]
    config = standard_config()
    config.seed = seed
    report = Simulation(config).run()
    assert {name: (m.injected_windows, m.detected_windows, m.mean_detection_latency_ticks)
            for name, m in report.per_class.items()} == per_class
    assert (report.benign_windows, report.false_alarm_windows) == (benign, false_alarms)
    assert report.dissemination_max == dissemination_max
