import random
from collections import Counter

import audit_chain
from cids import ledger, trust


def test_generator_is_deterministic_per_seed():
    a, b = audit_chain.generate(7, n_blocks=500), audit_chain.generate(7, n_blocks=500)
    assert a.blocks == b.blocks and a.tally == b.tally
    assert audit_chain.generate(8, n_blocks=500).blocks != a.blocks


def test_generator_matches_the_stated_mix_and_a_sealable_schedule():
    n_blocks = 2000
    plan = audit_chain.generate(3, n_blocks=n_blocks)
    kinds = Counter(tx.kind for _p, _t, txs in plan.blocks for tx in txs)
    assert plan.n_txs == 1.5 * n_blocks
    for kind, share in audit_chain.MIX:
        assert abs(kinds[kind] - share * plan.n_txs) < 1

    last_time = 0
    for height, (proposer, sim_time, txs) in enumerate(plan.blocks, start=1):
        assert proposer == audit_chain.AUTHORITIES[height % len(audit_chain.AUTHORITIES)]
        assert sim_time >= last_time
        last_time = sim_time
        for tx in txs:
            if tx.kind == ledger.TxKind.TRUST_UPDATE:
                assert tx.sender == proposer

    chain = audit_chain.seal(plan)
    assert chain.height == n_blocks + 1
    assert ledger.first_invalid_height(chain) is None
    folded = trust.fold_trust(chain)
    assert {s: (r.positives, r.negatives) for s, r in folded.items()} == plan.tally


def _linkage_only(chain):
    """A verifier that skips re-hashing block contents."""
    for i, block in enumerate(chain.blocks[1:], start=1):
        if block.index != i or block.prev_hash != chain.blocks[i - 1].hash:
            return i
    return None


def test_a_flipped_byte_is_reported_at_its_height():
    chain = audit_chain.seal(audit_chain.generate(11, n_blocks=300))
    for trial in range(20):
        height, tampered = audit_chain.flip_one_byte(chain, random.Random(trial))
        assert tampered.blocks[height] != chain.blocks[height]
        assert ledger.first_invalid_height(tampered) == height
        assert _linkage_only(tampered) is None  # so the check needs a full verify
    assert ledger.first_invalid_height(chain) is None
