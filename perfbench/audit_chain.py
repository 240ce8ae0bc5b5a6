"""Seeded transaction stream for the `audit` workload, and its tamper check.

The chain is generated, not taken from a simulator run, so that a change to
how the simulator consumes its random stream cannot change the input the
ledger is timed on. Its shape follows the standard scenario at seed 42:
1.5 transactions per block, split 61 % alarms, 21 % trust updates, 10 %
model contributions and 8 % signature contributions. Every block is one the
simulator could have sealed: proposers follow the round-robin schedule,
trust updates are sent by the block's proposer and `sim_time` never
decreases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cids import ledger
from cids.errors import CidsError

AUTHORITIES = (0, 1, 2)
N_NODES = 6
BLOCK_INTERVAL = 10
N_BLOCKS = 20_000
TX_PER_BLOCK = 1.5
MIX = (
    (ledger.TxKind.ALARM, 0.61),
    (ledger.TxKind.TRUST_UPDATE, 0.21),
    (ledger.TxKind.MODEL_CONTRIBUTION, 0.10),
    (ledger.TxKind.SIGNATURE_CONTRIBUTION, 0.08),
)
HEADER_LEN = 64  # index, prev_hash, proposer, sim_time, tx count


@dataclass(frozen=True)
class AuditPlan:
    """Blocks to seal, in height order, and the trust tally they imply."""

    blocks: tuple[tuple[int, int, tuple[ledger.Transaction, ...]], ...]
    tally: dict[int, tuple[int, int]]  # subject -> (positives, negatives)

    @property
    def n_txs(self) -> int:
        return sum(len(txs) for _p, _t, txs in self.blocks)


def kind_counts(n_txs: int) -> dict[ledger.TxKind, int]:
    """Exact per-kind counts for `n_txs` transactions (largest remainder)."""
    raw = {kind: share * n_txs for kind, share in MIX}
    counts = {kind: int(v) for kind, v in raw.items()}
    by_remainder = sorted(raw, key=lambda k: (counts[k] - raw[k], k))
    for kind in by_remainder[: n_txs - sum(counts.values())]:
        counts[kind] += 1
    return counts


def _payload(kind: ledger.TxKind, rng: random.Random, sim_time: int):
    if kind == ledger.TxKind.ALARM:
        return ledger.Alarm(
            rng.choice(list(ledger.AttackClass)),
            rng.randbytes(32),
            max(0, sim_time - rng.randrange(BLOCK_INTERVAL)),
        )
    if kind == ledger.TxKind.MODEL_CONTRIBUTION:
        return ledger.ModelContribution(
            rng.randbytes(32), ledger.ModelKind.SVM, round(rng.uniform(0.5, 1.0), 6)
        )
    return ledger.SignatureContribution(rng.randbytes(32), rng.randrange(1000, 1300), 10_000, 7)


def generate(seed: int, n_blocks: int = N_BLOCKS) -> AuditPlan:
    """Transactions of an `n_blocks`-block chain (plus genesis), from `seed`."""
    rng = random.Random(seed)
    n_txs = round(TX_PER_BLOCK * n_blocks)
    kinds = [k for k, n in kind_counts(n_txs).items() for _ in range(n)]
    rng.shuffle(kinds)
    heights = sorted(rng.randrange(1, n_blocks + 1) for _ in range(n_txs))

    per_height: dict[int, list[ledger.TxKind]] = {}
    for height, kind in zip(heights, kinds):
        per_height.setdefault(height, []).append(kind)

    tally: dict[int, tuple[int, int]] = {}
    blocks = []
    for height in range(1, n_blocks + 1):
        proposer = AUTHORITIES[height % len(AUTHORITIES)]
        sim_time = height * BLOCK_INTERVAL
        txs = []
        for kind in per_height.get(height, ()):
            if kind == ledger.TxKind.TRUST_UPDATE:
                subject = rng.randrange(N_NODES)
                accepted = rng.random() < 0.8
                reason = rng.choice(
                    (ledger.Reason.MODEL_ACCEPTED, ledger.Reason.FILTER_ACCEPTED) if accepted
                    else (ledger.Reason.MODEL_REJECTED, ledger.Reason.FILTER_REJECTED)
                )
                outcome = ledger.Outcome.POSITIVE if accepted else ledger.Outcome.NEGATIVE
                pos, neg = tally.get(subject, (0, 0))
                tally[subject] = (pos + accepted, neg + (not accepted))
                txs.append(ledger.Transaction.wrap(
                    proposer, ledger.TrustUpdate(subject, outcome, reason)))
            else:
                txs.append(ledger.Transaction.wrap(
                    rng.randrange(N_NODES), _payload(kind, rng, sim_time)))
        blocks.append((proposer, sim_time, tuple(txs)))
    return AuditPlan(tuple(blocks), tally)


def seal(plan: AuditPlan) -> ledger.Ledger:
    """Seal the plan into a fresh ledger through the public write path."""
    chain = ledger.Ledger(authorities=list(AUTHORITIES))
    for proposer, sim_time, txs in plan.blocks:
        for tx in txs:
            chain.submit(tx)
        chain.seal_block(proposer, sim_time, list(txs))
    return chain


def flip_one_byte(chain: ledger.Ledger, rng: random.Random) -> tuple[int, ledger.Ledger]:
    """A copy of `chain` with one transaction byte of one block inverted.

    Returns the tampered height and the copy. The block keeps its stored
    hash, so only a verifier that re-hashes every block's contents finds it.
    """
    candidates = [b for b in chain.blocks[1:] if b.txs]
    if not candidates:
        raise ValueError("chain has no block with transactions to tamper with")
    block = candidates[rng.randrange(len(candidates))]
    encoded = ledger.canonical_encode(block)
    offsets = list(range(HEADER_LEN, len(encoded)))
    rng.shuffle(offsets)
    for offset in offsets:
        mutated = bytearray(encoded)
        mutated[offset] ^= 0xFF
        try:
            forged = ledger.canonical_decode(bytes(mutated), block.hash)
        except (CidsError, ValueError):
            continue  # this flip does not decode; a loader would reject it outright
        blocks = list(chain.blocks)
        blocks[block.index] = forged
        return block.index, ledger.Ledger(authorities=list(chain.authorities), blocks=blocks)
    raise ValueError(f"no decodable single-byte flip in block {block.index}")
