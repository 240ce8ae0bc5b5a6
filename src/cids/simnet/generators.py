"""Seeded benign and attack traffic.

Every generator yields (tick, observer, EventRecord) triples for its whole
span, so a run can be fully precomputed and is a pure function of the seed.
The `draw_*` steps (and `BenignPool.draw_event`) make a generator's random
draws on their own, so a caller that needs only counts and tallies, such as
the bootstrap, consumes the stream exactly as the generator would.
Attack visibility models desk-scale IoT assumptions: a flood splashes
collateral traffic on every gateway, ARP spoofing is broadcast, a port scan
sweeps all subnets on the same ports, a replay targets a single session.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..detection import EventRecord, Flags, signature_key
from ..errors import EmptyHistory
from .config import AttackSpec, BenignProfile

BENIGN_PORTS = (80, 443, 1883, 5683)
BENIGN_FLAG_CHOICES = (Flags.NONE, Flags.ACK, Flags.SYN | Flags.ACK)
BENIGN_FLAG_WEIGHTS = (0.2, 0.4, 0.4)

DOS_PORT = 80
DOS_PAYLOAD_LEN = 16
DOS_COLLATERAL = 0.3    # fraction of full intensity splashed on non-targets
SPOOF_PAYLOAD_LEN = 60
RECON_PORT_BASE = 10000
REPLAY_POOL = 4         # distinct captured payloads a replay keeps re-sending

Emission = tuple[int, int, EventRecord]


def _count(intensity: float, rate: float) -> int:
    return int(intensity * rate + 0.5)


def _choice_cdf(weights: tuple[float, ...]) -> list[float]:
    """The normalised CDF that `Generator.choice(p=weights)` bisects one `random()` into.

    `bisect_right(cdf, rng.random())` draws the same index as the `choice` call
    and leaves the generator in the same state, without its per-call set-up.
    """
    cdf = np.cumsum(weights)
    return (cdf / cdf[-1]).tolist()


_FLAG_CDF = _choice_cdf(BENIGN_FLAG_WEIGHTS)
# per flag-set index: 1 if it carries SYN (a plain-int table, no IntFlag arithmetic per event)
BENIGN_FLAG_SYN = tuple(int(Flags.SYN in flags) for flags in BENIGN_FLAG_CHOICES)


@dataclass
class AttackPools:
    """Per-run attack payload digests, disjoint from the benign pool."""

    dos_payloads: list[bytes]
    spoof_payloads: list[bytes]
    recon_probe: bytes

    @classmethod
    def from_rng(cls, rng: np.random.Generator) -> AttackPools:
        return cls(
            dos_payloads=[rng.bytes(32) for _ in range(16)],
            spoof_payloads=[rng.bytes(32) for _ in range(16)],
            recon_probe=rng.bytes(32),
        )


class BenignPool:
    """The fixed key space of normal traffic; enumerable for allowlisting."""

    def __init__(self, profile: BenignProfile, rng: np.random.Generator):
        self.profile = profile
        self.payloads = [rng.bytes(32) for _ in range(profile.payload_pool)]

    def whitelist_keys(self) -> set[bytes]:
        keys = set()
        for digest in self.payloads:
            for port in BENIGN_PORTS:
                for flags in BENIGN_FLAG_CHOICES:
                    keys.add(
                        signature_key(
                            EventRecord(0, 0, 0, port, digest, 0, flags, 0)
                        )
                    )
        return keys

    def draw_event(self, n_nodes: int,
                   rng: np.random.Generator) -> tuple[int, int, int, bytes, int]:
        """One event's draws, in stream order: (src, payload_len, dst_port,
        payload_digest, index into BENIGN_FLAG_CHOICES)."""
        src = int(rng.integers(n_nodes))
        length = max(1, int(rng.normal(self.profile.payload_len_mean,
                                       self.profile.payload_len_std)))
        port = BENIGN_PORTS[rng.integers(len(BENIGN_PORTS))]
        digest = self.payloads[rng.integers(len(self.payloads))]
        return src, length, port, digest, bisect_right(_FLAG_CDF, rng.random())

    def one_event(self, tick: int, node: int, n_nodes: int,
                  rng: np.random.Generator) -> EventRecord:
        src, length, port, digest, flag = self.draw_event(n_nodes, rng)
        return EventRecord(tick, src, node, port, digest, length,
                           BENIGN_FLAG_CHOICES[flag], src)


def gen_benign(pool: BenignPool, n_nodes: int, duration: int,
               rng: np.random.Generator) -> list[Emission]:
    """Poisson arrivals per node per tick from the benign pool."""
    out = []
    rate = pool.profile.rate
    for tick in range(1, duration + 1):
        for node in range(n_nodes):
            for _ in range(int(rng.poisson(rate))):
                out.append((tick, node, pool.one_event(tick, node, n_nodes, rng)))
    return out


def draw_dos(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
             n_nodes: int, rng: np.random.Generator) -> tuple[list[int], np.ndarray]:
    """A flood's events per tick at each node, and its (src, payload index) rows.

    Rows run tick by tick, node by node; one bulk draw yields the pairs a
    per-event loop would draw, and leaves the generator in the same state.
    """
    full = _count(spec.intensity, profile.rate)
    collateral = _count(DOS_COLLATERAL * spec.intensity, profile.rate)
    counts = [full if node == spec.target else collateral for node in range(n_nodes)]
    highs = np.tile([n_nodes, len(pools.dos_payloads)], sum(counts) * spec.length)
    return counts, rng.integers(0, highs).reshape(-1, 2)


def gen_dos(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
            n_nodes: int, rng: np.random.Generator) -> list[Emission]:
    """SYN flood: full intensity at the target, collateral everywhere else."""
    counts, rows = draw_dos(spec, pools, profile, n_nodes, rng)
    draws = iter(rows.tolist())
    out = []
    for tick in range(spec.start, spec.start + spec.length):
        for node, count in enumerate(counts):
            for src, payload in islice(draws, count):
                out.append(
                    (
                        tick,
                        node,
                        EventRecord(
                            sim_time=tick,
                            src=src,
                            dst=node,
                            dst_port=DOS_PORT,
                            payload_digest=pools.dos_payloads[payload],
                            payload_len=DOS_PAYLOAD_LEN,
                            flags=Flags.SYN,
                            claimed_src_identity=src,
                        ),
                    )
                )
    return out


def draw_spoof(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
               n_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """A spoofing run's (tick, node, event, 3) block of (src, offset, payload index).

    The claimed identity is src + 1 + offset: spoofed identities need not be
    real node ids, only mismatched. One bulk draw, as for `draw_dos`.
    """
    count = max(1, _count(spec.intensity, profile.rate))
    highs = np.tile([n_nodes, 16, len(pools.spoof_payloads)], count * n_nodes * spec.length)
    return rng.integers(0, highs).reshape(spec.length, n_nodes, count, 3)


def gen_spoof(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
              n_nodes: int, rng: np.random.Generator) -> list[Emission]:
    """ARP-style spoofing, broadcast: claimed identity never matches the source."""
    block = draw_spoof(spec, pools, profile, n_nodes, rng)
    count = block.shape[2]
    draws = iter(block.reshape(-1, 3).tolist())
    out = []
    for tick in range(spec.start, spec.start + spec.length):
        for node in range(n_nodes):
            for src, offset, payload in islice(draws, count):
                out.append(
                    (
                        tick,
                        node,
                        EventRecord(
                            sim_time=tick,
                            src=src,
                            dst=node,
                            dst_port=0,
                            payload_digest=pools.spoof_payloads[payload],
                            payload_len=SPOOF_PAYLOAD_LEN,
                            flags=Flags.ARP_REPLY,
                            claimed_src_identity=src + 1 + offset,
                        ),
                    )
                )
    return out


def draw_recon(spec: AttackSpec, profile: BenignProfile, n_nodes: int,
               rng: np.random.Generator) -> tuple[int, int]:
    """A sweep's probes per tick at each node, and its one draw: the scanning source."""
    return max(1, _count(spec.intensity, profile.rate)), int(rng.integers(n_nodes))


def gen_recon(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
              n_nodes: int, rng: np.random.Generator) -> list[Emission]:
    """Horizontal port sweep: strictly ascending ports, one per probe."""
    out = []
    per_tick, src = draw_recon(spec, profile, n_nodes, rng)
    index = 0
    for tick in range(spec.start, spec.start + spec.length):
        base = index
        for node in range(n_nodes):
            for i in range(per_tick):
                port = RECON_PORT_BASE + base + i
                out.append(
                    (
                        tick,
                        node,
                        EventRecord(
                            sim_time=tick,
                            src=src,
                            dst=node,
                            dst_port=port,
                            payload_digest=pools.recon_probe,
                            payload_len=0,
                            flags=Flags.SYN,
                            claimed_src_identity=src,
                        ),
                    )
                )
        index += per_tick
    return out


def gen_replay(spec: AttackSpec, profile: BenignProfile, captured: list[EventRecord],
               rng: np.random.Generator) -> list[Emission]:
    """Re-emission of previously captured target traffic at high duplication."""
    if not captured:
        raise EmptyHistory("no captured traffic to replay")
    distinct: dict[bytes, EventRecord] = {}
    order = rng.permutation(len(captured))
    for i in order:
        event = captured[int(i)]
        distinct.setdefault(event.payload_digest, event)
        if len(distinct) >= REPLAY_POOL:
            break
    templates = list(distinct.values())
    out = []
    per_tick = max(1, _count(spec.intensity, profile.rate))
    picks = iter(rng.integers(len(templates), size=per_tick * spec.length).tolist())
    for tick in range(spec.start, spec.start + spec.length):
        for i in islice(picks, per_tick):
            t = templates[i]
            out.append(
                (
                    tick,
                    spec.target,
                    EventRecord(
                        sim_time=tick,
                        src=t.src,
                        dst=spec.target,
                        dst_port=t.dst_port,
                        payload_digest=t.payload_digest,
                        payload_len=t.payload_len,
                        flags=t.flags,
                        claimed_src_identity=t.src,
                    ),
                )
            )
    return out
