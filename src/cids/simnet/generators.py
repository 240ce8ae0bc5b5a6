"""Seeded benign and attack traffic.

Every generator yields (tick, observer, EventRecord) triples for its whole
span, so a run can be fully precomputed and is a pure function of the seed.
Each attack class is drawn once, by its `draw_*` function, into an
`AttackBatch`: one row per event, in emission order, as columns. The batch
is the only place an attack's events are defined: `emissions()` turns it into
EventRecords for the main traffic, and the bootstrap tallies its columns
straight into window features (as it does `BenignPool.draw_event`'s draws),
consuming the random stream exactly as the generator would.
Attack visibility models desk-scale IoT assumptions: a flood splashes
collateral traffic on every gateway, ARP spoofing is broadcast, a port scan
sweeps all subnets on the same ports, a replay targets a single session.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..detection import EventRecord, Flags, signature_key_from
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
_FLAGS = tuple(Flags(bits) for bits in range(8))  # plain-int bits -> Flags member


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
        return {
            signature_key_from(port, digest, flags)
            for digest in self.payloads
            for port in BENIGN_PORTS
            for flags in BENIGN_FLAG_CHOICES
        }

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


class AttackBatch(NamedTuple):
    """An attack's events as columns, one row per event, in emission order:
    by tick, then by observer. `payload` indexes the digest table `digests`."""

    ticks: np.ndarray
    dst: np.ndarray  # the observing node
    src: np.ndarray
    port: np.ndarray
    payload: np.ndarray
    length: np.ndarray
    flags: np.ndarray  # Flags bits as plain ints
    claimed: np.ndarray  # claimed source identity
    digests: list[bytes]

    def at(self, node: int) -> AttackBatch:
        """The rows that `node` observes."""
        keep = self.dst == node
        return AttackBatch(*(column[keep] for column in self[:-1]), self.digests)

    def emissions(self) -> list[Emission]:
        """The batch as EventRecords, built one tick's rows at a time, so
        the rows of a tick share one tick object and few values are alive."""
        digests = self.digests
        ticks, starts = np.unique(self.ticks, return_index=True)
        bounds = [*starts.tolist(), len(self.ticks)]
        out = []
        for tick, lo, hi in zip(ticks.tolist(), bounds, bounds[1:]):
            out.extend(
                (tick, dst, EventRecord(tick, src, dst, port, digests[payload], length,
                                        _FLAGS[flags], claimed))
                for dst, src, port, payload, length, flags, claimed
                in zip(*(column[lo:hi].tolist() for column in self[1:-1]))
            )
        return out


def _batch(spec: AttackSpec, observers: np.ndarray, src, port, payload, length, flags,
           claimed, digests: list[bytes]) -> AttackBatch:
    """A batch whose every tick emits one row per entry of `observers`; each
    other column is an array over all rows or one value for every row, held
    as a read-only view so a shared value costs no memory per row."""
    per_tick = len(observers)
    return AttackBatch(
        np.repeat(np.arange(spec.start, spec.start + spec.length), per_tick),
        np.tile(observers, spec.length),
        *(np.broadcast_to(column, per_tick * spec.length)
          for column in (src, port, payload, length, flags, claimed)),
        digests,
    )


def draw_dos(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
             n_nodes: int, rng: np.random.Generator) -> AttackBatch:
    """SYN flood: full intensity at the target, collateral everywhere else.

    One bulk draw of every event's (src, payload index) pair yields the pairs
    a per-event loop would draw, and leaves the generator in the same state.
    """
    full = _count(spec.intensity, profile.rate)
    collateral = _count(DOS_COLLATERAL * spec.intensity, profile.rate)
    counts = [full if node == spec.target else collateral for node in range(n_nodes)]
    highs = np.tile([n_nodes, len(pools.dos_payloads)], sum(counts) * spec.length)
    src, payload = rng.integers(0, highs).reshape(-1, 2).T
    return _batch(spec, np.repeat(np.arange(n_nodes), counts), src, DOS_PORT, payload,
                  DOS_PAYLOAD_LEN, Flags.SYN, src, pools.dos_payloads)


def draw_spoof(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
               n_nodes: int, rng: np.random.Generator) -> AttackBatch:
    """ARP-style spoofing, broadcast: claimed identity never matches the source.

    The claimed identity is src + 1 + offset: spoofed identities need not be
    real node ids, only mismatched. One bulk draw, as for `draw_dos`.
    """
    count = max(1, _count(spec.intensity, profile.rate))
    highs = np.tile([n_nodes, 16, len(pools.spoof_payloads)], count * n_nodes * spec.length)
    src, offset, payload = rng.integers(0, highs).reshape(-1, 3).T
    return _batch(spec, np.repeat(np.arange(n_nodes), count), src, 0, payload,
                  SPOOF_PAYLOAD_LEN, Flags.ARP_REPLY, src + 1 + offset, pools.spoof_payloads)


def draw_recon(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
               n_nodes: int, rng: np.random.Generator) -> AttackBatch:
    """Horizontal port sweep from one drawn source: each tick every node sees
    the same probes, on strictly ascending ports, one per probe."""
    per_tick = max(1, _count(spec.intensity, profile.rate))
    src = int(rng.integers(n_nodes))
    sweep = np.arange(spec.length * per_tick).reshape(spec.length, 1, per_tick)
    ports = RECON_PORT_BASE + np.broadcast_to(sweep, (spec.length, n_nodes, per_tick))
    return _batch(spec, np.repeat(np.arange(n_nodes), per_tick), src, ports.ravel(), 0,
                  0, Flags.SYN, src, [pools.recon_probe])


def draw_replay(spec: AttackSpec, profile: BenignProfile, captured: list[EventRecord],
                rng: np.random.Generator) -> AttackBatch:
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
    per_tick = max(1, _count(spec.intensity, profile.rate))
    picks = rng.integers(len(templates), size=per_tick * spec.length)
    src, port, length, flags = np.array(
        [(t.src, t.dst_port, t.payload_len, t.flags) for t in templates]
    )[picks].T
    # templates have distinct digests, so a pick indexes the digest table too
    return _batch(spec, np.full(per_tick, spec.target), src, port, picks, length, flags, src,
                  [t.payload_digest for t in templates])


def gen_dos(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
            n_nodes: int, rng: np.random.Generator) -> list[Emission]:
    return draw_dos(spec, pools, profile, n_nodes, rng).emissions()


def gen_spoof(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
              n_nodes: int, rng: np.random.Generator) -> list[Emission]:
    return draw_spoof(spec, pools, profile, n_nodes, rng).emissions()


def gen_recon(spec: AttackSpec, pools: AttackPools, profile: BenignProfile,
              n_nodes: int, rng: np.random.Generator) -> list[Emission]:
    return draw_recon(spec, pools, profile, n_nodes, rng).emissions()


def gen_replay(spec: AttackSpec, profile: BenignProfile, captured: list[EventRecord],
               rng: np.random.Generator) -> list[Emission]:
    return draw_replay(spec, profile, captured, rng).emissions()
