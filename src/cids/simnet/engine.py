"""Deterministic discrete-event CIDS run.

Tick order: attack forensics, traffic delivery (signature engine), window
close (anomaly engine), contributions, block sealing with consensus-time
validation, node sync. Everything derives from the config seed, so a report
is a pure function of its ScenarioConfig.

Nodes bootstrap from seeded pre-run corpora, the way a deployed IDS ships
with historical labeled traffic and a vendor signature feed: a labeled
window set (training + validation holdout), a historical attack-key feed,
and the benign allowlist enumerated from the traffic profile. A node trains
its anomaly model once, on that training set; during the run it takes other
models only by adopting sealed peer contributions.

Ground truth is tallied once, as the traffic is built, into one table of
event counts per (observer, window, kind); only `_finalize` derives each
window's kind from it, to score the run, so no node ever reads it. The run
keeps only each alarmed window's first alarm tick, since alarms raised after
the last seal never reach the chain. The report's consensus figures (filter
bytes exchanged, rejected contributions, alarm dissemination) are folded from
the sealed chain at the end: each is a fact a block records, and an alarm
carries the tick it was raised.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from operator import itemgetter

import numpy as np

from .. import bloom
from ..bloom import BloomFilter, ProbeSet
from ..content_store import ContentStore
from ..detection import (
    EventRecord,
    Flags,
    LabeledDataset,
    WindowColumns,
    extract_features,
    signature_key,
    signature_key_from,
)
from ..errors import EmptyHoldout, EmptyReference, MalformedBytes, NotFound
from ..ledger import AttackClass, Ledger, Reason, Transaction, TxKind
from ..node import NodeState, TrainParams, content_digest, fetch_contribution
from ..trust import (
    TrustRecord,
    ValidationVerdict,
    VerdictReason,
    fold_updates,
    outcome_from_quorum,
    quorum,
    validate_model,
    validate_signature_filter,
)
from .config import ATTACK_CLASS_NAMES, AttackSpec, ScenarioConfig
from .generators import (
    BENIGN_FLAG_SYN,
    DOS_COLLATERAL,
    AttackPools,
    BenignPool,
    Emission,
    draw_dos,
    draw_recon,
    draw_replay,
    draw_spoof,
    gen_benign,
    gen_dos,
    gen_recon,
    gen_replay,
    gen_spoof,
)
from .metrics import ClassMetrics, MetricsReport, baseline_bytes

ATTACK_WINDOW_FRACTION = 0.25  # ground truth: window is "attack" at >= 25% attack events
_KINDS = ["benign", *sorted(ATTACK_CLASS_NAMES)]  # ground-truth columns; ties go to the first

_SYN = int(Flags.SYN)

# rng stream labels
_BENIGN, _ATTACKS, _BOOTSTRAP, _VALIDATION, _POOLS, _HISTORICAL = range(1, 7)


def _distinct(column: np.ndarray) -> list[int]:
    """The distinct values of a column of small non-negative ints."""
    return np.flatnonzero(np.bincount(column)).tolist()


def _ground_truth(counts: np.ndarray) -> list[list[int]]:
    """The kind of each (node, window) from its event counts per `_KINDS`: 0 with
    no attack event (an empty window too), else the most frequent attack kind
    if attack events are at least ATTACK_WINDOW_FRACTION of all, else -1 (mixed)."""
    attack = counts[..., 1:].sum(axis=-1)
    share = attack / np.maximum(attack + counts[..., 0], 1)
    kind = np.where(share >= ATTACK_WINDOW_FRACTION, 1 + counts[..., 1:].argmax(axis=-1), -1)
    return np.where(attack == 0, 0, kind).tolist()


class Simulation:
    """One configured run; retains ledger, store, and nodes for inspection."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.store = ContentStore()
        self.ledger = Ledger(authorities=list(config.authorities))
        self.trust: dict[int, TrustRecord] = {
            i: TrustRecord(i) for i in range(config.n_nodes)
        }
        self.nodes: list[NodeState] = []
        self.benign_samples: dict[int, list[bytes]] = {}
        self.trace: list[dict] = []
        # per validator: (attack, benign) reference keys with cached bloom positions
        self._reference_probes: dict[int, tuple[ProbeSet, ProbeSet]] = {}

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.config.seed & 0x7FFFFFFF, *stream])

    # --- traffic -----------------------------------------------------------

    def _build_traffic(self):
        """Events by (tick, observer), each class's attack emissions in config
        order, and the event counts by (observer, window, kind); window 0 is tick 0."""
        cfg = self.config
        wt = cfg.window_ticks
        n_cells = (cfg.duration + wt - 1) // wt + 1
        pool = BenignPool(cfg.benign, self._rng(_POOLS))
        pools = AttackPools.from_rng(self._rng(_POOLS, 2))
        benign_stream = gen_benign(pool, cfg.n_nodes, cfg.duration, self._rng(_BENIGN))

        events_at: dict[tuple[int, int], list[EventRecord]] = defaultdict(list)
        class_emissions: dict[str, list[Emission]] = defaultdict(list)
        counts = np.zeros((cfg.n_nodes * n_cells, len(_KINDS)), dtype=np.int64)

        def add(emissions: list[Emission], kind: int) -> None:
            for tick, node, event in emissions:
                events_at[(tick, node)].append(event)
            cells = np.fromiter((node * n_cells + (tick + wt - 1) // wt
                                 for tick, node, _event in emissions), np.int64, len(emissions))
            counts[:, kind] += np.bincount(cells, minlength=len(counts))

        add(benign_stream, 0)

        for idx, spec in enumerate(cfg.attacks):
            rng = self._rng(_ATTACKS, idx)
            if spec.attack_class == "dos":
                emissions = gen_dos(spec, pools, cfg.benign, cfg.n_nodes, rng)
            elif spec.attack_class == "spoof":
                emissions = gen_spoof(spec, pools, cfg.benign, cfg.n_nodes, rng)
            elif spec.attack_class == "recon":
                emissions = gen_recon(spec, pools, cfg.benign, cfg.n_nodes, rng)
            else:
                captured = [
                    e for t, n, e in benign_stream
                    if n == spec.target and t < spec.start
                ]
                emissions = gen_replay(spec, cfg.benign, captured, rng)
            add(emissions, _KINDS.index(spec.attack_class))
            class_emissions[spec.attack_class].extend(emissions)

        return pool, pools, events_at, class_emissions, counts.reshape(cfg.n_nodes, n_cells, -1)

    # --- bootstrap -----------------------------------------------------------

    def _synth_window(self, pool: BenignPool, pools: AttackPools,
                      spec: AttackSpec | None, rng: np.random.Generator) -> np.ndarray:
        """Features of one labelled window at node 0, tallied straight from its draws.

        The draws are the generators' own, in their order, so the features and
        the generator state equal those of the time-ordered window of
        EventRecords that `one_event` and `gen_*` would emit. An attack is
        drawn as one `AttackBatch`, for a one-node network (DoS, recon) or the
        configured one (spoof, replay), and only node 0's rows are tallied.
        """
        cfg = self.config
        wt = cfg.window_ticks
        counts = []  # events per tick
        payload_total = syn = conflicts = 0
        ports: set[int] = set()
        digests: set[bytes] = set()
        for _ in range(wt):
            n = int(rng.poisson(pool.profile.rate))
            counts.append(n)
            for _ in range(n):
                _src, length, port, digest, flag = pool.draw_event(cfg.n_nodes, rng)
                payload_total += length
                ports.add(port)
                digests.add(digest)
                syn += BENIGN_FLAG_SYN[flag]
        if spec is not None:
            synth = AttackSpec(spec.attack_class, start=1, length=wt, target=0,
                               intensity=spec.intensity)
            if spec.attack_class == "dos":
                batch = draw_dos(synth, pools, pool.profile, 1, rng)
            elif spec.attack_class == "spoof":
                batch = draw_spoof(synth, pools, pool.profile, cfg.n_nodes, rng)
            elif spec.attack_class == "recon":
                batch = draw_recon(synth, pools, pool.profile, 1, rng)
            else:
                captured = [pool.one_event(0, 0, cfg.n_nodes, rng) for _ in range(50)]
                batch = draw_replay(synth, pool.profile, captured, rng)
            batch = batch.at(0)
            counts = np.add(counts, np.bincount(batch.ticks - 1, minlength=wt))
            payload_total += int(batch.length.sum())
            syn += int(np.count_nonzero(batch.flags & _SYN))
            conflicts += int(np.count_nonzero(batch.claimed != batch.src))
            ports.update(_distinct(batch.port))
            digests.update(batch.digests[i] for i in _distinct(batch.payload))
        # every synthesised event is addressed to node 0
        window = WindowColumns(np.repeat(np.arange(1, wt + 1), counts), payload_total,
                               syn, conflicts, ports, digests, {0})
        return extract_features(window, wt)

    def _bootstrap_variants(self) -> list[AttackSpec]:
        """One synthesis profile per configured attack, plus DoS collateral."""
        variants = []
        for spec in self.config.attacks:
            variants.append(spec)
            if spec.attack_class == "dos":
                variants.append(
                    AttackSpec("dos", spec.start, spec.length, spec.target,
                               max(0.34, spec.intensity * DOS_COLLATERAL))
                )
        return variants

    def _bootstrap_node(self, node: NodeState, pool: BenignPool, pools: AttackPools,
                        historical: dict[bytes, AttackClass], whitelist: set[bytes]) -> None:
        cfg = self.config
        rng = self._rng(_BOOTSTRAP, node.id)
        variants = self._bootstrap_variants()

        def window_set(n_benign: int, n_per_variant: int) -> LabeledDataset | None:
            rows, labels = [], []
            for _ in range(n_benign):
                rows.append(self._synth_window(pool, pools, None, rng))
                labels.append(-1)
            for variant in variants:
                for _ in range(n_per_variant):
                    rows.append(self._synth_window(pool, pools, variant, rng))
                    labels.append(1)
            if not rows:
                return None
            return LabeledDataset(np.array(rows), np.array(labels))

        boot = cfg.bootstrap
        train = window_set(boot.benign_windows, boot.attack_windows if variants else 0)
        holdout = window_set(boot.holdout_benign, boot.holdout_per_class if variants else 0)

        node.benign_whitelist = whitelist
        if holdout is not None and holdout.has_both_classes:
            node.holdout = holdout
        if train is not None:
            node.learn(train)
        node.add_signatures(dict(historical))

        ordered = sorted(whitelist)
        sample_rng = self._rng(_VALIDATION, node.id)
        count = min(boot.benign_sample, len(ordered))
        picks = sample_rng.choice(len(ordered), size=count, replace=False)
        self.benign_samples[node.id] = [ordered[int(i)] for i in sorted(picks)]

    def _historical_feed(self) -> dict[bytes, int]:
        """Vendor-feed style signature corpus every node ships with."""
        cfg = self.config
        rng = self._rng(_HISTORICAL)
        cycle = [AttackClass.DOS, AttackClass.SPOOF, AttackClass.RECON]
        feed = {}
        for i in range(cfg.bootstrap.historical_signatures):
            port = int(rng.integers(20000, 60000))
            feed[signature_key_from(port, rng.bytes(32), Flags.SYN)] = cycle[i % 3]
        return feed

    # --- adversary -----------------------------------------------------------

    def _adversarial_contribution(self, node: NodeState) -> list[Transaction]:
        """The adversary's contributions, published as an honest node's are."""
        if self.config.adversary.behavior == "poison_model":
            if node.model is None:
                return node.contribute(self.store)
            return node.contribute(self.store, model=node.model.negated(), claimed=0.99)
        nbytes = (node.filter_m_bits + 7) // 8
        saturated = BloomFilter(
            node.filter_m_bits, node.filter_k_hashes,
            bytearray(b"\xff" * nbytes), max(1, node.local_filter.n_inserted),
        )
        return node.contribute(self.store, signature_filter=saturated)

    # --- consensus-time validation ---------------------------------------------

    def _references(self, v: int) -> tuple[ProbeSet, ProbeSet]:
        """Validator v's attack keys and benign samples, each key hashed once per run."""
        if v not in self._reference_probes:
            self._reference_probes[v] = (ProbeSet(), ProbeSet(self.benign_samples[v]))
        attack, benign = self._reference_probes[v]
        # local_signatures only grows, in insertion order: append the keys added since
        attack.extend(islice(self.nodes[v].local_signatures, len(attack), None))
        return attack, benign

    def _validate_contribution(self, tx: Transaction) -> bool:
        cfg = self.config
        th = cfg.thresholds
        is_model = tx.kind == TxKind.MODEL_CONTRIBUTION
        # the verdict on content that cannot be fetched or checked
        rejected = ValidationVerdict(False, 0.0, *(
            (th.model_accuracy, VerdictReason.BELOW_ACCURACY) if is_model
            else (th.filter_coverage, VerdictReason.LOW_COVERAGE)))
        validators = [a for a in cfg.authorities if a != tx.sender] or list(cfg.authorities)
        try:  # one fetch per decision; every validator checks the same content
            content = fetch_contribution(self.store, tx)
        except (NotFound, MalformedBytes):
            return quorum([(v, rejected) for v in validators], self.trust)
        verdicts = []
        for v in validators:
            holdout = self.nodes[v].holdout
            try:
                if is_model and holdout is None:
                    raise EmptyHoldout("validator has no holdout")
                verdict = (validate_model(content, holdout, th.model_accuracy) if is_model
                           else validate_signature_filter(content, *self._references(v),
                                                          th.filter_coverage, th.filter_fpr))
            except (EmptyHoldout, EmptyReference):
                verdict = rejected
            verdicts.append((v, verdict))
        return quorum(verdicts, self.trust)

    # --- main loop ----------------------------------------------------------------

    def run(self, trace: bool = False) -> MetricsReport:
        cfg = self.config
        pool, pools, events_at, class_emissions, counts = self._build_traffic()
        historical = self._historical_feed()
        whitelist = pool.whitelist_keys()

        params = TrainParams(cfg.svm_lambda, cfg.svm_epochs, cfg.train_min)
        self.nodes = [
            NodeState(i, cfg.bloom_m_bits, cfg.bloom_k_hashes, params, cfg.seed)
            for i in range(cfg.n_nodes)
        ]
        for node in self.nodes:
            self._bootstrap_node(node, pool, pools, historical, whitelist)

        wt = cfg.window_ticks
        first_alarm: dict[tuple[int, int], int] = {}  # by (node, window): its first alarm's tick

        sealed_contribs: set[tuple[int, bytes]] = set()
        report = MetricsReport(seed=cfg.seed)
        report.per_class = {name: ClassMetrics() for name in ATTACK_CLASS_NAMES}
        adopted: set[bytes] = set()

        def record_alarms(node_id: int, window: int, txs: list[Transaction], tick: int):
            for tx in txs:
                self.ledger.submit(tx)
            if txs:
                first_alarm.setdefault((node_id, window), tick)

        for t in range(1, cfg.duration + 1):
            window = (t + wt - 1) // wt

            # post-attack forensics: targets and bystanders both extract keys
            for spec in cfg.attacks:
                if spec.start + spec.length != t:
                    continue
                if spec.attack_class not in ("dos", "spoof", "recon"):
                    continue  # replay re-uses benign payloads; nothing to fingerprint
                self._extract_attack_keys(spec, class_emissions[spec.attack_class], t)

            sealed_height = None
            tick_events = 0
            tick_alarms = 0

            for node in self.nodes:
                events = events_at.get((t, node.id))
                if events:
                    alarms = node.observe(events, self.store)
                    record_alarms(node.id, window, alarms, t)
                    tick_events += len(events)
                    tick_alarms += len(alarms)

            if t % wt == 0:
                for node in self.nodes:
                    _features, alarms = node.close_window(wt, t, self.store)
                    record_alarms(node.id, window, alarms, t)
                    tick_alarms += len(alarms)

            if t % cfg.contribution_interval == 0:
                for node in self.nodes:
                    if (cfg.adversary is not None and node.id == cfg.adversary.node
                            and cfg.adversary.behavior != "none"):
                        txs = self._adversarial_contribution(node)
                    else:
                        txs = node.contribute(self.store)
                    for tx in txs:
                        if (tx.sender, content_digest(tx)) in sealed_contribs:
                            continue  # identical content already on-chain
                        self.ledger.submit(tx)

            if t % cfg.block_interval == 0:
                sealed_height = self._seal(t, sealed_contribs)
                for node in self.nodes:
                    report.sync_faults += node.sync(self.ledger, self.store, self.trust,
                                                    cfg.adopt_peers)
                    if (node.model_source is not None and node.model_source != node.id
                            and node.model_digest is not None):
                        adopted.add(node.model_digest)

            if trace:
                self.trace.append(
                    {"tick": t, "events": tick_events, "alarms": tick_alarms,
                     "sealed_height": sealed_height}
                )

        self._finalize(report, counts, first_alarm, adopted)
        return report

    def _extract_attack_keys(self, spec: AttackSpec, emissions: list[Emission],
                             end: int) -> None:
        """Post-mortem forensics: fingerprint a completed attack's span of its class's
        `emissions` (kept in config order), each node's in tick order, up to the cap."""
        cfg = self.config
        attack_class = ATTACK_CLASS_NAMES[spec.attack_class]
        in_span = defaultdict(list)  # by observer
        for emission in emissions:
            if spec.start <= emission[0] < end:
                in_span[emission[1]].append(emission)
        for node in self.nodes:
            keyed: dict[bytes, AttackClass] = {}
            for _tick, _node, event in sorted(in_span[node.id], key=itemgetter(0)):
                if len(keyed) >= cfg.signature_cap_per_attack:
                    break
                keyed.setdefault(signature_key(event), attack_class)
            node.add_signatures(keyed)

    def _seal(self, t: int, sealed_contribs: set[tuple[int, bytes]]) -> int:
        included: list[Transaction] = []
        outcomes: list[Transaction] = []
        rejected: list[Transaction] = []
        proposer = self.ledger.select_proposer(self.ledger.height)
        for tx in self.ledger.pending:
            if tx.kind == TxKind.ALARM:
                included.append(tx)
                continue
            accepted = self._validate_contribution(tx)
            outcomes.append(outcome_from_quorum(tx.sender, accepted, tx.kind, proposer))
            if accepted:
                included.append(tx)
                sealed_contribs.add((tx.sender, content_digest(tx)))
            else:
                rejected.append(tx)
        self.ledger.discard(rejected)
        block = self.ledger.seal_block(proposer, t, included + outcomes)
        fold_updates(self.trust, block.txs)
        return block.index

    def _finalize(self, report, counts, first_alarm, adopted) -> None:
        cfg = self.config
        wt = cfg.window_ticks
        truth = _ground_truth(counts)
        alarm_ticks: dict[str, list[int]] = defaultdict(list)  # first alarms of attack windows
        for node in self.nodes:
            for w in range(1, cfg.duration // wt + 1):
                kind, alarm = truth[node.id][w], first_alarm.get((node.id, w))
                if kind == 0:
                    report.benign_windows += 1
                    if alarm is not None:
                        report.false_alarm_windows += 1
                elif kind > 0:
                    report.per_class[_KINDS[kind]].injected_windows += 1
                    if alarm is not None:
                        report.per_class[_KINDS[kind]].detected_windows += 1
                        alarm_ticks[_KINDS[kind]].append(alarm)

        latencies: dict[str, list[int]] = defaultdict(list)
        for spec in cfg.attacks:
            ticks = [tick for tick in alarm_ticks[spec.attack_class]
                     if spec.start <= tick <= spec.start + spec.length + wt]
            if ticks:
                latencies[spec.attack_class].append(min(ticks) - spec.start)
        for name, values in latencies.items():
            report.per_class[name].mean_detection_latency_ticks = float(np.mean(values))

        # the exchange, rejection and dissemination figures are facts the chain records
        dissemination: list[int] = []
        for block in self.ledger.blocks:
            for tx in block.txs:
                p = tx.payload
                if tx.kind == TxKind.SIGNATURE_CONTRIBUTION:
                    report.bytes_filters_exchanged += bloom.serialized_size(p.m_bits)
                    report.bytes_raw_baseline += baseline_bytes(p.n_items)
                elif tx.kind == TxKind.ALARM:  # from the tick it was raised to its block's
                    dissemination.append(block.sim_time - p.sim_time)
                elif tx.kind == TxKind.TRUST_UPDATE:
                    if p.reason == Reason.MODEL_REJECTED:
                        report.rejected_model_contributions += 1
                    elif p.reason == Reason.FILTER_REJECTED:
                        report.rejected_filter_contributions += 1
        report.ledger_blocks = len(self.ledger.blocks)
        report.ledger_bytes = self.ledger.total_bytes()
        if dissemination:
            report.dissemination_mean = float(np.mean(dissemination))
            report.dissemination_max = int(max(dissemination))
        report.adopted_model_digests = sorted(d.hex() for d in adopted)


def run(config: ScenarioConfig, trace: bool = False) -> MetricsReport:
    """Execute a scenario; the report is a pure function of the config."""
    return Simulation(config).run(trace=trace)
