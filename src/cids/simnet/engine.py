"""Deterministic discrete-event CIDS run.

Tick order: attack forensics, traffic delivery (signature engine), window
close (anomaly engine + labeled learning), contributions, block sealing with
consensus-time validation, node sync. Everything derives from the config
seed, so a report is a pure function of its ScenarioConfig.

Nodes bootstrap from seeded pre-run corpora, the way a deployed IDS ships
with historical labeled traffic and a vendor signature feed: a labeled
window set (training + validation holdout), a historical attack-key feed,
and the benign allowlist enumerated from the traffic profile.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

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
    model_deserialize,
    model_serialize,
    signature_key,
    signature_key_from,
)
from ..errors import EmptyHoldout, EmptyReference, MalformedBytes, NotFound
from ..ledger import (
    AttackClass,
    Ledger,
    ModelContribution,
    ModelKind,
    SignatureContribution,
    Transaction,
    TxKind,
)
from ..node import NodeState, TrainParams
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

_SYN = int(Flags.SYN)

# rng stream labels
_BENIGN, _ATTACKS, _BOOTSTRAP, _VALIDATION, _POOLS, _HISTORICAL = range(1, 7)


def _distinct(column: np.ndarray) -> list[int]:
    """The distinct values of a column of small non-negative ints."""
    return np.flatnonzero(np.bincount(column)).tolist()


def _window_label(attack_counts: dict[str, int], total: int) -> int | None:
    """Ground truth of one node's window from its event counts: -1 benign,
    1 attack, None for a mixed window below ATTACK_WINDOW_FRACTION."""
    attack_total = sum(attack_counts.values())
    if attack_total == 0:
        return -1
    if total and attack_total / total >= ATTACK_WINDOW_FRACTION:
        return 1
    return None


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
        cfg = self.config
        pool = BenignPool(cfg.benign, self._rng(_POOLS))
        pools = AttackPools.from_rng(self._rng(_POOLS, 2))
        benign_stream = gen_benign(pool, cfg.n_nodes, cfg.duration, self._rng(_BENIGN))

        events_at: dict[tuple[int, int], list[tuple[EventRecord, str | None]]] = defaultdict(list)
        for tick, node, event in benign_stream:
            events_at[(tick, node)].append((event, None))

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
            for tick, node, event in emissions:
                events_at[(tick, node)].append((event, spec.attack_class))

        return pool, pools, events_at

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

    def _adversarial_contribution(self, node: NodeState, sim_time: int) -> list[Transaction]:
        behavior = self.config.adversary.behavior
        txs = []
        if behavior == "poison_model":
            if node.model is not None:
                blob = model_serialize(node.model.negated())
                digest = self.store.put(blob)
                txs.append(
                    Transaction.wrap(node.id, ModelContribution(digest, ModelKind.SVM, 0.99))
                )
            txs.extend(t for t in node.contribute(sim_time, self.store)
                       if t.kind == TxKind.SIGNATURE_CONTRIBUTION)
        elif behavior == "poison_filter":
            nbytes = (node.filter_m_bits + 7) // 8
            saturated = BloomFilter(
                node.filter_m_bits, node.filter_k_hashes,
                bytearray(b"\xff" * nbytes), max(1, node.local_filter.n_inserted),
            )
            digest = self.store.put(saturated.serialize())
            txs.extend(t for t in node.contribute(sim_time, self.store)
                       if t.kind == TxKind.MODEL_CONTRIBUTION)
            txs.append(
                Transaction.wrap(
                    node.id,
                    SignatureContribution(digest, saturated.n_inserted,
                                          saturated.m_bits, saturated.k_hashes),
                )
            )
        else:
            txs = node.contribute(sim_time, self.store)
        return txs

    # --- consensus-time validation ---------------------------------------------

    def _reject(self, reason: VerdictReason, threshold: float) -> ValidationVerdict:
        return ValidationVerdict(False, 0.0, threshold, reason)

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
        validators = [a for a in cfg.authorities if a != tx.sender] or list(cfg.authorities)
        verdicts = []
        for v in validators:
            vnode = self.nodes[v]
            if tx.kind == TxKind.MODEL_CONTRIBUTION:
                try:
                    if vnode.holdout is None:
                        raise EmptyHoldout("validator has no holdout")
                    model = model_deserialize(self.store.get(tx.payload.model_digest))
                    verdict = validate_model(model, vnode.holdout,
                                             cfg.thresholds.model_accuracy)
                except (NotFound, MalformedBytes, EmptyHoldout):
                    verdict = self._reject(VerdictReason.BELOW_ACCURACY,
                                           cfg.thresholds.model_accuracy)
            else:
                try:
                    contributed = bloom.deserialize(self.store.get(tx.payload.filter_digest))
                    verdict = validate_signature_filter(
                        contributed,
                        *self._references(v),
                        cfg.thresholds.filter_coverage,
                        cfg.thresholds.filter_fpr,
                    )
                except (NotFound, MalformedBytes, EmptyReference):
                    verdict = self._reject(VerdictReason.LOW_COVERAGE,
                                           cfg.thresholds.filter_coverage)
            verdicts.append((v, verdict))
        return quorum(verdicts, self.trust)

    # --- main loop ----------------------------------------------------------------

    def run(self, trace: bool = False) -> MetricsReport:
        cfg = self.config
        pool, pools, events_at = self._build_traffic()
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
        n_windows = cfg.duration // wt
        attack_counts: dict[tuple[int, int], dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        total_counts: dict[tuple[int, int], int] = defaultdict(int)
        alarm_counts: dict[tuple[int, int], int] = defaultdict(int)
        first_alarm: dict[tuple[int, int], int] = {}
        learn_pending: dict[int, list[tuple[np.ndarray, int]]] = defaultdict(list)
        windows_closed = 0

        alarm_raise_tick: list[int] = []  # indexed by alarm sequence number
        sealed_contribs: set[tuple[int, bytes]] = set()
        report = MetricsReport(seed=cfg.seed)
        report.per_class = {name: ClassMetrics() for name in ATTACK_CLASS_NAMES}
        dissemination: list[int] = []
        adopted: set[bytes] = set()

        def record_alarms(node_id: int, window: int, txs: list[Transaction], tick: int):
            for tx in txs:
                alarm_raise_tick.append(tick)
                self.ledger.submit(tx)
            if txs:
                alarm_counts[(node_id, window)] += len(txs)
                first_alarm.setdefault((node_id, window), tick)

        for t in range(1, cfg.duration + 1):
            window = (t + wt - 1) // wt

            # post-attack forensics: targets and bystanders both extract keys
            for spec in cfg.attacks:
                if spec.start + spec.length != t:
                    continue
                if spec.attack_class not in ("dos", "spoof", "recon"):
                    continue  # replay re-uses benign payloads; nothing to fingerprint
                self._extract_attack_keys(spec, events_at, t)

            sealed_height = None
            tick_events = 0
            tick_alarms = 0

            for node in self.nodes:
                tagged = events_at.get((t, node.id), [])
                if tagged:
                    events = [e for e, _src in tagged]
                    for _e, source in tagged:
                        if source is not None:
                            attack_counts[(node.id, window)][source] += 1
                    total_counts[(node.id, window)] += len(tagged)
                    alarms = node.observe(events, self.store)
                    record_alarms(node.id, window, alarms, t)
                    tick_events += len(tagged)
                    tick_alarms += len(alarms)

            if t % wt == 0:
                windows_closed += 1
                for node in self.nodes:
                    features, alarms = node.close_window(wt, t, self.store)
                    record_alarms(node.id, window, alarms, t)
                    tick_alarms += len(alarms)
                    key = (node.id, window)
                    label = _window_label(attack_counts[key], total_counts[key])
                    if label is not None:
                        learn_pending[node.id].append((features, label))
                if windows_closed % cfg.learn_interval_windows == 0:
                    for node in self.nodes:
                        rows = learn_pending[node.id]
                        if rows:
                            node.learn(LabeledDataset(
                                np.array([r for r, _ in rows]),
                                np.array([label for _, label in rows]),
                            ))
                            learn_pending[node.id] = []

            if t % cfg.contribution_interval == 0:
                for node in self.nodes:
                    if (cfg.adversary is not None and node.id == cfg.adversary.node
                            and cfg.adversary.behavior != "none"):
                        txs = self._adversarial_contribution(node, t)
                    else:
                        txs = node.contribute(t, self.store)
                    for tx in txs:
                        digest = (tx.payload.model_digest
                                  if tx.kind == TxKind.MODEL_CONTRIBUTION
                                  else tx.payload.filter_digest)
                        if (tx.sender, digest) in sealed_contribs:
                            continue  # identical content already on-chain
                        self.ledger.submit(tx)

            if t % cfg.block_interval == 0:
                sealed_height = self._seal(t, sealed_contribs, report, dissemination,
                                           alarm_raise_tick)
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

        self._finalize(report, attack_counts, total_counts, alarm_counts, first_alarm,
                       n_windows, dissemination, adopted)
        return report

    def _extract_attack_keys(self, spec: AttackSpec, events_at, end_tick: int) -> None:
        """Post-mortem forensics: fingerprint a completed attack's events."""
        cfg = self.config
        attack_class = ATTACK_CLASS_NAMES[spec.attack_class]
        for node in self.nodes:
            keyed: dict[bytes, AttackClass] = {}
            for tick in range(spec.start, end_tick):
                if len(keyed) >= cfg.signature_cap_per_attack:
                    break
                for event, source in events_at.get((tick, node.id), []):
                    if source != spec.attack_class:
                        continue
                    keyed.setdefault(signature_key(event), attack_class)
                    if len(keyed) >= cfg.signature_cap_per_attack:
                        break
            node.add_signatures(keyed)

    def _seal(self, t: int, sealed_contribs, report: MetricsReport,
              dissemination: list[int], alarm_raise_tick: list[int]) -> int:
        cfg = self.config
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
                if tx.kind == TxKind.SIGNATURE_CONTRIBUTION:
                    report.bytes_filters_exchanged += bloom.serialized_size(tx.payload.m_bits)
                    report.bytes_raw_baseline += baseline_bytes(tx.payload.n_items)
                    sealed_contribs.add((tx.sender, tx.payload.filter_digest))
                else:
                    sealed_contribs.add((tx.sender, tx.payload.model_digest))
            else:
                if tx.kind == TxKind.MODEL_CONTRIBUTION:
                    report.rejected_model_contributions += 1
                else:
                    report.rejected_filter_contributions += 1
                rejected.append(tx)
        self.ledger.discard(rejected)
        block = self.ledger.seal_block(proposer, t, included + outcomes)
        fold_updates(self.trust, block.txs)
        for tx in block.txs:
            if tx.kind == TxKind.ALARM:
                # every pending alarm is sealed, in submission order, so the
                # n-th alarm sealed in the run is the one with sequence number n
                dissemination.append(t - alarm_raise_tick[len(dissemination)])
        return block.index

    def _finalize(self, report, attack_counts, total_counts, alarm_counts, first_alarm,
                  n_windows, dissemination, adopted) -> None:
        cfg = self.config
        class_windows: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for node in self.nodes:
            for w in range(1, n_windows + 1):
                key = (node.id, w)
                truth = _window_label(attack_counts[key], total_counts[key])
                if truth == -1:
                    report.benign_windows += 1
                    if alarm_counts[key] > 0:
                        report.false_alarm_windows += 1
                    continue
                if truth is None:
                    continue  # mixed window below the labeling threshold
                counts = attack_counts[key]
                label = max(sorted(counts), key=lambda c: counts[c])
                class_windows[label].append(key)
                metrics = report.per_class[label]
                metrics.injected_windows += 1
                if alarm_counts[key] > 0:
                    metrics.detected_windows += 1

        wt = cfg.window_ticks
        for name, metrics in report.per_class.items():
            latencies = []
            for spec in cfg.attacks:
                if spec.attack_class != name:
                    continue
                ticks = [
                    first_alarm[key]
                    for key in class_windows[name]
                    if key in first_alarm
                    and spec.start <= first_alarm[key] <= spec.start + spec.length + wt
                ]
                if ticks:
                    latencies.append(min(ticks) - spec.start)
            if latencies:
                metrics.mean_detection_latency_ticks = float(np.mean(latencies))

        report.ledger_blocks = len(self.ledger.blocks)
        report.ledger_bytes = self.ledger.total_bytes()
        if dissemination:
            report.dissemination_mean = float(np.mean(dissemination))
            report.dissemination_max = int(max(dissemination))
        report.adopted_model_digests = sorted(d.hex() for d in adopted)


def run(config: ScenarioConfig, trace: bool = False) -> MetricsReport:
    """Execute a scenario; the report is a pure function of the config."""
    return Simulation(config).run(trace=trace)
