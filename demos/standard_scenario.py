#!/usr/bin/env python3
"""Run the frozen standard scenario and walk through the results.

6 gateways (3 authorities), 2000 ticks, one attack of each class, and a
model-poisoning adversary on node 5. Seed 42. This is the same scenario the
acceptance suite measures, read from the committed scenarios/standard.json.
"""

import json
from pathlib import Path

from cids.ledger import TxKind
from cids.simnet import Simulation, load_config
from cids.trust import fold_trust

cfg = load_config(str(Path(__file__).parent.parent / "scenarios" / "standard.json"))
print("attacks:")
for spec in cfg.attacks:
    print(f"  {spec.attack_class:>6} ticks {spec.start}-{spec.start + spec.length} "
          f"-> node {spec.target} (intensity {spec.intensity})")
print(f"adversary: node {cfg.adversary.node} ({cfg.adversary.behavior})\n")

sim = Simulation(cfg)
report = sim.run()

print("=== detection ===")
for name, m in sorted(report.per_class.items()):
    latency = (f"{m.mean_detection_latency_ticks:.0f} ticks"
               if m.mean_detection_latency_ticks is not None else "n/a")
    print(f"  {name:>6}: {m.detected_windows}/{m.injected_windows} windows "
          f"({m.detection_rate:.1%}), first-alarm latency {latency}")
print(f"  false alarms: {report.false_alarm_windows}/{report.benign_windows} "
      f"benign windows ({report.false_alarm_rate:.2%})")

print("\n=== exchange overhead ===")
print(f"  filters shipped: {report.bytes_filters_exchanged} bytes")
print(f"  raw signature baseline: {report.bytes_raw_baseline} bytes")
print(f"  compression: {report.compression_ratio:.1f}x")
print(f"  chain: {report.ledger_blocks} blocks, {report.ledger_bytes} bytes of meta-data")

print("\n=== dissemination & defense ===")
print(f"  alarm dissemination latency: mean {report.dissemination_mean:.1f}, "
      f"max {report.dissemination_max} ticks (block interval {cfg.block_interval})")
print(f"  rejected contributions: {report.rejected_model_contributions} models, "
      f"{report.rejected_filter_contributions} filters")

print("\n=== trust (replayed from the chain) ===")
for node_id, record in sorted(fold_trust(sim.ledger).items()):
    tag = " <- adversary" if node_id == cfg.adversary.node else ""
    print(f"  node {node_id}: +{record.positives}/-{record.negatives} "
          f"score {record.score:.3f}{tag}")

sealed_models = {tx.sender for _, tx in sim.ledger.scan(TxKind.MODEL_CONTRIBUTION)}
print(f"\nnodes with models on-chain: {sorted(sealed_models)} "
      f"(adversary excluded: {cfg.adversary.node not in sealed_models})")

print("\nfull report JSON:")
print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
