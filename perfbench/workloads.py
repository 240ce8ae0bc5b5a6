"""The benchmark's workloads: inputs from a seed, one timed operation, its checks.

standard  the frozen acceptance scenario; per-node bootstrap dominates.
long      the same scenario over 8000 ticks; traffic and retraining dominate.
audit     a generated 20 000-block chain sealed, then exported, imported,
          verified and folded; no bootstrap, traffic or detection.

`run` does the timed work and `check` verifies it afterwards, outside the
timed region and outside tracing. Only the program's public API is called,
through module attributes, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from time import perf_counter

from cids import ledger, simnet, trust

import audit_chain

LONG_DURATION = 8000

# name, threshold, comparison; the paper's acceptance gates
GATES = (
    ("dos_detection", 0.9, ">="),
    ("recon_detection", 0.9, ">="),
    ("spoof_detection", 0.8, ">="),
    ("replay_detection", 0.8, ">="),
    ("false_alarm_rate", 0.05, "<="),
    ("compression_ratio", 50.0, ">="),
    ("max_dissemination_ticks", None, "<="),  # threshold: the scenario's block_interval
)


@dataclass
class OpResult:
    timings: dict[str, float]  # "run_s" is the whole operation
    failures: list[str]
    fingerprints: dict[str, str]
    gates: list[tuple[str, float | None, str, float, bool]]


def audit(chain: ledger.Ledger):
    """The read path of `cids ledger verify` and `cids trust report`."""
    text = ledger.export_jsonl(chain)
    imported = ledger.import_jsonl(text, authorities=list(chain.authorities))
    return imported, ledger.first_invalid_height(imported), trust.fold_trust(imported)


def audit_failures(chain, imported, bad, folded, expected_trust) -> list[str]:
    failures = []
    if imported.blocks != chain.blocks:
        failures.append("import_jsonl(export_jsonl(L)).blocks != L.blocks")
    if bad is not None:
        failures.append(f"first_invalid_height reports {bad} on a clean chain")
    if folded != expected_trust:
        failures.append("fold_trust differs from the expected trust")
    return failures


# --- simulation workloads -----------------------------------------------------------

def gate_values(report, cfg) -> list[tuple[str, float | None, str, float, bool]]:
    rates = {name: m.detection_rate for name, m in report.per_class.items()}
    measured = {
        "dos_detection": rates.get("dos"),
        "recon_detection": rates.get("recon"),
        "spoof_detection": rates.get("spoof"),
        "replay_detection": rates.get("replay"),
        "false_alarm_rate": report.false_alarm_rate,
        "compression_ratio": report.compression_ratio,
        "max_dissemination_ticks": report.dissemination_max,
    }
    out = []
    for name, threshold, cmp in GATES:
        if threshold is None:
            threshold = cfg.block_interval
        value = measured[name]
        ok = value is not None and (value >= threshold if cmp == ">=" else value <= threshold)
        out.append((name, value, cmp, threshold, ok))
    return out


class SimulationWorkload:
    def __init__(self, root: str, seed: int, duration: int | None = None):
        self.config = simnet.load_config(os.path.join(root, "scenarios", "standard.json"))
        self.config.seed = seed
        if duration is not None:
            self.config.duration = duration
        self.config.validate()

    def run(self, index: int) -> dict:
        t0 = perf_counter()
        sim = simnet.Simulation(self.config)
        report = sim.run()
        return {"run_s": perf_counter() - t0, "sim": sim, "report": report}

    def check(self, index: int, out: dict) -> OpResult:
        cfg, sim, report = self.config, out["sim"], out["report"]
        chain = sim.ledger
        live = {k: v for k, v in sim.trust.items() if v.positives or v.negatives}
        gates = gate_values(report, cfg)
        failures = [f"gate {name}: {value} not {cmp} {threshold}"
                    for name, value, cmp, threshold, ok in gates if not ok]
        if cfg.adversary is not None and any(
                tx.sender == cfg.adversary.node
                for _h, tx in chain.scan(ledger.TxKind.MODEL_CONTRIBUTION)):
            failures.append("the adversary's model was sealed")
        if trust.fold_trust(chain) != live:
            failures.append("fold_trust of the simulator's chain differs from the live trust")
        if ledger.first_invalid_height(chain) is not None:
            failures.append("the simulator's own chain does not verify")
        failures += audit_failures(chain, *audit(chain), live)
        return OpResult(
            timings={"run_s": out["run_s"]},
            failures=failures,
            fingerprints={
                "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
                "chain_head": chain.blocks[-1].hash.hex(),
            },
            gates=gates,
        )


# --- audit workload -----------------------------------------------------------------

class AuditWorkload:
    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.plan = audit_chain.generate(seed)
        self.expected = {s: trust.TrustRecord(s, pos, neg)
                         for s, (pos, neg) in self.plan.tally.items()}

    def run(self, index: int) -> dict:
        t0 = perf_counter()
        chain = audit_chain.seal(self.plan)
        t1 = perf_counter()
        audited = audit(chain)
        t2 = perf_counter()
        return {"seal_s": t1 - t0, "audit_s": t2 - t1, "chain": chain, "audited": audited}

    def check(self, index: int, out: dict) -> OpResult:
        chain = out["chain"]
        failures = audit_failures(chain, *out["audited"], self.expected)
        height, tampered = audit_chain.flip_one_byte(
            out["audited"][0], random.Random(self.seed * 1_000_003 + index))
        found = ledger.first_invalid_height(tampered)
        if found != height:
            failures.append(f"byte flipped at height {height}, verify reports {found}")
        seal_s, audit_s = out["seal_s"], out["audit_s"]
        return OpResult(
            timings={"run_s": seal_s + audit_s, "seal_s": seal_s, "audit_s": audit_s},
            failures=failures,
            fingerprints={"chain_head": chain.blocks[-1].hash.hex(),
                          "chain_blocks": str(len(chain.blocks)),
                          "chain_txs": str(self.plan.n_txs)},
            gates=[],
        )


WORKLOADS = {
    "standard": lambda root, seed: SimulationWorkload(root, seed),
    "long": lambda root, seed: SimulationWorkload(root, seed, LONG_DURATION),
    "audit": AuditWorkload,
}
