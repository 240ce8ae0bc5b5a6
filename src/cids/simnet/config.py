"""Scenario configuration: JSON-backed, validated, with frozen defaults.

The "standard scenario" used by the acceptance suite is 6 nodes (3 of them
authorities), 2000 ticks, one attack of each class, a model-poisoning
adversary on node 5, and seed 42.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..errors import ConfigInvalid
from ..ledger import AttackClass

ATTACK_CLASS_NAMES = {
    "dos": AttackClass.DOS,
    "spoof": AttackClass.SPOOF,
    "recon": AttackClass.RECON,
    "replay": AttackClass.REPLAY,
}


@dataclass
class BenignProfile:
    rate: float = 3.0                # mean events per tick per node
    payload_len_mean: float = 120.0
    payload_len_std: float = 30.0
    payload_pool: int = 256          # distinct benign payload digests


@dataclass
class AttackSpec:
    attack_class: str
    start: int
    length: int
    target: int
    intensity: float


@dataclass
class AdversarySpec:
    node: int
    behavior: str = "none"  # none | poison_model | poison_filter


@dataclass
class Thresholds:
    model_accuracy: float = 0.7
    filter_coverage: float = 0.8
    filter_fpr: float = 0.05


@dataclass
class BootstrapSpec:
    """Seeded pre-run corpus: labeled windows plus a historical signature feed."""

    benign_windows: int = 60
    attack_windows: int = 15         # per synthesized attack variant
    holdout_per_class: int = 4       # plus holdout benign below
    holdout_benign: int = 15
    historical_signatures: int = 1000
    benign_sample: int = 200         # benign keys a validator probes for FPR


@dataclass
class ScenarioConfig:
    n_nodes: int = 6
    authorities: list[int] = field(default_factory=lambda: [0, 1, 2])
    duration: int = 2000
    block_interval: int = 10
    contribution_interval: int = 200
    window_ticks: int = 20
    seed: int = 42
    benign: BenignProfile = field(default_factory=BenignProfile)
    attacks: list[AttackSpec] = field(default_factory=list)
    adversary: AdversarySpec | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    adopt_peers: bool = True
    bloom_m_bits: int = 10000
    bloom_k_hashes: int = 7
    svm_lambda: float = 0.5
    svm_epochs: int = 10
    train_min: int = 80
    learn_interval_windows: int = 20
    signature_cap_per_attack: int = 64  # keys extracted per attack by forensics
    bootstrap: BootstrapSpec = field(default_factory=BootstrapSpec)

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ConfigInvalid("n_nodes must be >= 1")
        if self.duration <= 0:
            raise ConfigInvalid("duration must be positive")
        for name in ("block_interval", "contribution_interval", "window_ticks"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(f"{name} must be >= 1")
        if not self.authorities:
            raise ConfigInvalid("authorities must be non-empty")
        if len(set(self.authorities)) != len(self.authorities):
            raise ConfigInvalid("duplicate authorities")
        if not all(0 <= a < self.n_nodes for a in self.authorities):
            raise ConfigInvalid("authorities must be node ids")
        if self.benign.rate < 0:
            raise ConfigInvalid("benign rate must be >= 0")
        if self.benign.payload_pool < 1:
            raise ConfigInvalid("benign payload_pool must be >= 1")
        for spec in self.attacks:
            if spec.attack_class not in ATTACK_CLASS_NAMES:
                raise ConfigInvalid(f"unknown attack class {spec.attack_class!r}")
            if spec.length < 0 or spec.start < 0 or spec.start + spec.length > self.duration:
                raise ConfigInvalid(f"attack span [{spec.start}, {spec.start + spec.length}) "
                                    "must fit inside the run")
            if not 0 <= spec.target < self.n_nodes:
                raise ConfigInvalid("attack target must be a node id")
            if spec.intensity <= 0:
                raise ConfigInvalid("attack intensity must be positive")
        if self.adversary is not None:
            if not 0 <= self.adversary.node < self.n_nodes:
                raise ConfigInvalid("adversary node must be a node id")
            if self.adversary.behavior not in ("none", "poison_model", "poison_filter"):
                raise ConfigInvalid(f"unknown adversary behavior {self.adversary.behavior!r}")
        if self.bloom_m_bits < 8 or not 1 <= self.bloom_k_hashes <= 16:
            raise ConfigInvalid("bloom parameters out of range")
        if self.svm_lambda <= 0 or self.svm_epochs < 1 or self.train_min < 2:
            raise ConfigInvalid("bad training parameters")

    def to_json(self) -> str:
        obj = asdict(self)
        if self.adversary is None:
            obj["adversary"] = None
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def config_from_dict(obj: dict) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ConfigInvalid("config must be a JSON object")
    try:
        cfg = ScenarioConfig(
            n_nodes=int(obj.get("n_nodes", 6)),
            authorities=[int(a) for a in obj.get("authorities", [0, 1, 2])],
            duration=int(obj.get("duration", 2000)),
            block_interval=int(obj.get("block_interval", 10)),
            contribution_interval=int(obj.get("contribution_interval", 200)),
            window_ticks=int(obj.get("window_ticks", 20)),
            seed=int(obj.get("seed", 42)),
            benign=BenignProfile(**obj.get("benign", {})),
            attacks=[AttackSpec(**a) for a in obj.get("attacks", [])],
            adversary=AdversarySpec(**obj["adversary"]) if obj.get("adversary") else None,
            thresholds=Thresholds(**obj.get("thresholds", {})),
            adopt_peers=bool(obj.get("adopt_peers", True)),
            bloom_m_bits=int(obj.get("bloom_m_bits", 10000)),
            bloom_k_hashes=int(obj.get("bloom_k_hashes", 7)),
            svm_lambda=float(obj.get("svm_lambda", 0.5)),
            svm_epochs=int(obj.get("svm_epochs", 10)),
            train_min=int(obj.get("train_min", 80)),
            learn_interval_windows=int(obj.get("learn_interval_windows", 20)),
            signature_cap_per_attack=int(obj.get("signature_cap_per_attack", 64)),
            bootstrap=BootstrapSpec(**obj.get("bootstrap", {})),
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigInvalid(f"bad scenario config: {exc}") from None
    cfg.validate()
    return cfg


def read_config(path: str) -> dict:
    """A config file's JSON object, before any field is read."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigInvalid("config must be a JSON object")
    return obj


def load_config(path: str) -> ScenarioConfig:
    return config_from_dict(read_config(path))


def standard_scenario(seed: int = 42) -> ScenarioConfig:
    """The frozen scenario every seeded acceptance number refers to."""
    cfg = ScenarioConfig(
        seed=seed,
        attacks=[
            AttackSpec("dos", start=300, length=100, target=3, intensity=20.0),
            AttackSpec("spoof", start=700, length=100, target=4, intensity=1.0),
            AttackSpec("recon", start=1100, length=100, target=1, intensity=2.7),
            AttackSpec("replay", start=1500, length=100, target=2, intensity=2.5),
        ],
        adversary=AdversarySpec(node=5, behavior="poison_model"),
    )
    cfg.validate()
    return cfg
