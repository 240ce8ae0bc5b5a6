"""Scenario configuration: a JSON object parsed through its dataclass declarations.

The dataclasses below are the schema, and each default is written only there.
Types are exact: an `int` takes a JSON integer (never a bool or `6.0`) and a
`float` a finite JSON float (`3.0`, not `3`). An unknown key at any level, a
missing required key or a wrong type raises `ConfigInvalid` naming the key
path, such as `attacks[0].start`; `validate` then checks ranges the same way.
The standard scenario is `scenarios/standard.json`.

Each field that sizes an allocation or a random draw has an upper bound, per
field (several at once can still outgrow a machine): n_nodes 1000, duration
10**6, window_ticks 10000 and at most duration, bloom_m_bits 2**24,
benign.rate 1000.0, benign.payload_len_mean and payload_len_std 65535.0,
benign.payload_pool 65536, attacks[i].intensity 1000.0 and each bootstrap
count 100000.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cache
from operator import attrgetter
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from ..errors import ConfigInvalid
from ..ledger import AttackClass

# ANOMALY is what the anomaly engine reports; a scenario injects the others
ATTACK_CLASS_NAMES = {c.name.lower(): c for c in AttackClass if c is not AttackClass.ANOMALY}


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
        """Ranges and cross-field rules; each failure names its key path."""
        for path, least in _AT_LEAST.items():
            if attrgetter(path)(self) < least:
                raise ConfigInvalid(f"{path} must be >= {least}")
        for path, most in _AT_MOST.items():
            if attrgetter(path)(self) > most:
                raise ConfigInvalid(f"{path} must be <= {most}")
        if self.window_ticks > self.duration:  # no window would ever close
            raise ConfigInvalid(f"window_ticks must be <= duration ({self.duration})")
        if self.svm_lambda <= 0:
            raise ConfigInvalid("svm_lambda must be positive")
        if not self.authorities:
            raise ConfigInvalid("authorities must be non-empty")
        if len(set(self.authorities)) != len(self.authorities):
            raise ConfigInvalid("duplicate authorities")
        if not all(0 <= a < self.n_nodes for a in self.authorities):
            raise ConfigInvalid("authorities must be node ids")
        for i, spec in enumerate(self.attacks):
            if spec.attack_class not in ATTACK_CLASS_NAMES:
                raise ConfigInvalid(f"attacks[{i}].attack_class: unknown {spec.attack_class!r}")
            if spec.length < 0 or spec.start < 0 or spec.start + spec.length > self.duration:
                raise ConfigInvalid(f"attacks[{i}]: span [{spec.start}, "
                                    f"{spec.start + spec.length}) must fit inside the run")
            if not 0 <= spec.target < self.n_nodes:
                raise ConfigInvalid(f"attacks[{i}].target must be a node id")
            if not 0 < spec.intensity <= _MAX_INTENSITY:
                raise ConfigInvalid(f"attacks[{i}].intensity must be in (0, {_MAX_INTENSITY}]")
        if self.adversary is not None:
            if not 0 <= self.adversary.node < self.n_nodes:
                raise ConfigInvalid("adversary.node must be a node id")
            if self.adversary.behavior not in ("none", "poison_model", "poison_filter"):
                raise ConfigInvalid(f"adversary.behavior: unknown {self.adversary.behavior!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# the least value of each bounded field, by key path
_AT_LEAST = {
    "n_nodes": 1, "duration": 1, "block_interval": 1, "contribution_interval": 1,
    "window_ticks": 1, "learn_interval_windows": 1, "bloom_m_bits": 8, "bloom_k_hashes": 1,
    "svm_epochs": 1, "train_min": 2, "benign.rate": 0, "benign.payload_len_std": 0,
    "benign.payload_pool": 1, **{f"bootstrap.{f.name}": 0 for f in fields(BootstrapSpec)},
}
# the greatest value of each field that sizes an allocation or a random draw;
# an attack's intensity is checked with the attack's other fields
_AT_MOST = {
    "n_nodes": 1000, "duration": 10**6, "window_ticks": 10_000, "bloom_m_bits": 2**24,
    "bloom_k_hashes": 16, "benign.rate": 1000.0, "benign.payload_len_mean": 65535.0,
    "benign.payload_len_std": 65535.0, "benign.payload_pool": 65536,
    **{f"bootstrap.{f.name}": 100_000 for f in fields(BootstrapSpec)},
}
_MAX_INTENSITY = 1000.0
_hints = cache(get_type_hints)  # each config class's field types, resolved once
_JSON_NAMES = {int: "integer", float: "float such as 3.0", bool: "boolean", str: "string"}


def _parse(t, value, path: str):
    """The value a field of type t takes from a JSON value, or ConfigInvalid naming path."""
    if t in _JSON_NAMES:
        if type(value) is not t:
            raise ConfigInvalid(f"{path} must be a JSON {_JSON_NAMES[t]}, got {value!r}")
        if t is float and not math.isfinite(value):
            raise ConfigInvalid(f"{path} must be finite, got {value!r}")
        return value
    origin = get_origin(t)
    if origin is list:
        if type(value) is not list:
            raise ConfigInvalid(f"{path} must be a JSON array")
        (item,) = get_args(t)
        return [_parse(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if origin is UnionType:  # X | None
        (inner,) = (a for a in get_args(t) if a is not NoneType)
        return None if value is None else _parse(inner, value, path)
    # a nested dataclass
    if type(value) is not dict:
        raise ConfigInvalid(f"{path or 'config'} must be a JSON object")
    types = _hints(t)
    prefix = f"{path}." if path else ""
    unknown = value.keys() - types
    if unknown:
        raise ConfigInvalid(f"unknown key {prefix}{min(unknown)}")
    for f in fields(t):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigInvalid(f"missing key {prefix}{f.name}")
    return t(**{key: _parse(types[key], v, prefix + key) for key, v in value.items()})


def config_from_dict(obj: dict) -> ScenarioConfig:
    cfg = _parse(ScenarioConfig, obj, "")
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an integer
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    return config_from_dict(obj)
