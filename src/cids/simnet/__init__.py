from .config import (
    AdversarySpec,
    AttackSpec,
    BenignProfile,
    BootstrapSpec,
    ScenarioConfig,
    Thresholds,
    config_from_dict,
    load_config,
)
from .engine import Simulation, run
from .generators import (
    AttackPools,
    BenignPool,
    gen_benign,
    gen_dos,
    gen_recon,
    gen_replay,
    gen_spoof,
)
from .metrics import ClassMetrics, MetricsReport, baseline_bytes

__all__ = [
    "AdversarySpec",
    "AttackSpec",
    "AttackPools",
    "BenignPool",
    "BenignProfile",
    "BootstrapSpec",
    "ClassMetrics",
    "MetricsReport",
    "ScenarioConfig",
    "Simulation",
    "Thresholds",
    "baseline_bytes",
    "config_from_dict",
    "gen_benign",
    "gen_dos",
    "gen_recon",
    "gen_replay",
    "gen_spoof",
    "load_config",
    "run",
]
