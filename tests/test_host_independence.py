"""A run's fingerprints do not depend on which CPU kernels numpy and OpenBLAS pick.

Each variant re-runs a short scenario in a fresh interpreter whose environment
makes numpy skip its SIMD dispatch targets, or makes OpenBLAS use its oldest
x86-64 kernels, and compares the report and chain head with an in-process run.
The child checks that numpy left the disabled targets off and reports the
OpenBLAS kernel family it ran with, so each test shows that its variable took
effect.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cids.simnet import Simulation
from util import openblas_core, standard_config

umath = pytest.importorskip("numpy._core._multiarray_umath")

TESTS = Path(__file__).parent
SRC = str(TESTS.parent / "src")

CHILD = """
import hashlib, json, os, sys
from numpy._core._multiarray_umath import __cpu_features__
from cids.simnet import Simulation, load_config
from util import openblas_core

disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
assert not any(__cpu_features__[t] for t in disabled), "numpy kept a disabled target"
sim = Simulation(load_config(sys.argv[1]))
report = sim.run()
print(json.dumps({
    "report": hashlib.sha256(report.to_json().encode()).hexdigest(),
    "head": sim.ledger.blocks[-1].hash.hex(),
    "openblas_core": openblas_core(),
}))
"""


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """The standard scenario cut to 400 ticks and its first attack, and its fingerprints."""
    cfg = standard_config()
    cfg.duration = 400
    cfg.attacks = cfg.attacks[:1]
    path = tmp_path_factory.mktemp("host") / "scenario.json"
    path.write_text(cfg.to_json())
    sim = Simulation(cfg)
    report = sim.run()
    fingerprints = {
        "report": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "head": sim.ledger.blocks[-1].hash.hex(),
    }
    return str(path), fingerprints


def run_child(config_path: str, **env: str) -> dict:
    path = os.pathsep.join(filter(None, [SRC, str(TESTS), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHILD, config_path],
                         env={**os.environ, **env, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_same_fingerprints_without_simd_dispatch(scenario):
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no target above its baseline on this host")
    config_path, fingerprints = scenario
    child = run_child(config_path, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert {k: child[k] for k in fingerprints} == fingerprints


def test_same_fingerprints_on_oldest_openblas_kernels(scenario):
    config_path, fingerprints = scenario
    child = run_child(config_path, OPENBLAS_CORETYPE="Prescott")
    if child["openblas_core"] is not None:
        assert child["openblas_core"] != openblas_core()
    assert {k: child[k] for k in fingerprints} == fingerprints
