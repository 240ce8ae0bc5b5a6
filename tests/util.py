"""Shared builders for randomized test corpora, and the committed standard scenario."""

import ctypes
import glob
import os
import random
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from cids.ledger import (
    Alarm,
    AttackClass,
    Ledger,
    ModelContribution,
    ModelKind,
    Outcome,
    Reason,
    SignatureContribution,
    Transaction,
    TrustUpdate,
)
from cids.simnet import ScenarioConfig, load_config

STANDARD_SCENARIO = Path(__file__).parent.parent / "scenarios" / "standard.json"

# any JSON value a hostile file could hold, including NaN, infinities and
# integers beyond 64 bits
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**65) | st.floats()
    | st.text(max_size=70),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def openblas_core() -> str | None:
    """The kernel family OpenBLAS chose, where numpy's wheel bundles its library."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def standard_config() -> ScenarioConfig:
    """The standard scenario, read from the committed file as `cids run` reads it."""
    return load_config(str(STANDARD_SCENARIO))


def random_digest(rng: random.Random) -> bytes:
    return rng.randbytes(32)


def random_tx(rng: random.Random) -> Transaction:
    sender = rng.randrange(16)
    choice = rng.randrange(4)
    if choice == 0:
        payload = ModelContribution(random_digest(rng), ModelKind.SVM, rng.random())
    elif choice == 1:
        payload = SignatureContribution(
            random_digest(rng), rng.randrange(5000), rng.randrange(8, 100000), rng.randrange(1, 17)
        )
    elif choice == 2:
        payload = Alarm(
            AttackClass(rng.randrange(len(AttackClass))), random_digest(rng), rng.randrange(10000)
        )
    else:
        payload = TrustUpdate(
            rng.randrange(16),
            Outcome(rng.randrange(2)),
            Reason(rng.randrange(len(Reason))),
        )
    return Transaction.wrap(sender, payload)


def build_chain(rng: random.Random, n_blocks: int, authorities=(0, 1, 2)) -> Ledger:
    """Honestly sealed chain with a random mixed-kind tx load."""
    ledger = Ledger(authorities=list(authorities))
    for i in range(n_blocks):
        txs = [random_tx(rng) for _ in range(rng.randrange(4))]
        for tx in txs:
            ledger.submit(tx)
        proposer = ledger.select_proposer(ledger.height)
        ledger.seal_block(proposer, sim_time=(i + 1) * 10, txs=txs)
    return ledger
