"""Per-gateway detection engines.

Signature engine: canonical event keys matched against a bloom filter.
Anomaly engine: a linear SVM over 8 window features, trained by stochastic
subgradient descent on the hinge loss with step 1/(lambda*t). Models carry
their own standardization parameters and a digest of the training set, so a
contributed model is self-contained and attributable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntFlag

import numpy as np

from .encoding import DIGEST_LEN, sha256
from .errors import BadHyperparameter, DegenerateDataset, MalformedBytes

N_FEATURES = 8

FEATURE_NAMES = [
    "packets_per_tick",
    "mean_payload_len",
    "distinct_dst_ports",
    "syn_ratio",
    "duplicate_payload_ratio",
    "identity_conflicts",
    "distinct_destinations",
    "inter_arrival_variance",
]


class Flags(IntFlag):
    NONE = 0
    SYN = 1
    ACK = 2
    ARP_REPLY = 4


# plain-int bit test: `Flags.SYN in flags` runs Flag.__contains__ in Python per event
_SYN_BIT = int(Flags.SYN)


@dataclass(frozen=True)
class EventRecord:
    sim_time: int
    src: int
    dst: int
    dst_port: int
    payload_digest: bytes
    payload_len: int
    flags: Flags
    claimed_src_identity: int

    def __post_init__(self):
        if len(self.payload_digest) != DIGEST_LEN:
            raise ValueError("payload_digest must be 32 bytes")
        if not 0 <= self.dst_port <= 65535:
            raise ValueError("dst_port out of range")
        if self.payload_len < 0:
            raise ValueError("payload_len must be >= 0")


_SIGNATURE_KEY = struct.Struct(f">Q{DIGEST_LEN}sB")  # port, payload digest, flags


def signature_key_from(dst_port: int, payload_digest: bytes, flags: int) -> bytes:
    """41-byte canonical key: port (8) + payload digest (32) + flags (1)."""
    if len(payload_digest) != DIGEST_LEN:  # `32s` would pad or cut it
        raise ValueError(f"payload digest must be {DIGEST_LEN} bytes")
    try:
        return _SIGNATURE_KEY.pack(dst_port, payload_digest, flags)
    except struct.error as exc:  # a port outside u64 or flags outside a byte
        raise ValueError(f"signature key field out of range: {exc}") from None


def signature_key(event: EventRecord) -> bytes:
    return signature_key_from(event.dst_port, event.payload_digest, event.flags)


@dataclass(frozen=True)
class WindowColumns:
    """A window as its features read it: each event's tick, in time order, plus tallies.

    The sets hold distinct values; the counts are over events.
    """

    times: np.ndarray  # int64, one entry per event
    payload_total: int
    syn: int
    conflicts: int  # events whose claimed identity is not their source
    ports: set[int]
    digests: set[bytes]
    destinations: set[int]

    @classmethod
    def from_events(cls, events: list[EventRecord]) -> WindowColumns:
        return cls(
            np.array([e.sim_time for e in events], dtype=np.int64),
            sum(e.payload_len for e in events),
            sum(1 for e in events if int.__and__(e.flags, _SYN_BIT)),
            sum(1 for e in events if e.claimed_src_identity != e.src),
            {e.dst_port for e in events},
            {e.payload_digest for e in events},
            {e.dst for e in events},
        )


def extract_features(window: WindowColumns | list[EventRecord],
                     window_ticks: int) -> np.ndarray:
    """8 features over a window of time-ordered events; empty window is all zero."""
    if window_ticks < 1:
        raise ValueError("window_ticks must be >= 1")
    if not isinstance(window, WindowColumns):
        window = WindowColumns.from_events(window)
    out = np.zeros(N_FEATURES)
    n = len(window.times)
    if not n:
        return out
    out[0] = n / window_ticks
    out[1] = window.payload_total / n
    out[2] = len(window.ports)
    out[3] = window.syn / n
    out[4] = 1.0 - len(window.digests) / n
    out[5] = window.conflicts
    out[6] = len(window.destinations)
    if n >= 2:
        out[7] = float(np.var(np.diff(window.times)))
    return out


@dataclass
class LabeledDataset:
    """Feature rows with labels: +1 attack, -1 benign."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64).reshape(-1, N_FEATURES)
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if len(self.X) != len(self.y):
            raise ValueError("feature/label length mismatch")
        if not np.all(np.isin(self.y, (-1, 1))):
            raise ValueError("labels must be +1 or -1")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def has_both_classes(self) -> bool:
        return len(self) > 0 and (self.y == 1).any() and (self.y == -1).any()

    @staticmethod
    def concat(parts: list[LabeledDataset]) -> LabeledDataset:
        return LabeledDataset(
            np.concatenate([p.X for p in parts]), np.concatenate([p.y for p in parts])
        )


_COUNT = struct.Struct(">Q")


def dataset_serialize(data: LabeledDataset) -> bytes:
    """Row count, then each row's features and its label as binary64."""
    return _COUNT.pack(len(data)) + np.column_stack([data.X, data.y]).astype(">f8").tobytes()


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    training_digest: bytes

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(N_FEATURES)
        self.feature_means = np.asarray(self.feature_means, dtype=np.float64).reshape(N_FEATURES)
        self.feature_scales = np.asarray(self.feature_scales, dtype=np.float64).reshape(N_FEATURES)
        if not np.all(self.feature_scales > 0):
            raise ValueError("feature_scales must be strictly positive")
        values = np.concatenate([self.weights, [self.bias], self.feature_means,
                                 self.feature_scales])
        if not np.all(np.isfinite(values)):
            raise ValueError("model parameters must be finite")
        if len(self.training_digest) != DIGEST_LEN:
            raise ValueError("training_digest must be 32 bytes")

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.feature_means) / self.feature_scales

    def negated(self) -> LinearModel:
        """Sign-flipped copy; the canonical label-flip poisoning construction."""
        return LinearModel(
            -self.weights, -self.bias, self.feature_means.copy(),
            self.feature_scales.copy(), self.training_digest,
        )


def hinge_subgradient(
    w: np.ndarray, b: float, x: np.ndarray, y: int, lam: float
) -> tuple[np.ndarray, float]:
    """Subgradient of (lam/2)|w|^2 + max(0, 1 - y(w.x + b)) at one sample."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y * (float(w @ x) + b) < 1.0:
        return lam * w - y * x, -float(y)
    return lam * w, 0.0


def primal_objective(w: np.ndarray, b: float, data: LabeledDataset, lam: float) -> float:
    margins = data.y * (data.X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return 0.5 * lam * float(w @ w) + float(hinge)


def svm_train(data: LabeledDataset, lam: float, epochs: int, seed: int) -> LinearModel:
    """Seeded-shuffle stochastic subgradient descent, step 1/(lam*t).

    Returns the average of the iterates over the second half of the run
    (Polyak-Ruppert tail averaging); the early 1/(lam*t) steps are large and
    the last iterate alone is noisy, especially for the unregularized bias.
    """
    if lam <= 0:
        raise BadHyperparameter(f"lambda must be positive, got {lam}")
    if epochs < 1:
        raise BadHyperparameter(f"epochs must be >= 1, got {epochs}")
    if len(data) == 0 or not data.has_both_classes:
        raise DegenerateDataset("training data must contain both classes")

    means = data.X.mean(axis=0)
    scales = np.maximum(data.X.std(axis=0), 1e-8)
    Z = (data.X - means) / scales

    rng = np.random.default_rng(seed)
    w = np.zeros(N_FEATURES)
    b = 0.0
    t = 0
    total = epochs * len(data)
    w_sum = np.zeros(N_FEATURES)
    b_sum = 0.0
    n_avg = 0
    for _ in range(epochs):
        for i in rng.permutation(len(data)):
            t += 1
            eta = 1.0 / (lam * t)
            z, y = Z[i], data.y[i]
            if y * (float(w @ z) + b) < 1.0:
                w = (1.0 - eta * lam) * w + (eta * y) * z
                b += eta * y
            else:
                w = (1.0 - eta * lam) * w
            if t > total // 2:
                w_sum += w
                b_sum += b
                n_avg += 1

    return LinearModel(w_sum / n_avg, b_sum / n_avg, means, scales,
                       sha256(dataset_serialize(data)))


def svm_predict(model: LinearModel, x: np.ndarray) -> tuple[int, float]:
    """(label, margin); a margin of exactly 0 classifies as attack."""
    z = model.standardize(x)
    margin = float(model.weights @ z) + model.bias
    return (1 if margin >= 0 else -1), margin


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def evaluate(model: LinearModel, data: LabeledDataset) -> EvalMetrics:
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    Z = (data.X - model.feature_means) / model.feature_scales
    margins = Z @ model.weights + model.bias
    pred = np.where(margins >= 0, 1, -1)
    tp = int(np.sum((pred == 1) & (data.y == 1)))
    fp = int(np.sum((pred == 1) & (data.y == -1)))
    fn = int(np.sum((pred == -1) & (data.y == 1)))
    tn = int(np.sum((pred == -1) & (data.y == -1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalMetrics((tp + tn) / len(data), precision, recall, f1, tp, fp, fn, tn)


_MODEL = struct.Struct(f">25d{DIGEST_LEN}s")  # 8 weights, bias, 8 means, 8 scales, digest
MODEL_BYTES = _MODEL.size


def model_serialize(model: LinearModel) -> bytes:
    return _MODEL.pack(*model.weights, model.bias, *model.feature_means,
                       *model.feature_scales, model.training_digest)


def model_deserialize(data: bytes) -> LinearModel:
    if len(data) != MODEL_BYTES:
        raise MalformedBytes(f"model blob must be {MODEL_BYTES} bytes, got {len(data)}")
    *values, digest = _MODEL.unpack(data)
    try:
        return LinearModel(values[:8], values[8], values[9:17], values[17:], digest)
    except ValueError as exc:
        raise MalformedBytes(str(exc)) from None
