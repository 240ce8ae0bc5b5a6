"""Spans around the public functions of each cids layer, recorded from outside.

Nothing in `src/` is edited: `Tracer.install` replaces each target function,
in its defining module and in every loaded `cids` module that bound it with
`from ... import`, by a wrapper that records a span (name, start, end,
parent) and an optional count. `Tracer.restore` puts every original back.
Spans stay in memory until the benchmark writes them out; self times and
ratios are derived from them afterwards, never from timers in the program.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _len_arg(index: int, keyword: str):
    def count(args, kwargs, _result):
        return len(kwargs[keyword] if keyword in kwargs else args[index])
    return count


def _len_result(_args, _kwargs, result):
    return len(result)


def _truth(_args, _kwargs, result):
    return int(bool(result))


@dataclass(frozen=True)
class Target:
    """One function to wrap: span name, module, attribute path, optional count."""

    span: str
    module: str
    attr: str  # "func" or "Class.method"
    count: Callable | None = None


E, G = "cids.simnet.engine", "cids.simnet.generators"
TARGETS = (
    Target("generators.one_event", G, "BenignPool.one_event"),
    Target("generators.whitelist_keys", G, "BenignPool.whitelist_keys"),
    Target("generators.gen_benign", G, "gen_benign"),
    Target("generators.gen_dos", G, "gen_dos", _len_result),
    Target("generators.gen_spoof", G, "gen_spoof", _len_result),
    Target("generators.gen_recon", G, "gen_recon", _len_result),
    Target("generators.gen_replay", G, "gen_replay", _len_result),
    Target("engine.build_traffic", E, "Simulation._build_traffic"),
    Target("engine.bootstrap", E, "Simulation._bootstrap_node"),
    Target("engine.seal", E, "Simulation._seal"),
    Target("engine.finalize", E, "Simulation._finalize"),
    Target("detection.svm_train", "cids.detection", "svm_train", _len_arg(0, "data")),
    Target("detection.extract_features", "cids.detection", "extract_features"),
    Target("detection.signature_key", "cids.detection", "signature_key"),
    Target("bloom.query", "cids.bloom", "BloomFilter.query", _truth),
    Target("bloom.insert", "cids.bloom", "BloomFilter.insert"),
    Target("bloom.merge", "cids.bloom", "BloomFilter.merge"),
    Target("trust.validate_signature_filter", "cids.trust", "validate_signature_filter"),
    Target("trust.validate_model", "cids.trust", "validate_model"),
    Target("trust.quorum", "cids.trust", "quorum", _truth),
    Target("trust.fold_trust", "cids.trust", "fold_trust"),
    Target("node.observe", "cids.node", "NodeState.observe", _len_arg(1, "events")),
    Target("node.close_window", "cids.node", "NodeState.close_window"),
    Target("node.learn", "cids.node", "NodeState.learn"),
    Target("node.sync", "cids.node", "NodeState.sync"),
    Target("ledger.seal_block", "cids.ledger", "Ledger.seal_block", _len_arg(3, "txs")),
    Target("ledger.export_jsonl", "cids.ledger", "export_jsonl"),
    Target("ledger.import_jsonl", "cids.ledger", "import_jsonl"),
    Target("ledger.first_invalid_height", "cids.ledger", "first_invalid_height"),
    Target("content_store.put", "cids.content_store", "ContentStore.put",
           _len_arg(1, "payload")),
    Target("content_store.get", "cids.content_store", "ContentStore.get"),
    Target("encoding.sha256", "cids.encoding", "sha256"),
)


class Spans:
    """Columns of one operation's spans; a span's id is its row."""

    def __init__(self, names, parents, starts, ends, counts):
        self.names = list(names)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.names)


class Tracer:
    """Records spans while installed; one `Spans` per operation."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._counts: list[int] = []
        self._stack: list[int] = [-1]

    # --- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1])
        self._ends.append(0.0)
        self._counts.append(0)
        self._stack.append(idx)
        self._starts.append(perf_counter())
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        self._ends[idx] = perf_counter()
        self._counts[idx] = count
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self._names[idx]} closed out of order")

    def take(self) -> Spans:
        """The spans recorded since the last call; all must be closed."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        spans = Spans(self._names, self._parents, self._starts, self._ends, self._counts)
        self._reset()
        return spans

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, count(args, kwargs, result) if count else 0)
            return result

        return wrapper

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target that cannot be found is recorded as missing."""
        if self._patches:
            raise RuntimeError("already installed")
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "cids" or n.startswith("cids."))]
        for target in self.targets:
            module = sys.modules.get(target.module)
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing[target.span] = f"{target.module}:{target.attr} not found"
                continue
            wrapped = self._wrap(target.span, original, target.count)
            self._set(owner, attr, wrapped)
            if owner is module:  # module-level function: also re-bind its aliases
                for other in loaded:
                    if other is not module and vars(other).get(attr) is original:
                        self._set(other, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# --- analysis -------------------------------------------------------------------

def self_times(spans: Spans) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for idx, parent in enumerate(spans.parents.tolist()):
        if parent >= 0:
            children[parent].append((spans.starts[idx], spans.ends[idx]))
    out = spans.ends - spans.starts
    for idx, kids in children.items():
        lo, hi = spans.starts[idx], spans.ends[idx]
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(kids):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[idx] -= covered
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    count: int = 0
    total_s: float = 0.0  # inclusive
    busy_s: float = 0.0   # self


def totals(spans: Spans) -> dict[str, SpanTotals]:
    own = self_times(spans)
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    durations = (spans.ends - spans.starts).tolist()
    for name, count, dur, busy in zip(spans.names, spans.counts.tolist(), durations,
                                      own.tolist()):
        t = out[name]
        t.calls += 1
        t.count += count
        t.total_s += dur
        t.busy_s += busy
    return out


def count_under(spans: Spans, name: str, ancestor: str, direct: bool = False) -> int:
    """Spans called `name` below a span called `ancestor` (its child, if `direct`)."""
    n = 0
    names, parents = spans.names, spans.parents.tolist()
    for idx, span_name in enumerate(names):
        if span_name != name:
            continue
        parent = parents[idx]
        while parent >= 0:
            if names[parent] == ancestor:
                n += 1
                break
            if direct:
                break
            parent = parents[parent]
    return n


def _ratio(num: float, den: float) -> float:
    # 0/0 reads 0.0, the same convention as the simulator's own rates
    return num / den if den else 0.0


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced operation (without `trace.overhead_s`)."""
    t = totals(spans)

    def calls(name):
        return t[name].calls if name in t else 0

    def field(name, attr):
        return getattr(t[name], attr) if name in t else 0

    gen_names = [n for n in t if n.startswith("generators.")]
    observed = field("node.observe", "count")
    return {
        "engine.bootstrap_s": field("engine.bootstrap", "total_s"),
        "engine.bootstrap_windows": count_under(
            spans, "detection.extract_features", "engine.bootstrap"),
        "engine.build_traffic_s": field("engine.build_traffic", "total_s"),
        "generators.events": calls("generators.one_event") + sum(
            field(f"generators.gen_{c}", "count") for c in ("dos", "spoof", "recon", "replay")),
        "generators.busy_s": sum(t[n].busy_s for n in gen_names),
        "detection.svm_train.calls": calls("detection.svm_train"),
        "detection.svm_train.rows": field("detection.svm_train", "count"),
        "detection.svm_train.busy_s": field("detection.svm_train", "busy_s"),
        "detection.extract_features.calls": calls("detection.extract_features"),
        "detection.extract_features.busy_s": field("detection.extract_features", "busy_s"),
        "detection.signature_key.calls": calls("detection.signature_key"),
        "detection.signature_key.busy_s": field("detection.signature_key", "busy_s"),
        "engine.seal_s": field("engine.seal", "total_s"),
        "trust.validate_signature_filter.calls": calls("trust.validate_signature_filter"),
        "trust.validate_signature_filter.busy_s": field(
            "trust.validate_signature_filter", "busy_s"),
        "trust.validate_model.calls": calls("trust.validate_model"),
        "trust.validate_model.busy_s": field("trust.validate_model", "busy_s"),
        "trust.accept_ratio": _ratio(field("trust.quorum", "count"), calls("trust.quorum")),
        "bloom.query.calls": calls("bloom.query"),
        "bloom.query.hits": field("bloom.query", "count"),
        "bloom.query.busy_s": field("bloom.query", "busy_s"),
        "bloom.insert.calls": calls("bloom.insert"),
        "bloom.merge.calls": calls("bloom.merge"),
        "bloom.merge.busy_s": field("bloom.merge", "busy_s"),
        "node.observe.calls": calls("node.observe"),
        "node.observe.events": observed,
        "node.observe.busy_s": field("node.observe", "busy_s"),
        "node.allowlist_skip_ratio": 1.0 - _ratio(
            count_under(spans, "bloom.query", "node.observe", direct=True), observed)
        if observed else 0.0,
        "node.close_window.busy_s": field("node.close_window", "busy_s"),
        "node.learn.busy_s": field("node.learn", "busy_s"),
        "node.sync.busy_s": field("node.sync", "busy_s"),
        "ledger.seal_block.calls": calls("ledger.seal_block"),
        "ledger.seal_block.busy_s": field("ledger.seal_block", "busy_s"),
        "ledger.txs_sealed": field("ledger.seal_block", "count"),
        "ledger.export_jsonl_s": field("ledger.export_jsonl", "total_s"),
        "ledger.import_jsonl_s": field("ledger.import_jsonl", "total_s"),
        "ledger.first_invalid_height_s": field("ledger.first_invalid_height", "total_s"),
        "trust.fold_trust_s": field("trust.fold_trust", "total_s"),
        "content_store.put.calls": calls("content_store.put"),
        "content_store.put.bytes": field("content_store.put", "count"),
        "content_store.get.calls": calls("content_store.get"),
        "encoding.sha256.calls": calls("encoding.sha256"),
        "encoding.sha256.busy_s": field("encoding.sha256", "busy_s"),
    }


# Span names each metric is derived from; a metric whose span target could not
# be wrapped is reported as missing, never as zero.
METRIC_SOURCES = {
    "engine.bootstrap_s": ("engine.bootstrap",),
    "engine.bootstrap_windows": ("engine.bootstrap", "detection.extract_features"),
    "engine.build_traffic_s": ("engine.build_traffic",),
    "generators.events": ("generators.one_event", "generators.gen_dos",
                          "generators.gen_spoof", "generators.gen_recon",
                          "generators.gen_replay"),
    "generators.busy_s": tuple(t.span for t in TARGETS if t.span.startswith("generators.")),
    "trust.accept_ratio": ("trust.quorum",),
    "node.allowlist_skip_ratio": ("node.observe", "bloom.query"),
    "engine.seal_s": ("engine.seal",),
    "ledger.txs_sealed": ("ledger.seal_block",),
    "ledger.export_jsonl_s": ("ledger.export_jsonl",),
    "ledger.import_jsonl_s": ("ledger.import_jsonl",),
    "ledger.first_invalid_height_s": ("ledger.first_invalid_height",),
    "trust.fold_trust_s": ("trust.fold_trust",),
    "content_store.put.bytes": ("content_store.put",),
}


def sources(metric: str) -> tuple[str, ...]:
    if metric in METRIC_SOURCES:
        return METRIC_SOURCES[metric]
    return (metric.rsplit(".", 1)[0],)  # "bloom.query.calls" -> "bloom.query"


def missing_metrics(names, missing_spans: dict[str, str]) -> dict[str, str]:
    """Metric name -> reason, for every metric with an unwrapped source."""
    out = {}
    for name in names:
        lost = [s for s in sources(name) if s in missing_spans]
        if lost:
            out[name] = "; ".join(missing_spans[s] for s in lost)
    return out


def save(path: str, ops: list[Spans]) -> None:
    """Write every operation's spans as columns; `op` holds the operation id."""
    names = sorted({n for s in ops for n in s.names})
    code = {n: i for i, n in enumerate(names)}
    np.savez(
        path,
        names=np.array(names),
        op=np.concatenate([np.full(len(s), i, dtype=np.int32) for i, s in enumerate(ops)]),
        name=np.concatenate([np.array([code[n] for n in s.names], dtype=np.int16)
                             for s in ops]),
        parent=np.concatenate([s.parents for s in ops]),
        start=np.concatenate([s.starts for s in ops]),
        end=np.concatenate([s.ends for s in ops]),
        count=np.concatenate([s.counts for s in ops]),
    )
