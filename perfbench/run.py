"""Benchmark of the cids simulator and its PoA ledger.

    python3 perfbench/run.py --workload standard|long|audit [--seed 42]
                             [--seconds 36] [--trace 0|1]

Run from the root of a source checkout; it imports `cids` from `src/` there
and refuses to run anywhere else. Workloads run one at a time in a single
single-threaded worker process (BLAS/OpenMP pinned to one thread). The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones, measured
without tracing; with --trace 1 they are the per-layer ones, from spans
recorded around each layer's public functions (see tracing.py), plus the
cost of that tracing. The lines above it give each timing's median, sample
count and highest supported percentile, the failed share, the output
fingerprints and each acceptance gate's margin.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("standard", "long", "audit")
SETUP_PROBES = 8     # set-up-only processes per run, after one unmeasured warm-up
DEADLINE_S = 170.0   # the whole run, set-up probes included, ends before this

END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}  # name -> unit
SPLITS = {"seal_s": "s", "audit_s": "s"}  # parts of run_s on `audit`, printed only
PER_LAYER = {
    "engine.bootstrap_s": "s",
    "engine.bootstrap_windows": "count",
    "engine.build_traffic_s": "s",
    "generators.events": "count",
    "generators.busy_s": "s",
    "detection.svm_train.calls": "count",
    "detection.svm_train.rows": "count",
    "detection.svm_train.busy_s": "s",
    "detection.extract_features.calls": "count",
    "detection.extract_features.busy_s": "s",
    "detection.signature_key.calls": "count",
    "detection.signature_key.busy_s": "s",
    "engine.seal_s": "s",
    "trust.validate_signature_filter.calls": "count",
    "trust.validate_signature_filter.busy_s": "s",
    "trust.validate_model.calls": "count",
    "trust.validate_model.busy_s": "s",
    "trust.accept_ratio": "ratio",
    "bloom.query.calls": "count",
    "bloom.query.hits": "count",
    "bloom.query.busy_s": "s",
    "bloom.insert.calls": "count",
    "bloom.merge.calls": "count",
    "bloom.merge.busy_s": "s",
    "node.observe.calls": "count",
    "node.observe.events": "count",
    "node.observe.busy_s": "s",
    "node.allowlist_skip_ratio": "ratio",
    "node.close_window.busy_s": "s",
    "node.learn.busy_s": "s",
    "node.sync.busy_s": "s",
    "ledger.seal_block.calls": "count",
    "ledger.seal_block.busy_s": "s",
    "ledger.txs_sealed": "count",
    "ledger.export_jsonl_s": "s",
    "ledger.import_jsonl_s": "s",
    "ledger.first_invalid_height_s": "s",
    "trust.fold_trust_s": "s",
    "content_store.put.calls": "count",
    "content_store.put.bytes": "bytes",
    "content_store.get.calls": "count",
    "encoding.sha256.calls": "count",
    "encoding.sha256.busy_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def high_percentile(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"p{p}", q
    return "max", max(samples)


def worker_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def start_worker(root: str, args, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it and its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(root), cwd=root,
                            text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start: {line.strip()!r}, exit {proc.returncode}")
    return proc, setup_s


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure(root: str, args) -> tuple[list[float], dict]:
    deadline = time.monotonic() + DEADLINE_S

    def probe(times: int) -> list[float]:
        out = []
        for _ in range(times):
            proc, setup_s = start_worker(root, args, "--setup-only")
            finish_worker(proc, deadline)
            out.append(setup_s)
        return out

    # half the probes before the main worker and half after, to spread them in time
    before = probe(0 if args.trace else SETUP_PROBES // 2 + 1)[1:]  # [0] may compile bytecode
    proc, setup_s = start_worker(root, args)
    lines = finish_worker(proc, deadline).strip().splitlines()
    after = probe(0 if args.trace else SETUP_PROBES - len(before))
    return before + [setup_s] + after, json.loads(lines[-1])


def summarize(args, setups: list[float], result: dict) -> dict:
    ops = result["ops"]
    failed = [op for op in ops if op["failures"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}  failed {len(failed)}/{len(ops)} "
          f"({len(failed) / len(ops):.1%})")
    for i, op in enumerate(ops):
        for failure in op["failures"]:
            print(f"FAILED op {i}: {failure.strip()}")

    good = [op for op in ops if not op["failures"]]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    samples: dict[str, list[float]] = {}
    if args.trace:
        for name in PER_LAYER:
            if traced and name not in {*result["missing_metrics"], "trace.overhead_s"}:
                samples[name] = [op["layers"][name] for op in traced]
        if traced and plain:
            samples["trace.overhead_s"] = [
                statistics.median(op["timings"]["run_s"] for op in traced)
                - statistics.median(op["timings"]["run_s"] for op in plain)]
        units = PER_LAYER
    else:
        for name in ("run_s", *SPLITS):
            if plain and name in plain[0]["timings"]:
                samples[name] = [op["timings"][name] for op in plain]
        samples["peak_rss_mb"] = [result["peak_rss_mb"]]
        samples["setup_s"] = setups
        units = {**END_TO_END, **SPLITS}

    print(f"{'metric':42s} {'unit':6s} {'median':>12s} {'n':>3s}  high")
    metrics = {}
    for name, values in samples.items():
        median = statistics.median(values)
        label, high = high_percentile(values)
        print(f"{name:42s} {units[name]:6s} {median:12.6g} {len(values):3d}  "
              f"{label} {high:.6g}")
        if name not in SPLITS:
            metrics[name] = {"value": median, "unit": units[name]}
    for name, reason in result["missing_metrics"].items():
        print(f"MISSING {name}: {reason}")

    prints = {}
    for op in good:
        for key, value in op["fingerprints"].items():
            prints.setdefault(key, set()).add(value)
    for key, values in sorted(prints.items()):
        same = "" if len(values) == 1 else f"  DIFFERS across {len(values)} values"
        print(f"fingerprint {key} {sorted(values)[0]}{same}")
    if any(len(v) > 1 for v in prints.values()):
        failed = ops  # the same input must give the same output every time
    if good:
        for name, value, cmp, threshold, ok in good[0]["gates"]:
            headroom = None if value is None else (
                value - threshold if cmp == ">=" else threshold - value)
            margin = "" if headroom is None else f"  headroom {headroom:+.4g}"
            print(f"gate {name} {value} {cmp} {threshold} "
                  f"{'ok' if ok else 'FAILED'}{margin}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    for needed in ("src/cids/__init__.py", "scenarios/standard.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the root of a cids checkout",
                  file=sys.stderr)
            return 2
    try:
        setups, result = measure(root, args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, HERE)
    import tracing

    result["missing_metrics"] = tracing.missing_metrics(PER_LAYER, result["missing"])
    summary = summarize(args, setups, result)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"args": vars(args), "setup_s": setups, **result, "summary": summary},
                  fh, indent=1, default=list)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
