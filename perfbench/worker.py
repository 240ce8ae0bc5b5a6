"""One benchmark process: set up a workload, then run its operations.

Started by run.py, never by hand. It prints `READY` once the first timed
operation can begin, so the parent can time set-up from interpreter start.
With --setup-only it exits there. Otherwise it runs operations until the
next one would end after --seconds, checks each one, and prints one JSON
line with every sample. With --trace 1 it alternates untraced and traced
operations and writes the traced spans under <root>/.perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cids

    if os.path.dirname(os.path.abspath(cids.__file__)) != os.path.join(src, "cids"):
        print(f"imported cids from {cids.__file__}, not from {src}", file=sys.stderr)
        return 3

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.root, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops: list[dict] = []
    traced_spans = []
    missing: dict[str, str] = {}
    started = perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        gc.collect()  # every operation starts from the same collector state
        t0 = perf_counter()
        tracer = tracing.Tracer() if traced else None
        try:
            if tracer is None:
                out = workload.run(len(ops))
            else:
                with tracer:
                    root_span = tracer.open("op")
                    try:
                        out = workload.run(len(ops))
                    finally:
                        tracer.close(root_span)
                missing.update(tracer.missing)
            result = workload.check(len(ops), out)
            del out
        except Exception:  # an operation that raises counts as failed, and the run goes on
            ops.append({"traced": traced, "failures": [traceback.format_exc(limit=3)],
                        "wall_s": perf_counter() - t0})
        else:
            entry = {"traced": traced, "timings": result.timings, "failures": result.failures, "fingerprints": result.fingerprints,
                     "gates": result.gates}
            if tracer is not None:
                spans = tracer.take()
                entry["layers"] = tracing.layer_metrics(spans)
                traced_spans.append(spans)
            entry["wall_s"] = perf_counter() - t0
            ops.append(entry)
        if len(ops) == 1:  # set-up plus one operation, whatever the run length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB

        elapsed = perf_counter() - started
        per_op = elapsed / len(ops)
        both_modes = not args.trace or len(ops) >= 2
        if both_modes and elapsed + per_op > args.seconds:
            break

    if traced_spans:
        out_dir = os.path.join(args.root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracing.save(os.path.join(out_dir, f"spans-{args.workload}.npz"), traced_spans)

    print(json.dumps({"ops": ops, "peak_rss_mb": peak_rss_mb, "missing": missing}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
