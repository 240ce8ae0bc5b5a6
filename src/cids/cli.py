"""Batch CLI: run scenarios, verify ledgers, bloom math, trust reports.

Exit codes are a stable CI contract: 0 success, 1 verification or assertion
failure, 2 usage or parse error. Stdout carries only JSON; human-oriented
notes go to stderr. `run --seed` overrides the config file's seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .bloom import MAX_K, analytic_fpr, optimal_k
from .errors import CidsError, MalformedBytes
from .ledger import Ledger, export_jsonl, first_invalid_height, import_jsonl
from .simnet.config import load_config
from .simnet.engine import Simulation
from .trust import TrustRecord, fold_updates

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


@contextmanager
def _side_output(flag: str, path: str):
    """An OSError while writing a run's side output is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise CidsError(f"cannot write {flag} {path}: {exc.strerror or exc}") from None


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed

    # a side output that cannot be written fails before the run, not after it
    for flag, path in (("--out", args.out), ("--trace", args.trace),
                       ("--ledger-out", args.ledger_out), ("--nodes-out", args.nodes_out)):
        if path:
            with _side_output(flag, path), open(path, "a"):
                pass
    if args.dump_store:
        with _side_output("--dump-store", args.dump_store):
            os.makedirs(args.dump_store, exist_ok=True)

    sim = Simulation(config)
    report = sim.run(trace=args.trace is not None)
    payload = report.to_json()

    if args.out:
        with _side_output("--out", args.out), open(args.out, "w") as fh:
            fh.write(payload)
    if args.trace:
        with _side_output("--trace", args.trace), open(args.trace, "w") as fh:
            for record in sim.trace:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.ledger_out:
        with _side_output("--ledger-out", args.ledger_out), open(args.ledger_out, "w") as fh:
            fh.write(export_jsonl(sim.ledger))
    if args.nodes_out:
        with _side_output("--nodes-out", args.nodes_out), open(args.nodes_out, "w") as fh:
            json.dump([n.state_summary() for n in sim.nodes], fh, sort_keys=True)
            fh.write("\n")
    if args.dump_store:
        with _side_output("--dump-store", args.dump_store):
            sim.store.dump(args.dump_store)

    sys.stdout.write(payload)
    print(f"run complete: seed {config.seed}, {report.ledger_blocks} blocks",
          file=sys.stderr)
    return EXIT_OK


def _load_ledger(path: str) -> Ledger:
    """Read and parse an exported ledger; `main` turns a failure into exit 2."""
    try:
        with open(path) as fh:
            return import_jsonl(fh.read())
    except OSError as exc:
        raise CidsError(f"cannot read ledger: {exc}") from None
    except (UnicodeDecodeError, MalformedBytes) as exc:
        raise MalformedBytes(f"cannot parse ledger: {exc}") from None


def cmd_ledger_verify(args) -> int:
    ledger = _load_ledger(args.ledger)
    height = first_invalid_height(ledger)
    if height is None:
        sys.stdout.write(json.dumps({"valid": True, "blocks": len(ledger.blocks)}) + "\n")
        return EXIT_OK
    sys.stdout.write(
        json.dumps({"valid": False, "first_invalid_height": height}) + "\n"
    )
    print(f"chain invalid at height {height}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_bloom_calc(args) -> int:
    if args.m < 1:
        return _fail_usage("--m must be >= 1")
    if args.n < 0:
        return _fail_usage("--n must be >= 0")
    if args.k is not None and not 1 <= args.k <= MAX_K:
        return _fail_usage(f"--k must be in [1, {MAX_K}]")
    if args.k is not None:
        k = args.k
    elif args.n >= 1:
        k = optimal_k(args.m, args.n)
    else:
        k = 1
    fpr = analytic_fpr(args.m, k, args.n)
    sys.stdout.write(
        json.dumps({"m": args.m, "n": args.n, "k": k, "analytic_fpr": fpr}) + "\n"
    )
    return EXIT_OK


def cmd_trust_report(args) -> int:
    ledger = _load_ledger(args.ledger)
    known = {block.proposer for block in ledger.blocks[1:]}
    known.update(tx.sender for block in ledger.blocks[1:] for tx in block.txs)
    records = fold_updates({node: TrustRecord(node) for node in known},
                           (tx for block in ledger.blocks for tx in block.txs))
    rows = [
        {
            "node": node,
            "positives": r.positives,
            "negatives": r.negatives,
            "score": r.score,
        }
        for node, r in sorted(records.items())
    ]
    sys.stdout.write(json.dumps(rows) + "\n")
    return EXIT_OK


def _add_ledger_command(sub, group: str, name: str, help_text: str, func) -> None:
    """Register `cids GROUP NAME LEDGER` and its alias `cids GROUP-NAME LEDGER`."""
    alias = sub.add_parser(f"{group}-{name}", help=help_text)
    nested = (sub.add_parser(group, help=f"{group} inspection commands")
              .add_subparsers(dest=f"{group}_command", required=True)
              .add_parser(name, help=help_text))
    for parser in (alias, nested):
        parser.add_argument("ledger", help="exported ledger file (JSONL)")
        parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cids", description="collaborative intrusion detection simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and print the metrics report")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="also write the report here")
    run_p.add_argument("--trace", default=None, help="write a per-tick JSONL trace")
    run_p.add_argument("--ledger-out", default=None, help="export the ledger (JSONL)")
    run_p.add_argument("--nodes-out", default=None, help="write per-node state dumps")
    run_p.add_argument("--dump-store", default=None,
                       help="dump content-store blobs into this directory")
    run_p.set_defaults(func=cmd_run)

    _add_ledger_command(sub, "ledger", "verify", "re-check all chain invariants",
                        cmd_ledger_verify)

    bc = sub.add_parser("bloom-calc", help="analytic FPR and optimal k")
    bc.add_argument("--m", type=int, required=True, help="filter size in bits")
    bc.add_argument("--n", type=int, required=True, help="expected item count")
    bc.add_argument("--k", type=int, default=None, help="hash count (default: optimal)")
    bc.set_defaults(func=cmd_bloom_calc)

    _add_ledger_command(sub, "trust", "report", "fold the chain's trust updates",
                        cmd_trust_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CidsError as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
