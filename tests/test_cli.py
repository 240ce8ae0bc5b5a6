import json
import re

import pytest

from cids.cli import main
from cids.ledger import (
    Alarm,
    AttackClass,
    Ledger,
    ModelContribution,
    ModelKind,
    Outcome,
    Reason,
    Transaction,
    TrustUpdate,
    export_jsonl,
)
from cids.simnet import Simulation


def mini_config_dict(seed=11):
    return {
        "n_nodes": 4,
        "authorities": [0, 1, 2],
        "duration": 400,
        "block_interval": 10,
        "contribution_interval": 100,
        "window_ticks": 20,
        "seed": seed,
        "attacks": [
            {"attack_class": "dos", "start": 120, "length": 60, "target": 3,
             "intensity": 12.0}
        ],
        "adversary": {"node": 3, "behavior": "poison_model"},
        "bootstrap": {"benign_windows": 30, "attack_windows": 10,
                      "historical_signatures": 300, "benign_sample": 100},
        "train_min": 30,
    }


def write_config(tmp_path, obj):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return str(path)


def trust_ledger(tmp_path, updates):
    ledger = Ledger(authorities=[0])
    txs = [
        Transaction.wrap(0, TrustUpdate(subject, outcome, reason))
        for subject, outcome, reason in updates
    ]
    ledger.seal_block(0, 10, txs)
    path = tmp_path / "ledger.jsonl"
    path.write_text(export_jsonl(ledger))
    return str(path)


# --- run ----------------------------------------------------------------

def test_run_writes_report(tmp_path, capsys):
    config = write_config(tmp_path, mini_config_dict())
    out = tmp_path / "report.json"
    code = main(["run", "--config", config, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["seed"] == 11
    assert out.read_text() == captured.out


def test_run_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def _set(path, value):
    def edit(obj):
        for step in path[:-1]:
            obj = obj[step] if type(step) is int else obj.setdefault(step, {})
        obj[path[-1]] = value
    return edit


# Each config the loader once coerced, ignored or crashed on, with the key
# path its error must name.
INVALID_CONFIGS = {
    "duration-zero": (_set(["duration"], 0), "duration"),
    "typo-key": (_set(["windows_ticks"], 7), "windows_ticks"),
    "seed-bool": (_set(["seed"], True), "seed"),
    "n_nodes-float": (_set(["n_nodes"], 6.9), "n_nodes"),
    "duration-string": (_set(["duration"], "400"), "duration"),
    "adopt_peers-string": (_set(["adopt_peers"], "false"), "adopt_peers"),
    "authority-float": (_set(["authorities"], [0.5]), "authorities[0]"),
    "threshold-string": (_set(["thresholds", "model_accuracy"], "x"),
                         "thresholds.model_accuracy"),
    "adversary-empty": (_set(["adversary"], {}), "adversary.node"),
    "benign-rate-string": (_set(["benign", "rate"], "3"), "benign.rate"),
    "attack-start-string": (_set(["attacks", 0, "start"], "1"), "attacks[0].start"),
    "attack-intensity-nan": (_set(["attacks", 0, "intensity"], float("nan")),
                             "attacks[0].intensity"),
    "payload_len_std-negative": (_set(["benign", "payload_len_std"], -1.0),
                                 "benign.payload_len_std"),
    "bootstrap-count-negative": (_set(["bootstrap", "benign_windows"], -5),
                                 "bootstrap.benign_windows"),
    # sizes that once validated and then made the run allocate or draw too much
    "nodes-and-bits-huge": (lambda obj: obj.update(n_nodes=2**64, bloom_m_bits=2**64),
                            "n_nodes"),
    "bloom_m_bits-huge": (_set(["bloom_m_bits"], 2**64), "bloom_m_bits"),
    "benign-rate-huge": (_set(["benign", "rate"], 1e20), "benign.rate"),
    "attack-intensity-huge": (_set(["attacks", 0, "intensity"], 1e300),
                              "attacks[0].intensity"),
    "payload_len_mean-huge": (_set(["benign", "payload_len_mean"], 1e300),
                              "benign.payload_len_mean"),
    "window_ticks-huge": (_set(["window_ticks"], 1_000_000), "window_ticks"),
    "window_ticks-beyond-duration": (_set(["window_ticks"], 401), "window_ticks"),
}


@pytest.mark.parametrize("case", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS.keys())
def test_run_invalid_config(tmp_path, capsys, case):
    edit, key_path = case
    obj = mini_config_dict()
    edit(obj)
    code = main(["run", "--config", write_config(tmp_path, obj)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.match(rf"error: (unknown key |missing key )?{re.escape(key_path)}[ :\n]",
                    captured.err)


def test_run_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe")
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_run_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("[1, 2]")
    code = main(["run", "--config", str(path), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "config must be a JSON object" in captured.err


def test_run_seed_flag_overrides_and_echoes(tmp_path, capsys):
    config = write_config(tmp_path, mini_config_dict(seed=11))
    assert main(["run", "--config", config]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11
    code = main(["run", "--config", config, "--seed", "99"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_run_determinism_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path, mini_config_dict())
    main(["run", "--config", config])
    first = capsys.readouterr().out
    main(["run", "--config", config])
    second = capsys.readouterr().out
    assert first == second
    main(["run", "--config", config, "--seed", "12"])
    assert capsys.readouterr().out != first


def test_run_side_outputs(tmp_path, capsys):
    config = write_config(tmp_path, mini_config_dict())
    ledger_out = tmp_path / "ledger.jsonl"
    trace_out = tmp_path / "trace.jsonl"
    nodes_out = tmp_path / "nodes.json"
    store_dir = tmp_path / "blobs"
    code = main([
        "run", "--config", config, "--ledger-out", str(ledger_out),
        "--trace", str(trace_out), "--nodes-out", str(nodes_out),
        "--dump-store", str(store_dir),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(trace_out.read_text().splitlines()) == 400
    assert len(json.loads(nodes_out.read_text())) == 4
    assert any(store_dir.iterdir())
    # exported chain passes verification
    assert main(["ledger-verify", str(ledger_out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out", "--trace", "--ledger-out", "--nodes-out",
                                  "--dump-store"])
def test_run_unwritable_side_output_is_usage_error(tmp_path, capsys, monkeypatch, flag):
    def run(*args, **kwargs):
        pytest.fail("Simulation.run was called with an unwritable side output")

    # the path is checked before the simulation, not after it
    monkeypatch.setattr(Simulation, "run", run)
    config = write_config(tmp_path, mini_config_dict())
    if flag == "--dump-store":
        target = tmp_path / "a-file"  # a directory is wanted here
        target.write_text("")
    else:
        target = tmp_path / "missing" / "out.json"
    code = main(["run", "--config", config, flag, str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert flag in lines[0] and str(target) in lines[0]


# --- ledger verify ------------------------------------------------------------

def test_ledger_verify_detects_tampering(tmp_path, capsys):
    config = write_config(tmp_path, mini_config_dict())
    ledger_out = tmp_path / "ledger.jsonl"
    main(["run", "--config", config, "--ledger-out", str(ledger_out)])
    capsys.readouterr()

    text = ledger_out.read_text()
    pos = text.index('"sim_time": ')
    tampered = text[:pos] + '"sim_time": 9' + text[pos + len('"sim_time": 0') :]
    bad = tmp_path / "tampered.jsonl"
    bad.write_text(tampered)
    code = main(["ledger", "verify", str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["valid"] is False
    assert isinstance(out["first_invalid_height"], int)


# tx index in the block below, field, and an integer standing in for the name
ENUM_FIELDS = [(0, "kind"), (0, "model_kind"), (1, "attack_class"),
               (2, "outcome"), (2, "reason")]


@pytest.mark.parametrize("tx_index,field", ENUM_FIELDS,
                         ids=[f for _i, f in ENUM_FIELDS])
def test_ledger_commands_reject_non_string_enum_name(tmp_path, capsys, tx_index, field):
    ledger = Ledger(authorities=[0])
    ledger.seal_block(0, 10, [
        Transaction.wrap(1, ModelContribution(b"\x01" * 32, ModelKind.SVM, 0.5)),
        Transaction.wrap(2, Alarm(AttackClass.DOS, b"\x02" * 32, 7)),
        Transaction.wrap(0, TrustUpdate(1, Outcome.POSITIVE, Reason.MODEL_ACCEPTED)),
    ])
    lines = export_jsonl(ledger).splitlines()
    block = json.loads(lines[1])
    block["txs"][tx_index][field] = 2
    lines[1] = json.dumps(block, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["ledger", "verify", str(bad)]) == 2
    assert main(["trust", "report", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse ledger" in captured.err


# a JSON literal that decodes but cannot be a u64
OUT_OF_RANGE = [("tx", "sender", "18446744073709551616"), ("tx", "sender", "Infinity"),
                ("block", "sim_time", "1" + "0" * 30), ("block", "index", "-Infinity")]


@pytest.mark.parametrize("where,field,literal", OUT_OF_RANGE,
                         ids=[f"{w}-{f}-{lit[:8]}" for w, f, lit in OUT_OF_RANGE])
def test_ledger_commands_reject_out_of_range_integers(tmp_path, capsys, where, field, literal):
    ledger = Ledger(authorities=[0])
    ledger.seal_block(0, 10, [Transaction.wrap(2, Alarm(AttackClass.DOS, b"\x02" * 32, 7))])
    lines = export_jsonl(ledger).splitlines()
    block = json.loads(lines[1])
    (block["txs"][0] if where == "tx" else block)[field] = "@"
    lines[1] = json.dumps(block, sort_keys=True).replace('"@"', literal)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["ledger", "verify", str(bad)]) == 2
    assert main(["trust", "report", str(bad)]) == 2
    assert capsys.readouterr().out == ""


def test_ledger_commands_reject_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe not a ledger\n")
    assert main(["ledger-verify", str(bad)]) == 2
    assert main(["trust-report", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse ledger" in captured.err


def test_ledger_commands_missing_file(tmp_path, capsys):
    absent = str(tmp_path / "absent.jsonl")
    assert main(["ledger", "verify", absent]) == 2
    assert main(["trust", "report", absent]) == 2
    assert capsys.readouterr().err.count("error: cannot read ledger") == 2


def test_ledger_verify_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["ledger-verify", str(empty)]) == 2
    capsys.readouterr()


# --- bloom calc ------------------------------------------------------------------

def test_bloom_calc_standard_point(capsys):
    assert main(["bloom-calc", "--m", "10000", "--n", "1000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 7
    assert out["analytic_fpr"] == pytest.approx(0.00819, abs=1e-4)


def test_bloom_calc_empty_filter(capsys):
    assert main(["bloom-calc", "--m", "1024", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["analytic_fpr"] == 0.0


def test_bloom_calc_usage_errors(capsys):
    assert main(["bloom-calc", "--m", "0", "--n", "5"]) == 2
    capsys.readouterr()
    assert main(["bloom-calc", "--m", "100", "--n", "5", "--k", "99"]) == 2
    capsys.readouterr()
    assert main(["bloom-calc", "--m", "100"]) == 2  # missing --n
    capsys.readouterr()


# --- trust report ------------------------------------------------------------------

def test_trust_report_no_updates_defaults(tmp_path, capsys):
    ledger = Ledger(authorities=[0])
    ledger.seal_block(0, 10, [])
    path = tmp_path / "ledger.jsonl"
    path.write_text(export_jsonl(ledger))
    assert main(["trust-report", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"node": 0, "positives": 0, "negatives": 0, "score": 0.5}]


def test_trust_report_beta_mean(tmp_path, capsys):
    updates = [(2, Outcome.POSITIVE, Reason.MODEL_ACCEPTED)] * 3
    updates.append((2, Outcome.NEGATIVE, Reason.FILTER_REJECTED))
    path = trust_ledger(tmp_path, updates)
    assert main(["trust", "report", path]) == 0
    rows = {r["node"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows[2]["score"] == pytest.approx(2 / 3, abs=1e-9)
    assert rows[2]["positives"] == 3


def test_trust_report_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a ledger\n")
    assert main(["trust-report", str(bad)]) == 2
    capsys.readouterr()


def test_all_stdout_payloads_are_json(tmp_path, capsys):
    config = write_config(tmp_path, mini_config_dict())
    main(["run", "--config", config])
    for line in capsys.readouterr().out.strip().splitlines():
        json.loads(line)
    main(["bloom-calc", "--m", "64", "--n", "4"])
    json.loads(capsys.readouterr().out)
