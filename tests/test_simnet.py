import hashlib
import json
import re

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cids.detection import EventRecord, Flags, WindowColumns, extract_features
from cids.errors import ConfigInvalid, EmptyHistory
from cids.ledger import TxKind, verify_chain
from cids.simnet import (
    AdversarySpec,
    AttackPools,
    AttackSpec,
    BenignPool,
    BenignProfile,
    BootstrapSpec,
    ScenarioConfig,
    Simulation,
    Thresholds,
    baseline_bytes,
    config_from_dict,
    gen_benign,
    gen_dos,
    gen_recon,
    gen_replay,
    gen_spoof,
    load_config,
    run,
)
from cids.simnet.config import ATTACK_CLASS_NAMES
from cids.simnet.engine import _KINDS, ATTACK_WINDOW_FRACTION, _ground_truth
from cids.simnet.generators import (
    BENIGN_FLAG_CHOICES,
    BENIGN_FLAG_WEIGHTS,
    BENIGN_PORTS,
    DOS_COLLATERAL,
    DOS_PAYLOAD_LEN,
    DOS_PORT,
    RECON_PORT_BASE,
    REPLAY_POOL,
    SPOOF_PAYLOAD_LEN,
)
from util import STANDARD_SCENARIO, json_values, standard_config


def mini_scenario(seed=11, adversary="poison_model"):
    return ScenarioConfig(
        n_nodes=4,
        authorities=[0, 1, 2],
        duration=400,
        block_interval=10,
        contribution_interval=100,
        window_ticks=20,
        seed=seed,
        attacks=[AttackSpec("dos", start=120, length=60, target=3, intensity=12.0)],
        adversary=AdversarySpec(node=3, behavior=adversary) if adversary else None,
        bootstrap=BootstrapSpec(benign_windows=30, attack_windows=10,
                                historical_signatures=300, benign_sample=100),
        train_min=30,
    )


@pytest.fixture(scope="module")
def mini_run():
    sim = Simulation(mini_scenario())
    report = sim.run()
    return sim, report


def profile_and_pools(seed=5):
    rng = np.random.default_rng(seed)
    profile = BenignProfile()
    return profile, BenignPool(profile, rng), AttackPools.from_rng(rng)


# --- config --------------------------------------------------------------

def test_zero_duration_rejected():
    with pytest.raises(ConfigInvalid):
        config_from_dict({"duration": 0})


def test_attack_overrunning_duration_rejected():
    with pytest.raises(ConfigInvalid):
        config_from_dict(
            {"duration": 100,
             "attacks": [{"attack_class": "dos", "start": 80, "length": 40,
                          "target": 0, "intensity": 1.0}]}
        )


def test_bad_authority_rejected():
    with pytest.raises(ConfigInvalid):
        config_from_dict({"n_nodes": 3, "authorities": [0, 7]})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"authorities": []})


@pytest.mark.parametrize("obj", [[], [{"duration": 100}], "standard", 7, None])
def test_non_object_config_rejected(obj):
    with pytest.raises(ConfigInvalid):
        config_from_dict(obj)


def test_non_utf8_config_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigInvalid):
        load_config(str(path))


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000],
                         ids=["integer-too-long", "nesting-too-deep"])
def test_undecodable_json_config_rejected(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ConfigInvalid, match="not valid JSON"):
        load_config(str(path))


def test_unknown_attack_class_rejected():
    with pytest.raises(ConfigInvalid):
        config_from_dict(
            {"attacks": [{"attack_class": "quantum", "start": 0, "length": 1,
                          "target": 0, "intensity": 1.0}]}
        )


def test_config_round_trips_through_json():
    cfg = standard_config()
    assert config_from_dict(json.loads(cfg.to_json())) == cfg


def test_missing_keys_take_the_dataclass_defaults():
    assert config_from_dict({}) == ScenarioConfig()
    assert config_from_dict({"benign": {"rate": 2.5}}).benign == BenignProfile(rate=2.5)


def test_float_field_takes_only_a_json_float():
    # one JSON form per value: `to_json` writes 3.0, so 3 is not read as it
    with pytest.raises(ConfigInvalid, match=r"^benign\.rate must be a JSON float"):
        config_from_dict({"benign": {"rate": 3}})


def _set_field(obj: dict, path: tuple, value) -> None:
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value


@pytest.mark.parametrize("path, name", [
    (("window_size",), "window_size"),
    (("benign", "rate_hz"), "benign.rate_hz"),
    (("attacks", 0, "end"), "attacks[0].end"),
    (("adversary", "nodes"), "adversary.nodes"),
    (("thresholds", "fpr"), "thresholds.fpr"),
    (("bootstrap", "windows"), "bootstrap.windows"),
])
def test_unknown_key_rejected_at_every_level(path, name):
    obj = json.loads(STANDARD_SCENARIO.read_text())
    _set_field(obj, path, 1)
    with pytest.raises(ConfigInvalid, match=rf"^unknown key {re.escape(name)}$"):
        config_from_dict(obj)


def _finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw):
    # every field drawn inside the bounds that validate checks
    n_nodes = draw(st.integers(1, 64))
    duration = draw(st.integers(1, 10**6))
    node = st.integers(0, n_nodes - 1)

    @st.composite
    def attacks(draw):
        start = draw(st.integers(0, duration))
        return AttackSpec(draw(st.sampled_from(sorted(ATTACK_CLASS_NAMES))), start,
                          draw(st.integers(0, duration - start)), draw(node),
                          draw(_finite(0.0, 1000.0, exclude_min=True)))

    return ScenarioConfig(
        n_nodes=n_nodes,
        authorities=draw(st.lists(node, min_size=1, unique=True)),
        duration=duration,
        block_interval=draw(st.integers(1, 10**6)),
        contribution_interval=draw(st.integers(1, 10**6)),
        window_ticks=draw(st.integers(1, min(duration, 10_000))),
        seed=draw(st.integers()),
        benign=BenignProfile(draw(_finite(0.0, 1000.0)), draw(_finite(None, 65535.0)),
                             draw(_finite(0.0, 65535.0)), draw(st.integers(1, 65536))),
        attacks=draw(st.lists(attacks(), max_size=4)),
        adversary=draw(st.none() | st.builds(
            AdversarySpec, node, st.sampled_from(["none", "poison_model", "poison_filter"]))),
        thresholds=draw(st.builds(Thresholds, _finite(), _finite(), _finite())),
        adopt_peers=draw(st.booleans()),
        bloom_m_bits=draw(st.integers(8, 2**24)),
        bloom_k_hashes=draw(st.integers(1, 16)),
        svm_lambda=draw(_finite(0.0, exclude_min=True)),
        svm_epochs=draw(st.integers(1, 10**6)),
        train_min=draw(st.integers(2, 10**6)),
        learn_interval_windows=draw(st.integers(1, 10**6)),
        signature_cap_per_attack=draw(st.integers()),
        bootstrap=draw(st.builds(BootstrapSpec, *[st.integers(0, 100_000)] * 6)),
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_json_round_trip_property(cfg):
    cfg.validate()
    assert config_from_dict(json.loads(cfg.to_json())) == cfg


def _field_paths(obj: dict, prefix=()):
    """The key path of every field in a config object, nested ones included."""
    for key, value in obj.items():
        path = prefix + (key,)
        yield path
        if isinstance(value, dict):
            yield from _field_paths(value, path)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _field_paths(item, path + (i,))


STANDARD_FIELD_PATHS = list(_field_paths(json.loads(STANDARD_SCENARIO.read_text())))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STANDARD_FIELD_PATHS), json_values)
def test_hostile_field_loads_or_raises_config_invalid(path, value):
    obj = json.loads(STANDARD_SCENARIO.read_text())
    _set_field(obj, path, value)
    try:
        config_from_dict(obj).validate()
    except ConfigInvalid:
        pass


# --- generators --------------------------------------------------------------

def test_benign_rate_zero_no_events():
    rng = np.random.default_rng(1)
    profile = BenignProfile(rate=0.0)
    pool = BenignPool(profile, rng)
    assert gen_benign(pool, 3, 100, np.random.default_rng(2)) == []


def test_benign_stream_deterministic():
    _, pool, _ = profile_and_pools()
    a = gen_benign(pool, 2, 50, np.random.default_rng(9))
    b = gen_benign(pool, 2, 50, np.random.default_rng(9))
    assert a == b


def test_benign_mean_rate_converges():
    _, pool, _ = profile_and_pools()
    duration = 10000
    stream = gen_benign(pool, 1, duration, np.random.default_rng(42))
    assert len(stream) / duration == pytest.approx(pool.profile.rate, rel=0.05)


def test_benign_claimed_identity_matches_src():
    _, pool, _ = profile_and_pools()
    stream = gen_benign(pool, 2, 50, np.random.default_rng(3))
    assert all(e.claimed_src_identity == e.src for _, _, e in stream)


def test_dos_zero_length_no_events():
    profile, _, pools = profile_and_pools()
    spec = AttackSpec("dos", start=10, length=0, target=0, intensity=5.0)
    assert gen_dos(spec, pools, profile, 3, np.random.default_rng(1)) == []


def test_dos_all_syn_and_small_payloads():
    profile, _, pools = profile_and_pools()
    spec = AttackSpec("dos", start=0, length=50, target=1, intensity=20.0)
    stream = gen_dos(spec, pools, profile, 3, np.random.default_rng(1))
    assert all(e.flags == Flags.SYN for _, _, e in stream)
    assert all(e.payload_len <= 16 for _, _, e in stream)


def test_dos_window_rate_dwarfs_benign():
    profile, _, pools = profile_and_pools()
    spec = AttackSpec("dos", start=1, length=50, target=1, intensity=20.0)
    stream = gen_dos(spec, pools, profile, 3, np.random.default_rng(1))
    target_events = [e for _, n, e in stream if n == 1][:1000]
    f1 = extract_features(sorted(target_events, key=lambda e: e.sim_time)[:1200], 20)[0]
    assert f1 >= 10 * profile.rate


def test_spoof_identity_conflicts():
    profile, _, pools = profile_and_pools()
    spec = AttackSpec("spoof", start=0, length=30, target=0, intensity=1.0)
    stream = gen_spoof(spec, pools, profile, 4, np.random.default_rng(2))
    assert stream
    assert all(e.claimed_src_identity != e.src for _, _, e in stream)
    assert all(e.flags == Flags.ARP_REPLY for _, _, e in stream)
    window = [e for t, n, e in stream if n == 0 and t <= 20]
    assert extract_features(sorted(window, key=lambda e: e.sim_time), 20)[5] > 0


def test_recon_ports_distinct_and_ascending():
    profile, _, pools = profile_and_pools()
    spec = AttackSpec("recon", start=0, length=40, target=2, intensity=2.7)
    stream = gen_recon(spec, pools, profile, 3, np.random.default_rng(3))
    per_node = {}
    for _, n, e in stream:
        per_node.setdefault(n, []).append(e.dst_port)
    for ports in per_node.values():
        assert len(set(ports)) == len(ports)
        assert ports == sorted(ports)


def test_recon_port_spread_dwarfs_benign():
    profile, pool, pools = profile_and_pools()
    spec = AttackSpec("recon", start=1, length=20, target=0, intensity=2.7)
    stream = gen_recon(spec, pools, profile, 1, np.random.default_rng(4))
    benign = gen_benign(pool, 1, 20, np.random.default_rng(5))
    window = sorted(
        [e for _, _, e in stream] + [e for _, _, e in benign], key=lambda e: e.sim_time
    )
    benign_f3 = extract_features([e for _, _, e in benign], 20)[2]
    assert extract_features(window, 20)[2] >= 10 * max(benign_f3, 1)


def test_replay_digests_previously_appeared():
    profile, pool, _ = profile_and_pools()
    captured = [e for _, _, e in gen_benign(pool, 1, 100, np.random.default_rng(6))]
    spec = AttackSpec("replay", start=200, length=40, target=0, intensity=2.5)
    stream = gen_replay(spec, profile, captured, np.random.default_rng(7))
    seen = {e.payload_digest for e in captured}
    assert stream
    assert all(e.payload_digest in seen for _, _, e in stream)


def test_replay_duplicate_ratio():
    profile, pool, _ = profile_and_pools()
    benign = gen_benign(pool, 1, 20, np.random.default_rng(8))
    captured = [e for _, _, e in gen_benign(pool, 1, 100, np.random.default_rng(9))]
    spec = AttackSpec("replay", start=1, length=20, target=0, intensity=2.5)
    stream = gen_replay(spec, profile, captured, np.random.default_rng(10))
    window = sorted(
        [e for _, _, e in benign] + [e for _, _, e in stream], key=lambda e: e.sim_time
    )
    assert extract_features(window, 20)[4] >= 0.5


def test_replay_empty_history():
    profile = BenignProfile()
    spec = AttackSpec("replay", start=0, length=10, target=0, intensity=1.0)
    with pytest.raises(EmptyHistory):
        gen_replay(spec, profile, [], np.random.default_rng(1))


# --- bulk draws consume the random stream exactly as the per-event loops ----
# The scalar loops below are the generators as first written, one Generator
# call per value. The bulk versions must emit the same events and leave the
# generator in the same state, so every later draw of a run is unchanged.

def _count(intensity, rate):
    return int(intensity * rate + 0.5)


def scalar_one_event(pool, tick, node, n_nodes, rng):
    src = int(rng.integers(n_nodes))
    length = max(1, int(rng.normal(pool.profile.payload_len_mean, pool.profile.payload_len_std)))
    return EventRecord(
        tick, src, node, BENIGN_PORTS[rng.integers(len(BENIGN_PORTS))],
        pool.payloads[rng.integers(len(pool.payloads))], length,
        BENIGN_FLAG_CHOICES[rng.choice(len(BENIGN_FLAG_CHOICES), p=BENIGN_FLAG_WEIGHTS)], src,
    )


def scalar_dos(spec, pools, profile, n_nodes, rng):
    out = []
    full = _count(spec.intensity, profile.rate)
    collateral = _count(DOS_COLLATERAL * spec.intensity, profile.rate)
    for tick in range(spec.start, spec.start + spec.length):
        for node in range(n_nodes):
            for _ in range(full if node == spec.target else collateral):
                src = int(rng.integers(n_nodes))
                digest = pools.dos_payloads[rng.integers(len(pools.dos_payloads))]
                out.append((tick, node, EventRecord(tick, src, node, DOS_PORT, digest,
                                                    DOS_PAYLOAD_LEN, Flags.SYN, src)))
    return out


def scalar_spoof(spec, pools, profile, n_nodes, rng):
    out = []
    count = max(1, _count(spec.intensity, profile.rate))
    for tick in range(spec.start, spec.start + spec.length):
        for node in range(n_nodes):
            for _ in range(count):
                src = int(rng.integers(n_nodes))
                claimed = src + 1 + int(rng.integers(16))
                digest = pools.spoof_payloads[rng.integers(len(pools.spoof_payloads))]
                out.append((tick, node, EventRecord(tick, src, node, 0, digest, SPOOF_PAYLOAD_LEN,
                                                    Flags.ARP_REPLY, claimed)))
    return out


def scalar_recon(spec, pools, profile, n_nodes, rng):
    out = []
    per_tick = max(1, _count(spec.intensity, profile.rate))
    src = int(rng.integers(n_nodes))
    for k, tick in enumerate(range(spec.start, spec.start + spec.length)):
        for node in range(n_nodes):
            for i in range(per_tick):
                port = RECON_PORT_BASE + k * per_tick + i
                out.append((tick, node, EventRecord(tick, src, node, port, pools.recon_probe, 0,
                                                    Flags.SYN, src)))
    return out


def scalar_replay(spec, profile, captured, rng):
    distinct = {}
    for i in rng.permutation(len(captured)):
        distinct.setdefault(captured[int(i)].payload_digest, captured[int(i)])
        if len(distinct) >= REPLAY_POOL:
            break
    templates = list(distinct.values())
    out = []
    for tick in range(spec.start, spec.start + spec.length):
        for _ in range(max(1, _count(spec.intensity, profile.rate))):
            t = templates[rng.integers(len(templates))]
            out.append((tick, spec.target, EventRecord(tick, t.src, spec.target, t.dst_port,
                                                       t.payload_digest, t.payload_len, t.flags,
                                                       t.src)))
    return out


def twin_rngs(seed, half_used):
    """Two generators in one state; `half_used` leaves half a 64-bit draw buffered."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_used:
        for rng in pair:
            rng.integers(5)
    return pair


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [1, 6])
@pytest.mark.parametrize("half_used", [False, True])
def test_one_event_matches_choice_draw(seed, n_nodes, half_used):
    _, pool, _ = profile_and_pools(seed)
    bulk, ref = twin_rngs(seed, half_used)
    for i in range(300):
        assert pool.one_event(i, 0, n_nodes, bulk) == scalar_one_event(pool, i, 0, n_nodes, ref)
    assert bulk.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [1, 6])
@pytest.mark.parametrize("half_used", [False, True])
@pytest.mark.parametrize("attack,length,target,intensity", [
    ("dos", 0, 0, 20.0),
    ("dos", 9, 0, 20.0),
    ("dos", 9, 3, 7.0),
    ("spoof", 0, 0, 1.0),
    ("spoof", 9, 2, 2.5),
    ("recon", 0, 0, 2.7),
    ("recon", 9, 1, 2.7),
])
def test_bulk_attack_draws_match_scalar_loop(seed, n_nodes, half_used, attack, length, target,
                                             intensity):
    profile, _, pools = profile_and_pools(seed)
    spec = AttackSpec(attack, start=5, length=length, target=target, intensity=intensity)
    gen, scalar = {"dos": (gen_dos, scalar_dos), "spoof": (gen_spoof, scalar_spoof),
                   "recon": (gen_recon, scalar_recon)}[attack]
    bulk, ref = twin_rngs(seed, half_used)
    emissions = gen(spec, pools, profile, n_nodes, bulk)
    assert emissions == scalar(spec, pools, profile, n_nodes, ref)
    assert bulk.bit_generator.state == ref.bit_generator.state
    assert bool(emissions) == (length > 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("half_used", [False, True])
@pytest.mark.parametrize("length,n_payloads,target", [(0, 256, 0), (9, 256, 0), (9, 1, 0),
                                                     (9, 256, 4)],
                         ids=["0-256", "9-256", "9-1", "9-256-target4"])
def test_bulk_replay_draws_match_scalar_loop(seed, half_used, length, n_payloads, target):
    # one distinct payload leaves a single template: integers(1) draws nothing
    profile, pool, _ = profile_and_pools(seed)
    pool.payloads = pool.payloads[:n_payloads]
    captured = [e for _, node, e in gen_benign(pool, target + 1, 30, np.random.default_rng(seed))
                if node == target]
    spec = AttackSpec("replay", start=40, length=length, target=target, intensity=2.5)
    bulk, ref = twin_rngs(seed, half_used)
    emissions = gen_replay(spec, profile, captured, bulk)
    assert emissions == scalar_replay(spec, profile, captured, ref)
    assert bulk.bit_generator.state == ref.bit_generator.state


# --- columnar bootstrap windows equal the EventRecord windows -----------------
# `reference_synth_window` is `Simulation._synth_window` as first written: it
# builds every EventRecord with the scalar generators above, sorts them and
# reduces them with `reference_features`, the list formula of
# `extract_features` as first written. The columnar window must give the same
# feature bytes and leave the generator in the same state.

def reference_features(window, window_ticks):
    out = np.zeros(8)
    if not window:
        return out
    n = len(window)
    out[0] = n / window_ticks
    out[1] = sum(e.payload_len for e in window) / n
    out[2] = len({e.dst_port for e in window})
    out[3] = sum(1 for e in window if Flags.SYN in e.flags) / n
    out[4] = 1.0 - len({e.payload_digest for e in window}) / n
    out[5] = sum(1 for e in window if e.claimed_src_identity != e.src)
    out[6] = len({e.dst for e in window})
    if n >= 2:
        out[7] = float(np.var(np.diff([e.sim_time for e in window])))
    return out


def reference_synth_window(cfg, pool, pools, spec, rng):
    wt = cfg.window_ticks
    events = []
    for tick in range(1, wt + 1):
        for _ in range(int(rng.poisson(pool.profile.rate))):
            events.append(scalar_one_event(pool, tick, 0, cfg.n_nodes, rng))
    if spec is not None:
        synth = AttackSpec(spec.attack_class, start=1, length=wt, target=0,
                           intensity=spec.intensity)
        if spec.attack_class == "dos":
            emissions = scalar_dos(synth, pools, pool.profile, 1, rng)
        elif spec.attack_class == "spoof":
            emissions = scalar_spoof(synth, pools, pool.profile, cfg.n_nodes, rng)
        elif spec.attack_class == "recon":
            emissions = scalar_recon(synth, pools, pool.profile, 1, rng)
        else:
            captured = [scalar_one_event(pool, 0, 0, cfg.n_nodes, rng) for _ in range(50)]
            emissions = scalar_replay(synth, pool.profile, captured, rng)
        events.extend(e for _t, n, e in emissions if n == 0)
    events.sort(key=lambda e: e.sim_time)
    return reference_features(events, wt)


def bootstrap_sim(n_nodes, window_ticks, rate):
    return Simulation(ScenarioConfig(
        n_nodes=n_nodes, authorities=[0], duration=400, window_ticks=window_ticks,
        benign=BenignProfile(rate=rate),
        attacks=[AttackSpec("dos", 10, 20, 0, 20.0), AttackSpec("spoof", 40, 20, 0, 1.0),
                 AttackSpec("recon", 70, 20, 0, 2.7), AttackSpec("replay", 100, 20, 0, 2.5)],
    ))


def test_bootstrap_variants_cover_every_class_and_dos_collateral():
    variants = bootstrap_sim(6, 20, 3.0)._bootstrap_variants()
    assert [(v.attack_class, v.intensity) for v in variants] == [
        ("dos", 20.0), ("dos", 6.0), ("spoof", 1.0), ("recon", 2.7), ("replay", 2.5)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [1, 6])
@pytest.mark.parametrize("window_ticks", [1, 20])
@pytest.mark.parametrize("rate", [3.0, 0.0])
@pytest.mark.parametrize("shared_digests", [False, True])
def test_synth_window_matches_event_record_window(seed, n_nodes, window_ticks, rate,
                                                   shared_digests):
    sim = bootstrap_sim(n_nodes, window_ticks, rate)
    _, pool, pools = profile_and_pools(seed)
    pool.profile = sim.config.benign
    if shared_digests:
        # repeated digests and digests shared between pools: distinct-payload
        # counts must go by digest bytes, not by pool index
        pool.payloads = pool.payloads[:8] * 4
        pools.dos_payloads = pool.payloads[:2] * 8
        pools.spoof_payloads = pool.payloads[4:12] * 2
        pools.recon_probe = pool.payloads[5]
    columns, ref = twin_rngs(seed, False)
    for spec in [None, *sim._bootstrap_variants()]:
        for _ in range(3):
            got = sim._synth_window(pool, pools, spec, columns)
            want = reference_synth_window(sim.config, pool, pools, spec, ref)
            assert got.tobytes() == want.tobytes()
            assert columns.bit_generator.state == ref.bit_generator.state
            if rate == 0.0 and spec is None:
                assert not got.any()


@st.composite
def event_windows(draw):
    """Time-ordered windows of 0-6 events over few values, so repeats are common."""
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(st.integers(1, 20), min_size=n, max_size=n)))
    digests = [bytes([i]) * 32 for i in range(3)]
    small = st.integers(0, 3)
    return [
        EventRecord(t, draw(small), draw(small), draw(st.sampled_from([0, 80, 65535])),
                    draw(st.sampled_from(digests)), draw(st.integers(0, 1500)),
                    draw(st.sampled_from(list(Flags))) | draw(st.sampled_from(list(Flags))),
                    draw(small))
        for t in times
    ]


@settings(max_examples=200, deadline=None)
@given(event_windows(), st.integers(1, 40))
def test_extract_features_columns_equal_list_formula(window, window_ticks):
    want = reference_features(window, window_ticks).tobytes()
    assert extract_features(WindowColumns.from_events(window), window_ticks).tobytes() == want
    assert extract_features(window, window_ticks).tobytes() == want


# --- ground truth -----------------------------------------------------------

def reference_window_kind(counts: dict[str, int]) -> int:
    """One window's kind by the per-window rule: 0 benign, -1 mixed, else the
    index in _KINDS of the most frequent class, the alphabetically first on a tie."""
    attack = {name: n for name, n in counts.items() if name != "benign" and n}
    if not attack:
        return 0
    if sum(attack.values()) / sum(counts.values()) < ATTACK_WINDOW_FRACTION:
        return -1
    return _KINDS.index(max(sorted(attack), key=lambda name: attack[name]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=len(_KINDS), max_size=len(_KINDS)),
                min_size=1, max_size=30))
# an empty window, attack shares of exactly and just under 1/4, and a tie
@example([[0, 0, 0, 0, 0], [3, 1, 0, 0, 0], [4, 0, 0, 1, 0], [1, 0, 2, 0, 2]])
def test_ground_truth_matches_per_window_rule(rows):
    table = np.array(rows).reshape(1, len(rows), len(_KINDS))
    expected = [reference_window_kind(dict(zip(_KINDS, row))) for row in rows]
    assert _ground_truth(table) == [expected]


# --- runs -----------------------------------------------------------------

def test_run_rejects_invalid_config():
    cfg = mini_scenario()
    cfg.duration = 0
    with pytest.raises(ConfigInvalid):
        run(cfg)


def test_run_deterministic():
    a = run(mini_scenario())
    b = run(mini_scenario())
    assert a.to_json() == b.to_json()
    c = run(mini_scenario(seed=12))
    assert a.to_json() != c.to_json()


# Fingerprints of mini_scenario() at seeds 1-3: (report SHA-256, chain head).
# Like the seed-42 standard pins, they move only with the random stream, the
# report layout or the ledger encoding, and such a change must say why.
MINI_FINGERPRINTS = {
    1: ("615c753a92cd3cd8a7353b3dcf63304caffb6af5665f9d7bd836eb14d79a03f3",
        "932f36f930f6ce72077cbb3b48d01ae00e88f4bdead9b0649b0ce4cff4698f4e"),
    2: ("4d91fce9480fb751e1e851cdc0fe83215a8192a86d8850086f00243124492ce4",
        "cfdc20925d6e4cb8103558bd00950b2959ea2284691d5df9059dde4020859a62"),
    3: ("27697d53351d6294b147ecd6c357e799c19da4f88e41d0b0f74f2f8ecc3e6672",
        "c0dcdfe63c58c37fd4a662ab259b8ece7008f3aa86e724afefbbd0515bc9bcc4"),
}


@pytest.mark.parametrize("seed", sorted(MINI_FINGERPRINTS))
def test_mini_fingerprints_pinned(seed):
    sim = Simulation(mini_scenario(seed=seed))
    report = sim.run()
    report_sha = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert (report_sha, sim.ledger.blocks[-1].hash.hex()) == MINI_FINGERPRINTS[seed]


def overlap_scenario():
    # a second flood inside the first, so each flood's forensics also sees the
    # other's events, with a recon and a spoof overlapping them, under a cap
    # that stops forensics part-way through a tick
    cfg = mini_scenario(adversary=None)
    cfg.attacks += [AttackSpec("dos", start=125, length=30, target=1, intensity=5.0),
                    AttackSpec("recon", start=100, length=40, target=2, intensity=2.0),
                    AttackSpec("spoof", start=105, length=20, target=0, intensity=1.0)]
    cfg.signature_cap_per_attack = 20
    return cfg


def tie_scenario():
    # spoof and recon emit the same number of events on every node and tick,
    # so every attack window's majority class is a tie
    cfg = mini_scenario(adversary=None)
    cfg.attacks = [AttackSpec("spoof", start=120, length=40, target=0, intensity=1.0),
                   AttackSpec("recon", start=120, length=40, target=0, intensity=1.0)]
    return cfg


# (report SHA-256, chain head) of the two edge scenarios above
EDGE_FINGERPRINTS = {
    "overlap": (overlap_scenario,
                "f7d181a73a4a454e6636dbfdc67e85cf79ba3fa8f5be1b92b623e26a51d1a02a",
                "b60fd96c9a24c3bf87c188c9c90d69214681430c18d6ad800337be3dacf991c2"),
    "tie": (tie_scenario,
            "b2954f14695601615e07d6f5d5ef4e3f29e889512bb0ec340965067a8283c9a2",
            "00450a61e11653abf587b7a346abd1fdf91d94b98b345fc6a13fd8055e0fdaa8"),
}


@pytest.mark.parametrize("name", sorted(EDGE_FINGERPRINTS))
def test_edge_fingerprints_pinned(name):
    scenario, report_sha, chain_head = EDGE_FINGERPRINTS[name]
    sim = Simulation(scenario())
    report = sim.run()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == report_sha
    assert sim.ledger.blocks[-1].hash.hex() == chain_head


def test_majority_tie_goes_to_the_alphabetically_first_class():
    report = run(tie_scenario())
    assert report.per_class["recon"].injected_windows == 4 * 2
    assert report.per_class["spoof"].injected_windows == 0


def test_ledger_growth(mini_run):
    _sim, report = mini_run
    cfg = mini_scenario()
    assert report.ledger_blocks == cfg.duration // cfg.block_interval + 1


def test_detection_conservation(mini_run):
    _sim, report = mini_run
    for metrics in report.per_class.values():
        assert 0 <= metrics.detected_windows <= metrics.injected_windows
        assert 0.0 <= metrics.detection_rate <= 1.0


def test_mini_dos_detected(mini_run):
    _sim, report = mini_run
    assert report.per_class["dos"].detection_rate >= 0.8
    assert report.false_alarm_rate <= 0.05


@pytest.fixture(scope="module")
def straddle_run():
    # 7-tick windows close between the 10-tick blocks, so an anomaly alarm
    # waits for the next block, and some blocks seal alarms from two closes
    cfg = mini_scenario()
    cfg.window_ticks = 7
    sim = Simulation(cfg)
    return sim, sim.run()


def test_dissemination_within_block_interval(mini_run, straddle_run):
    for _sim, report in (mini_run, straddle_run):
        if report.dissemination_max is not None:
            assert report.dissemination_max <= 10
    sim, report = straddle_run
    delays = [block.sim_time - tx.payload.sim_time
              for block in sim.ledger.blocks[1:] for tx in block.txs
              if tx.kind == TxKind.ALARM]
    assert max(delays) > 0  # some alarm was sealed after the tick it was raised
    assert report.dissemination_max == max(delays)
    assert report.dissemination_mean == float(np.mean(delays))


def test_dissemination_counts_every_alarm_from_its_raise_tick():
    # an alarm is raised in the tick its event arrives or its window closes,
    # which is the sim_time it carries; it disseminates when its block seals.
    # A repeated flood raises signature alarms on many ticks of one block.
    cfg = mini_scenario(adversary=None)
    cfg.attacks.append(AttackSpec("dos", start=250, length=60, target=3, intensity=12.0))
    sim = Simulation(cfg)
    report = sim.run()
    delays = [block.sim_time - tx.payload.sim_time
              for block in sim.ledger.blocks[1:] for tx in block.txs
              if tx.kind == TxKind.ALARM]
    assert delays
    assert report.dissemination_mean == float(np.mean(delays))
    assert report.dissemination_max == max(delays)


def test_adversary_contained(mini_run):
    sim, report = mini_run
    assert report.rejected_model_contributions >= 1
    # nothing from the adversary ever reached the chain as a model contribution
    sealed_model_senders = {
        tx.sender for _, tx in sim.ledger.scan(TxKind.MODEL_CONTRIBUTION)
    }
    assert sim.config.adversary.node not in sealed_model_senders
    # and every adopted digest is a sealed (validated) contribution
    sealed_digests = {
        tx.payload.model_digest.hex()
        for _, tx in sim.ledger.scan(TxKind.MODEL_CONTRIBUTION)
    }
    assert set(report.adopted_model_digests) <= sealed_digests


def test_poison_filter_rejected():
    report = run(mini_scenario(adversary="poison_filter"))
    assert report.rejected_filter_contributions >= 1


def test_chain_verifies_after_run(mini_run):
    sim, _report = mini_run
    assert verify_chain(sim.ledger)
    assert sim.store.self_check()


def test_alarm_counters_match_the_chain(mini_run):
    # the last block seals at the last tick, after that tick's alarms
    sim, _report = mini_run
    sealed = sim.ledger.scan(TxKind.ALARM)
    for node in sim.nodes:
        assert node.raised_alarms == sum(tx.sender == node.id for _h, tx in sealed)
        assert node.known_alarms == len(sealed)


def test_trust_fold_matches_live(mini_run):
    from cids.trust import fold_trust

    sim, _report = mini_run
    replayed = fold_trust(sim.ledger)
    for node_id, record in replayed.items():
        assert record == sim.trust[node_id]


def test_baseline_bytes():
    assert baseline_bytes(0) == 0
    assert baseline_bytes(1000) == 64000
    from cids.bloom import serialized_size

    assert baseline_bytes(1000) / serialized_size(10000) == pytest.approx(50.2, abs=0.1)


def test_trace_records():
    sim = Simulation(mini_scenario())
    sim.run(trace=True)
    assert len(sim.trace) == 400
    sealed = [r["sealed_height"] for r in sim.trace if r["sealed_height"] is not None]
    assert sealed == list(range(1, 41))
