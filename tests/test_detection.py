import random

import numpy as np
import pytest

from cids.bloom import BloomFilter, analytic_fpr
from cids.content_store import ContentStore
from cids.detection import (
    EventRecord,
    Flags,
    LabeledDataset,
    LinearModel,
    dataset_serialize,
    evaluate,
    extract_features,
    hinge_subgradient,
    model_deserialize,
    model_serialize,
    primal_objective,
    signature_key,
    svm_predict,
    svm_train,
)
from cids.encoding import sha256
from cids.errors import BadHyperparameter, DegenerateDataset, MalformedBytes


def make_event(sim_time=0, src=1, dst=2, dst_port=80, digest=b"\x07" * 32,
               payload_len=100, flags=Flags.NONE, claimed=None):
    return EventRecord(sim_time, src, dst, dst_port, digest, payload_len, flags,
                       src if claimed is None else claimed)


# --- signature keys ---------------------------------------------------------

def test_signature_key_excludes_time():
    a = make_event(sim_time=1)
    b = make_event(sim_time=99)
    assert signature_key(a) == signature_key(b)


def test_signature_key_sensitive_to_digest():
    a = make_event(digest=b"\x07" * 32)
    b = make_event(digest=b"\x08" * 32)
    assert signature_key(a) != signature_key(b)


def test_signature_key_length():
    assert len(signature_key(make_event())) == 41  # 8 + 32 + 1


def test_sig_match_empty_filter():
    assert not BloomFilter(1024, 3).query(signature_key(make_event()))


def test_sig_match_inserted_event():
    f = BloomFilter(1024, 3)
    event = make_event(dst_port=9999)
    f.insert(signature_key(event))
    assert f.query(signature_key(event))


def test_sig_match_rate_near_analytic_fpr():
    rng = random.Random(99)
    f = BloomFilter(10000, 7)
    for _ in range(1000):
        f.insert(rng.randbytes(41))
    fresh = [
        make_event(dst_port=rng.randrange(65536), digest=rng.randbytes(32))
        for _ in range(20000)
    ]
    rate = sum(f.query(signature_key(e)) for e in fresh) / len(fresh)
    assert rate == pytest.approx(analytic_fpr(10000, 7, 1000), rel=0.35)


# --- features ---------------------------------------------------------------

def test_empty_window_is_zero_vector():
    assert np.array_equal(extract_features([], 20), np.zeros(8))


def test_all_syn_window():
    window = [make_event(sim_time=t, flags=Flags.SYN) for t in range(10)]
    feats = extract_features(window, 20)
    assert feats[3] == 1.0
    assert feats[0] == pytest.approx(0.5)


def test_syn_ratio_over_every_flag_combination():
    combos = [Flags(v) for v in range(8)] * 3
    window = [make_event(sim_time=t, flags=f) for t, f in enumerate(combos)]
    expected = sum(1 for f in combos if Flags.SYN in f) / len(combos)
    assert extract_features(window, 20)[3] == expected == 0.5


def test_duplicate_payload_ratio():
    digests = [b"\x01" * 32, b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, b"\x04" * 32]
    window = [make_event(sim_time=t, digest=d) for t, d in enumerate(digests)]
    assert extract_features(window, 20)[4] == pytest.approx(0.2)  # 1 - 4/5


def test_identity_conflict_count():
    window = [make_event(sim_time=0), make_event(sim_time=1, claimed=42),
              make_event(sim_time=2, claimed=43)]
    assert extract_features(window, 20)[5] == 2


def test_port_and_destination_spread():
    window = [make_event(sim_time=t, dst_port=1000 + t, dst=5) for t in range(6)]
    feats = extract_features(window, 20)
    assert feats[2] == 6
    assert feats[6] == 1


def test_inter_arrival_variance():
    window = [make_event(sim_time=t) for t in (0, 1, 2, 3)]
    assert extract_features(window, 20)[7] == 0.0  # constant gaps
    window = [make_event(sim_time=t) for t in (0, 1, 5)]
    assert extract_features(window, 20)[7] == pytest.approx(np.var([1, 4]))


# --- SVM --------------------------------------------------------------------

def separable_pair():
    X = np.zeros((2, 8))
    X[0, 0] = -1.0
    X[1, 0] = +1.0
    return LabeledDataset(X, np.array([-1, 1]))


def two_clusters(n_per_class=200, seed=1234, separation=4.0):
    # `separation` is the distance between cluster centers in units of the
    # per-coordinate noise, spread evenly over the 8 dimensions
    rng = np.random.default_rng(seed)
    shift = separation / np.sqrt(8)
    benign = rng.normal(0.0, 1.0, size=(n_per_class, 8))
    attack = rng.normal(shift, 1.0, size=(n_per_class, 8))
    X = np.vstack([benign, attack])
    y = np.array([-1] * n_per_class + [1] * n_per_class)
    return LabeledDataset(X, y)


def test_separable_pair_trains_with_margin():
    model = svm_train(separable_pair(), lam=0.01, epochs=100, seed=0)
    label_neg, margin_neg = svm_predict(model, separable_pair().X[0])
    label_pos, margin_pos = svm_predict(model, separable_pair().X[1])
    assert (label_neg, label_pos) == (-1, 1)
    assert margin_pos > 0 and margin_neg < 0


def test_training_deterministic():
    data = two_clusters()
    m1 = svm_train(data, lam=0.01, epochs=5, seed=42)
    m2 = svm_train(data, lam=0.01, epochs=5, seed=42)
    assert model_serialize(m1) == model_serialize(m2)
    m3 = svm_train(data, lam=0.01, epochs=5, seed=43)
    assert model_serialize(m1) != model_serialize(m3)


def test_two_cluster_accuracy():
    data = two_clusters()
    model = svm_train(data, lam=0.03, epochs=30, seed=7)
    # independent evaluation pass: per-row prediction, no shared code path
    correct = 0
    for row, label in zip(data.X, data.y):
        z = (row - model.feature_means) / model.feature_scales
        pred = 1 if float(model.weights @ z) + model.bias >= 0 else -1
        correct += pred == label
    assert correct / len(data) >= 0.97


def test_degenerate_and_bad_hyperparameters():
    single = LabeledDataset(np.ones((3, 8)), np.array([1, 1, 1]))
    with pytest.raises(DegenerateDataset):
        svm_train(single, lam=0.1, epochs=1, seed=0)
    with pytest.raises(BadHyperparameter):
        svm_train(separable_pair(), lam=0.0, epochs=1, seed=0)
    with pytest.raises(BadHyperparameter):
        svm_train(separable_pair(), lam=0.1, epochs=0, seed=0)


def test_objective_descent_on_toy_set():
    data = separable_pair()
    objectives = []
    for epochs in range(1, 30):
        model = svm_train(data, lam=0.01, epochs=epochs, seed=5)
        z = (data.X - model.feature_means) / model.feature_scales
        objectives.append(primal_objective(model.weights, model.bias,
                                           LabeledDataset(z, data.y), 0.01))
    for prev, cur in zip(objectives[1:], objectives[2:]):
        assert cur <= prev + 1e-6


def test_hinge_subgradient_inactive():
    w = np.array([2.0] + [0.0] * 7)
    x = np.array([1.0] + [0.0] * 7)
    grad_w, grad_b = hinge_subgradient(w, 0.0, x, 1, lam=0.5)  # margin 2 > 1
    assert np.allclose(grad_w, 0.5 * w)
    assert grad_b == 0.0


def test_hinge_subgradient_at_origin():
    x = np.arange(8, dtype=float)
    grad_w, grad_b = hinge_subgradient(np.zeros(8), 0.0, x, -1, lam=0.3)
    assert np.allclose(grad_w, x)
    assert grad_b == 1.0


def test_hinge_subgradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    lam = 0.05
    h = 1e-6
    checked = 0
    while checked < 100:
        w = rng.normal(size=8)
        b = float(rng.normal())
        x = rng.normal(size=8)
        y = int(rng.choice([-1, 1]))
        if abs(1.0 - y * (float(w @ x) + b)) < 1e-3:
            continue  # skip the hinge kink

        def J(wv, bv):
            return 0.5 * lam * float(wv @ wv) + max(0.0, 1.0 - y * (float(wv @ x) + bv))

        grad_w, grad_b = hinge_subgradient(w, b, x, y, lam)
        num_w = np.zeros(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            num_w[j] = (J(w + e, b) - J(w - e, b)) / (2 * h)
        num_b = (J(w, b + h) - J(w, b - h)) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(grad_w)), abs(grad_b))
        assert np.linalg.norm(grad_w - num_w) / scale < 1e-4
        assert abs(grad_b - num_b) / scale < 1e-4
        checked += 1


def test_predict_direct_dot_product():
    model = LinearModel(
        np.array([1.0] + [0.0] * 7), 0.0, np.zeros(8), np.ones(8), b"\x00" * 32
    )
    x = np.array([2.0] + [0.0] * 7)
    assert svm_predict(model, x) == (1, pytest.approx(2.0))


def test_boundary_classifies_as_attack():
    model = LinearModel(np.zeros(8), 0.0, np.zeros(8), np.ones(8), b"\x00" * 32)
    label, margin = svm_predict(model, np.ones(8))
    assert margin == 0.0
    assert label == 1


def test_negating_model_flips_all_labels():
    rng = np.random.default_rng(3)
    model = svm_train(two_clusters(), lam=0.01, epochs=5, seed=1)
    flipped = model.negated()
    for _ in range(100):
        x = rng.normal(0, 3, size=8)
        label, margin = svm_predict(model, x)
        flabel, fmargin = svm_predict(flipped, x)
        assert fmargin == pytest.approx(-margin)
        if margin != 0.0:
            assert flabel == -label


def test_standardization_invariance():
    data = two_clusters()
    base = svm_train(data, lam=0.01, epochs=5, seed=9)
    shifted_X = data.X.copy()
    shifted_X[:, 3] += 17.0
    shifted = svm_train(LabeledDataset(shifted_X, data.y), lam=0.01, epochs=5, seed=9)
    assert shifted.feature_means[3] == pytest.approx(base.feature_means[3] + 17.0)
    for row_base, row_shift, label in zip(data.X, shifted_X, data.y):
        assert svm_predict(base, row_base)[0] == svm_predict(shifted, row_shift)[0]


# --- evaluation -------------------------------------------------------------

def test_evaluate_perfect():
    data = two_clusters()
    model = svm_train(data, lam=0.03, epochs=30, seed=11)
    metrics = evaluate(model, data)
    assert metrics.accuracy >= 0.97
    if metrics.fp == 0 and metrics.fn == 0:
        assert metrics.f1 == 1.0


def test_evaluate_guards_zero_division():
    # model that always answers benign, against an all-attack set
    model = LinearModel(np.zeros(8), -1.0, np.zeros(8), np.ones(8), b"\x00" * 32)
    data = LabeledDataset(np.ones((4, 8)), np.array([1, 1, 1, 1]))
    metrics = evaluate(model, data)
    assert metrics.recall == 0.0
    assert metrics.precision == 0.0
    assert metrics.f1 == 0.0


def test_evaluate_confusion_arithmetic():
    # 2 TP, 1 FP, 1 FN, 6 TN via a hand-built diagonal model
    model = LinearModel(
        np.array([1.0] + [0.0] * 7), 0.0, np.zeros(8), np.ones(8), b"\x00" * 32
    )
    X = np.zeros((10, 8))
    #           TP   TP   FP   FN    TN...
    X[:, 0] = [1.0, 2.0, 3.0, -1.0, -1, -1, -1, -1, -1, -1]
    y = np.array([1, 1, -1, 1, -1, -1, -1, -1, -1, -1])
    metrics = evaluate(model, LabeledDataset(X, y))
    assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (2, 1, 1, 6)
    assert metrics.precision == pytest.approx(0.6667, abs=1e-4)
    assert metrics.recall == pytest.approx(0.6667, abs=1e-4)
    assert metrics.accuracy == pytest.approx(0.8)


# --- serialization ----------------------------------------------------------

def test_model_round_trip_bitwise():
    model = svm_train(two_clusters(), lam=0.02, epochs=3, seed=13)
    blob = model_serialize(model)
    assert len(blob) == 232
    assert model_serialize(model_deserialize(blob)) == blob


def test_model_wrong_length():
    with pytest.raises(MalformedBytes):
        model_deserialize(b"\x00" * 231)
    with pytest.raises(MalformedBytes):
        model_deserialize(b"\x00" * 233)


def test_model_digest_matches_content_store_key():
    model = svm_train(two_clusters(), lam=0.02, epochs=3, seed=14)
    blob = model_serialize(model)
    store = ContentStore()
    assert store.put(blob) == sha256(blob)


def test_training_digest_binds_dataset():
    data = two_clusters()
    model = svm_train(data, lam=0.01, epochs=2, seed=15)
    assert model.training_digest == sha256(dataset_serialize(data))
