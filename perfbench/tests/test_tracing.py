import argparse

import pytest

import cids.detection
import cids.node
import cids.simnet.engine
import run
import tracing
from tracing import Spans, Target, Tracer


def test_self_time_subtracts_the_union_of_clipped_children():
    # op [0, 10]: a [1, 4] with grandchild c [2, 3]; b [3, 6] overlaps a;
    # d [9, 12] runs past op's end and only [9, 10] counts.
    spans = Spans(
        names=["op", "a", "c", "b", "d"],
        parents=[-1, 0, 1, 0, 0],
        starts=[0.0, 1.0, 2.0, 3.0, 9.0],
        ends=[10.0, 4.0, 3.0, 6.0, 12.0],
        counts=[0, 0, 0, 0, 0],
    )
    own = tracing.self_times(spans)
    assert own.tolist() == pytest.approx([10 - (5 + 1), 3 - 1, 1, 3, 3])


def test_totals_and_ancestry():
    spans = Spans(
        names=["op", "node.observe", "bloom.query", "bloom.query", "bloom.query"],
        parents=[-1, 0, 1, 1, 0],
        starts=[0.0, 1.0, 1.5, 2.5, 5.0],
        ends=[6.0, 4.0, 2.0, 3.0, 5.5],
        counts=[0, 10, 1, 0, 1],
    )
    t = tracing.totals(spans)
    assert t["bloom.query"].calls == 3
    assert t["bloom.query"].count == 2
    assert t["node.observe"].busy_s == pytest.approx(3.0 - 1.0)
    assert t["op"].busy_s == pytest.approx(6.0 - 3.0 - 0.5)
    assert tracing.count_under(spans, "bloom.query", "node.observe", direct=True) == 2
    m = tracing.layer_metrics(spans)
    assert m["node.allowlist_skip_ratio"] == pytest.approx(1 - 2 / 10)
    assert m["bloom.query.hits"] == 2


def test_install_wraps_every_alias_and_restore_puts_originals_back():
    original = cids.detection.extract_features
    with Tracer() as tracer:
        wrapped = cids.detection.extract_features
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert cids.node.extract_features is wrapped
        assert cids.simnet.engine.extract_features is wrapped
        cids.node.extract_features([], 20)
        assert tracer.take().names == ["detection.extract_features"]
    assert cids.detection.extract_features is original
    assert cids.node.extract_features is original
    assert cids.simnet.engine.extract_features is original
    assert not tracer.missing


def test_a_missing_name_is_reported_missing_not_zero():
    targets = tuple(t for t in tracing.TARGETS if t.span != "bloom.query") + (
        Target("bloom.query", "cids.bloom", "BloomFilter.no_such"),
        Target("gone.fn", "cids.no_such_module", "fn"),
    )
    with Tracer(targets) as tracer:
        root = tracer.open("op")
        tracer.close(root)
        spans = tracer.take()
    assert set(tracer.missing) == {"bloom.query", "gone.fn"}
    missing = tracing.missing_metrics(run.PER_LAYER, tracer.missing)
    assert set(missing) == {"bloom.query.calls", "bloom.query.hits", "bloom.query.busy_s",
                            "node.allowlist_skip_ratio"}
    assert "BloomFilter.no_such not found" in missing["bloom.query.calls"]

    op = {"traced": True, "failures": [], "layers": tracing.layer_metrics(spans),
          "timings": {"run_s": 1.0}, "fingerprints": {}, "gates": []}
    result = {"ops": [dict(op, traced=False), op], "missing": tracer.missing,
              "missing_metrics": missing}
    args = argparse.Namespace(workload="audit", seed=1, trace=1)
    summary = run.summarize(args, [], result)
    assert summary["correct"]
    assert not set(missing) & set(summary["metrics"])
    assert summary["metrics"]["bloom.insert.calls"]["value"] == 0
