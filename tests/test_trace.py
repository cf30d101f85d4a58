"""Tests for the tracing subsystem."""

import json

import pytest

from repro.sim.config import small_config
from repro.sim.trace import CATEGORIES, Tracer, read_jsonl
from repro.system import System
from repro.workloads.base import Gap, TxInstance, TxOp, Workload
from repro.workloads.generator import read_ops, write_ops
from repro.workloads.synthetic import make_synthetic_workload


def test_category_filtering():
    t = Tracer(categories=["tx"])
    t.emit("tx", 5, event="begin")
    t.emit("msg", 6, type="GETS")
    assert len(t.events) == 1
    assert t.counts["tx"] == 1 and t.counts["msg"] == 0


def test_unknown_category_rejected():
    with pytest.raises(ValueError):
        Tracer(categories=["bogus"])


def test_limit_drops_but_counts():
    t = Tracer(limit=2)
    for i in range(5):
        t.emit("tx", i, event="x")
    assert len(t.events) == 2
    assert t.dropped == 3
    assert t.counts["tx"] == 5


def test_filter_by_fields_and_window():
    t = Tracer()
    t.emit("msg", 10, addr=0, src=1)
    t.emit("msg", 20, addr=0, src=2)
    t.emit("msg", 30, addr=4, src=1)
    assert len(t.filter(category="msg", addr=0)) == 2
    assert len(t.filter(start=15, end=25)) == 1
    assert len(t.filter(src=1)) == 2


def test_text_rendering():
    t = Tracer()
    t.emit("tx", 7, event="commit", node=3)
    text = t.text()
    assert "commit" in text and "node=3" in text


def test_jsonl_roundtrip(tmp_path):
    t = Tracer()
    t.emit("tx", 1, event="begin", node=0)
    t.emit("msg", 2, type="GETX", addr=5)
    path = tmp_path / "trace.jsonl"
    assert t.write_jsonl(path) == 2
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0] == {"t": 1, "cat": "tx", "event": "begin", "node": 0}


def test_jsonl_reserved_envelope_keys_rejected():
    t = Tracer()
    with pytest.raises(ValueError, match="reserved"):
        t.emit("tx", 1, t=5)
    with pytest.raises(ValueError, match="reserved"):
        t.emit("tx", 1, cat="msg")


def test_jsonl_full_roundtrip(tmp_path):
    """write_jsonl -> from_jsonl -> write_jsonl is byte-identical and
    preserves order, times, categories and payloads."""
    t = Tracer()
    t.emit("tx", 1, event="begin", node=0, static=2, ts=1)
    t.emit("msg", 2, type="GETX", addr=5, src=0, dst=3, req=0,
           u=False, mp=True)
    t.emit("dir", 3, event="service", home=3, type="GETX", addr=5,
           req=0, state="M", sharers=1)
    t.emit("puno", 4, event="unicast", addr=5, target=1, requester=0,
           req_ts=9, target_ts=4)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    t.write_jsonl(p1)

    clone = Tracer.from_jsonl(p1)
    assert len(clone.events) == len(t.events)
    for a, b in zip(t.events, clone.events):
        assert (a.time, a.category, a.fields) == (b.time, b.category,
                                                  b.fields)
    assert clone.counts == t.counts
    clone.write_jsonl(p2)
    assert p1.read_bytes() == p2.read_bytes()
    # the rebuilt tracer supports the same queries
    assert len(clone.filter(category="puno", target=1)) == 1


def test_read_jsonl_validates_schema(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text("not json\n")
    with pytest.raises(ValueError, match="not valid JSON"):
        read_jsonl(path)

    path.write_text('[1, 2]\n')
    with pytest.raises(ValueError, match="expected an object"):
        read_jsonl(path)

    path.write_text('{"cat": "tx", "event": "begin"}\n')
    with pytest.raises(ValueError, match="'t'"):
        read_jsonl(path)

    path.write_text('{"t": true, "cat": "tx"}\n')
    with pytest.raises(ValueError, match="'t'"):
        read_jsonl(path)

    path.write_text('{"t": 3, "cat": "warp"}\n')
    with pytest.raises(ValueError, match="'cat'"):
        read_jsonl(path)

    # blank lines are tolerated; line numbers point at the offender
    path.write_text('{"t": 1, "cat": "tx"}\n\n{"t": 2, "cat": "bogus"}\n')
    with pytest.raises(ValueError, match=r":3:"):
        read_jsonl(path)


def test_system_trace_roundtrips_through_disk(tmp_path):
    """A real simulated trace survives the disk round trip intact."""
    tracer = Tracer(categories=CATEGORIES)
    wl = make_synthetic_workload(num_nodes=4, instances=3,
                                 shared_lines=6, tx_reads=3, tx_writes=1,
                                 seed=2)
    system = System(small_config(4), wl, "puno", trace=tracer)
    system.run(max_cycles=5_000_000)
    path = tmp_path / "trace.jsonl"
    n = tracer.write_jsonl(path)
    clone = Tracer.from_jsonl(path)
    assert len(clone.events) == n
    assert [e.as_dict() for e in clone.events] == [
        e.as_dict() for e in tracer.events]


def test_system_integration_traces_lifecycle():
    tracer = Tracer(categories=["tx", "msg", "puno"])
    wl = make_synthetic_workload(num_nodes=4, instances=4,
                                 shared_lines=6, tx_reads=3, tx_writes=1,
                                 seed=1)
    system = System(small_config(4), wl, "puno", trace=tracer)
    system.run(max_cycles=5_000_000)
    begins = tracer.filter(category="tx", event="begin")
    commits = tracer.filter(category="tx", event="commit")
    assert len(commits) == wl.total_instances()
    assert len(begins) >= len(commits)
    assert tracer.counts["msg"] > 0
    # commits carry footprint sizes
    assert all(ev.fields["reads"] >= 0 for ev in commits)


def test_conflict_chains_view():
    tracer = Tracer(categories=["tx"])
    # guaranteed conflict: old writer kills young reader
    programs = [
        [Gap(300), TxInstance(0, read_ops([0], 1, 0)
                              + [TxOp(False, 100, 600, 1)])],
        [TxInstance(0, [TxOp(False, 200, 400, 2), TxOp(True, 0, 1, 3)])],
        [Gap(1)], [Gap(1)],
    ]
    system = System(small_config(4), Workload("t", programs), "baseline",
                    trace=tracer)
    system.run(max_cycles=5_000_000)
    chains = tracer.conflict_chains()
    assert chains
    t, fields = chains[0]
    assert fields["cause"] in ("getx_conflict", "gets_conflict")
    assert "wasted" in fields
