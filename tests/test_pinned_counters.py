"""Exact counters of five deterministic runs, pinned.

Everything that takes seconds is measured by ``benchmarks/e2e``; what is
left to pin are counts that the same seed reproduces on every machine:
retransmissions under a lossy plan, slices shed under tight caps, bytes
re-shipped after a state-losing crash, rows routed to shards, merge
operators run at window close.  Each configuration runs once, at the
scale its numbers were first published at, so a change that moves one of
them fails here with the old and the new value side by side.

The behaviours behind the counts have their own owners (parity under
faults: ``tests/cluster/test_chaos.py``; recovery parity:
``tests/cluster/test_recovery.py``; shard parity:
``tests/parallel/test_shard_parity.py``; Two-Stacks parity:
``tests/core/test_incmerge_parity.py``); only flow control bounding
channel occupancy and checkpointed recovery being *faster* are checked
nowhere else and are asserted beside their counters below.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.harness import tumbling_queries
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import three_tier
from repro.parallel import ShardedEngine

from tests.cluster.test_chaos import (
    NEVER,
    QUERY_SETS,
    _assert_shed_accounting,
    rows,
    run_desis,
)
from tests.conftest import plain_scan
from tests.parallel.test_shard_parity import stream

#: tumbling-1 s SUM + session-400 ms MAX: the faults and recovery mix
MIXED = [
    Query.of("tumbling", WindowSpec.tumbling(1_000), AggFunction.SUM),
    Query.of("session", WindowSpec.session(gap=400), AggFunction.MAX),
]


@pytest.fixture(scope="module")
def node_streams():
    """3 x 10 000 events at rate 200: a low rate stretches the span, and
    with it the per-tick shipments a fault plan or a crash can hit."""
    return {
        f"local-{i}": stream(10_000, keys=3, rate=200.0, seed=10 + i)
        for i in range(3)
    }


def test_lossy_links_cost_retransmits_not_results(node_streams):
    topo = three_tier(3, 1)
    _, clean = run_desis(MIXED, topo, node_streams, node_timeout=NEVER)
    _, lossy = run_desis(
        MIXED, topo, node_streams, node_timeout=NEVER,
        fault_plan=FaultPlan(seed=42, drop_rate=0.05, jitter_ms=2.0),
    )
    assert rows(lossy) == rows(clean)
    assert len(lossy.sink) == 52
    assert lossy.network.retransmits == 38
    assert lossy.network.goodput_data_bytes == 46_726


def overload_streams(per_node, *, seed=11):
    """Two streams with globally unique timestamps and seeded values."""
    rng = random.Random(seed)
    streams = {}
    for i in range(2):
        t = i
        events = []
        for _ in range(per_node):
            t += rng.choice([2, 4, 10])
            events.append(Event(t, "k", float(rng.randint(0, 99))))
        streams[f"local-{i}"] = events
    return streams


def test_tight_caps_shed_and_bound_the_channel():
    streams = overload_streams(1_500)
    # 20 ms / 0.2 B-per-ms: far below the offered load
    slow = dict(
        latency_ms=20.0, bandwidth_bytes_per_ms=0.2,
        fault_plan=FaultPlan(seed=7), node_timeout=NEVER,
    )
    topo = three_tier(2, 2)
    _, unbounded = run_desis(QUERY_SETS["tumbling"], topo, streams, **slow)
    _, bounded = run_desis(
        QUERY_SETS["tumbling"], topo, streams,
        channel_credit_bytes=1_500, channel_credit_frames=6, staging_limit=8,
        **slow,
    )
    assert unbounded.slices_shed == 0 and unbounded.degraded_windows == 0
    assert unbounded.network.peak_unacked_bytes == 902
    assert bounded.degraded_windows == 1
    assert bounded.peak_staging == 6
    assert bounded.slices_shed == 4
    _assert_shed_accounting(bounded)
    # flow control bounds what the channel holds unacknowledged
    assert (
        bounded.network.peak_unacked_frames
        <= 6
        < unbounded.network.peak_unacked_frames
    )
    assert (
        bounded.network.peak_unacked_bytes
        <= unbounded.network.peak_unacked_bytes
    )


def recovery_latency(result):
    """Sim-ms from the node's restore to the next emission at the root."""
    (recover,) = result.recorder.events("node.recover")
    return next(
        event.at - recover.at
        for event in result.recorder.events("window.emit")
        if event.at >= recover.at
    )


def test_checkpointed_recovery_is_cheaper_and_faster(node_streams):
    span = max(e.time for s in node_streams.values() for e in s)
    topo = three_tier(3, 1)

    def run(**cfg):
        # 131 B/ms (~1G Ethernet): re-shipped bytes cost simulated time
        return run_desis(
            MIXED, topo, node_streams, node_timeout=NEVER,
            bandwidth_bytes_per_ms=131.0, trace=True, **cfg,
        )[1]

    def crash():  # the middle fifth of the run, state lost
        window = CrashWindow(
            "mid-0", int(span * 0.4), int(span * 0.6), lose_state=True
        )
        return FaultPlan(seed=7, crashes=(window,))

    clean = run()
    scratch = run(fault_plan=crash())
    checkpointed = run(
        fault_plan=crash(), checkpoint_interval=int(span * 0.1)
    )
    for recovered in (scratch, checkpointed):
        assert rows(recovered) == rows(clean)
        assert recovered.recoveries == 1
    assert scratch.checkpoints == 0
    assert checkpointed.checkpoints == 14
    reshipped = [
        r.network.data_bytes - clean.network.data_bytes
        for r in (scratch, checkpointed)
    ]
    assert reshipped == [63_166, 47_849]  # 24.2 % saved
    latencies = [recovery_latency(scratch), recovery_latency(checkpointed)]
    assert latencies == [41, 12]  # 29 sim-ms sooner


def test_each_row_crosses_one_pipe():
    events = stream(200_000, keys=10, rate=50_000.0, seed=1)
    engine = ShardedEngine(
        tumbling_queries(100), config=EngineConfig(shards=4)
    )
    engine.process_batch(events)
    engine.close()
    stats = engine.shard_stats
    assert sum(stats.rows_shipped) == 200_000  # a broadcast ships 4x that
    assert engine.stats.results == 150
    assert stats.reduce_merge_ops == 120


def test_incremental_merge_runs_a_twentieth_of_the_operators():
    events = stream(200_000, keys=4, rate=50_000.0, seed=1)
    merge_ops = {}
    # "exact": the partials a plain scan reads, closing every window
    for mode, close in (("exact", plain_scan), ("incremental", nullcontext)):
        with close():
            engine = AggregationEngine(
                [Query.of("q", WindowSpec.sliding(128, 2), AggFunction.AVERAGE)]
            )
            engine.process_batch(events)
            engine.close()
        assert engine.stats.windows_closed == 2_000
        merge_ops[mode] = engine.stats.merge_ops
    assert merge_ops == {"exact": 251_968, "incremental": 11_778}  # 21.39x
