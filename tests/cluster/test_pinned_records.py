"""The slice records locals ship for root-evaluated groups, pinned.

A seeded :class:`~repro.cluster.DesisCluster` with two root-evaluated,
fixed-window groups — MEDIAN and a sliding QUANTILE over the whole
stream, keyed and value-ranged MEDIANs beside them — runs with its
streams batched on the tick grid, and again with every batch also cut at
the times of no-op actions.  Every 100 ms tick is a punctuation of both
groups, so where a record ends never depends on whether a tick or an
event stamped on it arrives first.  Every record the locals put on the
wire is hashed in send order; a change to how locals slice, sort or
route moves the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.cluster import ClusterConfig, DesisCluster
from repro.network.messages import PartialBatchMessage
from repro.network.topology import three_tier

from tests.cluster.test_desis_parity import make_streams

QUERIES = [
    # whole-stream contexts: one group, 100 ms grid from the sliding query
    Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN),
    Query.of("q", WindowSpec.sliding(500, 100), AggFunction.QUANTILE,
             quantile=0.9),
    # keyed and ranged contexts: a second group, 100 ms grid
    Query.of("ma", WindowSpec.tumbling(100), AggFunction.MEDIAN,
             selection=Selection(key="a")),
    Query.of("mb", WindowSpec.sliding(300, 100), AggFunction.MEDIAN,
             selection=Selection(key="b", lo=10.0, hi=60.0)),
]

#: run -> (records shipped by locals, sha256 of their reprs in order)
PINNED = {
    "batched": (1_272, "c9f78b1bab8a07d4180a33dc4789f52d000350354b4bb94d74e2d182558df1e2"),
    "cut": (1_272, "c9f78b1bab8a07d4180a33dc4789f52d000350354b4bb94d74e2d182558df1e2"),
}

#: run -> the run's actions: none, or no-op ones that cut batches mid-tick
ACTIONS = {
    "batched": None,
    "cut": [(at, lambda cluster: None) for at in range(37, 16_000, 37)],
}


def shipped_records(run):
    cluster = DesisCluster(
        QUERIES, three_tier(4, 2), config=ClusterConfig(tick_interval=100)
    )
    assert all(group.root_evaluated for group in cluster.plan.groups)
    assert len(cluster.plan.groups) == 2
    records = []
    send = cluster.net.send

    def capture(src, dst, message):
        if src in cluster.locals and isinstance(message, PartialBatchMessage):
            records.extend(
                repr((src, message.group_id, record))
                for record in message.records
            )
        send(src, dst, message)

    cluster.net.send = capture
    streams = make_streams(4, 1_500, keys=("a", "b", "c"), seed=23)
    result = cluster.run(streams, actions=ACTIONS[run])
    assert len(result.sink.results) > 100
    return records


@pytest.mark.parametrize("run", list(PINNED))
def test_local_records_are_pinned(run):
    records = shipped_records(run)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == PINNED[run]
