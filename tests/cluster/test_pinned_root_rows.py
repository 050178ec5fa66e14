"""The rows the root emits for mixed query-groups, pinned.

Seeded :class:`~repro.cluster.DesisCluster` runs over two groups: a
pushed-down group of tumbling, sliding, session and user-defined (trip)
windows over one context, and a root-evaluated group of a count-based
window beside a MEDIAN.  Each runs as it is, with its batches also cut
at the times of no-op actions, and with a state-losing crash — of the
intermediate, and of the root — under checkpointing, so that a trip and a session are open across a checkpoint
the root writes and restores.  No overload caps: no row is degraded.
Every row is hashed in emission order; a change to how the root
assembles, frees or checkpoints window state moves the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.cluster import ClusterConfig, DesisCluster
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import three_tier

from tests.cluster.test_desis_parity import make_streams

QUERIES = [
    # pushed down: one context, fixed windows beside a session and a trip
    Query.of("tum", WindowSpec.tumbling(1_000), AggFunction.AVERAGE),
    Query.of("sld", WindowSpec.sliding(1_000, 250), AggFunction.SUM),
    Query.of("ses", WindowSpec.session(gap=60), AggFunction.MAX),
    Query.of("trip", WindowSpec.user_defined(end_marker="end"), AggFunction.SUM),
    # root-evaluated: a count window makes the group ship (time, value) pairs
    Query.of("cnt", WindowSpec.tumbling(50, measure=WindowMeasure.COUNT),
             AggFunction.SUM),
    Query.of("med", WindowSpec.tumbling(500), AggFunction.MEDIAN),
]

NEVER = 10**9  # a node_timeout that never fires: isolate recovery from eviction

RUNS = {
    "batched": {},
    "cut": {"actions": [(at, lambda cluster: None) for at in range(41, 24_000, 41)]},
    "mid-crash": {
        "fault_plan": FaultPlan(
            seed=2, crashes=(CrashWindow("mid-0", 4_500, 6_000, lose_state=True),)
        ),
        "checkpoint_interval": 700,
        "node_timeout": NEVER,
    },
    "root-crash": {
        "fault_plan": FaultPlan(
            seed=2, crashes=(CrashWindow("root", 4_500, 6_000, lose_state=True),)
        ),
        "checkpoint_interval": 700,
        "node_timeout": NEVER,
    },
}

#: run -> (rows emitted, sha256 of their ``(query, start, end, count,
#: value)`` reprs in order)
PINNED = {
    "batched": (248, "cb4c57d8f8bc98da538155b49ff1c13a1683106dcde54bd1fd8a1ff204fbb5d5"),
    "cut": (248, "cb4c57d8f8bc98da538155b49ff1c13a1683106dcde54bd1fd8a1ff204fbb5d5"),
    "mid-crash": (248, "cb4c57d8f8bc98da538155b49ff1c13a1683106dcde54bd1fd8a1ff204fbb5d5"),
    "root-crash": (248, "cb4c57d8f8bc98da538155b49ff1c13a1683106dcde54bd1fd8a1ff204fbb5d5"),
}


def root_rows(run):
    settings = dict(RUNS[run])
    actions = settings.pop("actions", None)
    cluster = DesisCluster(
        QUERIES, three_tier(3, 1),
        config=ClusterConfig(tick_interval=100, **settings),
    )
    assert [group.root_evaluated for group in cluster.plan.groups] == [False, True]
    streams = make_streams(3, 1_200, seed=7, gap_every=150, marker_every=97)
    result = cluster.run(streams, actions=actions)
    if "fault_plan" in settings:
        assert result.recoveries == 1 and result.checkpoints > 0
    return [
        repr((r.query_id, r.start, r.end, r.event_count, r.value))
        for r in result.sink
    ]


@pytest.mark.parametrize("run", list(PINNED))
def test_root_rows_are_pinned(run):
    rows = root_rows(run)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED[run]
