"""The three simulated deployments' outputs, pinned.

Desis (clean, over a lossy network, checkpointed through a state-losing
crash of its intermediate with a node and a query added mid-run,
shedding under tight credits, soft-evicting and re-admitting silent
children, and failing over a dead intermediate), centralized Scotty and
Disco each replay one seeded stream.  Every run pins its rows in
emission order with their emission times, its trace, all of its
:class:`~repro.network.simnet.NetworkStats` counters, and every
field of its :class:`~repro.cluster.ClusterRunResult` that does not
measure seconds.  The deployments share one driver; a change to how it
builds the network, injects, ticks or finishes moves a digest here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.baselines import ScottyProcessor
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster, DiscoCluster
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole
from repro.network.simnet import CrashWindow, FaultPlan
from repro.obs.exporters import render_trace_jsonl
from repro.network.topology import Topology, three_tier

from tests.cluster.test_chaos import _assert_shed_accounting
from tests.cluster.test_desis_parity import make_streams

NEVER = 10**9  # a node_timeout that never fires

#: fixed time windows: what every deployment, Disco included, supports
FIXED = [
    Query.of("tum", WindowSpec.tumbling(1_000), AggFunction.AVERAGE),
    Query.of("sld", WindowSpec.sliding(1_000, 250), AggFunction.SUM),
    Query.of("med", WindowSpec.tumbling(500), AggFunction.MEDIAN),
]
#: beside them a session window, which only Desis and Scotty run
MIXED = [*FIXED, Query.of("ses", WindowSpec.session(gap=60), AggFunction.MAX)]


def _add_node_and_query(cluster):
    extra = [Event(4_600 + 7 * i, "k", float(i % 13)) for i in range(150)]
    cluster.add_local_node("local-9", "mid-0", extra)
    cluster.add_query(
        Query.of("late", WindowSpec.tumbling(400), AggFunction.COUNT)
    )


def _desis(topology=None, **cfg):
    actions = cfg.pop("actions", None)
    cluster = DesisCluster(
        MIXED,
        topology if topology is not None else three_tier(3, 1),
        config=ClusterConfig(tick_interval=100, **cfg),
    )
    return cluster.run(_streams(), actions=actions)


def _four_tier():
    """``local-0`` and intermediate ``mid-1`` under ``mid-0``, the other
    two locals under ``mid-1``: when ``mid-0`` dies, a local and an
    intermediate both fail over to the root."""
    local, mid = NodeRole.LOCAL, NodeRole.INTERMEDIATE
    return Topology(
        root="root",
        parents={"mid-0": "root", "mid-1": "mid-0", "local-0": "mid-0",
                 "local-1": "mid-1", "local-2": "mid-1"},
        roles={"root": NodeRole.ROOT, "mid-0": mid, "mid-1": mid,
               "local-0": local, "local-1": local, "local-2": local},
    )


def _streams():
    return make_streams(3, 1_000, seed=5, gap_every=150)


RUNS = {
    "desis-clean": lambda: _desis(),
    "desis-faulty": lambda: _desis(
        fault_plan=FaultPlan(
            seed=3, drop_rate=0.05, duplicate_rate=0.02, jitter_ms=2.0
        ),
        node_timeout=NEVER,
    ),
    "desis-checkpointed": lambda: _desis(
        fault_plan=FaultPlan(
            seed=2, crashes=(CrashWindow("mid-0", 2_500, 4_000, lose_state=True),)
        ),
        checkpoint_interval=700,
        node_timeout=NEVER,
        trace=True,
        actions=[(4_500, _add_node_and_query)],
    ),
    # a slow link under tight credits and a staging cap: the locals and
    # the intermediate shed, and credit-stalled children are soft-evicted
    # and rejoin with their pruned records counted as shed
    "desis-shedding": lambda: _desis(
        fault_plan=FaultPlan(seed=7),
        node_timeout=3_000,
        channel_credit_bytes=1_500,
        channel_credit_frames=6,
        staging_limit=8,
        latency_ms=20.0,
        bandwidth_bytes_per_ms=2.0,
        trace=True,
    ),
    # a local, then the intermediate, silent past the timeout: both are
    # soft-evicted and rejoin on their next heartbeat
    "desis-rejoin": lambda: _desis(
        fault_plan=FaultPlan(
            seed=4,
            crashes=(CrashWindow("local-0", 3_000, 7_000),
                     CrashWindow("mid-0", 10_000, 13_000)),
        ),
        node_timeout=3_000,
        trace=True,
    ),
    # a permanent death: the dead intermediate's local and intermediate
    # children reparent to the root, trimmed by its checkpoints
    "desis-failover": lambda: _desis(
        _four_tier(),
        fault_plan=FaultPlan(seed=2, crashes=(CrashWindow("mid-0", 8_000, None),)),
        node_timeout=3_000,
        checkpoint_interval=1_500,
        trace=True,
    ),
    "scotty": lambda: CentralizedCluster(
        MIXED, three_tier(3, 1), ScottyProcessor,
        config=ClusterConfig(tick_interval=100),
    ).run(_streams()),
    # Disco's locals take one timestamp per batch, whatever the tick
    "disco": lambda: DiscoCluster(
        FIXED, three_tier(4, 2), config=ClusterConfig(tick_interval=100),
    ).run(make_streams(4, 800, seed=9)),
}


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


def record_multiset_sha(jsonl: str) -> str:
    """The sha256 of a JSONL trace's records with ``seq`` dropped, each
    dumped with sorted keys and the lines sorted: what the trace holds,
    whatever order records stamped alike were written in."""
    records = [json.loads(line) for line in jsonl.splitlines()]
    for record in records:
        del record["seq"]
    lines = sorted(json.dumps(record, sort_keys=True) for record in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def observe(result) -> dict:
    """Everything a run produced that does not take seconds."""
    net = dataclasses.asdict(result.network)
    for name, value in net.items():
        if isinstance(value, dict):
            net[name] = sorted((repr(k), v) for k, v in value.items())
    return {
        "rows": len(result.sink),
        "rows_sha": _digest([
            (r.query_id, r.start, r.end, r.event_count, repr(r.value), r.emitted_at)
            for r in result.sink
        ]),
        "network_sha": _digest(net),
        "data_bytes": result.network.data_bytes,
        "events": result.events,
        "local_stats_sha": _digest(
            {node: dataclasses.asdict(stats)
             for node, stats in result.local_stats.items()}
        ),
        "nodes": list(result.node_cpu),
        "roles": sorted(role.value for role in result.cpu_by_role),
        "trace_sha": _digest(render_trace_jsonl(result.recorder)),
        "trace_records_sha": record_multiset_sha(
            render_trace_jsonl(result.recorder)
        ),
        "counters": [
            result.checkpoints, result.recoveries, result.reroutes,
            result.duplicates_suppressed, result.root_merge_ops,
            result.degraded_windows, result.slices_shed, result.peak_staging,
            result.slow_consumer_evictions,
        ],
    }


#: run -> its observed outputs (``observe``)
PINNED = {
    "desis-clean": {
        "rows": 108,
        "rows_sha": "177a544dc7c57ae0fcf710dd57c9067c1b0acb1b05939dd995f693993729030b",
        "network_sha": "1c9a51ae716f072350acbd58747ca85d14c7905d73478b32f51c60e807dac970",
        "data_bytes": 145373,
        "events": 3000,
        "local_stats_sha": "3413861b8ccc0dcf6930e58d221cf3b901a307aae35d41b16fa03fa03c82dde0",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "trace_records_sha": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "counters": [0, 0, 0, 0, 440, 0, 0, 0, 0],
    },
    "desis-faulty": {
        "rows": 108,
        "rows_sha": "10ee9faadeecf5c547bab31275074035d8e006dc10a5fe5fd5debd21be796ced",
        "network_sha": "886ae56f7cd0009bf9409ea6f8b5192e040ffc9fd2fe43b9ce5fb52f48e48424",
        "data_bytes": 181062,
        "events": 3000,
        "local_stats_sha": "3413861b8ccc0dcf6930e58d221cf3b901a307aae35d41b16fa03fa03c82dde0",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "trace_records_sha": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "counters": [0, 0, 0, 0, 440, 0, 0, 0, 0],
    },
    "desis-checkpointed": {
        "rows": 139,
        "rows_sha": "6b2f88fa96146e5c3a9339946d0b24f0ad333000a77c79d3e710f44cd5e5d310",
        "network_sha": "90f138e048d1575e9a5f904c513a1cc13288dcb0d0493bea10815998c628199b",
        "data_bytes": 262328,
        "events": 3150,
        "local_stats_sha": "37dee1444ffbd3f327f44ff5f0091c3159ee5124949a8ceeebb825cf2bb91f10",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0", "local-9"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "fb67596f8bd7bc099768b2254a176726d354ed40d29bfed9083a098113f36438",
        "trace_records_sha": "da4012a667b7c5776787c9c21df1af588c799d7bdae0c1ee3d92af2fbd85f135",
        "counters": [52, 1, 0, 0, 572, 0, 0, 0, 0],
    },
    "desis-shedding": {
        "rows": 76,
        "rows_sha": "11a39359f9cf8e2cdff054368a1ae1fa6067749f171efaf5c2f9729e3b0370bc",
        "network_sha": "ef16dfd205515f51dc4d4d2e5a333882b7661190a6282f98d4a94c1066cb7718",
        "data_bytes": 274919,
        "events": 3000,
        "local_stats_sha": "3413861b8ccc0dcf6930e58d221cf3b901a307aae35d41b16fa03fa03c82dde0",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "d1d28d3ebe5de390833d95d3ff978474b7356ce67124d0e0b849ba16e3f17cc0",
        "trace_records_sha": "b06006597b3aa285036fa20dcea853ddb7eb5a1af51c1eabcf4c48d4c3207468",
        "counters": [0, 0, 0, 0, 49, 70, 367, 16, 6],
    },
    "desis-rejoin": {
        "rows": 97,
        "rows_sha": "6653d1b171e2fdc37a4ab5f723c994fe07b9ba794709ca408191f2518190acab",
        "network_sha": "1c9ed283a164a79b08046f5c11cfe6d6402dcbb0b3e9d54dbda20da1aed7d76b",
        "data_bytes": 204149,
        "events": 3000,
        "local_stats_sha": "3413861b8ccc0dcf6930e58d221cf3b901a307aae35d41b16fa03fa03c82dde0",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "36d9e7440fe67e0f6afab73d75c8c8cc02409a1dc97e1c0074f2fc77cb955e03",
        "trace_records_sha": "117e16fd8e22e6e4bcdf90a2c68291588fab6f6a5903558f097670b703e1d0ee",
        "counters": [0, 0, 0, 0, 366, 0, 0, 0, 0],
    },
    "desis-failover": {
        "rows": 108,
        "rows_sha": "c1453c4503fb8097e165da5fd8829ab7bd129fc816375019f39944cd730cdfb2",
        "network_sha": "40510f1a3e7e92b8d5974fbf8b8052cc2ce71f84405086baed9cd78970ec6b1e",
        "data_bytes": 227449,
        "events": 3000,
        "local_stats_sha": "3413861b8ccc0dcf6930e58d221cf3b901a307aae35d41b16fa03fa03c82dde0",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0", "mid-1"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "5e5b6db8c303170115987cff1227a02143ccb1315e9feb704b4a8989f1db2e39",
        "trace_records_sha": "0ceeafc606f7f553471f81f9190150d93b27fb375766263fee531d6abb20794d",
        "counters": [30, 0, 2, 0, 440, 0, 0, 0, 0],
    },
    "scotty": {
        "rows": 108,
        "rows_sha": "480db16e3206cc1dae81db5be1e258815f3533c78ee741e177f47b4cfd45d704",
        "network_sha": "53107921da206d7c6307f102ad5f8e3bf01eeaae44eb7b200b34b260adaaa4a2",
        "data_bytes": 146664,
        "events": 3000,
        "local_stats_sha": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "nodes": ["root", "local-0", "local-1", "local-2", "mid-0"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "trace_records_sha": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "counters": [0, 0, 0, 0, 0, 0, 0, 0, 0],
    },
    "disco": {
        "rows": 63,
        "rows_sha": "1ae4716d1a13472c4f3af4855dfc9444e57854f05fe8027715a27641595c9fbc",
        "network_sha": "bf77885a72c56b8f6358d68c2d3c085f8bbdd32e064ef9a6fd3e0516624159c0",
        "data_bytes": 95333,
        "events": 3200,
        "local_stats_sha": "2bb9b8a5294012f737111639d9465f62a4801ef44bdaa6b683497683e953561d",
        "nodes": ["root", "local-0", "local-1", "local-2", "local-3", "mid-0", "mid-1"],
        "roles": ["intermediate", "local", "root"],
        "trace_sha": "12ae32cb1ec02d01eda3581b127c1fee3b0dc53572ed6baf239721a03d82e126",
        "trace_records_sha": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "counters": [0, 0, 0, 0, 0, 0, 0, 0, 0],
    },
}


@pytest.mark.parametrize("run", list(RUNS))
def test_deployment_outputs_are_pinned(run):
    assert observe(RUNS[run]()) == PINNED[run]


def test_shedding_run_explains_every_degraded_row():
    """The root's staging cap counts records, and an intermediate's record
    stands for all its children's slices of one interval; whatever was
    shed, each degraded row's shed intervals account for its
    completeness."""
    result = RUNS["desis-shedding"]()
    assert sum(row.completeness < 1.0 for row in result.sink) == 70
    assert all(row.shed_slices for row in result.sink if row.completeness < 1.0)
    _assert_shed_accounting(result)
