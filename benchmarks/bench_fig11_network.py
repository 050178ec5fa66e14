"""Figure 11: network overhead by node class (Sec 6.4.1).

Setup: the minimal decentralized topology (local -> intermediate -> root),
exact serialized bytes counted per link.

* Fig 11a — one average query: Desis/Disco ship per-slice partials and
  save ~99% of the bytes centralized systems spend shipping raw events.
* Fig 11b — one median query: everyone ships every value; Disco pays
  extra for its string messages.
* Fig 11c — bytes grow linearly with distinct keys (per-key partials).
* Fig 11d — bytes vs concurrent windows: Desis ships slices (flat);
  Disco ships windows (grows).
"""

from __future__ import annotations

import pytest

from repro.baselines import CeBufferProcessor, ScottyProcessor
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster, DiscoCluster
from repro.harness import fmt_bytes, print_table
from repro.network.topology import three_tier

from conftest import cluster_streams

TICK = 1_000
N = 40_000


def topo():
    return three_tier(1, 1)


def config():
    return ClusterConfig(tick_interval=TICK)


def avg_query():
    return [Query.of("avg", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)]


def median_query():
    return [Query.of("med", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)]


def run_all(queries, streams):
    runs = {
        "Desis": DesisCluster(queries, topo(), config=config()).run(dict(streams)),
        "Disco": DiscoCluster(queries, topo(), config=config()).run(dict(streams)),
        "Scotty": CentralizedCluster(
            queries, topo(), ScottyProcessor, config=config()
        ).run(dict(streams)),
        "CeBuffer": CentralizedCluster(
            queries, topo(), CeBufferProcessor, config=config()
        ).run(dict(streams)),
    }
    return runs


def _table(figure, runs):
    rows = []
    for name, run in runs.items():
        rows.append(
            [
                name,
                fmt_bytes(run.network.local_bytes),
                fmt_bytes(run.network.intermediate_bytes),
                fmt_bytes(run.network.data_bytes),
            ]
        )
    print_table(figure, ["system", "local", "intermediate", "total data"], rows)


def test_fig11a_decomposable_savings(benchmark):
    streams = cluster_streams(1, N)
    runs = run_all(avg_query(), streams)
    _table("Fig 11a: network bytes, 1 average query", runs)
    desis = runs["Desis"].network.data_bytes
    scotty = runs["Scotty"].network.data_bytes
    # The paper's "saves 99% of network overhead".
    assert desis < scotty / 50
    disco = runs["Disco"].network.data_bytes
    assert disco < scotty / 10
    benchmark.pedantic(
        lambda: DesisCluster(avg_query(), topo(), config=config()).run(
            cluster_streams(1, 5_000)
        ),
        rounds=1, iterations=1,
    )


def test_fig11b_non_decomposable_ships_all(benchmark):
    streams = cluster_streams(1, N)
    runs = run_all(median_query(), streams)
    _table("Fig 11b: network bytes, 1 median query", runs)
    rolled = {name: run.network.data_bytes for name, run in runs.items()}
    # Everyone ships every value: same order of magnitude (paper: all
    # around 3 GB for 100M events)...
    assert rolled["Desis"] > rolled["Scotty"] / 4
    # ...and Disco's JSON strings cost far more than Desis' binary
    # sorted-batch partials for the same values.
    assert rolled["Disco"] > 2 * rolled["Desis"]
    benchmark.pedantic(
        lambda: DesisCluster(median_query(), topo(), config=config()).run(
            cluster_streams(1, 5_000)
        ),
        rounds=1, iterations=1,
    )


def test_fig11c_bytes_vs_keys(benchmark):
    rows = []
    desis_bytes = {}
    for n_keys in (1, 4, 16):
        keys = tuple(f"k{i}" for i in range(n_keys))
        queries = [
            Query.of(
                f"q-{key}",
                WindowSpec.tumbling(1_000),
                AggFunction.AVERAGE,
                selection=Selection(key=key),
            )
            for key in keys
        ]
        streams = cluster_streams(1, N, keys=n_keys)
        run = DesisCluster(queries, topo(), config=config()).run(streams)
        desis_bytes[n_keys] = run.network.data_bytes
        rows.append([n_keys, fmt_bytes(desis_bytes[n_keys])])
    print_table(
        "Fig 11c: Desis network bytes vs distinct keys",
        ["keys", "data bytes"],
        rows,
    )
    # Per-key partial results ship individually: ~linear growth (a fixed
    # per-record framing overhead dampens the small-key end).
    assert desis_bytes[16] > 4 * desis_bytes[1]
    assert desis_bytes[4] > 1.5 * desis_bytes[1]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fig11d_bytes_vs_windows(benchmark):
    rows = []
    collected = {}
    for n_windows in (1, 8, 32):
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)
            for i in range(n_windows)
        ]
        streams = cluster_streams(1, N, keys=1)
        desis = DesisCluster(queries, topo(), config=config()).run(dict(streams))
        disco = DiscoCluster(queries, topo(), config=config()).run(dict(streams))
        collected[("Desis", n_windows)] = desis.network.data_bytes
        collected[("Disco", n_windows)] = disco.network.data_bytes
        rows.append(
            [
                n_windows,
                fmt_bytes(collected[("Desis", n_windows)]),
                fmt_bytes(collected[("Disco", n_windows)]),
            ]
        )
    print_table(
        "Fig 11d: network bytes vs concurrent windows (single key)",
        ["windows", "Desis (per-slice)", "Disco (per-window)"],
        rows,
    )
    # Desis computes slices, not queries, on local nodes: flat traffic.
    assert collected[("Desis", 32)] < 1.3 * collected[("Desis", 1)]
    # Disco ships each window's partials separately: traffic grows.
    assert collected[("Disco", 32)] > 5 * collected[("Disco", 1)]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
