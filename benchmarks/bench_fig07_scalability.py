"""Figure 7: decentralized scalability (Sec 6.2.2).

* Fig 7a/7b — cluster throughput vs number of local nodes, for a
  decomposable (average) and a non-decomposable (median) function.
* Fig 7c/7d — per-node-class work while the number of children grows.
* Fig 7e — per-node-class work vs number of distinct keys (selection
  operators are scanned per event on locals).
* Fig 7f — per-node-class work vs concurrent windows on one key.

Paper shape: with averages, Desis and Disco scale ~linearly with local
nodes while centralized systems stay flat; with medians the root bounds
the system.  Locals slow down with more keys; roots/intermediates do not.
"""

from __future__ import annotations

import pytest

from repro.baselines import ScottyProcessor
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster, DiscoCluster
from repro.harness import fmt_rate, print_table, tumbling_queries

from conftest import cluster_streams

NODE_COUNTS = (1, 2, 4, 8)


def avg_queries():
    return [Query.of("avg", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)]


def median_queries():
    return [Query.of("med", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)]


def topology(n_locals):
    from repro.network.topology import three_tier

    return three_tier(n_locals, 1)


def run_desis(queries, n_locals, *, keys=10, events=None):
    streams = cluster_streams(n_locals, keys=keys) if events is None else events
    cluster = DesisCluster(
        queries, topology(n_locals), config=ClusterConfig(tick_interval=1_000)
    )
    return cluster.run(streams)


def test_fig7a_scaling_average(benchmark):
    """Fig 7a: throughput vs local nodes, average function."""
    rows = []
    desis_rates = {}
    for n in NODE_COUNTS:
        streams = cluster_streams(n)
        desis = run_desis(avg_queries(), n, events=dict(streams))
        disco = DiscoCluster(
            avg_queries(), topology(n), config=ClusterConfig(tick_interval=1_000)
        ).run(dict(streams))
        central = CentralizedCluster(
            avg_queries(),
            topology(n),
            ScottyProcessor,
            config=ClusterConfig(tick_interval=1_000),
        ).run(dict(streams))
        desis_rates[n] = desis.modeled_parallel_throughput
        rows.append(
            [
                n,
                fmt_rate(desis.modeled_parallel_throughput),
                fmt_rate(disco.modeled_parallel_throughput),
                fmt_rate(central.modeled_parallel_throughput),
            ]
        )
    print_table(
        "Fig 7a: modeled cluster throughput vs local nodes (average)",
        ["locals", "Desis", "Disco", "Scotty (centralized)"],
        rows,
    )
    # Pushed-down aggregation parallelizes over locals: the busiest node's
    # share shrinks as locals are added (paper: linear scaling).
    assert desis_rates[8] > 3 * desis_rates[1]
    benchmark.pedantic(
        lambda: run_desis(avg_queries(), 2), rounds=1, iterations=1
    )


def test_fig7b_scaling_median(benchmark):
    """Fig 7b: throughput vs local nodes, median function (root-bound).

    The claim is asserted on the mechanism, from deterministic byte
    counters of the same runs: a median ships every value to the root, so
    the bytes into the root grow with the number of locals (~8 B per
    event at any scale), where the pushed-down average of Fig 7a sends a
    few hundred bytes however many events there are.  Busiest-node CPU
    seconds — the modeled rates and where they stop growing — are printed
    only: they are single-shot wall-clock readings.
    """
    rows = []
    inbound = {}
    rates = {}
    for n in NODE_COUNTS:
        streams = cluster_streams(n)
        events = sum(len(stream) for stream in streams.values())
        median = run_desis(median_queries(), n, events=dict(streams))
        average = run_desis(avg_queries(), n, events=dict(streams))
        inbound[n] = tuple(
            result.network.bytes_from_role[NodeRole.INTERMEDIATE]
            for result in (median, average)
        )
        rates[n] = median.modeled_parallel_throughput
        rows.append(
            [
                n,
                fmt_rate(rates[n]),
                median.bottleneck_node[0],
                f"{inbound[n][0]:,}",
                f"{inbound[n][0] / events:.2f}",
                f"{inbound[n][1]:,}",
            ]
        )
    print_table(
        "Fig 7b: modeled Desis throughput and root-inbound bytes vs local nodes (median)",
        ["locals", "Desis", "bottleneck", "median B into root", "B/event",
         "average B into root"],
        rows,
    )
    saturated = next(
        (n for n, more in zip(NODE_COUNTS, NODE_COUNTS[1:])
         if rates[more] < 1.5 * rates[n]),
        None,
    )
    print(
        "modeled median throughput (single-shot busiest-node CPU) "
        + (f"stops scaling at {saturated} locals" if saturated
           else f"still scales at {NODE_COUNTS[-1]} locals")
    )
    # Every value travels to the root: its inbound bytes scale with the
    # locals, and dwarf the decomposable workload's at either scale.
    assert inbound[8][0] >= 7 * inbound[1][0]
    for n in (1, 8):
        assert inbound[n][0] >= 100 * inbound[n][1]
    benchmark.pedantic(
        lambda: run_desis(median_queries(), 2), rounds=1, iterations=1
    )


def test_fig7cd_per_node_work(benchmark):
    """Fig 7c/7d: per-node-class CPU time as children scale."""
    rows = []
    for n in (2, 4, 8):
        for queries, label in ((avg_queries(), "avg"), (median_queries(), "median")):
            result = run_desis(queries, n)
            cpu = result.cpu_by_role
            rows.append(
                [
                    label,
                    n,
                    f"{cpu.get(NodeRole.LOCAL, 0.0):.3f}s",
                    f"{cpu.get(NodeRole.INTERMEDIATE, 0.0):.3f}s",
                    f"{cpu.get(NodeRole.ROOT, 0.0):.3f}s",
                ]
            )
    print_table(
        "Fig 7c/7d: per-node-class CPU time vs children",
        ["function", "locals", "local cpu", "intermediate cpu", "root cpu"],
        rows,
    )
    # Median centralizes the work: the upstream (root + intermediate)
    # share of total CPU is far larger than for the pushed-down average.
    avg8 = run_desis(avg_queries(), 8).cpu_by_role
    med8 = run_desis(median_queries(), 8).cpu_by_role

    def upstream_share(cpu):
        upstream = cpu.get(NodeRole.ROOT, 0.0) + cpu.get(NodeRole.INTERMEDIATE, 0.0)
        return upstream / sum(cpu.values())

    assert upstream_share(med8) > 2 * upstream_share(avg8)
    benchmark.pedantic(
        lambda: run_desis(avg_queries(), 4), rounds=1, iterations=1
    )


def test_fig7e_keys_slow_down_locals(benchmark):
    """Fig 7e: distinct keys add selection operators scanned per event on
    the local nodes; root and intermediate merge work is per-partial.

    Asserted on the cause, a deterministic counter: every event is checked
    against one selection per key.  The CPU columns are printed only —
    single-shot readings of the per-event local path.
    """
    rows = []
    checks = {}
    for n_keys in (1, 8, 32):
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
        streams = cluster_streams(2, keys=n_keys)
        result = DesisCluster(
            queries, topology(2), config=ClusterConfig(tick_interval=1_000)
        ).run(streams)
        cpu = result.cpu_by_role
        checks[n_keys] = sum(
            stats.selection_checks for stats in result.local_stats.values()
        )
        rows.append(
            [
                n_keys,
                f"{checks[n_keys]:,}",
                f"{cpu[NodeRole.LOCAL]:.3f}s",
                f"{cpu[NodeRole.INTERMEDIATE]:.3f}s",
                f"{cpu[NodeRole.ROOT]:.3f}s",
            ]
        )
    print_table(
        "Fig 7e: local selection-operator work vs distinct keys (1 query per key)",
        ["keys", "selection checks", "local cpu", "intermediate cpu", "root cpu"],
        rows,
    )
    # Every event passes through one selection operator per key on the
    # local nodes — the deterministic cause of Fig 7e's slowdown.
    assert checks[32] == 32 * checks[1]
    benchmark.pedantic(
        lambda: run_desis(avg_queries(), 2, keys=4), rounds=1, iterations=1
    )


def test_fig7f_windows_do_not_slow_locals(benchmark):
    """Fig 7f: 100 concurrent windows on one key leave all node classes
    at (nearly) single-window cost."""
    rows = []
    locals_cpu = {}
    for n_windows in (1, 100):
        queries = tumbling_queries(n_windows)
        streams = cluster_streams(2, keys=1)
        result = DesisCluster(
            queries, topology(2), config=ClusterConfig(tick_interval=1_000)
        ).run(streams)
        cpu = result.cpu_by_role
        locals_cpu[n_windows] = cpu[NodeRole.LOCAL]
        rows.append(
            [
                n_windows,
                f"{cpu[NodeRole.LOCAL]:.3f}s",
                f"{cpu[NodeRole.ROOT]:.3f}s",
            ]
        )
    print_table(
        "Fig 7f: per-node-class CPU time vs concurrent windows (same key)",
        ["windows", "local cpu", "root cpu"],
        rows,
    )
    assert locals_cpu[100] < 3 * locals_cpu[1]
    benchmark.pedantic(
        lambda: run_desis(tumbling_queries(10), 2, keys=1), rounds=1, iterations=1
    )
