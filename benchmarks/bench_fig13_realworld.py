"""Figure 13: real-world data and the Raspberry Pi cluster (Sec 6.5).

* Fig 13a — synthetic-DEBS stream, randomly generated decomposable
  queries, query count swept to thousands.  Paper shape: Desis stays well
  ahead of DeSW (~4x), bucketed systems collapse immediately, and even
  Desis/DeSW decline at very high query counts because materializing each
  query's results dominates.
* Fig 13b — the Pi cluster: 1G Ethernet caps centralized shipping at the
  link rate while Desis' partial results never approach it.  Modeled as
  sustainable throughput = min(compute bottleneck, bandwidth /
  bytes-per-event); the simulated links enforce the same cap.
* Fig 13c/13d — network rate and per-node-class work on the Pi topology.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    CeBufferProcessor,
    DeBucketProcessor,
    DeSWProcessor,
    DesisProcessor,
    ScottyProcessor,
)
from repro.core.types import WindowType
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster
from repro.datagen import DebsConfig, DebsGenerator, QueryGenerator, QueryGeneratorConfig
from repro.harness import fmt_bytes, fmt_rate, print_table, run_processor
from repro.metrics import modeled_sustainable_throughput
from repro.network.topology import three_tier

N = 50_000
#: ~1 Gbit/s in bytes per simulated millisecond
GIGABIT = 125_000.0


@pytest.fixture(scope="module")
def debs_events():
    return list(DebsGenerator(DebsConfig(players=8, rate=20_000.0), seed=2).events(N))


def random_queries(n, keys):
    config = QueryGeneratorConfig(
        keys=tuple(keys),
        window_types=(WindowType.TUMBLING, WindowType.SLIDING),
        decomposable_only=True,
    )
    return QueryGenerator(config, seed=7).queries(n)


def test_fig13a_real_world_query_scaling(debs_events, benchmark):
    generator = DebsGenerator(DebsConfig(players=8))
    keys = generator.keys[:8]
    systems = {
        "Desis": DesisProcessor,
        "DeSW": DeSWProcessor,
        "DeBucket": DeBucketProcessor,
        "CeBuffer": CeBufferProcessor,
    }
    counts = (10, 100, 1_000)
    table = {}
    for name, factory in systems.items():
        cells = []
        for n in counts:
            if name in ("DeBucket", "CeBuffer") and n > 100:
                cells.append(None)
                continue
            cells.append(run_processor(factory, random_queries(n, keys), debs_events))
        table[name] = cells
    print_table(
        "Fig 13a: throughput on synthetic DEBS data vs query count",
        ["system", *[f"{n} queries" for n in counts]],
        [
            [
                name,
                *[
                    fmt_rate(s.events_per_second) if s is not None else "-"
                    for s in cells
                ],
            ]
            for name, cells in table.items()
        ],
    )
    desis = table["Desis"]
    desw = table["DeSW"]
    # Paper: "Desis has about 4 times better performance" than DeSW —
    # the random function mix forces DeSW into many query-groups.
    assert desis[1].events_per_second > 2 * desw[1].events_per_second
    # Paper: beyond a high query count both decline because materializing
    # every query's results dominates (here already visible at 1000).
    assert desis[2].events_per_second < desis[1].events_per_second
    assert desis[2].results > desis[0].results
    benchmark.pedantic(
        lambda: run_processor(DesisProcessor, random_queries(100, keys), debs_events),
        rounds=1, iterations=1,
    )


def _pi_config():
    # Scale the Pi's 1G link down to keep simulated transfers in range
    # while preserving the ratio of event rate to bandwidth.
    return ClusterConfig(tick_interval=1_000, bandwidth_bytes_per_ms=GIGABIT / 1_000)


def test_fig13b_pi_cluster_scaling(benchmark):
    """Fig 13b: modeled sustainable throughput on the Pi cluster."""
    from repro.datagen import DataGenerator, DataGeneratorConfig
    from repro.harness import tumbling_queries

    rows = []
    rates = {}
    for n_pis in (1, 2, 4):
        streams = DataGenerator(
            DataGeneratorConfig(keys=tuple(f"k{i}" for i in range(10)),
                                rate=20_000.0),
            seed=3,
        ).streams(n_pis, 20_000)
        events = sum(len(s) for s in streams.values())
        desis = DesisCluster(
            tumbling_queries(1), three_tier(n_pis, 1), config=_pi_config()
        ).run(dict(streams))
        central = CentralizedCluster(
            tumbling_queries(1),
            three_tier(n_pis, 1),
            ScottyProcessor,
            config=_pi_config(),
        ).run(dict(streams))
        # Bandwidth-capped sustainable throughput for the centralized
        # system: bytes/event on the shared uplink vs the 1G budget.
        central_bytes_per_event = (
            central.network.data_bytes / 2 / events
        )
        central_rate = modeled_sustainable_throughput(
            node_rates=[central.modeled_parallel_throughput],
            bytes_per_event=central_bytes_per_event,
            link_bandwidth_bytes_per_s=GIGABIT * 1_000,
        )
        desis_bytes_per_event = desis.network.data_bytes / 2 / events
        desis_rate = modeled_sustainable_throughput(
            node_rates=[desis.modeled_parallel_throughput],
            bytes_per_event=desis_bytes_per_event,
            link_bandwidth_bytes_per_s=GIGABIT * 1_000,
        )
        rates[("Desis", n_pis)] = desis_rate
        rates[("Scotty", n_pis)] = central_rate
        rows.append([n_pis, fmt_rate(desis_rate), fmt_rate(central_rate)])
    print_table(
        "Fig 13b: modeled sustainable throughput on the Pi cluster (1G)",
        ["Pis", "Desis", "Scotty"],
        rows,
    )
    # Desis scales with Pis; Scotty's ceiling is the wire, so it cannot
    # gain a full node's worth per added Pi.
    assert rates[("Desis", 4)] > 2.5 * rates[("Desis", 1)]
    assert rates[("Scotty", 4)] < 2.5 * rates[("Scotty", 1)]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fig13cd_pi_network_and_latency(benchmark):
    from repro.datagen import DataGenerator, DataGeneratorConfig
    from repro.harness import tumbling_queries
    from repro.metrics import event_time_latencies
    import statistics

    streams = DataGenerator(
        DataGeneratorConfig(keys=("k",), rate=20_000.0), seed=3
    ).streams(2, 20_000)
    span_s = (
        max(s[-1].time for s in streams.values())
        - min(s[0].time for s in streams.values())
    ) / 1_000
    rows = []
    runs = {
        "Desis": DesisCluster(
            tumbling_queries(1), three_tier(2, 1), config=_pi_config()
        ).run(dict(streams)),
        "Scotty": CentralizedCluster(
            tumbling_queries(1),
            three_tier(2, 1),
            ScottyProcessor,
            config=_pi_config(),
        ).run(dict(streams)),
    }
    for name, run in runs.items():
        lags = event_time_latencies(run.sink)
        rows.append(
            [
                name,
                fmt_bytes(run.network.data_bytes / span_s) + "/s",
                f"{statistics.fmean(lags):.0f} ms" if lags else "-",
            ]
        )
    print_table(
        "Fig 13c/13d: network rate and mean latency on the Pi topology",
        ["system", "network rate", "mean event-time latency"],
        rows,
    )
    desis_rate = runs["Desis"].network.data_bytes / span_s
    scotty_rate = runs["Scotty"].network.data_bytes / span_s
    assert desis_rate < scotty_rate / 50
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
