"""Decentralized aggregation in an IoT fleet (Sec 5, Figs 11-12).

Eight edge devices stream sensor readings through two gateways to a data
center.  Centralized processing ships every event to the root; Desis
pushes slicing to the devices and ships per-slice partial results,
saving ~99% of the traffic for decomposable functions.

Run with::

    python examples/decentralized_iot.py
"""

from __future__ import annotations

import statistics

from repro.baselines import ScottyProcessor
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.datagen import DataGenerator, DataGeneratorConfig
from repro.harness import fmt_bytes, print_table
from repro.interface import parse_query
from repro.metrics import event_time_latencies
from repro.network.topology import three_tier


def main() -> None:
    queries = [
        parse_query(
            "SELECT AVG(value) FROM stream WHERE key = 'temperature' "
            "WINDOW TUMBLING 10s",
            query_id="avg-temp",
        ),
        parse_query(
            "SELECT MAX(value) FROM stream WHERE key = 'vibration' "
            "WINDOW SLIDING 30s EVERY 10s",
            query_id="max-vibration",
        ),
        parse_query(
            "SELECT COUNT(value) FROM stream "
            "WHERE key = 'door' WINDOW SESSION GAP 20s",
            query_id="door-activity",
        ),
    ]
    topology = three_tier(n_locals=8, n_intermediates=2)
    generator = DataGenerator(
        DataGeneratorConfig(
            keys=("temperature", "vibration", "door"),
            key_weights=(6.0, 3.0, 1.0),
            rate=400.0,
            gap_every_ms=25_000,
            gap_ms=30_000,
        ),
        seed=11,
    )
    streams = generator.streams(8, 25_000)
    config = ClusterConfig(tick_interval=2_000, latency_ms=5.0)

    desis = DesisCluster(queries, topology, config=config).run(
        {k: list(v) for k, v in streams.items()}
    )
    central = CentralizedCluster(
        queries, topology, ScottyProcessor, config=config
    ).run({k: list(v) for k, v in streams.items()})

    rows = []
    for name, run in (("Desis (decentralized)", desis), ("Scotty (centralized)", central)):
        lags = event_time_latencies(run.sink)
        rows.append(
            [
                name,
                len(run.sink),
                fmt_bytes(run.network.data_bytes),
                f"{statistics.fmean(lags):.0f} ms" if lags else "-",
            ]
        )
    print_table(
        "8 edge devices, 2 gateways, 1 data center",
        ["deployment", "results", "network data", "mean result latency"],
        rows,
    )
    saved = 1 - desis.network.data_bytes / central.network.data_bytes
    print(f"\nDesis saves {saved:.1%} of network traffic.")

    same = sorted(
        (r.query_id, r.start, r.end, round(float(r.value), 6)) for r in desis.sink
    ) == sorted(
        (r.query_id, r.start, r.end, round(float(r.value), 6)) for r in central.sink
    )
    print(f"identical results: {same}")


if __name__ == "__main__":
    main()
