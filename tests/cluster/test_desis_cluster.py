"""Behavioural tests for the Desis cluster: traffic shape and statistics."""

from __future__ import annotations

import pytest

from repro.baselines import ScottyProcessor
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster
from repro.network.topology import chain, three_tier

from tests.cluster.test_desis_parity import TICK, make_streams


def avg_query():
    return [Query.of("avg", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)]


def median_query():
    return [Query.of("med", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)]


def run_desis(queries, streams, topology, **kwargs):
    cluster = DesisCluster(
        queries, topology, config=ClusterConfig(tick_interval=TICK, **kwargs)
    )
    return cluster.run(streams), cluster


class TestNetworkShape:
    def test_partials_save_an_order_of_magnitude(self):
        """Fig 11a: decomposable partial results vs raw event shipping."""
        streams = make_streams(3, 1_000)
        desis, _ = run_desis(avg_query(), streams, three_tier(3, 1))
        central = CentralizedCluster(
            avg_query(),
            three_tier(3, 1),
            ScottyProcessor,
            config=ClusterConfig(tick_interval=TICK),
        ).run(make_streams(3, 1_000))
        assert desis.network.data_bytes < central.network.data_bytes / 10

    def test_non_decomposable_ships_everything(self):
        """Fig 11b: medians force all values to the root for everyone."""
        streams = make_streams(3, 1_000)
        desis, _ = run_desis(median_query(), streams, three_tier(3, 1))
        central = CentralizedCluster(
            median_query(),
            three_tier(3, 1),
            ScottyProcessor,
            config=ClusterConfig(tick_interval=TICK),
        ).run(make_streams(3, 1_000))
        # Same order of magnitude — no decomposable reduction possible.
        assert desis.network.data_bytes > central.network.data_bytes / 3

    def test_deep_topology_barely_costs_desis(self):
        """Sec 6.4.1: extra hops multiply centralized traffic, while the
        decentralized increase is negligible in absolute bytes."""
        def desis_bytes(hops):
            result, _ = run_desis(
                avg_query(), make_streams(2, 800), chain(2, hops=hops)
            )
            return result.network.data_bytes

        def central_bytes(hops):
            return CentralizedCluster(
                avg_query(),
                chain(2, hops=hops),
                ScottyProcessor,
                config=ClusterConfig(tick_interval=TICK),
            ).run(make_streams(2, 800)).network.data_bytes

        assert central_bytes(3) > 3 * central_bytes(0)
        assert desis_bytes(3) - desis_bytes(0) < central_bytes(0)

    def test_desis_traffic_flat_in_window_count(self):
        """Fig 11d: per-slice shipping is independent of concurrent windows."""
        def data_bytes(n):
            queries = [
                Query.of(f"q{i}", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)
                for i in range(n)
            ]
            result, _ = run_desis(queries, make_streams(2, 500), three_tier(2, 1))
            return result.network.data_bytes

        assert data_bytes(10) < 1.2 * data_bytes(1)

    def test_traffic_grows_with_keys(self):
        """Fig 11c: per-key partial results are shipped individually."""
        def data_bytes(n_keys):
            keys = tuple(f"k{i}" for i in range(n_keys))
            queries = [
                Query.of(
                    f"q-{key}",
                    WindowSpec.tumbling(1_000),
                    AggFunction.AVERAGE,
                    selection=__import__(
                        "repro.core.predicates", fromlist=["Selection"]
                    ).Selection(key=key),
                )
                for key in keys
            ]
            result, _ = run_desis(
                queries, make_streams(2, 600, keys=keys), three_tier(2, 1)
            )
            return result.network.data_bytes

        assert data_bytes(8) > 3 * data_bytes(1)

    def test_bandwidth_cap_delays_delivery(self):
        """Fig 13: a 1G-like cap makes event shipping the bottleneck."""
        streams = make_streams(2, 500)
        capped = CentralizedCluster(
            avg_query(),
            three_tier(2, 1),
            ScottyProcessor,
            config=ClusterConfig(
                tick_interval=TICK, bandwidth_bytes_per_ms=2.0
            ),
        ).run(streams)
        assert capped.sink.count > 0
        # The simulated clock ran far past event time while draining links.
        assert capped.network.total_bytes > 0


class TestStatsAndResults:
    def test_result_latency_is_positive_and_bounded(self):
        streams = make_streams(2, 400)
        last_event = max(e.time for s in streams.values() for e in s)
        result, _ = run_desis(avg_query(), streams, three_tier(2, 1))
        regular = [r for r in result.sink if r.end <= last_event]
        assert regular
        for r in regular:
            lag = r.emitted_at - r.end
            assert lag >= 0
            # one tick to cut + per-hop latency, with slack
            assert lag <= TICK + 100

    def test_local_stats_collected(self):
        streams = make_streams(2, 400)
        result, _ = run_desis(avg_query(), streams, three_tier(2, 1))
        assert set(result.local_stats) == {"local-0", "local-1"}
        assert sum(s.events for s in result.local_stats.values()) == 800

    def test_cpu_time_by_role(self):
        streams = make_streams(2, 400)
        result, _ = run_desis(avg_query(), streams, three_tier(2, 1))
        assert result.cpu_by_role[NodeRole.LOCAL] > 0
        assert result.cpu_by_role[NodeRole.ROOT] > 0
        assert result.throughput > 0

    def test_empty_local_stream_does_not_stall_coverage(self):
        streams = make_streams(2, 300)
        streams["local-2"] = []
        result, _ = run_desis(avg_query(), streams, three_tier(3, 1))
        assert result.sink.count > 0


class TestBatchedInjection:
    def test_fixed_session_and_median_mix_is_batch_invariant(self):
        """The end-to-end benchmark's query mix — fixed windows plus one
        session in the pushed-down group, MEDIAN in the root-evaluated one —
        on three tiers: per-tick batches (slice-run kernel at the locals,
        bisect cuts for the root-evaluated group) against per-event
        injection, same sink rows and the same bytes on the wire."""
        from repro.datagen.events import DataGenerator, DataGeneratorConfig
        from repro.interface import parse_query

        texts = [
            f"SELECT {fn}(value) FROM stream WINDOW TUMBLING {length} MS"
            for length in (100, 200, 500, 1000, 2000, 5000)
            for fn in ("AVG", "MAX")
        ]
        texts += [
            f"SELECT AVG(value) FROM stream WINDOW SLIDING {length} MS EVERY {slide} MS"
            for length, slide in ((1000, 100), (5000, 500), (6400, 100))
        ]
        texts.append("SELECT MEDIAN(value) FROM stream WINDOW TUMBLING 1000 MS")
        texts.append("SELECT COUNT(value) FROM stream WINDOW SESSION GAP 100 MS")
        generator = DataGeneratorConfig(
            keys=tuple(f"k{i}" for i in range(10)), rate=500.0,
            gap_every_ms=2_000, gap_ms=200,
        )

        def run(batch_ms):
            queries = [parse_query(t, query_id=f"q{i}") for i, t in enumerate(texts)]
            cluster = DesisCluster(
                queries, three_tier(4, 2),
                config=ClusterConfig(tick_interval=100, batch_ms=batch_ms),
            )
            assert [g.root_evaluated for g in cluster.plan.groups] == [False, True]
            result = cluster.run(DataGenerator(generator, seed=3).streams(4, 2_500))
            rows = [
                (r.query_id, r.start, r.end, r.value, r.event_count, r.emitted_at)
                for r in result.sink.results
            ]
            return rows, result.network.total_bytes, result.local_stats

        batched, per_event = run(100), run(None)
        assert len(batched[0]) > 300
        assert {"q15", "q16"} <= {row[0] for row in batched[0]}  # MEDIAN, session
        assert batched[0] == per_event[0]
        assert batched[1] == per_event[1]
        assert batched[2] == per_event[2]
