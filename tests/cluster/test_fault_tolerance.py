"""Fault tolerance and runtime management tests (Sec 3.2)."""

from __future__ import annotations

import pytest

from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.cluster import ClusterConfig, DesisCluster
from repro.cluster.local import LocalNode
from repro.network.simnet import FaultPlan
from repro.network.topology import star, three_tier

from tests.cluster.test_desis_parity import TICK, make_streams


def avg(qid="avg", length=1_000):
    return Query.of(qid, WindowSpec.tumbling(length), AggFunction.AVERAGE)


def build(queries, topo, **cfg):
    return DesisCluster(
        queries, topo, config=ClusterConfig(tick_interval=TICK, **cfg)
    )


class TestRuntimeQueries:
    def test_add_query_mid_run(self):
        streams = make_streams(2, 600)
        cluster = build([avg()], three_tier(2, 1))
        result = cluster.run(
            streams,
            actions=[(3_000, lambda c: c.add_query(avg("late", 500)))],
        )
        late = result.sink.for_query("late")
        assert late
        assert min(r.start for r in late) >= 3_000
        assert result.sink.for_query("avg")

    def test_add_duplicate_query_rejected(self):
        cluster = build([avg()], star(1))
        with pytest.raises(ClusterError):
            cluster.add_query(avg())

    def test_remove_query_mid_run(self):
        streams = make_streams(2, 600)
        cluster = build([avg("keep"), avg("drop", 500)], three_tier(2, 1))
        result = cluster.run(
            streams,
            actions=[(3_000, lambda c: c.remove_query("drop"))],
        )
        dropped = result.sink.for_query("drop")
        kept = result.sink.for_query("keep")
        assert max(r.end for r in kept) > 3_000
        assert all(r.end <= 3_500 for r in dropped)

    def test_root_evaluated_survivor_of_a_removed_count_query(self):
        """Once the group's last count-window query goes, the root still
        derives operators from the timed pairs the locals ship."""
        median = Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)
        count = Query.of(
            "c", WindowSpec.tumbling(10, measure=WindowMeasure.COUNT),
            AggFunction.SUM,
        )

        def rows(queries, actions=None):
            cluster = DesisCluster(
                queries, three_tier(2, 1), config=ClusterConfig(tick_interval=100)
            )
            result = cluster.run(make_streams(2, 1_500), actions=actions)
            return [
                (r.start, r.end, r.value, r.event_count)
                for r in result.sink.for_query("m")
            ]

        got = rows(
            [median, count], actions=[(3_000, lambda c: c.remove_query("c"))]
        )
        alone = rows([median])
        assert (3_000, 4_000, 43.5, 360) in alone
        assert got == alone


class TestMembership:
    def test_add_local_node_mid_run(self):
        streams = make_streams(2, 600)
        extra = [Event(4_000 + 10 * i, "k", float(i)) for i in range(200)]
        cluster = build([avg()], three_tier(2, 1))
        result = cluster.run(
            streams,
            actions=[
                (3_500, lambda c: c.add_local_node("local-9", "mid-0", extra))
            ],
        )
        assert "local-9" in result.local_stats
        assert result.local_stats["local-9"].events == 200
        # its stream outlasts the others', so they tick on to its end, and
        # no window waits for the end-of-stream flush
        assert max(r.end for r in result.sink) == 6_000
        assert all(r.emitted_at - r.end <= TICK for r in result.sink)

    def test_a_local_added_without_a_stream_ticks_to_the_end(self):
        """An added local ticks up to the deployment's end boundary
        whatever its own stream holds: its parent's coverage never waits
        on it (at the parent commit, every row waited for the flush at
        the end of the stream)."""
        tick = 100

        def run(actions=None):
            cluster = DesisCluster(
                [avg()], three_tier(2, 1), config=ClusterConfig(tick_interval=tick)
            )
            return cluster.run(make_streams(2, 1_500), actions=actions).sink

        added = run([(1_000, lambda c: c.add_local_node("local-9", "mid-0"))])
        assert [(r.start, r.value) for r in added] == [
            (r.start, r.value) for r in run()
        ]
        assert all(r.emitted_at - r.end <= tick for r in added)

    def test_a_local_added_before_the_run_ticks_once_per_grid_point(
        self, monkeypatch
    ):
        """``add_local_node`` before ``run()`` leaves the new local's
        ticks and the topology announcement to ``run()``, which ticks
        every local once per grid point up to the end boundary (before,
        the new local ticked 33 times on 18 distinct times), so the run
        is the one with the node in the topology from the start."""
        ticks: dict[tuple[str, int], int] = {}
        on_tick = LocalNode.on_tick

        def counting(node, now, net):
            key = (node.node_id, now)
            ticks[key] = ticks.get(key, 0) + 1
            on_tick(node, now, net)

        monkeypatch.setattr(LocalNode, "on_tick", counting)
        cluster = DesisCluster(
            [avg()], three_tier(2, 1), config=ClusterConfig(tick_interval=100)
        )
        extra = [Event(500 + 10 * i, "k", float(i)) for i in range(100)]
        cluster.add_local_node("local-9", "mid-0", extra)
        result = cluster.run(make_streams(2, 300))
        assert result.local_stats["local-9"].events == 100
        assert set(ticks.values()) == {1}
        times = {
            node: sorted(t for n, t in ticks if n == node)
            for node in ("local-0", "local-1", "local-9")
        }
        assert times["local-9"] == times["local-0"] == times["local-1"]
        assert times["local-9"] == list(range(100, times["local-9"][-1] + 1, 100))
        # the same run as with the node in the topology from the start
        streams = {**make_streams(2, 300), "local-2": extra}
        monkeypatch.setattr(LocalNode, "on_tick", on_tick)
        built = DesisCluster(
            [avg()], three_tier(3, 1), config=ClusterConfig(tick_interval=100)
        ).run(streams)
        assert [(r.start, r.value, r.emitted_at) for r in result.sink] == [
            (r.start, r.value, r.emitted_at) for r in built.sink
        ]
        assert result.network.total_bytes == built.network.total_bytes

    @pytest.mark.parametrize("at", [None, 1_000])
    def test_an_added_locals_events_are_counted(self, at):
        """``events`` counts an added local's stream, whether it was added
        before ``run()`` or as an action, like the locals' own stats (at
        the parent commit it counted only the streams given to ``run()``,
        600 both times)."""
        cluster = DesisCluster(
            [avg()], three_tier(2, 1), config=ClusterConfig(tick_interval=100)
        )
        extra = [Event(1_500 + 10 * i, "k", float(i)) for i in range(100)]

        def add(c):
            c.add_local_node("local-9", "mid-0", extra)

        if at is None:
            add(cluster)
        result = cluster.run(
            make_streams(2, 300), actions=[(at, add)] if at is not None else None
        )
        assert result.events == 700
        assert result.events == sum(s.events for s in result.local_stats.values())

    def test_remove_local_node_mid_run(self):
        streams = make_streams(3, 600)
        cluster = build([avg()], three_tier(3, 1))
        result = cluster.run(
            streams,
            actions=[(3_000, lambda c: c.remove_node("local-2"))],
        )
        # Results keep flowing after the removal.
        assert any(r.end > 4_000 for r in result.sink)
        assert "local-2" not in cluster.topology.nodes()

    def test_a_removed_local_ingests_nothing_more(self):
        # Its stream keeps arriving after the removal; the node takes none
        # of it, as it takes no tick.
        streams = make_streams(2, 600)
        cluster = DesisCluster(
            [avg()], three_tier(2, 1), config=ClusterConfig(tick_interval=100)
        )
        removed = cluster.locals["local-0"]
        calls = []
        on_events = removed.on_events

        def counted(events, now, net):
            calls.append(len(events))
            on_events(events, now, net)

        removed.on_events = counted
        cluster.run(streams, actions=[(500, lambda c: c.remove_node("local-0"))])
        before = sum(1 for event in streams["local-0"] if event.time <= 500)
        assert 0 < before < len(streams["local-0"]) == sum(calls)
        assert removed.stats.events == before
        assert removed.groups[0].runtime.stream_time <= 500

    def test_a_removed_locals_later_events_are_not_counted(self):
        """``events`` counts what the locals took, a removed one's included,
        and its stats stay in ``local_stats`` (at the parent commit
        ``events`` read 1 200, though no node took local-0's events after
        the removal, and ``local_stats`` no longer listed it)."""
        streams = make_streams(2, 600)
        cluster = DesisCluster(
            [avg()], three_tier(2, 1), config=ClusterConfig(tick_interval=100)
        )
        result = cluster.run(
            streams, actions=[(500, lambda c: c.remove_node("local-0"))]
        )
        taken = sum(1 for event in streams["local-0"] if event.time <= 500)
        assert result.local_stats["local-0"].events == taken
        assert result.events == sum(s.events for s in result.local_stats.values())
        assert result.events == taken + 600 < 1_200

    def test_remove_node_leaves_no_stale_state(self):
        # Regression: hard removal must free *all* per-child state — the
        # reliable-channel tables (else retransmits fire into the void),
        # the parent's merger cursors, and the liveness ledgers.
        streams = make_streams(3, 600)
        cluster = build(
            [avg()],
            star(3),
            fault_plan=FaultPlan(seed=5, drop_rate=0.05),
            node_timeout=10**9,
        )
        cluster.run(
            streams,
            actions=[(3_000, lambda c: c.remove_node("local-2"))],
        )
        for table in (
            cluster.net._send_channels,
            cluster.net._recv_channels,
            cluster.net._rngs,
        ):
            assert not [key for key in table if "local-2" in key]
        for merger in cluster.root.mergers:
            assert "local-2" not in merger.children
        assert "local-2" not in cluster.root.last_seen
        if cluster.root.liveness is not None:
            assert "local-2" not in cluster.root.liveness.last_seen

    def test_remove_unknown_node_rejected(self):
        cluster = build([avg()], star(2))
        with pytest.raises(ClusterError):
            cluster.remove_node("ghost")

    def test_heartbeat_timeout_eviction(self):
        streams = make_streams(2, 800)
        # node_timeout=3 * TICK beats every tick
        cluster = build([avg()], star(2), node_timeout=3 * TICK)
        assert cluster.config.heartbeat_interval == TICK

        def kill(c):
            c.locals["local-1"].alive = False

        def evict(c):
            dead = c.evict_timed_out()
            assert dead == ["local-1"]

        last = max(e.time for s in streams.values() for e in s)
        result = cluster.run(
            streams,
            actions=[(2_000, kill), (last - 100, evict)],
        )
        assert "local-1" not in cluster.topology.nodes()
        # Coverage resumed after eviction: windows past the kill time were
        # produced from the surviving node.
        assert any(r.end > 2_500 for r in result.sink)

    def test_no_eviction_while_heartbeats_flow(self):
        streams = make_streams(2, 600)
        cluster = build([avg()], star(2), node_timeout=3 * TICK)
        assert cluster.config.heartbeat_interval == TICK
        checked = []

        def check(c):
            checked.append(c.evict_timed_out())

        last = max(e.time for s in streams.values() for e in s)
        cluster.run(streams, actions=[(last - 100, check)])
        assert checked == [[]]
