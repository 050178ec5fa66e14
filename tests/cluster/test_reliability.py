"""Direct unit coverage for ``repro.cluster.reliability``.

The chaos suite exercises these pieces end-to-end; this file pins their
edge behavior in isolation — empty merger lists, heartbeat flapping, and
the retransmit-exhausted counter surfacing through the metrics registry.
"""

from __future__ import annotations

from repro.cluster import ClusterConfig, DesisCluster
from repro.cluster.merger import GroupMerger
from repro.cluster.reliability import (
    ChildLiveness,
    recovery_entries,
    resync_entries,
)
from repro.core.analyzer import analyze
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.network.messages import ControlMessage, ResyncMessage
from repro.network.simnet import FaultPlan
from repro.network.topology import three_tier
from repro.obs.registry import MetricsRegistry, publish_network_stats

from tests.cluster.test_desis_parity import TICK, make_streams
from tests.cluster.test_intermediate import build_merger, merger_kinds

NEVER = 10**9


def _merger(children=("a", "b"), origin=0):
    plan = analyze(
        [Query.of("t", WindowSpec.tumbling(1_000), AggFunction.SUM)],
        decentralized=True,
    )
    return GroupMerger(plan.groups[0], children, origin)


class TestResyncEntries:
    def test_zero_mergers_yield_no_entries(self):
        assert resync_entries([]) == {}

    def test_entries_restart_sequence_at_parent_coverage(self):
        merger = _merger(origin=500)
        merger.forwarded_to = 2_500
        assert resync_entries([merger]) == {0: (0, 2_500)}

    def test_recovery_entries_keep_checkpointed_cursors(self):
        merger = _merger(origin=0)
        merger.children["a"].next_seq = 7
        merger.children["a"].covered = 3_000
        assert recovery_entries([merger], "a") == {0: (7, 3_000)}
        # unknown children simply have no cursor — no entry, no KeyError
        assert recovery_entries([merger], "ghost") == {}
        assert recovery_entries([], "a") == {}


class TestChildLivenessFlapping:
    def test_evict_rejoin_cycles_count_separately(self):
        liveness = ChildLiveness(["a", "b"], origin=0, timeout=100)
        assert liveness.sweep(50) == []
        assert liveness.sweep(150) == ["a", "b"]
        assert liveness.soft_evictions == 2
        # both are remembered, not forgotten
        assert liveness.tracks("a") and liveness.tracks("b")
        # "a" flaps back; its beat is a rejoin, the next beat is not
        assert liveness.beat("a", 160) is True
        assert liveness.beat("a", 170) is False
        assert liveness.rejoins == 1
        # "a" goes silent again: a second eviction for the same child
        assert liveness.sweep(300) == ["a"]
        assert liveness.soft_evictions == 3
        assert liveness.beat("a", 310) is True
        assert liveness.rejoins == 2
        # "b" never came back and stays evicted throughout
        assert "b" in liveness.evicted

    def test_beat_from_unknown_child_is_ignored(self):
        liveness = ChildLiveness(["a"], origin=0, timeout=100)
        assert liveness.beat("stranger", 10) is False
        assert "stranger" not in liveness.last_seen
        assert liveness.rejoins == 0

    def test_hard_remove_forgets_even_evicted_children(self):
        liveness = ChildLiveness(["a"], origin=0, timeout=100)
        liveness.sweep(500)
        assert liveness.tracks("a")
        liveness.remove("a")
        assert not liveness.tracks("a")
        # a later beat is a stranger's, not a rejoin
        assert liveness.beat("a", 600) is False


class TestRetransmitExhaustionObservability:
    def test_exhaustion_counter_reaches_registry(self):
        streams = make_streams(3, 120)
        cluster = DesisCluster(
            [Query.of("t", WindowSpec.tumbling(1_000), AggFunction.SUM)],
            three_tier(3, 1),
            config=ClusterConfig(
                tick_interval=TICK,
                fault_plan=FaultPlan(seed=0, drop_rate=1.0),
                node_timeout=NEVER,
            ),
        )
        result = cluster.run({k: list(v) for k, v in streams.items()})
        registry = MetricsRegistry()
        publish_network_stats(registry, result.network)
        assert registry.value("net.retransmit_exhausted") > 0
        assert (
            registry.value("net.retransmit_exhausted")
            == result.network.retransmit_exhausted
        )


class TestSlowConsumerEviction:
    """The merger half's liveness (``repro.cluster.roles``), held once for
    both of its users: an intermediate and the root."""

    @merger_kinds
    def test_stalled_child_is_evicted_once_and_rejoins_on_a_heartbeat(
        self, kind, monkeypatch
    ):
        net, node, children = build_merger(
            kind,
            fault_plan=FaultPlan(seed=0),
            node_timeout=100,
            channel_credit_frames=4,
        )

        def beat(at, *senders):
            for child in senders:
                node.on_message(
                    ControlMessage(sender=child, kind="heartbeat", payload=at),
                    at, net,
                )

        # ``a``'s upward channel has been out of credit since t=0 while it
        # keeps beating, so only the stall can evict it; ``b`` beats on.
        monkeypatch.setattr(
            net, "channel_stalled_since", lambda src, dst: 0 if src == "a" else None
        )
        node.on_tick(100, net)  # not *past* node_timeout yet
        assert node.slow_consumer_evictions == 0
        beat(150, "a", "b")
        node.on_tick(200, net)
        beat(250, "b")
        node.on_tick(300, net)
        assert node.liveness.soft_evictions == 1  # no silence sweep
        assert node.slow_consumer_evictions == 1  # force-evicted once
        assert node.liveness.evicted == {"a"}
        assert list(node.mergers[0].children) == ["b"]
        assert node.children == ["a", "b"]  # soft: still a member
        for at in (400, 500):
            node.on_message(
                ControlMessage(sender="a", kind="heartbeat", payload=at), at, net
            )
        net.run()
        assert sorted(node.mergers[0].children) == ["a", "b"]
        assert node.liveness.rejoins == 1
        (resync,) = [m for m in children["a"].messages if isinstance(m, ResyncMessage)]
        assert resync.epoch == 1 and not resync.recover  # a fresh channel epoch
        assert resync.entries == {0: (0, node.mergers[0].forwarded_to)}
