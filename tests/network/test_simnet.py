"""Tests for the discrete-event simulated network."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TopologyError
from repro.core.event import Event
from repro.core.types import NodeRole
from repro.network.codec import BinaryCodec, StringCodec
from repro.network.messages import ControlMessage, EventBatchMessage
from repro.network.simnet import (
    MAX_RETRIES,
    RETRANSMIT_TIMEOUT_MS,
    CrashWindow,
    FaultPlan,
    LinkFaults,
    SimNetwork,
    SimNode,
)


class Recorder(SimNode):
    """Test node that records everything it sees."""

    def __init__(self, node_id, role=NodeRole.ROOT):
        super().__init__(node_id, role)
        self.events: list[tuple[int, Event]] = []
        self.messages: list[tuple[int, object]] = []
        self.ticks: list[int] = []

    def on_events(self, events, now, net):
        self.events.extend((now, event) for event in events)

    def on_message(self, message, now, net):
        self.messages.append((now, message))

    def on_tick(self, now, net):
        self.ticks.append(now)


class Forwarder(Recorder):
    """Forwards every event upstream immediately as a one-event batch."""

    def __init__(self, node_id, parent):
        super().__init__(node_id, NodeRole.LOCAL)
        self.parent = parent

    def on_events(self, events, now, net):
        super().on_events(events, now, net)
        for event in events:
            net.send(
                self.node_id,
                self.parent,
                EventBatchMessage(
                    sender=self.node_id, covered_to=now, events=[event]
                ),
            )


#: the injection grid of these tests: one timestamp per batch
GRID = 1


def build(latency=2.0, bandwidth=None, codec=None):
    net = SimNetwork(
        latency_ms=latency,
        bandwidth_bytes_per_ms=bandwidth,
        codec=codec if codec is not None else BinaryCodec(),
    )
    root = Recorder("root")
    local = Forwarder("local", "root")
    net.add_node(root)
    net.add_node(local)
    net.connect("local", "root")
    return net, root, local


class TestDelivery:
    def test_events_arrive_in_time_order(self):
        net, root, local = build()
        net.inject_stream("local", [Event(10, "a", 1.0), Event(30, "a", 2.0)], GRID)
        net.run()
        assert [e.time for _, e in local.events] == [10, 30]

    def test_messages_delayed_by_latency(self):
        net, root, local = build(latency=5.0)
        net.inject_stream("local", [Event(10, "a", 1.0)], GRID)
        net.run()
        (arrival, message), = root.messages
        assert arrival == 15
        assert message.events[0] == Event(10, "a", 1.0)

    def test_roundtrip_through_codec(self):
        net, root, local = build(codec=StringCodec())
        net.inject_stream("local", [Event(10, "a", 1.5, "end")], GRID)
        net.run()
        (_, message), = root.messages
        assert isinstance(message, EventBatchMessage)
        assert message.events[0].marker == "end"

    def test_bandwidth_cap_serializes_transfers(self):
        # 1 byte/ms: two back-to-back messages queue behind each other.
        net, root, local = build(latency=0.0, bandwidth=1.0)
        net.inject_stream(
            "local", [Event(0, "a", 1.0), Event(0, "a", 2.0)], GRID
        )
        net.run()
        first, second = (t for t, _ in root.messages)
        size = net.links[("local", "root")].bytes_sent / 2
        assert first == pytest.approx(size, rel=0.1)
        assert second == pytest.approx(2 * size, rel=0.1)

    def test_ticks_fire_between_events(self):
        net, root, local = build()
        net.inject_stream("local", [Event(0, "a", 1.0), Event(100, "a", 1.0)], GRID)
        net.schedule_ticks("local", start=0, end=100, interval=25)
        net.run()
        assert local.ticks == [25, 50, 75, 100]

    def test_run_until_pauses(self):
        net, root, local = build()
        net.inject_stream("local", [Event(10, "a", 1.0), Event(500, "a", 2.0)], GRID)
        net.run(until=100)
        assert len(local.events) == 1
        net.run()
        assert len(local.events) == 2


class Batches(SimNode):
    """Test node that keeps each delivered batch with its delivery time."""

    def __init__(self):
        super().__init__("local", NodeRole.LOCAL)
        self.batches: list[tuple[int, list[Event]]] = []

    def on_events(self, events, now, net):
        self.batches.append((now, events))


class TestInjectStream:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 40), max_size=60),
        grid=st.integers(1, 50),
        cuts=st.lists(st.integers(0, 1_200), max_size=8, unique=True),
    )
    def test_batches_split_the_stream_at_grid_points_and_cuts(
        self, steps, grid, cuts
    ):
        times, t = [], 0
        for step in steps:
            t += step
            times.append(t)
        stream = [Event(time, "k", float(i)) for i, time in enumerate(times)]
        net = SimNetwork()
        node = Batches()
        net.add_node(node)
        cuts = sorted(cuts)
        last = net.inject_stream("local", stream, grid, cuts)
        net.run()
        assert last == (times[-1] if times else 0)
        # the batches concatenate back to the stream
        assert [e for _, batch in node.batches for e in batch] == stream
        points = [*range(0, (times[-1] if times else 0) + grid, grid), *cuts]
        for now, batch in node.batches:
            first, end = batch[0].time, batch[-1].time
            # each batch is scheduled at its first event's time
            assert now == first
            # no grid point or cut p with first <= p < end: an event
            # stamped p goes before p, the events after it after
            assert not [p for p in points if first <= p < end]
            if grid == 1:
                assert end == first  # one timestamp per batch

    def test_an_action_at_a_cut_runs_between_its_batches(self):
        net = SimNetwork()
        node = Batches()
        net.add_node(node)
        stream = [Event(t, "k", 1.0) for t in (10, 20, 30, 40, 60)]
        net.inject_stream("local", stream, 100, [30])
        net.run(until=30)
        assert [e.time for _, batch in node.batches for e in batch] == [10, 20, 30]
        net.run()
        assert [[e.time for e in batch] for _, batch in node.batches] == [
            [10, 20, 30], [40, 60]
        ]

    def test_grid_must_be_positive(self):
        net = SimNetwork()
        net.add_node(Batches())
        with pytest.raises(TopologyError):
            net.inject_stream("local", [Event(0, "k", 1.0)], 0)


class TestAccounting:
    def test_stats_rollup(self):
        net, root, local = build()
        net.inject_stream("local", [Event(10, "a", 1.0), Event(20, "a", 2.0)], GRID)
        net.run()
        stats = net.stats()
        assert stats.total_messages == 2
        assert stats.bytes_by_link[("local", "root")] > 0
        assert stats.bytes_from_role[NodeRole.LOCAL] == stats.total_bytes
        assert net.cpu_time_by_role()[NodeRole.LOCAL] > 0.0

    def test_send_without_link_raises(self):
        net, root, local = build()
        with pytest.raises(TopologyError):
            net.send("root", "ghost", ControlMessage(sender="root", kind="x"))

    def test_duplicate_node_rejected(self):
        net, root, local = build()
        with pytest.raises(TopologyError):
            net.add_node(Recorder("root"))

    def test_inject_into_unknown_node_raises(self):
        net, root, local = build()
        with pytest.raises(TopologyError):
            net.inject_stream("ghost", [Event(0, "a", 1.0)], GRID)


def build_reliable(plan, *, latency=2.0):
    net = SimNetwork(latency_ms=latency, codec=BinaryCodec(), fault_plan=plan)
    root = Recorder("root")
    local = Forwarder("local", "root")
    net.add_node(root)
    net.add_node(local)
    net.connect("local", "root")
    return net, root, local


STREAM = [Event(100 * (i + 1), "a", float(i)) for i in range(8)]


def batch_times(root):
    """covered_to of each delivered batch — the in-order witness."""
    return [m.covered_to for _, m in root.messages]


class TestReliableChannel:
    def test_zero_rate_plan_delivers_in_order_with_acks(self):
        net, root, local = build_reliable(FaultPlan(seed=0))
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        assert batch_times(root) == [e.time for e in STREAM]
        stats = net.stats()
        assert stats.acks == len(STREAM)
        assert stats.drops == 0
        assert stats.retransmits == 0
        assert stats.dedup_dropped == 0

    def test_drops_are_retransmitted_exactly_once_in_order(self):
        net, root, local = build_reliable(FaultPlan(seed=1, drop_rate=0.3))
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        assert batch_times(root) == [e.time for e in STREAM]
        stats = net.stats()
        assert stats.drops > 0
        assert stats.retransmits > 0
        assert stats.retransmit_exhausted == 0

    def test_duplicates_are_deduplicated(self):
        net, root, local = build_reliable(FaultPlan(seed=2, duplicate_rate=1.0))
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        assert batch_times(root) == [e.time for e in STREAM]
        stats = net.stats()
        assert stats.duplicates >= len(STREAM)
        assert stats.dedup_dropped >= len(STREAM)

    def test_reorder_and_jitter_still_deliver_in_order(self):
        plan = FaultPlan(seed=3, reorder_rate=1.0, reorder_delay_ms=40.0, jitter_ms=9.0)
        net, root, local = build_reliable(plan)
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        assert batch_times(root) == [e.time for e in STREAM]

    def test_sender_crash_buffers_and_reships_after_restart(self):
        plan = FaultPlan(seed=0, crashes=(CrashWindow("local", 250, 650),))
        net, root, local = build_reliable(plan)
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        # Crash is a partition: the local still sees its own events...
        assert [e.time for _, e in local.events] == [e.time for e in STREAM]
        # ...and everything buffered during the outage arrives, in order,
        # only after the restart.
        assert batch_times(root) == [e.time for e in STREAM]
        crashed = [t for t, m in root.messages if 250 <= m.covered_to < 650]
        assert crashed and min(crashed) >= 650

    def test_receiver_crash_drops_inbound_until_restart(self):
        plan = FaultPlan(seed=0, crashes=(CrashWindow("root", 250, 650),))
        net, root, local = build_reliable(plan)
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        assert batch_times(root) == [e.time for e in STREAM]
        stats = net.stats()
        assert stats.drops > 0  # dead interface while crashed
        assert stats.retransmits > 0

    def test_exhausted_retries_give_up_and_terminate(self):
        net, root, local = build_reliable(FaultPlan(seed=0, drop_rate=1.0))
        net.inject_stream("local", list(STREAM), GRID)
        net.run()  # must not spin forever
        assert root.messages == []
        stats = net.stats()
        assert stats.retransmits == MAX_RETRIES * len(STREAM)
        assert stats.retransmit_exhausted == len(STREAM)
        # the last frame is abandoned after the full doubling schedule:
        # retry k fires RETRANSMIT_TIMEOUT_MS * 2**(k-1) after retry k-1
        assert net.now == STREAM[-1].time + RETRANSMIT_TIMEOUT_MS * (
            2 ** (MAX_RETRIES + 1) - 1
        )

    def test_same_seed_replays_identically(self):
        def run_once():
            plan = FaultPlan(seed=7, drop_rate=0.25, duplicate_rate=0.2, jitter_ms=4.0)
            net, root, local = build_reliable(plan)
            net.inject_stream("local", list(STREAM), GRID)
            net.run()
            s = net.stats()
            return (
                [(t, m.covered_to) for t, m in root.messages],
                s.drops, s.duplicates, s.retransmits, s.dedup_dropped, s.total_bytes,
            )

        assert run_once() == run_once()

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            CrashWindow("x", 100, 100)


class TestReliableAccounting:
    def _stats(self, plan, **kw):
        net, root, local = build_reliable(plan, **kw)
        net.inject_stream("local", list(STREAM), GRID)
        net.run()
        return net.stats()

    def test_retransmits_bill_the_data_bucket(self):
        zero = self._stats(FaultPlan(seed=0))
        drop = self._stats(FaultPlan(seed=4, drop_rate=0.3))
        assert drop.retransmit_bytes > 0
        assert drop.data_bytes == zero.data_bytes + drop.retransmit_bytes
        assert drop.goodput_data_bytes == zero.data_bytes

    def test_acks_bill_the_control_bucket(self):
        none = SimNetwork(latency_ms=2.0, codec=BinaryCodec())
        none.add_node(Recorder("root"))
        none.add_node(Forwarder("local", "root"))
        none.connect("local", "root")
        none.inject_stream("local", list(STREAM), GRID)
        none.run()
        zero = self._stats(FaultPlan(seed=0))
        assert zero.ack_bytes > 0
        assert zero.control_bytes == none.stats().control_bytes + zero.ack_bytes
