"""Unit tests for the intermediate node's merge-and-forward behaviour."""

from __future__ import annotations

import pytest

from repro.core.analyzer import analyze
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole, OperatorKind
from repro.cluster.checkpoint import InMemoryCheckpointStore
from repro.cluster.config import ClusterConfig
from repro.cluster.intermediate import IntermediateNode
from repro.cluster.root import RootNode
from repro.network.codec import BinaryCodec
from repro.network.messages import (
    CheckpointMessage,
    ContextPartial,
    ControlMessage,
    PartialBatchMessage,
    SliceRecord,
)
from repro.network.simnet import CrashWindow, FaultPlan, SimNetwork, SimNode

K = OperatorKind


class Inbox(SimNode):
    """A neighbour that only remembers what it was sent."""

    def __init__(self, node_id, role):
        super().__init__(node_id, role)
        self.messages = []

    def on_message(self, message, now, net):
        self.messages.append(message)


def build(*queries):
    plan = analyze(queries, decentralized=True)
    net = SimNetwork(default_codec=BinaryCodec(), default_latency_ms=0.0)
    sink = Inbox("root", NodeRole.ROOT)
    mid = IntermediateNode("mid", "root", ["a", "b"], plan, ClusterConfig())
    net.add_node(sink)
    net.add_node(mid)
    a = SimNode("a", NodeRole.LOCAL)
    b = SimNode("b", NodeRole.LOCAL)
    net.add_node(a)
    net.add_node(b)
    net.connect("mid", "root")
    net.connect("a", "mid")
    net.connect("b", "mid")
    return net, mid, sink


def record(start, end, total, count):
    return SliceRecord(
        start=start,
        end=end,
        contexts={0: ContextPartial(count=count, ops={K.SUM: total})},
    )


def batch(sender, seq, covered, records):
    return PartialBatchMessage(
        sender=sender,
        group_id=0,
        first_slice_seq=seq,
        covered_to=covered,
        records=records,
    )


def test_forwards_only_when_all_children_covered():
    net, mid, sink = build(
        Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    )
    mid.on_message(batch("a", 0, 1_000, [record(0, 1_000, 3.0, 2)]), 0, net)
    net.run()
    assert sink.messages == []  # b has not reported yet
    mid.on_message(batch("b", 0, 1_000, [record(0, 1_000, 4.0, 1)]), 0, net)
    net.run()
    (message,) = sink.messages
    assert message.covered_to == 1_000
    (merged,) = message.records
    assert merged.contexts[0].ops[K.SUM] == 7.0
    assert merged.contexts[0].count == 3


def test_own_slice_sequence_assigned():
    net, mid, sink = build(
        Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    )
    for covered in (1_000, 2_000):
        seq = covered // 1_000 - 1
        mid.on_message(
            batch("a", seq, covered, [record(covered - 1_000, covered, 1.0, 1)]),
            0,
            net,
        )
        mid.on_message(
            batch("b", seq, covered, [record(covered - 1_000, covered, 1.0, 1)]),
            0,
            net,
        )
    net.run()
    first, second = sink.messages
    assert first.first_slice_seq == 0
    assert second.first_slice_seq == 1  # one merged record forwarded before


def test_heartbeats_relayed_upward():
    net, mid, sink = build(
        Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    )
    mid.on_message(
        ControlMessage(sender="a", kind="heartbeat", payload=5_000), 0, net
    )
    net.run()
    (message,) = sink.messages
    assert isinstance(message, ControlMessage)
    assert message.sender == "a"  # original sender preserved for timeouts


def test_dead_intermediate_forwards_nothing():
    net, mid, sink = build(
        Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    )
    mid.alive = False
    mid.on_message(batch("a", 0, 1_000, [record(0, 1_000, 1.0, 1)]), 0, net)
    mid.on_message(batch("b", 0, 1_000, [record(0, 1_000, 1.0, 1)]), 0, net)
    net.run()
    assert sink.messages == []


def test_child_membership_changes():
    net, mid, sink = build(
        Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    )
    mid.remove_child("b")
    mid.on_message(batch("a", 0, 1_000, [record(0, 1_000, 2.0, 1)]), 0, net)
    net.run()
    (message,) = sink.messages  # no longer waits for b
    assert message.records[0].contexts[0].ops[K.SUM] == 2.0
    mid.add_child("c", 0)
    assert "c" in mid.children


# -- the merger half, held once for both of its users (repro.cluster.roles) ----------

QUERY = Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)

#: where shed coverage lands, per role: on its way up, or in the ledger
SHED_LANDS = {
    "intermediate": lambda node: node._shed_pending[0],
    "root": lambda node: node.assemblers[0].shed,
}


def build_merger(kind, **cfg):
    """A merging node ``m`` over children ``a`` and ``b`` (and, for an
    intermediate, under parent ``p``), wired into a real network."""
    config = ClusterConfig(**cfg)
    plan = analyze([QUERY], decentralized=True)
    net = SimNetwork(
        default_codec=BinaryCodec(),
        default_latency_ms=0.0,
        fault_plan=config.fault_plan,
    )
    if kind == "root":
        node = RootNode("m", ["a", "b"], plan, config)
    else:
        node = IntermediateNode("m", "p", ["a", "b"], plan, config)
        net.add_node(Inbox("p", NodeRole.ROOT))
    net.add_node(node)
    children = {name: Inbox(name, NodeRole.LOCAL) for name in ("a", "b")}
    for name, child in children.items():
        net.add_node(child)
        net.connect(name, "m")
    if kind == "intermediate":
        net.connect("m", "p")
    return net, node, children


merger_kinds = pytest.mark.parametrize("kind", ["intermediate", "root"])


@merger_kinds
def test_add_child_is_idempotent_and_joins_now(kind):
    net, node, _ = build_merger(kind, fault_plan=FaultPlan(seed=0))
    node.add_child("c", 700)
    node.add_child("c", 900)
    assert node.children == ["a", "b", "c"]
    assert all(list(merger.children) == ["a", "b", "c"] for merger in node.mergers)
    # seeded at the join time, so never swept for silence it predates
    assert node.liveness.last_seen["c"] == 700
    node.remove_child("c")
    assert node.children == ["a", "b"]
    assert not node.liveness.tracks("c")


@merger_kinds
def test_staging_overflow_sheds_oldest_to_the_low_watermark(kind):
    net, node, _ = build_merger(kind, staging_limit=4, shed_watermark=0.5)
    # ``b`` never reports, so nothing is released: six records stage.
    records = [record(t, t + 100, 1.0, 1) for t in range(0, 600, 100)]
    node.on_message(batch("a", 0, 600, records), 0, net)
    assert node.slices_shed == 4  # down to 4 * 0.5, not just under the cap
    assert node.mergers[0].staging_occupancy() == node.peak_staging == 2
    assert SHED_LANDS[kind](node) == [
        ("m", t, t + 100) for t in range(0, 400, 100)
    ]
    assert net.records_shed == 4


@merger_kinds
def test_checkpoint_is_due_by_interval_or_slices_never_while_crashed(kind):
    store = InMemoryCheckpointStore()
    net, node, children = build_merger(
        kind,
        checkpoint_interval=1_000,
        checkpoint_every_slices=3,
        fault_plan=FaultPlan(seed=0, crashes=(CrashWindow("m", 5_000, 6_000),)),
    )
    node.store = store
    node.on_tick(500, net)
    assert node.checkpoints_taken == 0
    node.on_tick(1_000, net)  # the interval
    assert node.checkpoints_taken == 1
    for child in ("a", "b"):  # three merged slices, well inside the interval
        records = [record(t, t + 100, 1.0, 1) for t in range(0, 300, 100)]
        node.on_message(batch(child, 0, 300, records), 1_200, net)
    assert node.checkpoints_taken == 2
    node.on_tick(5_500, net)  # due, but a crashed process takes no snapshot
    assert node.checkpoints_taken == 2
    node.on_tick(6_000, net)
    assert node.checkpoints_taken == store.saves == 3
    assert store.load_latest("m")[0] == 3
    net.run()
    trims = [m for m in children["a"].messages if isinstance(m, CheckpointMessage)]
    assert [m.checkpoint_id for m in trims] == [1, 2, 3]
    # an intermediate's trim is capped by the floor its own parent sent
    assert trims[-1].safe_to == {0: 300 if kind == "root" else 0}
