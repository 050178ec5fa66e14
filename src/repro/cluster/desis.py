"""The Desis decentralized deployment (Sec 3, Sec 5).

:class:`DesisCluster` wires local, intermediate, and root nodes over the
simulated network, broadcasts the window attributes (query-groups), drives
the local event streams and watermark ticks, and collects results, traffic,
and per-node work statistics.

Runtime management (Sec 3.2) is supported through scheduled *actions*:
``add_query`` / ``remove_query`` and ``add_local_node`` / ``remove_node``
can be invoked mid-run, and heartbeat timeouts surface dead nodes via
``evict_timed_out``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.analyzer import QueryGroup, QueryPlan, analyze
from repro.core.engine import EngineStats
from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.query import Query
from repro.core.results import ResultSink
from repro.core.serde import query_to_dict
from repro.core.types import NodeRole, SharingPolicy
from repro.cluster.checkpoint import (
    CheckpointStore,
    DirCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.intermediate import IntermediateNode
from repro.cluster.local import LocalNode
from repro.cluster.reliability import resync_entries
from repro.cluster.root import RootNode
from repro.network.messages import ControlMessage, ResyncMessage
from repro.network.simnet import NetworkStats, SimNetwork
from repro.network.topology import Topology
from repro.obs.log import get_logger, kv
from repro.obs.tracing import NULL_RECORDER, TraceRecorder

_log = get_logger(__name__)

__all__ = ["DesisCluster", "ClusterRunResult"]


@dataclass(slots=True)
class ClusterRunResult:
    """Everything a decentralized run produced."""

    sink: ResultSink
    network: NetworkStats
    cpu_by_role: dict[NodeRole, float]
    wall_seconds: float
    events: int
    local_stats: dict[str, EngineStats] = field(default_factory=dict)
    node_cpu: dict[str, float] = field(default_factory=dict)
    #: the run's trace recorder (the shared no-op unless ``config.trace``);
    #: feed emitted results to ``recorder.explain_window`` for provenance
    recorder: TraceRecorder = field(default_factory=lambda: NULL_RECORDER)
    #: recovery accounting (DESIGN.md §8): checkpoints persisted, nodes
    #: restored from a state-losing crash, children rerouted at failover,
    #: and replayed window results the exactly-once ledger kept out of the
    #: sink.  All zero when checkpointing is off and no node loses state.
    checkpoints: int = 0
    recoveries: int = 0
    reroutes: int = 0
    duplicates_suppressed: int = 0
    #: merge operator executions during root window assembly, three terms:
    #: ``merge_partials`` calls folding released records into cells (one
    #: per record, context and kind beyond a cell's first record — zero
    #: where the merger already merged equal intervals), partials read by
    #: plain scans (cells x kinds per close of a tumbling or sorted-run
    #: window, and per user-defined close), and Two-Stacks merges
    #: (amortized <= 3 per cell and kind: push, flip, query — what the
    #: scans of overlapping windows are traded for; repro.core.incmerge)
    root_merge_ops: int = 0
    #: overload-control accounting (DESIGN.md §12): windows emitted with
    #: ``completeness`` below 1.0, whole slices deliberately shed under
    #: the staging cap, the cluster-wide staging high-water mark, and
    #: children soft-evicted for persistent credit stalls.  All zero
    #: without the opt-in caps.
    degraded_windows: int = 0
    slices_shed: int = 0
    peak_staging: int = 0
    slow_consumer_evictions: int = 0

    @property
    def throughput(self) -> float:
        """Events per wall-clock second across the whole cluster run.

        The simulation executes every node on one CPU, so this is total
        cluster work, not scale-out throughput — see
        :attr:`modeled_parallel_throughput` for the paper's metric.
        """
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def bottleneck_node(self) -> tuple[str, float]:
        """The node whose handlers consumed the most CPU time."""
        if not self.node_cpu:
            return ("", 0.0)
        node = max(self.node_cpu, key=self.node_cpu.__getitem__)
        return node, self.node_cpu[node]

    @property
    def modeled_parallel_throughput(self) -> float:
        """Sustainable throughput with one core per node (Sec 6.1).

        Every node runs concurrently in a real deployment, so the system
        sustains ``events / busiest-node-time``: pushed-down aggregation
        scales with local nodes (Fig 7a) while root-bound work does not
        (Fig 7b).
        """
        _, busiest = self.bottleneck_node
        return self.events / busiest if busiest > 0 else 0.0


class DesisCluster:
    """A Desis deployment over a topology (Sec 2.4)."""

    name = "Desis"

    def __init__(
        self,
        queries: Iterable[Query],
        topology: Topology,
        *,
        config: ClusterConfig | None = None,
        policy: SharingPolicy = SharingPolicy.FULL,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.topology = topology
        self.plan: QueryPlan = analyze(
            queries, policy=policy, decentralized=True
        )
        self.recorder = TraceRecorder() if self.config.trace else NULL_RECORDER
        self.net = SimNetwork(
            default_codec=self.config.codec,
            default_latency_ms=self.config.latency_ms,
            default_bandwidth_bytes_per_ms=self.config.bandwidth_bytes_per_ms,
            fault_plan=self.config.fault_plan,
            retransmit_timeout_ms=self.config.retransmit_timeout,
            max_retries=self.config.max_retries,
            channel_credit_bytes=self.config.channel_credit_bytes,
            channel_credit_frames=self.config.channel_credit_frames,
            recorder=self.recorder,
        )
        self.checkpoint_store: CheckpointStore | None = None
        if self.config.checkpoint_interval is not None:
            store = self.config.checkpoint_store
            if store is None:
                store = (
                    DirCheckpointStore(self.config.checkpoint_dir)
                    if self.config.checkpoint_dir is not None
                    else InMemoryCheckpointStore()
                )
            self.checkpoint_store = store
        self.reroutes = 0
        self._dead_intermediates: list[IntermediateNode] = []
        self._build_nodes()

    # -- construction -------------------------------------------------------------------

    def _build_nodes(self) -> None:
        topo = self.topology
        self.root = RootNode(
            topo.root, topo.children(topo.root), self.plan, self.config,
            recorder=self.recorder,
        )
        self.net.add_node(self.root)
        self.locals: dict[str, LocalNode] = {}
        self.intermediates: dict[str, IntermediateNode] = {}
        for node_id in topo.nodes():
            role = topo.role(node_id)
            if role is NodeRole.LOCAL:
                node = LocalNode(
                    node_id, topo.parent(node_id), self.plan, self.config,
                    recorder=self.recorder,
                )
                self.locals[node_id] = node
                self.net.add_node(node)
            elif role is NodeRole.INTERMEDIATE:
                node = IntermediateNode(
                    node_id,
                    topo.parent(node_id),
                    topo.children(node_id),
                    self.plan,
                    self.config,
                    recorder=self.recorder,
                )
                self.intermediates[node_id] = node
                self.net.add_node(node)
        for child, parent in topo.parents.items():
            self.net.connect(child, parent)
        for node in (self.root, *self.intermediates.values()):
            node.store = self.checkpoint_store
            node.on_child_dead = self._on_child_dead

    def _parent_node(self, parent: str) -> RootNode | IntermediateNode:
        return self.root if parent == self.topology.root else self.intermediates[parent]

    def _broadcast_attributes(self) -> None:
        """Ship window attributes and topology down the tree (Sec 3.1)."""
        payload = {
            "queries": [query_to_dict(q) for q in self.plan.queries],
            "topology": self.topology.to_payload(),
        }
        for child in self.topology.children(self.topology.root):
            self.net.send(
                self.topology.root,
                child,
                ControlMessage(
                    sender=self.topology.root, kind="queries", payload=payload
                ),
            )

    # -- runtime management (Sec 3.2) ------------------------------------------------------

    def add_query(self, query: Query) -> None:
        """Register a new query at runtime as its own query-group."""
        if any(q.query_id == query.query_id for q in self.plan.queries):
            raise ClusterError(f"duplicate query id: {query.query_id!r}")
        group = QueryGroup(group_id=len(self.plan.groups))
        group.root_evaluated = (
            not query.is_decomposable or query.is_count_based
        )
        group._admit(query)
        group._replan()
        self.plan.groups.append(group)
        progress = int(self.net.now) - int(self.net.now) % self.config.tick_interval
        origin = max(self.config.origin, progress)
        for node in (*self.locals.values(), *self.intermediates.values(), self.root):
            node.add_group(group, origin)

    def remove_query(self, query_id: str) -> None:
        """Remove a running query immediately on every node."""
        group = self.plan.group_of(query_id)
        for node in self.locals.values():
            node.on_message(
                ControlMessage(sender="user", kind="query_remove", payload=query_id),
                int(self.net.now),
                self.net,
            )
        self.root.remove_query(query_id)
        group.remove_query(query_id)

    def add_local_node(self, node_id: str, parent: str,
                       stream: Iterable[Event] = ()) -> None:
        """Attach a new local node at runtime and announce the topology."""
        self.topology.add_node(node_id, parent, NodeRole.LOCAL)
        node = LocalNode(
            node_id, parent, self.plan, self.config, recorder=self.recorder
        )
        self.locals[node_id] = node
        self.net.add_node(node)
        self.net.connect(node_id, parent)
        self._parent_node(parent).add_child(node_id, int(self.net.now))
        last = self.net.inject_stream(node_id, stream)
        if last:
            end = self._align_up(last)
            self._end_boundary = max(self._end_boundary, end)
            self.net.schedule_ticks(
                node_id,
                start=int(self.net.now)
                - int(self.net.now) % self.config.tick_interval,
                end=end,
                interval=self.config.tick_interval,
            )
        self._broadcast_attributes()

    def remove_node(self, node_id: str) -> None:
        """Detach a local node (churned edge device) at runtime."""
        node = self.locals.get(node_id)
        if node is None:
            raise ClusterError(f"{node_id!r} is not a local node")
        parent = self.topology.parent(node_id)
        node.alive = False
        self.topology.remove_node(node_id)
        del self.locals[node_id]
        self._parent_node(parent).remove_child(node_id)
        # Hard removal frees the transport too: reliable-channel state for
        # a departed node must not linger (or retransmit into the void).
        self.net.forget_node_channels(node_id)
        self._broadcast_attributes()

    def evict_timed_out(self, now: int | None = None) -> list[str]:
        """Evict nodes whose heartbeats timed out; returns evicted ids."""
        at = now if now is not None else int(self.net.now)
        dead = [n for n in self.root.timed_out_nodes(at) if n in self.locals]
        for node_id in dead:
            self.remove_node(node_id)
        return dead

    # -- recovery and failover (DESIGN.md §8) ----------------------------------------------

    def _arm_recovery(self, end: int) -> None:
        """Seal the fault plan at end-of-stream, enable batch retention
        where recovery could re-request shipped suffixes, and schedule the
        restarts of finite state-losing crash windows."""
        plan = self.config.fault_plan
        if plan is None:
            return
        plan.seal(end)
        needs_retention = self.checkpoint_store is not None or any(
            w.lose_state or w.end is None or w.end >= end for w in plan.crashes
        )
        if needs_retention:
            for node in (*self.locals.values(), *self.intermediates.values()):
                node.retain_shipped()
        for window in plan.crashes:
            if not window.lose_state:
                continue
            if window.node in self.locals:
                raise ClusterError(
                    f"lose_state crash on local node {window.node!r}: local "
                    "input cannot be replayed, only intermediates and the "
                    "root support state-losing restarts"
                )
            if window.end is None or window.end >= end:
                continue  # permanent death: failover, not restart
            self.net.schedule_restart(window.node, window.end)

    def _on_child_dead(self, child: str, now: int, net: SimNetwork) -> None:
        """Fail over a permanently dead intermediate (DESIGN.md §8).

        Invoked from the parent's liveness sweep, atomically before any
        further coverage advance: the dead node's children are adopted by
        its *parent* at the parent's current coverage floors, then told to
        reparent — renumber and re-ship their retained suffix past the
        floors — so the parent's mergers resume exactly where the dead
        node's forwarding stopped.
        """
        if child not in self.intermediates:
            return  # dead locals are not rerouted: their source is gone
        target, orphans = self.topology.fail_over(child)
        dead = self.intermediates.pop(child)
        dead.alive = False
        self._dead_intermediates.append(dead)
        target_node = self._parent_node(target)
        target_node.remove_child(child)
        floors = resync_entries(target_node.mergers)
        for orphan in orphans:
            if (orphan, target) not in net.links:
                net.connect(orphan, target)
            target_node.add_child(orphan, now)
            net.abandon_channel(orphan, child)
            epoch = net.expect_resync(orphan, target)
            net.send(
                target,
                orphan,
                ResyncMessage(
                    sender=target,
                    epoch=epoch,
                    entries=dict(floors),
                    recover=True,
                    new_parent=target,
                ),
            )
            self.reroutes += 1
            if self.recorder.enabled:
                self.recorder.record(
                    "child.reroute",
                    now,
                    node=orphan,
                    dead_parent=child,
                    new_parent=target,
                )

    # -- driving ---------------------------------------------------------------------------

    def _align_up(self, time: int) -> int:
        interval = self.config.tick_interval
        return ((time // interval) + 1) * interval

    def run(
        self,
        streams: dict[str, Iterable[Event]],
        *,
        actions: list[tuple[int, Callable[["DesisCluster"], None]]] | None = None,
    ) -> ClusterRunResult:
        """Replay per-local streams through the cluster.

        ``actions`` are ``(sim_time, callback)`` pairs executed when
        simulated time passes their timestamp (runtime query/node changes).
        """
        started = _time.perf_counter()
        self._broadcast_attributes()
        # Batched injection is only safe without runtime actions: an
        # action fires between queue pops (``net.run(until=at)``), and a
        # batch spanning its timestamp would let events past the action
        # be processed before it runs.
        batch_ms = self.config.batch_ms if not actions else None
        last = self.config.origin
        events = 0
        for node_id, stream in streams.items():
            if node_id not in self.locals:
                raise ClusterError(f"{node_id!r} is not a local node")
            materialized = list(stream)
            events += len(materialized)
            last = max(
                last,
                self.net.inject_stream(node_id, materialized, batch_ms=batch_ms),
            )
        end = self._align_up(last)
        self._end_boundary = end
        self._arm_recovery(end)
        for node_id in list(self.locals):
            self.net.schedule_ticks(
                node_id,
                start=self.config.origin,
                end=end,
                interval=self.config.tick_interval,
            )
        for node_id in self.intermediates:
            self.net.schedule_ticks(
                node_id,
                start=self.config.origin,
                end=end,
                interval=self.config.heartbeat_interval,
            )
        if self.config.fault_plan is not None or self.checkpoint_store is not None:
            # The root ticks for the heartbeat-silence sweep (nodes can go
            # silent) and for the checkpoint cadence.
            self.net.schedule_ticks(
                self.topology.root,
                start=self.config.origin,
                end=end,
                interval=self.config.heartbeat_interval,
            )
        for at, action in sorted(actions or [], key=lambda pair: pair[0]):
            self.net.run(until=at)
            action(self)
        self.net.run()
        # Flush every surviving local at the global end boundary (it may
        # have moved if nodes with longer streams joined mid-run).
        for node in self.locals.values():
            node.on_finish(self._end_boundary, self.net)
        self.net.run()
        # Under overload control, intermediates may hold deferred staging
        # and unshipped shed metadata behind a stalled channel; end of
        # stream overrides backpressure so every closable window closes
        # with truthful completeness.
        for node in self.intermediates.values():
            node.on_finish(self._end_boundary, self.net)
        self.net.run()
        self.root.finish(int(self.net.now))
        wall = _time.perf_counter() - started
        _log.info(
            "run finished %s",
            kv(
                events=events,
                results=len(self.root.sink),
                wall_s=round(wall, 3),
                traced=len(self.recorder) if self.recorder.enabled else 0,
            ),
        )
        mergers = [
            self.root, *self.intermediates.values(), *self._dead_intermediates
        ]
        nodes = [*mergers, *self.locals.values()]
        return ClusterRunResult(
            sink=self.root.sink,
            network=self.net.stats(),
            cpu_by_role=self.net.cpu_time_by_role(),
            wall_seconds=wall,
            events=events,
            local_stats={
                node_id: node.stats for node_id, node in self.locals.items()
            },
            node_cpu={
                node_id: node.cpu_time
                for node_id, node in self.net.nodes.items()
            },
            recorder=self.recorder,
            checkpoints=sum(n.checkpoints_taken for n in mergers),
            recoveries=sum(n.recoveries for n in mergers),
            reroutes=self.reroutes,
            duplicates_suppressed=self.root.duplicates_suppressed,
            root_merge_ops=self.root.root_merge_ops,
            degraded_windows=self.root.degraded_windows,
            slices_shed=sum(n.slices_shed for n in nodes),
            peak_staging=max(n.peak_staging for n in nodes),
            slow_consumer_evictions=sum(n.slow_consumer_evictions for n in mergers),
        )
