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
from typing import Callable, Iterable

from repro.core.analyzer import QueryPlan, analyze
from repro.core.engine import EngineStats
from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.query import Query
from repro.core.serde import query_to_dict
from repro.core.types import NodeRole, SharingPolicy
from repro.cluster.checkpoint import (
    CheckpointStore,
    InMemoryCheckpointStore,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.deployment import ClusterRunResult, Deployment
from repro.cluster.intermediate import IntermediateNode
from repro.cluster.local import LocalNode
from repro.cluster.reliability import resync_entries
from repro.cluster.root import RootNode
from repro.network.messages import ControlMessage, ResyncMessage
from repro.network.simnet import SimNetwork
from repro.network.topology import Topology
from repro.obs.log import get_logger, kv
from repro.obs.tracing import NULL_RECORDER, TraceRecorder

_log = get_logger(__name__)

__all__ = ["DesisCluster"]


class DesisCluster(Deployment):
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
        config = config if config is not None else ClusterConfig()
        self.plan: QueryPlan = analyze(
            queries, policy=policy, decentralized=True
        )
        self.recorder = TraceRecorder() if config.trace else NULL_RECORDER
        super().__init__(topology, config, recorder=self.recorder)
        self.checkpoint_store: CheckpointStore | None = None
        if self.config.checkpoint_interval is not None:
            self.checkpoint_store = (
                self.config.checkpoint_store or InMemoryCheckpointStore()
            )
        self.reroutes = 0
        self._dead_intermediates: list[IntermediateNode] = []
        #: the stats of locals :meth:`remove_node` removed: what they took
        #: before is still part of the run
        self._removed_stats: dict[str, EngineStats] = {}
        #: whether locals and intermediates keep what they shipped for a
        #: recovering parent; settled at :meth:`_arm_recovery`
        self._retain_shipped = False
        #: whether :meth:`run` has begun; before it, :meth:`run` ticks and
        #: announces every local, an added one included
        self._running = False
        self._build_nodes()

    # -- construction -------------------------------------------------------------------

    def _build_nodes(self) -> None:
        topo = self.topology
        self.root = RootNode(
            topo.root, topo.children(topo.root), self.plan, self.config,
            recorder=self.recorder,
        )
        self.intermediates: dict[str, IntermediateNode] = self._add_nodes(
            self.root,
            lambda node_id: LocalNode(
                node_id, topo.parent(node_id), self.plan, self.config,
                recorder=self.recorder,
            ),
            lambda node_id: IntermediateNode(
                node_id, topo.parent(node_id), topo.children(node_id),
                self.plan, self.config, recorder=self.recorder,
            ),
        )
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
        if query.query_id in self.plan:
            raise ClusterError(f"duplicate query id: {query.query_id!r}")
        group = self.plan.open_group(query)
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
        """Attach a new local node at runtime and announce the topology.

        The node ticks up to the deployment's end boundary, wherever its
        own stream ends, so its parent's coverage never waits on it.  A
        stream that ends past the boundary moves it, and every other
        local then ticks on to the new boundary too.  Before :meth:`run`,
        only the stream is scheduled: :meth:`run` ticks every local.
        """
        self.topology.add_node(node_id, parent, NodeRole.LOCAL)
        node = LocalNode(
            node_id, parent, self.plan, self.config, recorder=self.recorder
        )
        if self._retain_shipped:
            node.retain_shipped()
        self.locals[node_id] = node
        self.net.add_node(node)
        self.net.connect(node_id, parent)
        self._parent_node(parent).add_child(node_id, int(self.net.now))
        boundary = self._end_boundary
        self._inject({node_id: stream})
        if not self._running:
            return
        # The parent attached the node covered only to its own progress,
        # so the node ticks on every grid point from now on, a tick at
        # ``now`` included: a window ending there waits on it.
        tick = self.config.tick_interval
        first = -(-int(self.net.now) // tick) * tick
        self._tick_locals([node_id], start=first - tick, end=self._end_boundary)
        self._tick_locals(
            [other for other in self.locals if other != node_id],
            start=boundary, end=self._end_boundary,
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
        self._removed_stats[node_id] = self.locals.pop(node_id).stats
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
        where recovery could re-request shipped suffixes (also on locals
        added later), and schedule the restarts of finite state-losing
        crash windows."""
        plan = self.config.fault_plan
        if plan is None:
            return
        plan.seal(end)
        self._retain_shipped = self.checkpoint_store is not None or any(
            w.lose_state or w.end is None or w.end >= end for w in plan.crashes
        )
        if self._retain_shipped:
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
        self._running = True
        self._broadcast_attributes()
        actions = sorted(actions or [], key=lambda pair: pair[0])
        # An action fires between queue pops (``net.run(until=at)``): no
        # batch may span its time, or events past it would be processed
        # before it runs.
        self._cuts = tuple(at for at, _ in actions)
        self._inject(streams)
        # a local added before the run may end past the run's streams
        end = self._end_boundary
        self._arm_recovery(end)
        self._tick_locals(list(self.locals), start=self.config.origin, end=end)
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
        for at, action in actions:
            self.net.run(until=at)
            action(self)
        self.net.run()
        # Flush every surviving local at the global end boundary (it may
        # have moved if nodes with longer streams joined mid-run).
        self._finish_locals()
        # Under overload control, intermediates may hold deferred staging
        # and unshipped shed metadata behind a stalled channel; end of
        # stream overrides backpressure so every closable window closes
        # with truthful completeness.
        for node in self.intermediates.values():
            node.on_finish(self._end_boundary, self.net)
        self.net.run()
        self.root.finish(int(self.net.now))
        mergers = [
            self.root, *self.intermediates.values(), *self._dead_intermediates
        ]
        nodes = [*mergers, *self.locals.values()]
        local_stats = self._removed_stats | {
            node_id: node.stats for node_id, node in self.locals.items()
        }
        result = self._result(
            self.root.sink,
            started,
            # only what a live local took: a removed one's stream may go on
            events=sum(stats.events for stats in local_stats.values()),
            local_stats=local_stats,
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
        _log.info(
            "run finished %s",
            kv(
                events=result.events,
                results=len(self.root.sink),
                wall_s=round(result.wall_seconds, 3),
                traced=len(self.recorder) if self.recorder.enabled else 0,
            ),
        )
        return result
