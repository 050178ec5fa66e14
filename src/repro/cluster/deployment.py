"""What every simulated deployment does the same way (Sec 2.4, 6.1.1).

Desis, Disco and the centralized Scotty/CeBuffer deployments are only
comparable if they are built and replayed alike.  :class:`Deployment`
holds that common part once: the :class:`~repro.network.simnet.SimNetwork`
built from a :class:`~repro.cluster.config.ClusterConfig`, the nodes laid
over the topology, the local streams injected and ticked up to the end
boundary, the locals flushed there, and the :class:`ClusterRunResult`.
Each deployment keeps its node classes and what it does beyond that.

The network breaks ties between equal times by push order, so the
deployments call these steps in a fixed order: every stream, then every
local's ticks, then the deployment's own schedule.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.engine import EngineStats
from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.results import ResultSink
from repro.core.types import NodeRole
from repro.cluster.config import ClusterConfig
from repro.network.simnet import NetworkStats, SimNetwork, SimNode
from repro.network.topology import Topology
from repro.obs.tracing import NULL_RECORDER, TraceRecorder

__all__ = ["ClusterRunResult", "Deployment"]


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
    #: ``repro.obs.build_window_trace(recorder, result)`` turns an emitted
    #: result into its span tree
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


class Deployment:
    """A topology of simulated nodes driven over one network."""

    def __init__(self, topology: Topology, config: ClusterConfig, *,
                 recorder=None) -> None:
        self.topology = topology
        self.config = config
        self.net = SimNetwork(
            codec=config.codec,
            latency_ms=config.latency_ms,
            bandwidth_bytes_per_ms=config.bandwidth_bytes_per_ms,
            fault_plan=config.fault_plan,
            channel_credit_bytes=config.channel_credit_bytes,
            channel_credit_frames=config.channel_credit_frames,
            recorder=recorder,
        )
        self.locals: dict[str, SimNode] = {}
        #: the aligned tick past the latest injected event: where the
        #: locals flush
        self._end_boundary = config.origin
        #: sorted times the deployment acts at between queue pops; no
        #: injected batch spans one
        self._cuts: tuple[float, ...] = ()
        #: every event injected, an added local's included: what
        #: :attr:`ClusterRunResult.events` counts where the deployment does
        #: not count what its locals took
        self._events = 0

    def _add_nodes(
        self,
        root: SimNode,
        local: Callable[[str], SimNode],
        intermediate: Callable[[str], SimNode],
    ) -> dict[str, SimNode]:
        """Add ``root`` and one node per topology node, built by ``local``
        or ``intermediate`` from its id, then link every child to its
        parent.  Returns the intermediates."""
        topo = self.topology
        self.net.add_node(root)
        intermediates: dict[str, SimNode] = {}
        for node_id in topo.nodes():
            role = topo.role(node_id)
            if role is NodeRole.LOCAL:
                node = self.locals[node_id] = local(node_id)
            elif role is NodeRole.INTERMEDIATE:
                node = intermediates[node_id] = intermediate(node_id)
            else:
                continue
            self.net.add_node(node)
        for child, parent in topo.parents.items():
            self.net.connect(child, parent)
        return intermediates

    def _inject(self, streams: dict[str, Iterable[Event]], *,
                grid: int | None = None) -> int:
        """Schedule each local's stream at its own timestamps, in batches
        cut on ``grid`` (the tick interval unless given) and at the
        deployment's cut times, and count its events.

        Returns the aligned tick past the latest event, and moves the end
        boundary out to that tick.
        """
        last = self.config.origin
        for node_id, stream in streams.items():
            if node_id not in self.locals:
                raise ClusterError(f"{node_id!r} is not a local node")
            materialized = list(stream)
            self._events += len(materialized)
            last = max(
                last,
                self.net.inject_stream(
                    node_id, materialized, grid or self.config.tick_interval,
                    self._cuts,
                ),
            )
        interval = self.config.tick_interval
        end = (last // interval + 1) * interval
        self._end_boundary = max(self._end_boundary, end)
        return end

    def _tick_locals(self, node_ids: Iterable[str], *, start: int,
                     end: int) -> None:
        """Schedule the locals' watermark ticks after ``start`` up to ``end``."""
        for node_id in node_ids:
            self.net.schedule_ticks(
                node_id, start=start, end=end, interval=self.config.tick_interval
            )

    def _finish_locals(self) -> None:
        """Flush every local at the end boundary and deliver what it sends."""
        for node in self.locals.values():
            node.on_finish(self._end_boundary, self.net)
        self.net.run()

    def _result(self, sink: ResultSink, started: float,
                **fields) -> ClusterRunResult:
        """The run's result; ``fields`` are the deployment's own (and
        ``events``, if it counts them otherwise than as injected)."""
        wall = _time.perf_counter() - started
        fields.setdefault("events", self._events)
        return ClusterRunResult(
            sink=sink,
            network=self.net.stats(),
            cpu_by_role=self.net.cpu_time_by_role(),
            wall_seconds=wall,
            node_cpu={
                node_id: node.cpu_time
                for node_id, node in self.net.nodes.items()
            },
            **fields,
        )
