"""Local nodes: slicing and partial aggregation at the data source (Sec 5.1).

A local node runs the aggregation engine in *slicing-only* mode for every
query-group: events are incrementally aggregated into shared
slices, and at every watermark tick the closed slices are shipped upward
as per-slice partial results.  Window *assembly* never happens here — that
is the root's job — so a local has punctuations, not windows: it cuts at
every point of the group's :class:`~repro.core.grid.PunctuationGrid` (the
grid the root folds its records on, built from the same fixed queries) and
at what only it can know about — its own session gaps, its own marker
events.  Removing a query rebuilds the grid from the fixed queries left.

Root-evaluated groups (count-based windows, non-decomposable functions;
Sec 5.2) take the same path: their planned non-decomposable sort makes
each record carry a context's values as a locally sorted run.  A group
with count-based windows ships ``(time, value)`` pairs in place of the
partials, since only the root, which sees the merged stream, can count
its events.
"""

from __future__ import annotations

from repro.core.analyzer import QueryGroup, QueryPlan
from repro.core.engine import EngineStats, GroupRuntime
from repro.core.event import Event
from repro.core.results import ResultSink
from repro.core.types import NodeRole, WindowType
from repro.cluster.config import ClusterConfig
from repro.cluster.roles import SHED_WATERMARK, Shipper
from repro.network.messages import (
    CheckpointMessage,
    ContextPartial,
    ControlMessage,
    PartialBatchMessage,
    ResyncMessage,
    SliceRecord,
)
from repro.network.simnet import SimNetwork
from repro.obs.tracing import NULL_RECORDER

__all__ = ["LocalNode"]


class _LocalGroup:
    """Slicing-only engine runtime for one query-group, and the staging
    buffer of its closed slice records with their upward sequence."""

    def __init__(self, node_id: str, group: QueryGroup, origin: int,
                 stats: EngineStats, recorder=None) -> None:
        self.node_id = node_id
        self.group = group
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.pending: list[SliceRecord] = []
        self.ship_seq = 0
        #: shed coverage awaiting the next flush: (node_id, start, end)
        self.shed_pending: list[tuple[str, int, int]] = []
        self.runtime = GroupRuntime(
            group,
            ResultSink(keep=False),
            stats,
            assemble=False,
            slice_sink=self._on_cut,
            recorder=self.recorder,
            node_id=node_id,
        )
        # Anchor fixed-window schedules at the shared origin so slice
        # boundaries align across all local nodes (Sec 5.1.1).
        self.runtime.advance(origin)
        self._userdef_ids = {
            q.query_id
            for q in group.queries
            if q.window.window_type is WindowType.USER_DEFINED
        }

    def _on_cut(self, closed, eps, spans, timed) -> None:
        contexts: dict[int, ContextPartial] = {}
        for ctx, partials in closed.partials.items():
            span = spans.get(ctx)
            # Pairs replace the operator partials: the root derives those
            # from them on arrival (Sec 5.2).
            pairs = timed.get(ctx)
            contexts[ctx] = ContextPartial(
                count=closed.insert_counts.get(ctx, 0),
                ops=partials if pairs is None else {},
                span=tuple(span) if span is not None else None,
                timed=pairs,
            )
        userdef_eps = [
            (query.query_id, end)
            for window, end in eps
            for query in window.queries
            if query.query_id in self._userdef_ids
        ]
        # A marker cut closes *after* inserting the marker event, so the
        # slice contains an event stamped exactly ``closed.end``.  Ship it
        # with its truthful exclusive end (``end + 1``) — otherwise a
        # marker landing on a fixed-window boundary leaks its event into
        # the windows *ending* there instead of the ones *starting* there.
        inclusive = any(end == closed.end for _, end in userdef_eps)
        if contexts or userdef_eps:
            self.pending.append(
                SliceRecord(
                    start=closed.start,
                    end=closed.end + 1 if inclusive else closed.end,
                    contexts=contexts,
                    userdef_eps=userdef_eps,
                )
            )

    def remove_query(self, query_id: str) -> None:
        if query_id in self.runtime.tracker_by_query:
            self.runtime.remove_query(query_id)

    def on_events(self, events: list[Event]) -> None:
        # Slice-run fast path: the runtime splits the batch at its own
        # punctuations and at its data-driven windows' opens and closes.
        self.runtime.process_batch(events)

    def stage(self, now: int) -> None:
        """Cut at the watermark boundary without shipping.

        Used when the upward channel is credit-stalled: slices keep
        accumulating in the bounded staging buffer (``pending``) so the
        shedding policy has whole slices to account for, and the slice-seq
        protocol stays gapless — sequences are only assigned at flush.
        """
        self.runtime.advance(now)
        if self.runtime.current.start < now:
            self.runtime._cut(now, [], [])

    def flush(self, now: int) -> PartialBatchMessage:
        """Cut at the watermark boundary and drain pending slice records."""
        self.stage(now)
        message = PartialBatchMessage(
            sender=self.node_id,
            group_id=self.group.group_id,
            first_slice_seq=self.ship_seq,
            covered_to=now,
            records=self.pending,
            shed=self.shed_pending,
        )
        self.shed_pending = []
        if self.recorder.enabled and self.pending:
            self.recorder.record(
                "partial.ship",
                now,
                node=self.node_id,
                group=self.group.group_id,
                first_seq=self.ship_seq,
                records=len(self.pending),
                start=self.pending[0].start,
                end=self.pending[-1].end,
                covered_to=now,
            )
        self.ship_seq += len(self.pending)
        self.pending = []
        return message

    def resync(self, next_seq: int, covered: int) -> None:
        """Restart the upward slice sequence after a parent resync.

        Pending records at or below ``covered`` belong to windows the
        parent already closed (degraded) without this node — shipping
        them again would corrupt session and user-defined assembly.
        """
        self.ship_seq = next_seq
        self.pending = [r for r in self.pending if r.end > covered]


class LocalNode(Shipper):
    """A Desis local node: a shipper with one group handler per query-group."""

    def __init__(self, node_id: str, parent: str, plan: QueryPlan,
                 config: ClusterConfig, recorder=None) -> None:
        super().__init__(node_id, NodeRole.LOCAL, parent, config, recorder)
        self.stats = EngineStats()
        self.groups: list[_LocalGroup] = []
        for group in plan.groups:
            self.add_group(group, config.origin)
        # Overload control (DESIGN.md §12): high-water mark of the staging
        # buffers and slices deliberately shed.  Both stay zero at default
        # config.
        self.peak_staging = 0
        self.slices_shed = 0

    def add_group(self, group: QueryGroup, origin: int) -> None:
        """Start slicing a query-group, its schedules anchored at ``origin``."""
        self.groups.append(
            _LocalGroup(
                self.node_id,
                group,
                origin,
                self.stats,
                self.recorder,
            )
        )

    # -- overload control (DESIGN.md §12) ----------------------------------------------

    def _shed(self, group, shed: list[SliceRecord], net: SimNetwork) -> None:
        """Account whole slices dropped from ``group``'s staging buffer.
        Their coverage is remembered per group and rides up with the next
        flushed batch, so the root can stamp affected windows with
        ``completeness < 1.0``."""
        self.slices_shed += len(shed)
        net.note_shed(self.node_id, group.group.group_id, shed)
        group.shed_pending.extend(
            (self.node_id, record.start, record.end) for record in shed
        )

    def _shed_overflow(self, group, net: SimNetwork) -> None:
        """Shed oldest whole slices once staging exceeds its cap.

        Deterministic oldest-slice-first policy with hysteresis: shed down
        to ``staging_limit * SHED_WATERMARK`` records so the buffer does
        not oscillate at the cap.
        """
        limit = self.config.staging_limit
        if limit is None or len(group.pending) <= limit:
            return
        low = max(int(limit * SHED_WATERMARK), 0)
        shed = group.pending[: len(group.pending) - low]
        group.pending = group.pending[len(shed):]
        self._shed(group, shed, net)

    def on_events(self, events: list[Event], now: int, net: SimNetwork) -> None:
        self.stats.events += len(events)
        for group in self.groups:
            group.on_events(events)

    def on_tick(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        # Credit-based backpressure: a stalled upward channel defers the
        # flush — slices accumulate in the bounded staging buffer instead
        # of growing the channel's unacked backlog without limit.
        deferred = self.config.overload_control and net.channel_stalled(
            self.node_id, self.parent
        )
        for group in self.groups:
            if deferred:
                group.stage(now)
                self._shed_overflow(group, net)
                continue
            self._shed_overflow(group, net)
            message = group.flush(now)
            net.send(self.node_id, self.parent, message)
            if self._retain:
                self._retained.append(message)
        if deferred or self.config.staging_limit is not None:
            occupancy = sum(len(group.pending) for group in self.groups)
            if occupancy > self.peak_staging:
                self.peak_staging = occupancy
        if self._retain:
            self._cap_retention()
        self._heartbeat(now, net)

    def on_finish(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        for group in self.groups:
            # End of stream overrides backpressure: ship what survived the
            # cap so every closable window still closes.
            self._shed_overflow(group, net)
            message = group.flush(now)
            net.send(self.node_id, self.parent, message)
            if self._retain:
                self._retained.append(message)
        self._cap_retention()

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        # Locals receive control traffic (queries, topology), their
        # parent's retention trims, and its resyncs: after a failover, a
        # parent restart, or a soft-eviction outage.
        if isinstance(message, CheckpointMessage):
            self._apply_trim(message.safe_to)
        elif isinstance(message, ResyncMessage):
            if message.new_parent:
                self._reparent(message, net)
            elif message.recover:
                self._fast_forward(message, net)
            else:
                self._resync(message, net)
        elif isinstance(message, ControlMessage) and message.kind == "query_remove":
            for group in self.groups:
                group.remove_query(message.payload)

    def _resync(self, message: ResyncMessage, net: SimNetwork) -> None:
        """Rejoin a parent that soft-evicted this node: restart the upward
        slice sequences past the coverage it assembled meanwhile."""
        for group_id, (next_seq, covered) in message.entries.items():
            if group_id >= len(self.groups):
                continue
            group = self.groups[group_id]
            if self.config.overload_control:
                # Records the resync prunes are data dropped under overload
                # (the outage was a stalled, not a silent, channel) —
                # account them like any other shed so the completeness
                # ledger stays truthful.
                pruned = [r for r in group.pending if r.end <= covered]
                if pruned:
                    self._shed(group, pruned, net)
            group.resync(next_seq, covered)
        net.reset_channel(self.node_id, self.parent, message.epoch)

    def _rebase(self, group_id: int, next_seq: int, floor: int) -> None:
        if group_id < len(self.groups):
            self.groups[group_id].resync(next_seq, floor)
