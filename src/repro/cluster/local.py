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
from repro.core.engine import EngineStats, GroupRuntime, ingest_events
from repro.core.event import Event
from repro.core.results import ResultSink
from repro.core.types import NodeRole, WindowType
from repro.cluster.config import ClusterConfig
from repro.cluster.roles import Shipper
from repro.network.messages import ContextPartial, ControlMessage, SliceRecord
from repro.network.simnet import SimNetwork

__all__ = ["LocalNode"]


class _LocalGroup:
    """Slicing-only engine runtime for one query-group, and the staging
    buffer of its closed slice records."""

    def __init__(self, node_id: str, group: QueryGroup, origin: int,
                 stats: EngineStats, recorder=None) -> None:
        self.pending: list[SliceRecord] = []
        self.runtime = GroupRuntime(
            group,
            ResultSink(keep=False),
            stats,
            assemble=False,
            slice_sink=self._on_cut,
            recorder=recorder,
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
        counts = closed.insert_counts
        contexts: dict[int, ContextPartial] = {}
        for ctx, partials in closed.partials.items():
            span = spans.get(ctx)
            # Pairs replace the operator partials: the root derives those
            # from them on arrival (Sec 5.2).
            pairs = timed.get(ctx)
            contexts[ctx] = ContextPartial(
                counts[ctx],
                partials if pairs is None else {},
                None if span is None else tuple(span),
                pairs,
            )
        end = closed.end
        userdef_eps = []
        if eps:
            userdef_eps = [
                (query.query_id, at)
                for window, at in eps
                for query in window.queries
                if query.query_id in self._userdef_ids
            ]
            # A marker cut closes *after* inserting the marker event, so
            # the slice contains an event stamped exactly ``closed.end``.
            # Ship it with its truthful exclusive end (``end + 1``) —
            # otherwise a marker landing on a fixed-window boundary leaks
            # its event into the windows *ending* there instead of the
            # ones *starting* there.
            if any(at == end for _, at in userdef_eps):
                end += 1
        if contexts or userdef_eps:
            self.pending.append(
                SliceRecord(closed.start, end, contexts, userdef_eps)
            )

    def remove_query(self, query_id: str) -> None:
        if query_id in self.runtime.tracker_by_query:
            self.runtime.remove_query(query_id)

    def stage(self, now: int) -> None:
        """Cut at the watermark boundary without shipping.

        Used when the upward channel is credit-stalled: slices keep
        accumulating in the bounded staging buffer (``pending``) so the
        shedding policy has whole slices to account for, and the slice-seq
        protocol stays gapless — sequences are only assigned at shipping.
        """
        self.runtime.advance(now)
        if self.runtime.current.start < now:
            self.runtime._cut(now, [], [])

    def drain(self, now: int) -> list[SliceRecord]:
        """Cut at the watermark boundary and take the staged records."""
        self.stage(now)
        records, self.pending = self.pending, []
        return records


class LocalNode(Shipper):
    """A Desis local node: a shipper with one group handler per query-group."""

    ship_kind = "partial.ship"

    def __init__(self, node_id: str, parent: str, plan: QueryPlan,
                 config: ClusterConfig, recorder=None) -> None:
        super().__init__(node_id, NodeRole.LOCAL, parent, config, recorder)
        self.stats = EngineStats()
        self.groups: list[_LocalGroup] = []
        for group in plan.groups:
            self.add_group(group, config.origin)

    def add_group(self, group: QueryGroup, origin: int) -> None:
        """Start slicing a query-group, its schedules anchored at ``origin``."""
        self.groups.append(
            _LocalGroup(self.node_id, group, origin, self.stats, self.recorder)
        )
        self._open_upward()
        self._sync_lanes()

    def _sync_lanes(self) -> None:
        """Each group's runtime is a lane of its own: a local emits no
        rows, so its groups cut their runs at their own punctuations only
        (see :func:`~repro.core.engine.ingest_events`), and the batch is
        split into the columns any of them reads."""
        runtimes = [group.runtime for group in self.groups]
        self._lanes = [(runtime,) for runtime in runtimes]
        self._reads = (
            any(runtime.reads_keys for runtime in runtimes),
            any(runtime.reads_markers for runtime in runtimes),
        )

    def on_events(self, events: list[Event], now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        self.stats.events += len(events)
        if events:
            # Slice-run kernel: each runtime splits the batch at its own
            # punctuations and its data-driven windows' opens and closes.
            ingest_events(self._lanes, events, *self._reads)

    def on_tick(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        # Credit-based backpressure: a stalled upward channel defers the
        # flush — slices accumulate in the bounded staging buffer instead
        # of growing the channel's unacked backlog without limit.
        deferred = self._stalled(net)
        for group_id, group in enumerate(self.groups):
            if deferred:
                group.stage(now)
                self._shed_overflow(group_id, net)
            else:
                self._flush(group_id, now, net)
        if deferred or self.config.staging_limit is not None:
            self.peak_staging = max(
                self.peak_staging, sum(len(group.pending) for group in self.groups)
            )
        self._heartbeat(now, net)

    def on_finish(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        # End of stream overrides backpressure: ship what survived the
        # cap so every closable window still closes.
        for group_id in range(len(self.groups)):
            self._flush(group_id, now, net)

    def _flush(self, group_id: int, now: int, net: SimNetwork) -> None:
        self._shed_overflow(group_id, net)
        self._ship(group_id, now, self.groups[group_id].drain(now), now, net)

    def _shed_overflow(self, group_id: int, net: SimNetwork) -> None:
        """Shed the oldest whole slices once staging exceeds its cap."""
        group = self.groups[group_id]
        count = self._overflow(len(group.pending))
        if count:
            shed, group.pending = group.pending[:count], group.pending[count:]
            self._shed(group_id, shed, net)

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        # Locals take control traffic (queries, topology) and, through
        # the shipping half, their parent's trims and resyncs.
        if isinstance(message, ControlMessage):
            if message.kind == "query_remove":
                for group in self.groups:
                    group.remove_query(message.payload)
                self._sync_lanes()
        else:
            super().on_message(message, now, net)

    def _drop_covered(self, group_id: int, floor: int, *,
                      rejoin: bool) -> list[SliceRecord]:
        # Pending records at or below the floor belong to windows the
        # parent already closed (degraded) without this node — shipping
        # them again would corrupt session and user-defined assembly.
        group = self.groups[group_id]
        dropped = [r for r in group.pending if r.end <= floor]
        group.pending = [r for r in group.pending if r.end > floor]
        return dropped
