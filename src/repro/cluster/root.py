"""The root node: final window assembly from covered slice records (Sec 5.1).

The root maintains, per query-group, a :class:`GroupMerger` over its
children plus a :class:`RootAssembler` that turns released slice records
into window results:

* **Fixed windows.**  Each record is folded once, on arrival, into the
  cell it lies in (:mod:`repro.cluster.cells` — also where records of
  different intervals within one cell merge).  A window then closes once
  per ``(ctx, length, slide)`` tracker, for all its subscribers, through
  :meth:`~repro.core.incmerge.IncrementalMergeLayer.close`, the helper
  the engine closes windows over slices with: Two-Stacks streams for
  overlapping windows, the plain scan for the rest.
* **Session windows** are reassembled by gap covering (Sec 5.1.2): each
  record carries its per-context activity span ``(first, last)``; spans
  closer than the gap cluster into one session, and a session closes once
  every child has covered ``last + gap`` — exactly "when all session gaps
  from different child nodes cover each other".
* **User-defined windows** take their context's partials on arrival into
  the open trip, which closes at its end-marker punctuation once coverage
  (the watermark) passes it; a record ending at or before ``marker + 1``
  belongs to the trip the marker closes.
* **Count-based windows** (root-evaluated groups, Sec 5.2) replay the
  shipped ``(time, value)`` pairs in time order through per-window
  operator states, since only the root can count the merged stream.
"""

from __future__ import annotations

import heapq

from repro.core.analyzer import QueryGroup, QueryPlan
from repro.core.engine import required_kinds
from repro.core.errors import ClusterError
from repro.core.functions import finalize, operators_for
from repro.core.grid import PunctuationGrid
from repro.core.operators import (
    OperatorSetState,
    merge_partials,
    read_many_partials,
)
from repro.core.query import Query
from repro.core.results import ResultSink, WindowResult
from repro.core.types import NodeRole, OperatorKind, WindowMeasure, WindowType
from repro.cluster.checkpoint import assembler_chunks, restore_assembler
from repro.cluster.cells import CellStore
from repro.cluster.config import ClusterConfig
from repro.cluster.roles import Merger
from repro.network.messages import (
    CheckpointMessage,
    ControlMessage,
    PartialBatchMessage,
    SliceRecord,
    SnapshotChunk,
)
from repro.network.simnet import SimNetwork
from repro.obs.tracing import NULL_RECORDER

__all__ = ["RootNode", "RootAssembler"]


class _FixedTracker:
    """One ``(ctx, length, slide)`` window schedule and its subscribers."""

    #: ``kinds``: the union of the subscribers' operators, in plan order
    #: (``RootAssembler.rebuild``)
    __slots__ = ("ctx", "length", "slide", "queries", "next_close_start",
                 "kinds")

    def __init__(self, ctx: int, length: int, slide: int, origin: int) -> None:
        self.ctx = ctx
        self.length = length
        self.slide = slide
        self.queries: list[Query] = []
        self.next_close_start = origin


class _SessionState:
    __slots__ = ("query", "ctx", "kinds", "gap", "open_start", "last", "ops", "count")

    def __init__(self, query: Query, ctx: int, kinds) -> None:
        self.query = query
        self.ctx = ctx
        self.kinds = kinds
        self.gap = query.window.gap
        self.open_start: int | None = None
        self.last = 0
        self.ops: dict = {}
        self.count = 0


class _UserDefState:
    __slots__ = ("query", "ctx", "kinds", "eps", "prev_end", "buckets", "count")

    def __init__(self, query: Query, ctx: int, kinds, origin: int) -> None:
        self.query = query
        self.ctx = ctx
        self.kinds = kinds
        self.eps: list[int] = []
        self.prev_end = origin
        #: the open trip: its context's partials per kind, in arrival
        #: order, and its event count
        self.buckets: dict[OperatorKind, list] = {kind: [] for kind in kinds}
        self.count = 0

    def take(self, part) -> None:
        """File one record's partial of this context into the open trip."""
        self.count += part.count
        for kind, bucket in self.buckets.items():
            if kind in part.ops:
                bucket.append(part.ops[kind])


class _CountState:
    __slots__ = ("query", "ctx", "kinds", "length", "slide", "seen", "open")

    def __init__(self, query: Query, ctx: int) -> None:
        self.query = query
        self.ctx = ctx
        self.kinds = tuple(operators_for(query.function))
        self.length = query.window.length
        self.slide = query.window.effective_slide
        self.seen = 0
        #: open windows: (start_time, operator states)
        self.open: list[tuple[int, OperatorSetState]] = []


def derive_ops_from_timed(record: SliceRecord, planned) -> None:
    """Fill each context's ``ops`` (and span) from its ``timed`` pairs.

    Root-evaluated groups with count-based windows ship raw timed values
    (Sec 5.2); time-based queries in the same group still assemble from
    per-record operator partials, which this derives on arrival — folded
    by the operator states every local folds its slices with.
    """
    for part in record.contexts.values():
        if part.timed is None or part.ops:
            continue
        state = OperatorSetState(planned)
        state.insert_many([value for _, value in part.timed])
        part.ops = state.partials()
        if part.span is None and part.timed:
            part.span = (part.timed[0][0], part.timed[-1][0])


class RootAssembler:
    """Turns covered slice records of one query-group into window results."""

    def __init__(self, group: QueryGroup, origin: int, emit,
                 recorder=None, node_id: str = "root"):
        self.group = group
        self.origin = origin
        self.node_id = node_id
        self._emit_cb = emit  # emit(query, start, end, merged_ops, count, now, ...)
        self.covered = origin
        #: shed-coverage ledger (DESIGN.md §12): ``(node_id, start, end)``
        #: intervals dropped under overload anywhere below (or at) the
        #: root; consulted when each window closes to stamp the result
        #: with its completeness.  Empty — and free — without overload
        #: control.
        self.shed: list[tuple[str, int, int]] = []
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: merge ops of window closes, of user-defined assembly and of
        #: cell stores replaced
        self._merge_ops = 0
        self.cells = CellStore(PunctuationGrid(), {})

        trackers: dict[tuple, _FixedTracker] = {}
        self.sessions: list[_SessionState] = []
        self.userdef: list[_UserDefState] = []
        self.counts: list[_CountState] = []
        for query in group.queries:
            ctx = group.context_of[query.query_id]
            if query.window.measure is WindowMeasure.COUNT:
                self.counts.append(_CountState(query, ctx))
                continue
            kinds = required_kinds(query, group.operators)
            kind = query.window.window_type
            if kind in (WindowType.TUMBLING, WindowType.SLIDING):
                key = (ctx, query.window.length, query.window.effective_slide)
                if key not in trackers:
                    trackers[key] = _FixedTracker(*key, origin)
                trackers[key].queries.append(query)
            elif kind is WindowType.SESSION:
                self.sessions.append(_SessionState(query, ctx, kinds))
            else:
                self.userdef.append(_UserDefState(query, ctx, kinds, origin))
        self.fixed = list(trackers.values())
        self.rebuild()

    # -- fixed trackers and their derived state ------------------------------------------

    def rebuild(self, records=()) -> None:
        """(Re)create the derived state of the live trackers: the kinds
        each one merges, and the cells on their punctuation grid, folded
        from ``records`` (raw ones, cells or both)."""
        operators = self.group.operators
        fold: dict[int, set] = {}
        for tracker in self.fixed:
            union = set()
            for query in tracker.queries:
                union.update(required_kinds(query, operators))
            fold.setdefault(tracker.ctx, set()).update(union)
            tracker.kinds = tuple(k for k in operators if k in union)
        self._merge_ops += self.cells.merge_ops
        self.cells = CellStore(
            PunctuationGrid(
                (self.origin, tracker.length, tracker.slide)
                for tracker in self.fixed
            ),
            {ctx: tuple(k for k in operators if k in u) for ctx, u in fold.items()},
            label=f"group {self.group.group_id}",
        )
        if self.fixed:
            for record in records:
                self.cells.fold(record)

    @property
    def merge_ops(self) -> int:
        """Merge operator executions of fixed and user-defined assembly:
        ``merge_partials`` calls folding records into cells, partials read
        by the plain scans, and the Two-Stacks streams' merges — surfaced
        as ``cluster.root_merge_ops``."""
        return self._merge_ops + self.cells.merge_ops

    def cell_records(self) -> list[SliceRecord]:
        """The live cells as ordinary slice records (checkpoint chunks)."""
        return self.cells.records(self._fixed_low(), self.covered)

    def remove_query(self, query_id: str) -> None:
        """Stop assembling ``query_id``.  A fixed tracker goes with its
        last subscriber, and children stop cutting at its punctuations:
        the cells move to the grid of the trackers left."""
        for bucket in (self.sessions, self.userdef, self.counts):
            bucket[:] = [s for s in bucket if s.query.query_id != query_id]
        cells = self.cell_records()
        for tracker in self.fixed:
            tracker.queries = [q for q in tracker.queries if q.query_id != query_id]
        self.fixed = [tracker for tracker in self.fixed if tracker.queries]
        self.rebuild(cells)

    # -- overload control (DESIGN.md §12) ----------------------------------------------

    def note_shed(self, entries) -> None:
        """Record shed coverage intervals — reported upward by descendants
        or shed at the root itself.  Must land before the coverage advance
        that closes the windows they degrade (guaranteed by the slice-seq
        protocol: shed metadata rides the batch that advances coverage)."""
        self.shed.extend(entries)

    def _shed_for(self, start: int, end: int):
        """``(shed_slices, completeness)`` for a closing window.

        Clips ledger entries to ``[start, end)`` and measures the interval
        *union*, so duplicate entries — a retransmitted batch re-reporting
        the same shed — cannot double-count lost coverage.
        """
        if not self.shed:
            return (), 1.0
        clipped = set()
        for node, shed_start, shed_end in self.shed:
            lo = max(shed_start, start)
            hi = min(shed_end, end)
            if lo < hi:
                clipped.add((node, lo, hi))
        if not clipped:
            return (), 1.0
        ordered = sorted(clipped, key=lambda entry: (entry[1], entry[2], entry[0]))
        union = 0
        cursor = start
        for _, lo, hi in ordered:
            if hi > cursor:
                union += hi - max(lo, cursor)
                cursor = hi
        completeness = max(1.0 - union / max(end - start, 1), 0.0)
        return tuple(ordered), completeness

    def _shed_intersects(self, start: int, end: int) -> bool:
        """Whether any shed coverage falls inside ``[start, end)`` — used
        to emit a window the shedding fully starved (``count == 0``)
        instead of silently skipping it like a genuinely empty one."""
        return any(
            max(shed_start, start) < min(shed_end, end)
            for _, shed_start, shed_end in self.shed
        )

    def emit(self, query, start, end, ops, count, now: int) -> None:
        """Stamp the closing window with shed coverage before emission.

        Undegraded windows take the plain call — emit callbacks without
        the overload keywords (tests, custom sinks) keep working, and the
        default path stays byte-identical.
        """
        shed_slices, completeness = self._shed_for(start, end)
        if not shed_slices:
            self._emit_cb(query, start, end, ops, count, now)
            return
        self._emit_cb(query, start, end, ops, count, now,
                      shed_slices=shed_slices, completeness=completeness)

    # -- consumption --------------------------------------------------------------------

    def consume(self, covered: int, records: list[SliceRecord], now: int) -> None:
        self.covered = covered
        touched = {self.cells.fold(r) for r in records} if self.fixed else ()
        if self.recorder.enabled and records:
            self.recorder.record(
                "root.consume",
                now,
                node=self.node_id,
                group=self.group.group_id,
                records=len(records),
                cells=len(touched),
                start=records[0].start,
                end=records[-1].end,
                covered_to=covered,
            )
        for state in self.sessions:
            self._feed_session(state, records, now)
        for state in self.counts:
            self._feed_count(state, records, now)
        self._close_fixed(now)
        self._close_sessions(now)
        for state in self.userdef:
            self._feed_userdef(state, records, now)
        self._gc()

    # -- fixed windows --------------------------------------------------------------------

    def _close_fixed(self, now: int, final: bool = False) -> None:
        """Close every due window once per tracker, in end-time order —
        the engine's order, and the FIFO discipline trackers of one
        ``(ctx, kinds, length)`` Two-Stacks stream share.  ``final``
        (end of stream) also closes the windows coverage stops inside."""
        covered = self.covered
        due = []
        for order, tracker in enumerate(self.fixed):
            start = tracker.next_close_start
            reach = 1 if final else tracker.length
            while start + reach <= covered:
                due.append((start + tracker.length, order, start))
                start += tracker.slide
            tracker.next_close_start = start
        due.sort()
        cells = self.cells
        for end, order, start in due:
            tracker = self.fixed[order]
            seen = min(end, covered)
            merged, count, merge_ops, pushed = cells.streams.close(
                cells, cells.grid.index(start), cells.grid.index(seen - 1),
                tracker.ctx, tracker.kinds, tracker.length,
                tracker.slide < tracker.length,
            )
            self._merge_ops += merge_ops
            if pushed is not None and self.recorder.enabled:
                self.recorder.record(
                    "merge.reuse",
                    seen,
                    node=self.node_id,
                    group=self.group.group_id,
                    ctx=tracker.ctx,
                    query_ids=[query.query_id for query in tracker.queries],
                    start=start,
                    pushed=pushed,
                    merge_ops=merge_ops,
                )
            if count or self._shed_intersects(start, seen):
                for query in tracker.queries:
                    self.emit(query, start, end, merged, count, now)

    # -- session windows (gap covering) ------------------------------------------------------

    def _emit_session(self, state: _SessionState, end: int, now: int) -> None:
        if state.count:
            self.emit(state.query, state.open_start, end, state.ops, state.count, now)
        state.open_start = None
        state.ops = {}
        state.count = 0

    def _feed_session(self, state: _SessionState, records, now: int) -> None:
        items = []
        for record in records:
            part = record.contexts.get(state.ctx)
            if part is None or part.count == 0:
                continue
            if part.span is None:
                raise ClusterError(
                    f"record [{record.start}..{record.end}) lacks the activity "
                    f"span required for session assembly of "
                    f"{state.query.query_id!r}"
                )
            # only the query's own operators: its finalizer reads no other
            ops = {k: part.ops[k] for k in state.kinds if k in part.ops}
            items.append((part.span[0], part.span[1], ops, part.count))
        items.sort(key=lambda item: item[0])
        for first, last, ops, count in items:
            if state.open_start is None:
                state.open_start = first
                state.last = last
                state.ops = ops
                state.count = count
                continue
            if first - state.last >= state.gap:
                self._emit_session(state, state.last + state.gap, now)
                state.open_start = first
                state.last = last
                state.ops = ops
                state.count = count
                continue
            state.last = max(state.last, last)
            state.count += count
            for kind, partial in ops.items():
                if kind in state.ops:
                    state.ops[kind] = merge_partials(kind, state.ops[kind], partial)
                else:
                    state.ops[kind] = partial

    def _close_sessions(self, now: int) -> None:
        for state in self.sessions:
            if state.open_start is not None and self.covered >= state.last + state.gap:
                self._emit_session(state, state.last + state.gap, now)

    # -- user-defined windows --------------------------------------------------------------

    def _feed_userdef(self, state: _UserDefState, records, now: int) -> None:
        """File each record into the open trip, closing a trip at its
        marker once coverage is past it.  The marker event belongs to the
        trip it ends, and its slice is labeled with the exclusive end
        ``marker + 1``: a record ending later opens the next trip."""
        added = False
        for record in records:
            for query_id, end in record.userdef_eps:
                if query_id == state.query.query_id:
                    state.eps.append(end)
                    added = True
        if added:
            state.eps.sort()
        eps = state.eps
        for record in records:
            while eps and eps[0] < self.covered and record.end > eps[0] + 1:
                self._close_trip(state, eps.pop(0), now)
            part = record.contexts.get(state.ctx)
            if part is not None:
                state.take(part)
        while eps and eps[0] < self.covered:
            self._close_trip(state, eps.pop(0), now)

    def _close_trip(self, state: _UserDefState, end: int, now: int) -> None:
        merged = {}
        for kind, bucket in state.buckets.items():
            if bucket:
                merged[kind] = read_many_partials(kind, bucket)
                self._merge_ops += len(bucket)
        if state.count or self._shed_intersects(state.prev_end, end):
            self.emit(state.query, state.prev_end, end, merged, state.count, now)
        state.prev_end = end
        state.buckets = {kind: [] for kind in state.kinds}
        state.count = 0

    # -- count windows (root-evaluated replay, Sec 5.2) ---------------------------------------

    def _feed_count(self, state: _CountState, records, now: int) -> None:
        runs = []
        for record in records:
            part = record.contexts.get(state.ctx)
            if part is not None and part.timed:
                runs.append(part.timed)
        if not runs:
            return
        # Merged on time alone: a timestamp's values keep their order in a
        # run, and ties between runs go by run order, not by value.
        for time, value in heapq.merge(*runs, key=lambda pair: pair[0]):
            if state.seen % state.slide == 0:
                state.open.append((time, OperatorSetState(state.kinds)))
            for _, ops in state.open:
                ops.insert(value)
            state.seen += 1
            still_open = []
            for start_time, ops in state.open:
                if ops.inserts >= state.length:
                    self.emit(
                        state.query,
                        start_time,
                        time,
                        ops.partials(),
                        ops.inserts,
                        now,
                    )
                else:
                    still_open.append((start_time, ops))
            state.open = still_open

    # -- garbage collection ---------------------------------------------------------------------

    def _fixed_low(self) -> int:
        """The earliest time a fixed window still to close reads: only
        fixed windows read cells."""
        return min([self.covered, *(t.next_close_start for t in self.fixed)])

    def _gc(self) -> None:
        low = self._fixed_low()
        self.cells.free_below(self.cells.grid.index(low))
        if self.shed:
            # A shed interval entirely below the start of every open
            # window can no longer degrade one still to close.
            for state in self.sessions:
                if state.open_start is not None:
                    low = min(low, state.open_start)
            for state in self.userdef:
                low = min(low, state.prev_end)
            self.shed = [entry for entry in self.shed if entry[2] > low]

    # -- end of stream ------------------------------------------------------------------------

    def finish(self, now: int) -> None:
        """Force-close everything still open (mirrors engine ``close()``)."""
        self._close_fixed(now, final=True)
        for state in self.sessions:
            if state.open_start is not None:
                self._emit_session(
                    state, min(state.last + state.gap, self.covered), now
                )
        for state in self.userdef:
            self._close_trip(state, self.covered, now)
        for state in self.counts:
            for start_time, ops in state.open:
                if ops.inserts:
                    self.emit(
                        state.query,
                        start_time,
                        self.covered,
                        ops.partials(),
                        ops.inserts,
                        now,
                    )
            state.open = []


class RootNode(Merger):
    """The Desis root: merges children, assembles windows, emits results.

    Its ticks are the merger's (silence sweep, checkpoint cadence), and the
    deployment schedules them only under a fault plan or with checkpointing
    on."""

    def __init__(self, node_id: str, children: list[str], plan: QueryPlan,
                 config: ClusterConfig, sink: ResultSink | None = None,
                 recorder=None) -> None:
        super().__init__(node_id, NodeRole.ROOT, children, plan, config, recorder)
        self.sink = sink if sink is not None else ResultSink()
        #: merge-op counts of assemblers discarded by crash recovery (the
        #: replacement assemblers restart their counters at zero)
        self.merge_ops_carried = 0
        self.degraded_windows = 0
        # Exactly-once emission ledger (DESIGN.md §8).  Every window result
        # gets an emit sequence number; after a state-losing restart the
        # deterministic replay regenerates the results already emitted
        # before the crash, and ``_suppress_below`` keeps them out of the
        # sink.
        self._emit_seq = 0
        self._suppress_below = 0
        self.duplicates_suppressed = 0

    def _reset_groups(self) -> None:
        self.assemblers: list[RootAssembler] = []
        self.last_seen: dict[str, int] = {}
        super()._reset_groups()

    def _open_group(self, group: QueryGroup, origin: int) -> None:
        super()._open_group(group, origin)
        self.assemblers.append(
            RootAssembler(group, origin, self._emit,
                          recorder=self.recorder, node_id=self.node_id)
        )

    def _emit(self, query: Query, start: int, end: int, ops, count: int,
              now: int, shed_slices=(), completeness: float = 1.0) -> None:
        seq = self._emit_seq
        self._emit_seq = seq + 1
        if seq < self._suppress_below:
            # Replayed emission from before the crash — already in the
            # sink, exactly-once says drop it here.
            self.duplicates_suppressed += 1
            return
        if completeness < 1.0:
            self.degraded_windows += 1
        if self.recorder.enabled:
            extra = {}
            if completeness < 1.0:
                extra["completeness"] = completeness
                extra["shed_slices"] = len(shed_slices)
            self.recorder.record(
                "window.emit",
                now,
                node=self.node_id,
                group=self.plan.group_of(query.query_id).group_id,
                query_id=query.query_id,
                start=start,
                end=end,
                event_count=count,
                **extra,
            )
        self.sink.emit(
            WindowResult(
                query_id=query.query_id,
                start=start,
                end=end,
                value=finalize(query.function, ops),
                event_count=count,
                emitted_at=now,
                shed_slices=tuple(shed_slices),
                completeness=completeness,
            )
        )

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        if isinstance(message, ControlMessage):
            if message.kind == "heartbeat":
                self.last_seen[message.sender] = now
                if self.liveness is not None:
                    self._beat(message.sender, now, net)
        elif isinstance(message, PartialBatchMessage):
            self._take(message, now, net)

    def finish(self, now: int) -> None:
        for assembler in self.assemblers:
            assembler.finish(now)

    def remove_query(self, query_id: str) -> None:
        """Stop assembling ``query_id`` (call before the plan drops it)."""
        group = self.plan.group_of(query_id)
        self.assemblers[group.group_id].remove_query(query_id)

    @property
    def root_merge_ops(self) -> int:
        """Total merge operator executions during window assembly
        (:attr:`RootAssembler.merge_ops` over all groups and recoveries)."""
        return self.merge_ops_carried + sum(
            assembler.merge_ops for assembler in self.assemblers
        )

    def remove_child(self, child: str) -> None:
        super().remove_child(child)
        self.last_seen.pop(child, None)

    def timed_out_nodes(self, now: int) -> list[str]:
        """Children whose heartbeats stopped for longer than the timeout."""
        timeout = self.config.node_timeout
        return sorted(
            node
            for node, seen in self.last_seen.items()
            if now - seen > timeout
        )

    # -- the role halves (repro.cluster.roles) ----------------------------------------

    def _release(self, group_id: int, covered: int, records: list[SliceRecord],
                 now: int, net: SimNetwork) -> None:
        group = self.plan.groups[group_id]
        if group.root_evaluated:
            for record in records:
                derive_ops_from_timed(record, group.operators)
        self.assemblers[group_id].consume(covered, records, now)
        self._maybe_checkpoint(now, net)

    def _note_shed(self, group_id: int, entries) -> None:
        # The root is its own final consumer: straight into the ledger.
        self.assemblers[group_id].note_shed(entries)

    def _snapshot(self, header: CheckpointMessage) -> list[SnapshotChunk]:
        header.emit_seq = self._emit_seq
        return assembler_chunks(self.node_id, self._ckpt_id, self.assemblers)

    def _reset_for_restart(self, now: int) -> dict:
        # Exactly-once emission: the emit sequence restarts (and resumes at
        # the checkpointed ledger value, if any) while ``_suppress_below``
        # remembers how far the sink already got, so the deterministic
        # replay regenerates — and drops — exactly the window results
        # emitted between the checkpoint and the crash.
        pre_crash_emits = self._emit_seq
        self.merge_ops_carried += sum(a.merge_ops for a in self.assemblers)
        self._reset_groups()
        self._emit_seq = 0
        self._suppress_below = pre_crash_emits
        return {"suppress_below": pre_crash_emits}

    def _restore(self, header: CheckpointMessage, chunks: list[SnapshotChunk]) -> None:
        self._emit_seq = header.emit_seq
        by_group = {
            chunk.group_id: chunk for chunk in chunks if chunk.kind == "assembler"
        }
        for assembler in self.assemblers:
            chunk = by_group.get(assembler.group.group_id)
            if chunk is not None:
                restore_assembler(assembler, chunk)
