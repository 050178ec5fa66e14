"""Child-coverage tracking and slice-record merging (Sec 5.1.1).

Intermediate and root nodes share this machinery: per query-group they
collect :class:`~repro.network.messages.SliceRecord` batches from their
children, advance a coverage watermark (the minimum ``covered_to`` over
all children), and release records whose interval is fully covered.

Released records from different children with the *same* interval are
merged (the paper's "intermediate slice whose length equals the number of
child nodes").  Groups containing session windows are passed through
unmerged instead: merging would fuse different children's activity spans
and hide cross-child gaps, breaking exact session assembly at the root
(Sec 5.1.2).  Their records also do not share intervals — each child cuts
where its own sessions end — so they merge where that stops mattering:
at the root, which feeds its session assembly the raw records and folds
each one, once, into the cell of fixed punctuations it lies in
(:mod:`repro.cluster.cells`), so the group's tumbling and sliding windows
read one partial per cell however many children reported.

Duplicate and missing slices are detected with the per-child
auto-incrementing slice ids (Sec 5.1.1): a batch whose ``first_slice_seq``
is behind the expected sequence has its already-seen prefix dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyzer import QueryGroup
from repro.core.errors import ClusterError
from repro.core.operators import merge_partials
from repro.core.types import WindowType
from repro.network.messages import ContextPartial, PartialBatchMessage, SliceRecord

__all__ = ["GroupMerger", "group_has_sessions", "merge_records"]


def group_has_sessions(group: QueryGroup) -> bool:
    return any(
        q.window.window_type is WindowType.SESSION for q in group.queries
    )


def _merge_context(left: ContextPartial, right: ContextPartial) -> ContextPartial:
    ops = dict(left.ops)
    for kind, partial in right.ops.items():
        if kind in ops:
            ops[kind] = merge_partials(kind, ops[kind], partial)
        else:
            ops[kind] = partial
    span = left.span
    if right.span is not None:
        span = (
            right.span
            if span is None
            else (min(span[0], right.span[0]), max(span[1], right.span[1]))
        )
    timed = None
    if left.timed is not None or right.timed is not None:
        timed = sorted((left.timed or []) + (right.timed or []))
    return ContextPartial(
        count=left.count + right.count, ops=ops, span=span, timed=timed
    )


def merge_records(records: list[SliceRecord]) -> list[SliceRecord]:
    """Merge records with identical ``[start, end)`` intervals."""
    merged: dict[tuple[int, int], SliceRecord] = {}
    for record in records:
        key = (record.start, record.end)
        existing = merged.get(key)
        if existing is None:
            merged[key] = SliceRecord(
                start=record.start,
                end=record.end,
                contexts=dict(record.contexts),
                userdef_eps=list(record.userdef_eps),
            )
            continue
        for ctx, part in record.contexts.items():
            if ctx in existing.contexts:
                existing.contexts[ctx] = _merge_context(existing.contexts[ctx], part)
            else:
                existing.contexts[ctx] = part
        existing.userdef_eps.extend(record.userdef_eps)
    return sorted(merged.values(), key=lambda r: (r.end, r.start))


@dataclass(slots=True)
class _ChildState:
    covered: int
    next_seq: int = 0
    #: buffered (record) entries not yet released
    pending: list[SliceRecord] = field(default_factory=list)


class GroupMerger:
    """Per-group record collection for one parent node."""

    def __init__(self, group: QueryGroup, children: list[str], origin: int) -> None:
        self.group = group
        self.origin = origin
        self.children: dict[str, _ChildState] = {
            child: _ChildState(covered=origin) for child in children
        }
        self.forwarded_to = origin
        self.merge_intervals = not group_has_sessions(group)
        self.duplicates_dropped = 0
        #: batches from unknown senders (e.g. in flight when their node was
        #: removed, Sec 3.2); dropped, not fatal.
        self.stray_batches = 0

    # -- membership (Sec 3.2) -----------------------------------------------------

    def add_child(self, child: str) -> None:
        if child in self.children:
            raise ClusterError(f"child {child!r} already attached")
        # A new child starts covered up to the merger's progress so it does
        # not stall coverage retroactively.
        self.children[child] = _ChildState(covered=self.forwarded_to)

    def remove_child(self, child: str) -> None:
        self.children.pop(child, None)

    # -- ingestion ------------------------------------------------------------------

    def on_batch(self, message: PartialBatchMessage) -> None:
        state = self.children.get(message.sender)
        if state is None:
            # The sender is not (or no longer) a child — e.g. its batch was
            # in flight when the node was removed from the cluster.
            self.stray_batches += 1
            return
        records = message.records
        seq = message.first_slice_seq
        if seq < state.next_seq:
            # Duplicate delivery: drop the already-seen prefix (Sec 5.1.1).
            skip = min(state.next_seq - seq, len(records))
            self.duplicates_dropped += skip
            records = records[skip:]
            seq = state.next_seq
        elif seq > state.next_seq:
            raise ClusterError(
                f"missing slices from {message.sender!r}: expected seq "
                f"{state.next_seq}, got {seq}"
            )
        state.next_seq = seq + len(records)
        state.pending.extend(records)
        if message.covered_to > state.covered:
            state.covered = message.covered_to

    def coverage(self) -> int:
        if not self.children:
            return self.forwarded_to
        return min(state.covered for state in self.children.values())

    # -- overload control (DESIGN.md §12) -------------------------------------------

    def staging_occupancy(self) -> int:
        """Pending (buffered, unreleased) slice records across all children
        — the occupancy the staging cap bounds."""
        return sum(len(state.pending) for state in self.children.values())

    def shed_oldest(self, count: int) -> list[SliceRecord]:
        """Deterministically shed the ``count`` oldest pending records.

        Whole slices only, ordered by ``(end, start, child)`` so two runs
        of the same scenario shed identical coverage.  Returns the shed
        records (the caller accounts their coverage intervals); sequence
        numbers are untouched — they were assigned upstream and releases
        simply skip the shed contributions.
        """
        if count <= 0:
            return []
        entries = sorted(
            (
                (record.end, record.start, child, record)
                for child, state in self.children.items()
                for record in state.pending
            ),
            key=lambda entry: entry[:3],
        )[:count]
        victims = {id(record) for *_, record in entries}
        for state in self.children.values():
            state.pending = [
                record
                for record in state.pending
                if id(record) not in victims
            ]
        return [record for *_, record in entries]

    def advance(self) -> tuple[int, list[SliceRecord]] | None:
        """Release records once every child covers a later boundary.

        Returns ``(covered, records)`` with records sorted by interval, or
        ``None`` when coverage has not advanced.
        """
        covered = self.coverage()
        if covered <= self.forwarded_to:
            return None
        self.forwarded_to = covered
        released: list[SliceRecord] = []
        for state in self.children.values():
            keep: list[SliceRecord] = []
            for record in state.pending:
                if record.end <= covered:
                    released.append(record)
                else:
                    keep.append(record)
            state.pending = keep
        if self.merge_intervals:
            released = merge_records(released)
        else:
            released.sort(key=lambda r: (r.end, r.start))
        return covered, released
